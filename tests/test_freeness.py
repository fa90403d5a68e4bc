import itertools
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from prevar import freeness
from prevar.algcore import AlgebraError, App, Var
from prevar.freeness import (
    CollapseRule,
    FreePairCertificate,
    FreeTermContext,
    Tag,
    Word,
    ZERO,
    apply_word,
    collapses_by_schema_instances,
    embed,
    format_free_element,
    make_tag,
    no_free_triple_bounded,
    normal_form,
    pair_hom,
    parse_free_term,
    subst_hom,
    survival_oracle_agreement,
    tag_survives,
    verify_free_pair,
    witness_triple_hom,
)

TWO_GEN = CollapseRule.TWO_GENERATED
STEM = CollapseRule.STEM_SPLIT


class TestNormalForm:
    def test_three_distinct_generators_survive(self):
        ctx = FreeTermContext(TWO_GEN, 3)
        nf = normal_form(ctx, App("t", (Var(0), Var(1), Var(2))))
        assert isinstance(nf, Tag)

    def test_one_generator_triple_collapses(self):
        ctx = FreeTermContext(TWO_GEN, 1)
        nf = normal_form(ctx, parse_free_term("t(p x, p q x, q q x)"))
        assert nf == ZERO

    def test_common_stem_split_collapses(self):
        ctx = FreeTermContext(STEM, 1)
        nf = normal_form(ctx, parse_free_term("t(x, p q x, q q x)"))
        assert nf == ZERO

    def test_rotated_triple_survives_stem_rule(self):
        ctx = FreeTermContext(STEM, 1)
        nf = normal_form(ctx, parse_free_term("t(x, q x, p x)"))
        assert nf == Tag(Word("", 0), Word("q", 0), Word("p", 0))

    def test_first_argument_growing_out_of_last_collapses(self):
        ctx = FreeTermContext(STEM, 1)
        nf = normal_form(ctx, parse_free_term("t(p p x, p x, x)"))
        assert nf == ZERO

    def test_nested_tags_and_zero_collapse(self):
        ctx = FreeTermContext(TWO_GEN, 3)
        inner = App("t", (Var(0), Var(1), Var(2)))
        assert normal_form(ctx, App("t", (inner, Var(1), Var(2)))) == ZERO
        assert normal_form(ctx, App("t", (App("0", ()), Var(1), Var(2)))) == ZERO
        assert normal_form(ctx, App("p", (inner,))) == ZERO
        assert normal_form(ctx, App("q", (App("0", ()),))) == ZERO

    def test_idempotent_through_embedding(self):
        ctx = FreeTermContext(STEM, 2)
        terms = [
            parse_free_term("t(x, q x, p x)"),
            parse_free_term("p q x"),
            parse_free_term("0"),
            App("t", (Var(0), App("p", (Var(1),)), App("q", (Var(1),)))),
        ]
        for t in terms:
            nf = normal_form(ctx, t)
            assert normal_form(ctx, embed(nf)) == nf

    def test_distinct_words_stay_distinct(self):
        ctx = FreeTermContext(TWO_GEN, 1)
        seen = set()
        for n in range(4):
            for letters in itertools.product("pq", repeat=n):
                term = parse_free_term(" ".join(letters) + " x" if letters else "x")
                nf = normal_form(ctx, term)
                assert isinstance(nf, Word)
                assert nf not in seen
                seen.add(nf)


class TestWord:
    @given(st.text(alphabet="pqx ", max_size=6))
    def test_rejects_exactly_the_letters_outside_pq(self, letters):
        bad = any(c not in "pq" for c in letters)
        try:
            Word(letters, 0)
        except AlgebraError:
            assert bad
        else:
            assert not bad

    def test_rejects_letters_that_are_not_a_string(self):
        with pytest.raises(AlgebraError):
            Word(["p"], 0)

    @pytest.mark.parametrize("gen", [-1, -2, 1.0, "0", None, True])
    def test_rejects_a_generator_that_is_not_a_natural_number(self, gen):
        with pytest.raises(AlgebraError, match="^bad word generator"):
            Word("p", gen)

    def test_bounded_words_by_length_then_letters_then_generator(self):
        assert freeness._bounded_words(1, 2) == [
            Word("", 0), Word("", 1), Word("p", 0), Word("p", 1), Word("q", 0), Word("q", 1)]


class TestSubstHom:
    def test_identity_images(self):
        ctx = FreeTermContext(STEM, 2)
        ident = subst_hom(ctx, [Word("", 0), Word("", 1)])
        for el in (ZERO, Word("pq", 1), Tag(Word("", 0), Word("q", 0), Word("p", 0))):
            assert ident(el) == el

    def test_word_concatenation(self):
        ctx = FreeTermContext(STEM, 1)
        shift = subst_hom(ctx, [Word("q", 0)])
        assert shift(Word("pq", 0)) == Word("pqq", 0)

    def test_tag_survival_reevaluated(self):
        ctx = FreeTermContext(STEM, 1)
        under_p = subst_hom(ctx, [Word("p", 0)])
        image = under_p(Tag(Word("", 0), Word("q", 0), Word("p", 0)))
        assert image == Tag(Word("p", 0), Word("qp", 0), Word("pp", 0))
        # a substitution can also kill a surviving tag
        ctx2 = FreeTermContext(STEM, 2)
        survivor = make_tag(ctx2, Word("", 1), Word("", 0), Word("q", 0))
        assert isinstance(survivor, Tag)
        collapse = subst_hom(ctx2, [Word("", 0), Word("p", 0)])
        assert collapse(survivor) == ZERO

    def test_rejects_a_generator_outside_the_context(self):
        h = subst_hom(FreeTermContext(STEM, 2), [Word("", 0), Word("p", 1)])
        with pytest.raises(AlgebraError, match="^generator 3 outside the context$"):
            h(Word("p", 3))
        with pytest.raises(AlgebraError, match="^generator 2 outside the context$"):
            h(Tag(Word("", 0), Word("", 1), Word("q", 2)))

    def test_commutes_with_operations(self):
        ctx = FreeTermContext(STEM, 2)
        images = [Word("qp", 1), Word("", 0)]
        h = subst_hom(ctx, images)
        words = [Word(w, g) for w in ("", "p", "q", "pq") for g in (0, 1)]
        for el in words:
            assert h(apply_word("p", el)) == apply_word("p", h(el))
            assert h(apply_word("q", el)) == apply_word("q", h(el))
        for u, v, w in itertools.product(words[:4], repeat=3):
            lhs = h(make_tag(ctx, u, v, w))
            rhs = make_tag(ctx, h(u), h(v), h(w))
            assert lhs == rhs


def _reference_suffixes(word):
    return [Word(word.letters[i:], word.gen) for i in range(len(word.letters) + 1)]


def _reference_collapses(rule, u, v, w):
    """The schema-instance search that rebuilt every stem for each triple."""
    if rule is TWO_GEN:
        stems = {s for word in (u, v, w) for s in _reference_suffixes(word)}
        for e, f in itertools.combinations_with_replacement(sorted(stems, key=lambda s: (s.gen, s.letters)), 2):
            if all(x.extends(e) or x.extends(f) for x in (u, v, w)):
                return True
        return False
    for s in _reference_suffixes(v):
        if v == s.prepend("p") and w == s.prepend("q"):
            return True
    for target in (v, w):
        if u.extends(target):
            return True
    return False


def _reference_sweep(predicate, rule, length_bound, num_gens):
    """The agreement sweep over every bounded triple, with the per-triple search."""
    words = freeness._bounded_words(length_bound, num_gens)
    disagreements = []
    checked = 0
    for u, v, w in itertools.product(words, repeat=3):
        checked += 1
        if predicate(rule, u, v, w) != (not _reference_collapses(rule, u, v, w)):
            disagreements.append((u, v, w))
    return checked, disagreements


class TestSurvivalOracle:
    @pytest.mark.parametrize("rule", [TWO_GEN, STEM])
    def test_agreement_small_sweep(self, rule):
        checked, disagreements = survival_oracle_agreement(rule, 2, 3)
        assert checked == 21 ** 3
        assert disagreements == []

    def test_oracle_finds_two_stem_cover(self):
        u, v, w = Word("pp", 0), Word("qp", 0), Word("", 1)
        # u and v share the stem p x0; w is its own stem
        assert collapses_by_schema_instances(TWO_GEN, u, v, w)
        assert not tag_survives(TWO_GEN, u, v, w)

    def test_rejects_negative_length(self):
        with pytest.raises(AlgebraError):
            survival_oracle_agreement(STEM, -1, 2)

    def test_rejects_no_generators(self):
        with pytest.raises(AlgebraError):
            survival_oracle_agreement(TWO_GEN, 1, 0)

    def test_oracle_split_instances(self):
        assert collapses_by_schema_instances(STEM, Word("", 0), Word("pq", 0), Word("qq", 0))
        assert not collapses_by_schema_instances(STEM, Word("", 0), Word("q", 0), Word("p", 0))

    @given(st.lists(st.tuples(st.text("pq", max_size=5), st.integers(0, 2)),
                    min_size=1, max_size=4),
           st.sampled_from([TWO_GEN, STEM]))
    def test_matches_the_per_triple_search(self, drawn, rule):
        words = [Word(letters, gen) for letters, gen in drawn]
        table = freeness._stem_table(words)
        for u, v, w in itertools.product(words, repeat=3):
            expected = _reference_collapses(rule, u, v, w)
            assert collapses_by_schema_instances(rule, u, v, w) == expected
            assert freeness._collapses(rule, u, v, w, table) == expected

    @pytest.mark.parametrize("rule", [TWO_GEN, STEM])
    def test_injected_survivals_reported_alike(self, monkeypatch, rule):
        # a predicate that lets every tag whose first argument has two letters survive
        real = freeness.tag_survives

        def faulty(rule, u, v, w):
            return len(u.letters) == 2 or real(rule, u, v, w)

        monkeypatch.setattr(freeness, "tag_survives", faulty)
        checked, disagreements = survival_oracle_agreement(rule, 2, 2)
        assert disagreements
        assert (checked, disagreements) == _reference_sweep(faulty, rule, 2, 2)


def _reference_free_pair(rule, depth):
    """The sweep that applied all three words of every triple afresh."""
    one = FreeTermContext(rule, 1)
    two = FreeTermContext(rule, 2)
    px, qx = Word("p", 0), Word("q", 0)
    pair_words = [
        Word("".join(ls), g)
        for n in range(depth + 1)
        for ls in itertools.product("pq", repeat=n)
        for g in range(2)
    ]
    seen = {}
    collisions = 0
    for word in pair_words:
        image = freeness.apply_word(word.letters, (px, qx)[word.gen])
        if image in seen and seen[image] != word:
            collisions += 1
        seen.setdefault(image, word)

    failures = []
    checked = 0
    for u, v, w in itertools.product(pair_words, repeat=3):
        checked += 1
        substituted = freeness.make_tag(
            one,
            freeness.apply_word(u.letters, (px, qx)[u.gen]),
            freeness.apply_word(v.letters, (px, qx)[v.gen]),
            freeness.apply_word(w.letters, (px, qx)[w.gen]),
        )
        if isinstance(substituted, freeness.Zero):
            abstract = freeness.make_tag(two, u, v, w)
            if not isinstance(abstract, freeness.Zero):
                failures.append((u, v, w))
    return FreePairCertificate(rule, depth, checked, collisions, failures)


class TestFreePair:
    @pytest.mark.parametrize("rule", [TWO_GEN, STEM])
    def test_bounded_depth_three(self, rule):
        cert = verify_free_pair(rule, 3)
        assert cert.failures == []
        assert cert.collisions == 0
        assert cert.word_triples_checked == 30 ** 3

    def test_stem_rule_depth_four(self):
        cert = verify_free_pair(STEM, 4)
        assert cert.failures == [] and cert.collisions == 0

    @pytest.mark.parametrize("depth", [0, 1, 2, 3])
    @pytest.mark.parametrize("rule", [TWO_GEN, STEM])
    def test_matches_the_per_triple_sweep(self, rule, depth):
        assert verify_free_pair(rule, depth) == _reference_free_pair(rule, depth)

    @pytest.mark.parametrize("depth", [1, 2])
    def test_injected_collapses_reported_alike(self, monkeypatch, depth):
        # kill the triples over generator 0 whose first word has two letters;
        # the sweep reads the predicate, the reference reads it through make_tag
        real = freeness.tag_survives

        def faulty(rule, u, v, w):
            if u.gen == v.gen == w.gen == 0 and len(u.letters) == 2:
                return False
            return real(rule, u, v, w)

        monkeypatch.setattr(freeness, "tag_survives", faulty)
        cert = verify_free_pair(STEM, depth)
        assert cert.failures
        assert cert == _reference_free_pair(STEM, depth)

    @pytest.mark.parametrize("rule", [TWO_GEN, STEM])
    def test_rejects_negative_depth(self, rule):
        with pytest.raises(AlgebraError):
            verify_free_pair(rule, -1)


class TestNoFreeTriple:
    def test_bound_three(self):
        cert = no_free_triple_bounded(3)
        assert cert.conclusive
        assert cert.word_triples_checked == 15 ** 3

    def test_bound_one(self):
        cert = no_free_triple_bounded(1)
        assert cert.conclusive

    def test_rejects_zero_bound(self):
        with pytest.raises(AlgebraError):
            no_free_triple_bounded(0)

    def test_specific_triple_collapses_under_stem_rule(self):
        ctx = FreeTermContext(STEM, 1)
        nf = normal_form(ctx, parse_free_term("t(p x, p q x, q q x)"))
        assert nf == ZERO


class TestWitnessTriple:
    def test_empty_words(self):
        w = witness_triple_hom("", "", "")
        assert w.images == (Word("", 0), Word("", 0), Word("", 0))

    def test_documented_example(self):
        w = witness_triple_hom("p", "q", "pq")
        assert w.images == (Word("p", 0), Word("q", 0), Word("pq", 0))

    def test_hundred_random_triples(self):
        rng = random.Random(20240601)
        for _ in range(100):
            words = [
                "".join(rng.choice("pq") for _ in range(rng.randint(0, 8)))
                for _ in range(3)
            ]
            assert witness_triple_hom(*words).ok

    def test_pair_hom_rejects_bare_generator(self):
        ctx = FreeTermContext(STEM, 1)
        h = pair_hom(ctx, Word("p", 0), Word("q", 0))
        with pytest.raises(AlgebraError):
            h(Word("", 0))

    def test_pair_hom_on_zero_and_tags(self):
        # the image of a tag is the normal form of t at the images of its
        # words, read off the term with px and qx substituted by hand
        ctx = FreeTermContext(STEM, 1)
        tag = normal_form(ctx, parse_free_term("t(q x, p x, q q x)"))
        assert isinstance(tag, Tag)
        for image_p, image_q, image in (("p", "q", "t(q x, p x, q q x)"),
                                        ("q", "p", "t(p x, q x, q p x)"),
                                        ("p", "p", "t(p x, p x, q p x)")):
            h = pair_hom(ctx, Word(image_p, 0), Word(image_q, 0))
            assert h(ZERO) == ZERO
            assert h(tag) == normal_form(ctx, parse_free_term(image))
        assert pair_hom(ctx, Word("p", 0), Word("p", 0))(tag) == ZERO


class TestTermSyntax:
    def test_parse_examples(self):
        assert parse_free_term("0") == App("0", ())
        assert parse_free_term("p q x") == App("p", (App("q", (Var(0),)),))
        t = parse_free_term("t(p x, p q x, q q x)")
        assert isinstance(t, App) and t.op == "t" and len(t.args) == 3

    def test_parse_nested_tags(self):
        x, y, z = Var(0), Var(1), Var(2)
        assert parse_free_term("t(t(x, q y, z), p x, t(0, y, t(x, y, z)))") == App("t", (
            App("t", (x, App("q", (y,)), z)),
            App("p", (x,)),
            App("t", (App("0", ()), y, App("t", (x, y, z)))),
        ))

    def test_format_round_trip(self):
        ctx = FreeTermContext(STEM, 3)
        for text in ("0", "x", "p q x", "t(x, q x, p x)", "t(p x, y, z)"):
            el = normal_form(ctx, parse_free_term(text))
            again = normal_form(ctx, parse_free_term(format_free_element(el)))
            assert again == el

    def test_format_rejects_a_generator_beyond_z(self):
        assert format_free_element(Word("p", 2)) == "p z"
        with pytest.raises(AlgebraError, match="^generator 3 has no name beyond x, y, z$"):
            format_free_element(Word("", 3))

    def test_bad_tokens_rejected(self):
        with pytest.raises(AlgebraError):
            parse_free_term("r x")
        with pytest.raises(AlgebraError):
            parse_free_term("t(x, y)")
