import itertools
import os
import pathlib
import subprocess
import sys
from collections import deque

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from prevar.algcore import AlgebraError, Budget
from prevar.srs import (
    EPSILON,
    Presentation,
    RewriteSystem,
    coproduct_presentation,
    critical_pairs,
    format_presentation,
    format_word,
    knuth_bendix,
    parse_presentation,
    parse_word,
    reduce,
    shortlex_key,
    words_equal,
)


def closure_classes(presentation, max_len):
    """Brute-force congruence closure on the universe of bounded words.

    Two words are joined whenever one rewrites to the other by a single
    relation application inside the universe; the classes under-approximate
    monoid equality, and agree with it on words whose proofs stay short.
    """
    alphabet = presentation.alphabet
    universe = [
        tuple(w)
        for n in range(max_len + 1)
        for w in itertools.product(alphabet, repeat=n)
    ]
    index = {w: i for i, w in enumerate(universe)}
    parent = list(range(len(universe)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[rb] = ra
            return True
        return False

    changed = True
    while changed:
        changed = False
        for w in universe:
            for lhs, rhs in presentation.relations:
                for src, dst in ((lhs, rhs), (rhs, lhs)):
                    for pos in range(len(w) - len(src) + 1):
                        if w[pos : pos + len(src)] == src:
                            out = w[:pos] + dst + w[pos + len(src) :]
                            if len(out) <= max_len and union(index[w], index[out]):
                                changed = True
    return index, find


INVERSES = Presentation(("x", "y", "z"), ((("x", "y"), ()), (("z", "x"), ())))


class TestReduce:
    def test_single_application(self):
        rs = RewriteSystem(("x", "y"), ((("x", "y"), ()),))
        assert reduce(rs, ("x", "x", "y")) == ("x",)

    def test_empty_system_is_identity(self):
        rs = RewriteSystem(("x", "y"), ())
        assert reduce(rs, ("y", "x")) == ("y", "x")

    def test_uncompleted_system_order_dependent(self):
        first = RewriteSystem(("x", "y", "z"), ((("x", "y"), ()), (("z", "x"), ())))
        second = RewriteSystem(("x", "y", "z"), ((("z", "x"), ()), (("x", "y"), ())))
        outcomes = {reduce(first, ("z", "x", "y")), reduce(second, ("z", "x", "y"))}
        assert outcomes == {("z",), ("y",)}
        # and the critical-pair check flags the divergence
        pairs = critical_pairs(first)
        assert (("y",), ("z",)) in pairs or (("z",), ("y",)) in pairs

    def test_rules_must_decrease_shortlex(self):
        with pytest.raises(AlgebraError):
            RewriteSystem(("x", "y"), ((("x",), ("y", "y")),))
        with pytest.raises(AlgebraError):
            RewriteSystem(("x", "y"), (((), ("x",)),))


class TestCriticalPairs:
    def test_self_overlap_trivially_joinable(self):
        rs = RewriteSystem(("a",), ((("a", "a"), ()),))
        pairs = critical_pairs(rs)
        assert ((("a",), ("a",))) in pairs

    def test_empty_system(self):
        assert critical_pairs(RewriteSystem(("a",), ())) == []

    def test_containment_reducts_reported(self):
        # b occurs inside ab: ab -> 1 against a(b) -> a; completion never
        # builds such a system, since it keeps its rules interreduced
        rs = RewriteSystem(("a", "b"), ((("a", "b"), ()), (("b",), ())))
        assert critical_pairs(rs) == [((), ("a",))]

    def test_overlap_reducts_reported(self):
        rs = RewriteSystem(("x", "y", "z"), ((("x", "y"), ()), (("z", "x"), ())))
        pairs = set(critical_pairs(rs))
        assert (("y",), ("z",)) in pairs


class TestKnuthBendix:
    def test_involution(self):
        result = knuth_bendix(Presentation(("a",), ((("a", "a"), ()),)))
        assert result.completed
        assert result.system.rules == ((("a", "a"), ()),)

    def test_one_sided_inverses_fall_together(self):
        result = knuth_bendix(INVERSES)
        assert result.completed
        assert (("z",), ("y",)) in result.system.rules
        assert reduce(result.system, ("x", "y")) == EPSILON
        assert reduce(result.system, ("z", "x")) == EPSILON

    def test_distinguished_pair_presentation(self):
        pres = Presentation(("u1", "u2", "x"), ((("x", "u1"), ("x", "u2")),))
        result = knuth_bendix(pres)
        assert result.completed
        assert result.system.rules == (((("x", "u2")), ("x", "u1")),)
        assert not words_equal(result.system, ("u1",), ("u2",))
        assert words_equal(result.system, ("x", "u1"), ("x", "u2"))

    def test_budget_exhaustion_returns_partial_system(self):
        result = knuth_bendix(INVERSES, Budget(max_rules=1))
        assert not result.completed
        assert result.reason is not None
        assert result.system.rules  # partial progress is reported

    @pytest.mark.parametrize("max_rules, rules", [
        (1, ((("x", "y"), ()), (("z", "x"), ()))),
        (2, ((("x", "y"), ()), (("z",), ("y",)), (("y", "x"), ()))),
    ])
    def test_partial_system_includes_the_rule_that_crossed_the_limit(self, max_rules, rules):
        # the budget is compared after the new rule joins, so the partial
        # system holds max_rules + 1 rules, the crossing one last
        result = knuth_bendix(INVERSES, Budget(max_rules=max_rules))
        assert (result.completed, result.reason) == (False, "rule budget exhausted")
        assert result.system.rules == rules
        # the complete system has three rules, so a limit of three is enough
        assert knuth_bendix(INVERSES, Budget(max_rules=3)).completed

    def test_completed_systems_have_joinable_pairs(self):
        for pres in (
            INVERSES,
            Presentation(("a",), ((("a", "a", "a"), ()),)),
            Presentation(("u1", "u2", "x"), ((("x", "u1"), ("x", "u2")),)),
        ):
            result = knuth_bendix(pres)
            assert result.completed
            for u, v in critical_pairs(result.system):
                assert reduce(result.system, u) == reduce(result.system, v)

    def test_unique_normal_forms_up_to_length_six(self):
        result = knuth_bendix(INVERSES)
        _, find = None, None
        forms = {}
        for n in range(7):
            for w in itertools.product(INVERSES.alphabet, repeat=n):
                forms.setdefault(reduce(result.system, w), []).append(w)
        # every class has exactly one irreducible member: its normal form
        for nf, members in forms.items():
            assert reduce(result.system, nf) == nf


class TestFiniteQuotient:
    def test_symmetric_group_presentation_has_six_classes(self):
        pres = Presentation(
            ("a", "b"),
            ((("a", "a"), ()), (("b", "b", "b"), ()), (("a", "b", "a", "b"), ())),
        )
        result = knuth_bendix(pres, Budget(max_rules=40, max_word_len=20))
        assert result.completed
        forms = {
            reduce(result.system, w)
            for n in range(8)
            for w in itertools.product("ab", repeat=n)
        }
        assert len(forms) == 6


class TestWordProblemOracle:
    @pytest.mark.parametrize(
        "presentation,query_len,universe_len",
        [
            (INVERSES, 5, 8),
            (Presentation(("a", "b"), ((("a", "a"), ()), (("b", "b", "b"), ()))), 5, 8),
        ],
    )
    def test_agrees_with_bounded_congruence_closure(
        self, presentation, query_len, universe_len
    ):
        result = knuth_bendix(presentation)
        assert result.completed
        index, find = closure_classes(presentation, universe_len)
        words = [
            tuple(w)
            for n in range(query_len + 1)
            for w in itertools.product(presentation.alphabet, repeat=n)
        ]
        for w1 in words:
            for w2 in words:
                completed_eq = words_equal(result.system, w1, w2)
                closure_eq = find(index[w1]) == find(index[w2])
                assert completed_eq == closure_eq, (w1, w2)


class TestCoproductPresentation:
    def test_shared_letters_identified(self):
        b1 = Presentation(("u1", "x", "y"), ((("y",), ("x", "u1")),))
        b2 = Presentation(("u2", "x", "y"), ((("y",), ("x", "u2")),))
        merged = coproduct_presentation([b1, b2], ["x", "y"])
        assert merged.alphabet == ("u1", "x", "y", "u2")
        assert len(merged.relations) == 2
        result = knuth_bendix(merged)
        assert result.completed
        assert not words_equal(result.system, ("u1",), ("u2",))
        assert words_equal(result.system, ("x", "u1"), ("x", "u2"))

    def test_adjoining_two_sided_inverse_collapses(self):
        b1 = Presentation(("u1", "x", "y"), ((("y",), ("x", "u1")),))
        b2 = Presentation(("u2", "x", "y"), ((("y",), ("x", "u2")),))
        b3 = Presentation(("x", "y", "w"), ((("x", "w"), ()), (("w", "x"), ())))
        merged = coproduct_presentation([b1, b2, b3], ["x", "y"])
        result = knuth_bendix(merged)
        assert result.completed
        assert words_equal(result.system, ("u1",), ("u2",))
        assert words_equal(result.system, ("u1",), ("w", "y"))

    def test_single_factor_unchanged(self):
        b1 = Presentation(("u1", "x"), ((("x", "u1", "u1"), ("x",)),))
        assert coproduct_presentation([b1], ["x"]) == b1

    def test_missing_shared_letter_rejected(self):
        b1 = Presentation(("u1", "x"), ())
        b2 = Presentation(("u2",), ())
        with pytest.raises(AlgebraError):
            coproduct_presentation([b1, b2], ["x"])

    def test_colliding_private_letters_rejected(self):
        b1 = Presentation(("u", "x"), ())
        b2 = Presentation(("u", "x"), ())
        with pytest.raises(AlgebraError):
            coproduct_presentation([b1, b2], ["x"])


class TestTextFormat:
    def test_parse_and_format(self):
        text = "x y z\nx y = 1\nz x = 1\n"
        pres = parse_presentation(text)
        assert pres == INVERSES
        assert format_presentation(pres) == text

    def test_fused_tokens(self):
        pres = parse_presentation("x y\nxy = 1")
        assert pres.relations == ((("x", "y"), ()),)

    def test_multicharacter_letters(self):
        assert parse_word("x u1", ("u1", "x")) == ("x", "u1")
        assert parse_word("1", ("u1", "x")) == ()
        assert format_word(()) == "1"


class TestAlphabetChecks:
    def test_duplicate_letters_rejected_by_the_presentation(self):
        with pytest.raises(AlgebraError, match="^alphabet letters must be distinct$"):
            parse_presentation("a a\na a = a")

    def test_empty_letters_rejected(self):
        # a greedy prefix match would take "" forever, so the parse runs in a
        # child process: a hang fails on the timeout instead of stalling here
        src = pathlib.Path(__file__).resolve().parent.parent / "src"
        code = ("from prevar.algcore import AlgebraError\n"
                "from prevar.srs import parse_word\n"
                "try:\n    parse_word('b', ['', 'a'])\n"
                "except AlgebraError as e:\n    print(e)\n")
        env = dict(os.environ, PYTHONPATH=str(src))
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=30)
        assert done.stdout == "alphabet letters must be nonempty\n", done.stderr
        for build in (lambda: Presentation(("", "a"), ()), lambda: RewriteSystem(("a", ""), ()),
                      lambda: parse_word("1", ("a", ""))):
            with pytest.raises(AlgebraError, match="^alphabet letters must be nonempty$"):
                build()

    @pytest.mark.parametrize("letter", ["a b", "a\tb", "1", "=", "a=b", "#x", "a\nb"])
    def test_letters_the_text_format_cannot_carry_are_rejected(self, letter):
        # with "#x" the relation line "#x = c" would read back as a comment
        for build in (lambda: Presentation((letter, "c"), (((letter,), ("c",)),)),
                      lambda: RewriteSystem(("c", letter), ())):
            with pytest.raises(AlgebraError, match="starts with '#' or holds '=' or whitespace"):
                build()

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_accepted_alphabets_round_trip_through_the_text_format(self, data):
        letters = data.draw(st.lists(st.text(min_size=1, max_size=3), min_size=1, max_size=4,
                                     unique=True))
        try:
            Presentation(tuple(letters), ())
        except AlgebraError:
            assume(False)
        word = st.lists(st.sampled_from(letters), max_size=3).map(tuple)
        pres = Presentation(tuple(letters), tuple(data.draw(st.lists(st.tuples(word, word),
                                                                     max_size=3))))
        assert parse_presentation(format_presentation(pres)) == pres

    def test_foreign_letters_rejected_by_reduce(self):
        rs = RewriteSystem(("x", "y"), ((("x", "y"), ()),))
        with pytest.raises(AlgebraError, match="^letter 'z' outside the alphabet$"):
            reduce(rs, ("x", "z"))
        with pytest.raises(AlgebraError, match="^letter 'z' outside the alphabet$"):
            words_equal(rs, ("z",), ("q",))


# -- the completion loop before its systems were built unchecked ------------------


def _reference_reduce(rs, word):
    w = tuple(word)
    while True:
        best = None
        for lhs, rhs in rs.rules:
            for pos in range(len(w) - len(lhs) + 1):
                if w[pos : pos + len(lhs)] == lhs:
                    best = (pos, lhs, rhs)
                    break
            if best:
                break
        if not best:
            return w
        pos, lhs, rhs = best
        w = w[:pos] + rhs + w[pos + len(lhs) :]


def _reference_knuth_bendix(presentation, budget):
    """A validated ``RewriteSystem`` at every step, and a one-rule probe
    system for the interreduction."""
    alphabet = presentation.alphabet
    key = lambda w: shortlex_key(alphabet, w)
    rules = []
    queue = deque(presentation.relations)

    def current_system():
        return RewriteSystem(alphabet, tuple(rules))

    while queue:
        s, t = queue.popleft()
        rs = current_system()
        s, t = _reference_reduce(rs, s), _reference_reduce(rs, t)
        if s == t:
            continue
        lhs, rhs = (s, t) if key(s) > key(t) else (t, s)
        if len(lhs) > budget.max_word_len:
            return current_system(), False, f"word length budget hit by {lhs}"
        survivors = []
        probe = RewriteSystem(alphabet, ((lhs, rhs),))
        for old_l, old_r in rules:
            if _reference_reduce(probe, old_l) != old_l:
                queue.append((old_l, old_r))
            elif _reference_reduce(probe, old_r) != old_r:
                queue.append((old_l, old_r))
            else:
                survivors.append((old_l, old_r))
        survivors.append((lhs, rhs))
        rules[:] = survivors
        if len(rules) > budget.max_rules:
            return current_system(), False, "rule budget exhausted"
        rs = current_system()
        for u, v in critical_pairs(rs):
            if _reference_reduce(rs, u) != _reference_reduce(rs, v):
                queue.append((u, v))
    return current_system(), True, None


@st.composite
def presentations(draw):
    alphabet = ("a", "b", "c")[: draw(st.integers(1, 3))]
    word = st.lists(st.sampled_from(alphabet), max_size=4).map(tuple)
    relations = draw(st.lists(st.tuples(word, word), max_size=4))
    budget = Budget(max_rules=draw(st.integers(1, 8)), max_word_len=draw(st.integers(1, 6)))
    return Presentation(alphabet, tuple(relations)), budget


@settings(max_examples=300, deadline=None)
@given(presentations())
def test_completion_matches_the_validated_loop(case):
    pres, budget = case
    result = knuth_bendix(pres, budget)
    assert (result.system, result.completed, result.reason) == _reference_knuth_bendix(pres, budget)
    # valid by construction: the public constructor accepts the system
    assert RewriteSystem(result.system.alphabet, result.system.rules) == result.system
