import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prevar.algcore import AlgebraError, BudgetExceededError, FiniteAlgebra, generated_subalgebra
from prevar.amalgam import (
    GROUP_SIGNATURE,
    AmalgamCtx,
    AmalgamElement,
    FiniteGroup,
    alternating_strings,
    coset_torsion_scan,
    cyclically_reduce,
    identity_element,
    inverse,
    is_torsion,
    multiply,
    normal_form,
    point_stabilizer,
    power,
    stabilizer_coset_survey,
    subgroup,
    sym_stab_amalgam,
    symmetric_group,
    to_word,
)


@pytest.fixture(scope="module")
def ctx():
    return sym_stab_amalgam(3)


def all_letters(ctx):
    return [(k, g) for k in (0, 1) for g in range(ctx.factors[k].size)]


def words_up_to(ctx, max_len):
    letters = all_letters(ctx)
    for n in range(max_len + 1):
        yield from itertools.product(letters, repeat=n)


class TestGroups:
    def test_symmetric_group_order(self):
        g, perms = symmetric_group(3)
        assert g.size == 6 and len(perms) == 6
        assert perms[0] == (0, 1, 2) and g.identity == 0

    def test_composition_applies_right_factor_first(self):
        g, perms = symmetric_group(3)
        index = {p: i for i, p in enumerate(perms)}
        a, b = index[(1, 0, 2)], index[(0, 2, 1)]
        composed = perms[g.mul(a, b)]
        assert composed == tuple(perms[a][perms[b][x]] for x in range(3))

    def test_stabilizer_subgroup(self):
        g, perms = symmetric_group(3)
        stab, inclusion = point_stabilizer(g, perms, 2)
        assert stab.size == 2
        assert all(perms[i][2] == 2 for i in inclusion)

    @pytest.mark.parametrize("size, tables, message", [
        (2, {"mul": [0, 1, 1, 1], "inv": [0, 1], "e": [1]}, "identity law fails"),
        (2, {"mul": [0, 1, 1, 1], "inv": [0, 1], "e": [0]}, "inverse law fails"),
        # 1 and 2 are each other's inverses, but (1 1) 2 = 0 and 1 (1 2) = 1
        (3, {"mul": [0, 1, 2, 1, 1, 0, 2, 0, 2], "inv": [0, 2, 1], "e": [0]},
         "associativity fails"),
    ], ids=["identity", "inverse", "associativity"])
    def test_group_laws_checked(self, size, tables, message):
        with pytest.raises(AlgebraError, match=f"^{message}$"):
            FiniteGroup(FiniteAlgebra(GROUP_SIGNATURE, size, tables))

    def test_built_groups_pass_the_checks(self):
        # symmetric groups and subgroups skip the checks, being groups by construction
        for n in (1, 2, 3, 4):
            group, perms = symmetric_group(n)
            FiniteGroup(group.alg)
            FiniteGroup(point_stabilizer(group, perms, n - 1)[0].alg)

    def test_symmetric_group_over_the_table_budget_refused(self):
        with pytest.raises(BudgetExceededError,
                           match="^Sym\\(7\\) has 25401600 table cells, over the budget 4000000$"):
            symmetric_group(7)

    def test_non_closed_subset_rejected(self):
        g, perms = symmetric_group(3)
        index = {p: i for i, p in enumerate(perms)}
        with pytest.raises(AlgebraError):
            subgroup(g, [0, index[(1, 0, 2)], index[(0, 2, 1)]])


def _table_loop_subgroup(group, members):
    """The restriction ``subgroup`` made before it used ``subalgebra_on``:
    the multiplication table over the sorted subset, read product by product,
    with the identity and inverses read from the parent group and the group
    laws checked by ``FiniteGroup``."""
    carrier = sorted(set(members))
    pos = {g: i for i, g in enumerate(carrier)}
    table = []
    for x in carrier:
        for y in carrier:
            v = group.mul(x, y)
            if v not in pos:
                raise AlgebraError("subset is not closed under multiplication")
            table.append(pos[v])
    if group.identity not in pos:  # a nonempty subset closed under products holds it
        raise AlgebraError("the empty subset is no subgroup")
    tables = {"mul": table, "inv": [pos[group.inv(x)] for x in carrier],
              "e": [pos[group.identity]]}
    return FiniteGroup(FiniteAlgebra(GROUP_SIGNATURE, len(carrier), tables)), tuple(carrier)


SYMMETRIC = {n: symmetric_group(n)[0] for n in (3, 4)}


class TestSubgroupOracle:
    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(sorted(SYMMETRIC)).flatmap(lambda n: st.tuples(
        st.just(SYMMETRIC[n]), st.lists(st.integers(0, SYMMETRIC[n].size - 1), max_size=3),
        st.booleans())))
    def test_matches_the_table_loop(self, case):
        # the subgroup the drawn elements generate, or the bare drawn subset
        group, picked, closed = case
        members = generated_subalgebra(group.alg, picked)[1].mapping if closed else picked
        try:
            expected = _table_loop_subgroup(group, members)
        except AlgebraError:
            with pytest.raises(AlgebraError):
                subgroup(group, members)
            return
        sub, inclusion = subgroup(group, members)
        assert sub.alg == expected[0].alg and inclusion == expected[1]


class TestBuildRefusals:
    """The ``AmalgamCtx`` constructor takes each embedding only as an
    injective homomorphism of the subgroup into its factor."""

    @pytest.fixture(scope="class")
    def parts(self):
        g, perms = symmetric_group(3)
        stab, inclusion = point_stabilizer(g, perms, 2)
        return g, stab, inclusion, {p: i for i, p in enumerate(perms)}

    def test_stabilizer_inclusion_accepted(self, parts):
        g, stab, inclusion, _ = parts
        assert AmalgamCtx((g, g), stab, (inclusion, inclusion)).embeddings == (inclusion,) * 2

    def test_non_injective_embedding_refused(self, parts):
        g, stab, inclusion, _ = parts
        with pytest.raises(AlgebraError, match="^embedding is not one-to-one on the subgroup$"):
            AmalgamCtx((g, g), stab, (inclusion, (0, 0)))

    def test_non_multiplicative_embedding_refused(self, parts):
        # the transposition goes to a 3-cycle, whose square is not the identity
        g, stab, inclusion, index = parts
        emb = (0, index[(1, 2, 0)])
        with pytest.raises(AlgebraError, match="^map does not commute with 'mul' at "):
            AmalgamCtx((g, g), stab, (emb, inclusion))

    @pytest.mark.parametrize("emb, message", [
        ((0,), "mapping length differs from the source carrier"),
        ((0, 2, 1), "mapping length differs from the source carrier"),
        ((0, 6), "mapping leaves the target carrier"),
    ])
    def test_malformed_embedding_refused(self, parts, emb, message):
        g, stab, inclusion, _ = parts
        with pytest.raises(AlgebraError, match=f"^{message}$"):
            AmalgamCtx((g, g), stab, (inclusion, emb))

    def test_transversals_are_not_an_argument(self, parts):
        g, stab, inclusion, _ = parts
        ctx = AmalgamCtx((g, g), stab, (inclusion, inclusion))
        with pytest.raises(TypeError):
            AmalgamCtx(ctx.factors, ctx.base, ctx.embeddings, ctx.transversals)

    def test_two_factors_required(self, parts):
        g, stab, inclusion, _ = parts
        with pytest.raises(AlgebraError, match="^an amalgam has two factors, each with an embedding$"):
            AmalgamCtx((g,), stab, (inclusion,))


class TestNormalForm:
    def test_subgroup_letter_has_empty_string(self, ctx):
        b_letter = ctx.embeddings[0][1]
        el = normal_form(ctx, [(0, b_letter)])
        assert el.reps == () and el.tail == 1

    def test_factor_letter_splits_once(self, ctx):
        rep = ctx.transversals[0][1]
        el = normal_form(ctx, [(0, rep)])
        assert el.reps == ((0, rep),) and el.tail == ctx.base.identity

    def test_cancellation_through_the_fold(self, ctx):
        g1, g2 = ctx.factors
        r1, r2 = ctx.transversals[0][1], ctx.transversals[1][2]
        word = [(0, r1), (1, r2), (1, g2.inv(r2)), (0, g1.inv(r1))]
        assert normal_form(ctx, word) == identity_element(ctx)

    def test_fold_is_homomorphic(self, ctx):
        # exhaustive: nf(w1 ++ w2) = nf(w1) * nf(w2) for |w1| + |w2| <= 4
        letters = all_letters(ctx)
        by_length = [
            list(itertools.product(letters, repeat=n)) for n in range(5)
        ]
        forms = {
            w: normal_form(ctx, list(w)) for group in by_length for w in group
        }
        checked = 0
        for total in range(5):
            for k1 in range(total + 1):
                for w1 in by_length[k1]:
                    for w2 in by_length[total - k1]:
                        combined = normal_form(ctx, list(w1 + w2))
                        assert combined == multiply(ctx, forms[w1], forms[w2])
                        checked += 1
        assert checked == 111049

    def test_fold_is_homomorphic_long_random(self, ctx):
        rng = random.Random(17)
        letters = all_letters(ctx)
        for _ in range(200):
            w1 = [rng.choice(letters) for _ in range(rng.randint(0, 4))]
            w2 = [rng.choice(letters) for _ in range(rng.randint(0, 4))]
            assert normal_form(ctx, w1 + w2) == multiply(
                ctx, normal_form(ctx, w1), normal_form(ctx, w2)
            )

    def test_alternation_invariant(self, ctx):
        for w in words_up_to(ctx, 3):
            el = normal_form(ctx, list(w))
            for (f1, r1), (f2, r2) in zip(el.reps, el.reps[1:]):
                assert f1 != f2
            for f, r in el.reps:
                assert r != ctx.factors[f].identity
                assert r in ctx.transversals[f]


class TestMultiply:
    def test_identity_neutral(self, ctx):
        for w in words_up_to(ctx, 2):
            el = normal_form(ctx, list(w))
            assert multiply(ctx, el, identity_element(ctx)) == el
            assert multiply(ctx, identity_element(ctx), el) == el

    def test_inverse_cancels(self, ctx):
        for w in words_up_to(ctx, 2):
            el = normal_form(ctx, list(w))
            assert multiply(ctx, el, inverse(ctx, el)) == identity_element(ctx)
            assert multiply(ctx, inverse(ctx, el), el) == identity_element(ctx)

    def test_two_letters_from_different_factors_concatenate(self, ctx):
        r1, r2 = ctx.transversals[0][1], ctx.transversals[1][1]
        e1 = normal_form(ctx, [(0, r1)])
        e2 = normal_form(ctx, [(1, r2)])
        assert multiply(ctx, e1, e2).length() == 2

    def test_associative_randomized(self, ctx):
        rng = random.Random(23)
        letters = all_letters(ctx)
        for _ in range(120):
            els = [
                normal_form(ctx, [rng.choice(letters) for _ in range(rng.randint(0, 3))])
                for _ in range(3)
            ]
            left = multiply(ctx, multiply(ctx, els[0], els[1]), els[2])
            right = multiply(ctx, els[0], multiply(ctx, els[1], els[2]))
            assert left == right


class TestTorsion:
    def test_subgroup_tail_is_torsion(self, ctx):
        for b in range(ctx.base.size):
            assert is_torsion(ctx, AmalgamElement((), b))

    def test_even_reduced_string_is_torsion_free(self, ctx):
        r1, r2 = ctx.transversals[0][1], ctx.transversals[1][1]
        el = normal_form(ctx, [(0, r1), (1, r2)])
        assert el.length() == 2
        assert not is_torsion(ctx, el)

    def test_conjugate_of_factor_element_is_torsion(self, ctx):
        g1 = ctx.factors[0]
        r1 = ctx.transversals[0][1]
        word = [(0, r1), (0, ctx.embeddings[0][1]), (0, g1.inv(r1))]
        el = normal_form(ctx, word)
        assert is_torsion(ctx, el)

    def test_power_length_grows_linearly(self, ctx):
        for w in words_up_to(ctx, 2):
            el = cyclically_reduce(ctx, normal_form(ctx, list(w)))
            if el.length() < 2:
                continue
            for k in range(1, 7):
                assert power(ctx, el, k).length() == k * el.length()

    def test_structural_and_powers_verdicts_agree_exhaustively(self, ctx):
        # is_torsion runs both routes internally and raises on mismatch
        for w in words_up_to(ctx, 3):
            is_torsion(ctx, normal_form(ctx, list(w)))


class TestCosetScan:
    def test_empty_string_contains_identity(self, ctx):
        assert coset_torsion_scan(ctx, [])

    def test_length_one_lies_in_a_factor(self, ctx):
        for s in alternating_strings(ctx, 1):
            assert coset_torsion_scan(ctx, s)

    def test_length_two_has_no_torsion(self, ctx):
        strings = list(alternating_strings(ctx, 2))
        assert strings
        for s in strings:
            assert not coset_torsion_scan(ctx, s)

    def test_parity_rule_up_to_length_four(self, ctx):
        for length in range(5):
            expected = length % 2 == 1 or length == 0
            for s in alternating_strings(ctx, length):
                assert coset_torsion_scan(ctx, s) == expected

    def test_bad_strings_rejected(self, ctx):
        with pytest.raises(AlgebraError):
            coset_torsion_scan(ctx, [(0, ctx.factors[0].identity)])
        r1 = ctx.transversals[0][1]
        with pytest.raises(AlgebraError):
            coset_torsion_scan(ctx, [(0, r1), (0, r1)])


class TestStabilizerSurvey:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_every_coset_has_an_involution(self, n):
        survey = stabilizer_coset_survey(n)
        assert len(survey.witnesses) == n
        assert survey.all_cosets_have_involutions
        for w in survey.witnesses:
            assert w.witness[n - 1] == w.image

    def test_witness_is_identity_or_transposition(self):
        survey = stabilizer_coset_survey(4)
        for w in survey.witnesses:
            moved = [x for x in range(4) if w.witness[x] != x]
            assert len(moved) in (0, 2)

    def test_bounds_enforced(self):
        with pytest.raises(AlgebraError):
            stabilizer_coset_survey(7)


class TestRoundTrip:
    def test_to_word_reconstructs(self, ctx):
        for w in words_up_to(ctx, 3):
            el = normal_form(ctx, list(w))
            assert normal_form(ctx, to_word(ctx, el)) == el


class TestRefusals:
    def test_negative_power_rejected(self, ctx):
        el = normal_form(ctx, [(0, ctx.transversals[0][1])])
        assert power(ctx, el, 0) == identity_element(ctx)
        with pytest.raises(AlgebraError, match="non-negative"):
            power(ctx, el, -1)

    def test_torsion_refuses_a_string_out_of_normal_form(self, ctx):
        with pytest.raises(AlgebraError, match="^coset strings must alternate factors$"):
            is_torsion(ctx, AmalgamElement(((0, 1), (0, 1)), 0))
        with pytest.raises(AlgebraError, match="^coset strings use non-identity transversal reps$"):
            is_torsion(ctx, AmalgamElement(((0, 0),), 0))
        with pytest.raises(AlgebraError, match="^tail outside the subgroup$"):
            is_torsion(ctx, AmalgamElement((), ctx.base.size))

    def test_entry_points_refuse_an_element_out_of_normal_form(self, ctx):
        # multiply(identity, e) used to return e unchanged, and
        # multiply(e, identity) its normal form ((0, 1),)
        e = AmalgamElement(((0, 1), (1, 1), (1, 1)), 0)
        one = identity_element(ctx)
        calls = [lambda: multiply(ctx, one, e), lambda: multiply(ctx, e, one),
                 lambda: inverse(ctx, e), lambda: cyclically_reduce(ctx, e),
                 lambda: power(ctx, e, 2)]
        for call in calls:
            with pytest.raises(AlgebraError, match="^coset strings must alternate factors$"):
                call()
        with pytest.raises(AlgebraError, match="^tail outside the subgroup$"):
            multiply(ctx, one, AmalgamElement((), -1))


# -- the list-based prepend the flat-table one replaced ---------------------------


def _reference_prepend(ctx, k, g, el):
    reps = list(el.reps)
    while reps and reps[0][0] == k:
        g = ctx.factors[k].mul(g, reps[0][1])
        reps.pop(0)
    rep, beta = ctx._split_tables[k][g]
    out = []
    for fi, ri in reps:
        h = ctx.factors[fi].mul(ctx.embeddings[fi][beta], ri)
        rep_i, beta = ctx._split_tables[fi][h]
        out.append((fi, rep_i))
    tail = ctx.base.mul(beta, el.tail)
    if rep != ctx.factors[k].identity:
        out.insert(0, (k, rep))
    return AmalgamElement(tuple(out), tail)


def _reference_normal_form(ctx, word):
    el = identity_element(ctx)
    for k, g in reversed(list(word)):
        el = _reference_prepend(ctx, k, g, el)
    return el


AMALGAMS = {n: sym_stab_amalgam(n) for n in (3, 4)}


@st.composite
def amalgam_words(draw):
    ctx = AMALGAMS[draw(st.sampled_from(sorted(AMALGAMS)))]
    letter = st.sampled_from(all_letters(ctx))
    return ctx, draw(st.lists(letter, max_size=8)), draw(st.lists(letter, max_size=8))


@settings(max_examples=300, deadline=None)
@given(amalgam_words())
def test_normal_forms_match_the_list_based_prepend(case):
    ctx, w1, w2 = case
    e1, e2 = normal_form(ctx, w1), normal_form(ctx, w2)
    assert e1 == _reference_normal_form(ctx, w1)
    expected = e2
    for k, g in reversed(to_word(ctx, e1)):
        expected = _reference_prepend(ctx, k, g, expected)
    assert multiply(ctx, e1, e2) == expected


# -- the transversal the context derived in a pass of its own ---------------------


def _least_transversal(group, emb):
    """Each coset's least index, the subgroup's own coset's the identity,
    identity first; computed coset by coset, apart from any split table."""
    image = set(emb)
    reps = []
    assigned = set()
    for g in range(group.size):
        if g in assigned:
            continue
        coset = {group.mul(g, h) for h in image}
        rep = group.identity if group.identity in coset else min(coset)
        reps.append(rep)
        assigned |= coset
    reps.sort(key=lambda r: (r != group.identity, r))
    return tuple(reps)


@st.composite
def derived_contexts(draw):
    """``sym_stab_amalgam(3)`` / ``(4)``, or a subgroup of Sym(3) / Sym(4)
    embedded into two copies of it by the inclusion conjugated by drawn elements."""
    if draw(st.booleans()):
        return AMALGAMS[draw(st.sampled_from(sorted(AMALGAMS)))]
    group = SYMMETRIC[draw(st.sampled_from(sorted(SYMMETRIC)))]
    element = st.integers(0, group.size - 1)
    members = generated_subalgebra(group.alg, draw(st.lists(element, max_size=3)))[1].mapping
    base, inclusion = subgroup(group, members)
    embeddings = tuple(
        tuple(group.mul(group.mul(c, x), group.inv(c)) for x in inclusion)
        for c in (draw(element), draw(element)))
    return AmalgamCtx((group, group), base, embeddings)


@settings(max_examples=200, deadline=None)
@given(derived_contexts())
def test_derived_transversals_and_total_split_tables(ctx):
    for k, (group, emb) in enumerate(zip(ctx.factors, ctx.embeddings)):
        assert ctx.transversals[k] == _least_transversal(group, emb)
        splits = ctx._split_tables[k]
        for g in range(group.size):
            rep, b = splits[g]
            assert rep in ctx.transversals[k] and group.mul(rep, emb[b]) == g
