"""Coprojection injectivity and coproduct hom lists against the building route.

``is_compatible``, ``is_comfortable`` and the amalgamation check read the
injectivity of coprojections off per-generator hom lists, and coproducts
take those lists from the membership check's own searches.  The oracle is
the route they replace: ``require_member`` on each factor, then
``find_homomorphisms`` for each (factor, generator), then the coproduct or
pushout built by closure.  Verdicts, errors and their order, and node-budget
exhaustion must not change.  Inputs: small unary and 2-element binary
generators, with factors drawn from subalgebras of their products (members)
and from arbitrary small algebras (some not members).
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from prevar.algcore import (
    AlgebraError,
    Budget,
    BudgetExceededError,
    DEFAULT_BUDGET,
    FiniteAlgebra,
    Signature,
    UNARY_SIGNATURE,
    cyclic_unary,
    direct_product,
    disjoint_union,
    generated_subalgebra,
)
from prevar.homsearch import _Search, find_homomorphisms
from prevar.prevariety import (
    _indexed_coproduct,
    _injective_coprojections,
    _member_hom_lists,
    amalgamated_coproduct,
    coproduct,
    is_comfortable,
    is_compatible,
    sp,
)

BINARY = Signature((("g", 2),))
SWAP = FiniteAlgebra(BINARY, 2, {"g": [1, 0, 0, 1]})

# -- the oracle ---------------------------------------------------------------------


def base_key(base, embeddings):
    return lambda i, h: tuple(h[embeddings[i](s)] for s in range(base.size))


def built(ctx, factors, key=None, budget=DEFAULT_BUDGET):
    """The coproduct (or, given ``key``, pushout) the old way: each factor
    tested for membership, then every hom list searched afresh."""
    for f in factors:
        ctx.require_member(f, budget)
    lists = [[[h.mapping for h in find_homomorphisms(f, g, budget=budget)] for f in factors]
             for g in ctx.generators]
    return _indexed_coproduct(ctx, factors, key, budget, lists)


def outcome(call):
    """A result or an error, as plain data that two routes can share."""
    try:
        return call()
    except (AlgebraError, BudgetExceededError) as e:
        return (type(e).__name__, str(e), getattr(e, "witness", None))


def exhausted(result):
    return isinstance(result, tuple) and result[0] == "BudgetExceededError"


def as_data(result):
    return (result.algebra.size, result.algebra.tables,
            [c.mapping for c in result.coprojections], result.index_metadata)


# -- inputs -------------------------------------------------------------------------


@st.composite
def contexts(draw):
    """One or two generators: unary of size 1-3, or binary of size 2."""
    if draw(st.booleans()):
        sig, sizes = UNARY_SIGNATURE, st.integers(1, 3)
    else:
        sig, sizes = BINARY, st.just(2)
    gens = []
    for _ in range(draw(st.integers(1, 2))):
        n = draw(sizes)
        cells = n ** sig.ops[0][1]
        gens.append(FiniteAlgebra(sig, n, {sig.ops[0][0]: draw(
            st.lists(st.integers(0, n - 1), min_size=cells, max_size=cells))}))
    return sp(*gens)


@st.composite
def factors(draw, ctx, min_size=0, max_size=3):
    """Members (subalgebras of products of at most two generators) and,
    now and then, an arbitrary algebra of size 1-3."""
    out = []
    sig = ctx.signature
    for _ in range(draw(st.integers(min_size, max_size))):
        if draw(st.integers(0, 4)) == 0:
            n = draw(st.integers(1, 3))
            cells = n ** sig.ops[0][1]
            out.append(FiniteAlgebra(sig, n, {sig.ops[0][0]: draw(
                st.lists(st.integers(0, n - 1), min_size=cells, max_size=cells))}))
            continue
        parts = draw(st.lists(st.sampled_from(ctx.generators), min_size=1, max_size=2))
        prod, _ = direct_product(parts, signature=sig)
        seeds = draw(st.lists(st.integers(0, prod.size - 1), min_size=1, max_size=2, unique=True))
        out.append(generated_subalgebra(prod, seeds)[0])
    return out


# -- properties ---------------------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(contexts(), st.data())
def test_verdicts_match_the_built_coproduct(ctx, data):
    algs = data.draw(factors(ctx))
    want = outcome(lambda: built(ctx, algs).all_injective())
    if not exhausted(want):
        assert outcome(lambda: is_compatible(ctx, algs)) == want
    if len(algs) >= 2:
        a, b = algs[:2]
        want = outcome(lambda: built(ctx, [a, b]).coprojections[0].is_injective())
        if not exhausted(want):
            assert outcome(lambda: is_comfortable(ctx, a, b)) == want


@settings(max_examples=100, deadline=None)
@given(contexts(), st.data())
def test_keyed_verdicts_match_the_built_pushout(ctx, data):
    algs = [a for a in data.draw(factors(ctx, 2, 4)) if ctx.contains(a)]
    if not algs:
        return
    # any homs from the base, so that the key often drops families
    base, arms = algs[0], []
    for alg in algs[1:]:
        homs = find_homomorphisms(base, alg)
        if homs:
            arms.append((alg, data.draw(st.sampled_from(homs))))
    sources, key = [a for a, _ in arms], base_key(base, [e for _, e in arms])
    want = outcome(lambda: built(ctx, sources, key).all_injective())
    if exhausted(want):
        return
    lists = _member_hom_lists(ctx, sources, DEFAULT_BUDGET)
    assert _injective_coprojections(lists, sources, range(len(sources)), key) == want


@settings(max_examples=100, deadline=None)
@given(contexts(), st.data())
def test_member_hom_lists_are_the_full_listings(ctx, data):
    algs = [a for a in data.draw(factors(ctx)) if ctx.contains(a)]
    lists = _member_hom_lists(ctx, algs, DEFAULT_BUDGET)
    assert lists == [[[h.mapping for h in find_homomorphisms(f, g)] for f in algs]
                     for g in ctx.generators]


@settings(max_examples=100, deadline=None)
@given(contexts(), st.data(), st.integers(1, 12))
def test_node_budget_parity(ctx, data, max_nodes):
    algs = data.draw(factors(ctx))
    budget = Budget(max_nodes=max_nodes)
    assert (outcome(lambda: as_data(coproduct(ctx, algs, budget)))
            == outcome(lambda: as_data(built(ctx, algs, budget=budget))))


def test_node_budget_parity_on_fixed_inputs():
    c2, c3, c6 = cyclic_unary(2), cyclic_unary(3), cyclic_unary(6)
    u23 = disjoint_union([c2, c3])
    cases = [
        (sp(c2, c3), [c6, c3]),
        (sp(c2, c3), [c6, u23]),  # the second factor is no member
        (sp(u23), [c2, c3, u23]),
        (sp(c3, c2), [disjoint_union([c6, c2]), c3]),
    ]
    for ctx, algs in cases:
        base = algs[0]
        for max_nodes in range(1, 40):
            budget = Budget(max_nodes=max_nodes)
            assert (outcome(lambda: as_data(coproduct(ctx, algs, budget)))
                    == outcome(lambda: as_data(built(ctx, algs, budget=budget))))
            for emb in find_homomorphisms(base, base, injective=True)[:2]:
                arms = [(base, emb), (base, emb)]
                key = base_key(base, [emb, emb])
                assert (outcome(lambda: as_data(amalgamated_coproduct(ctx, base, arms, budget)))
                        == outcome(lambda: as_data(built(ctx, [base, base], key, budget))))


def test_signature_mismatch_raises_as_before():
    ctx, algs = sp(cyclic_unary(2)), [cyclic_unary(2), SWAP]
    want = outcome(lambda: as_data(built(ctx, algs)))
    assert want == ("AlgebraError", "membership test across signatures", None)
    assert outcome(lambda: as_data(coproduct(ctx, algs))) == want
    assert outcome(lambda: is_compatible(ctx, algs)) == want
    assert outcome(lambda: is_comfortable(ctx, *algs)) == want


def test_pushout_base_map_follows_the_first_arm():
    c6 = cyclic_unary(6)
    for emb in find_homomorphisms(c6, c6, injective=True):
        result = amalgamated_coproduct(sp(cyclic_unary(2), cyclic_unary(3)), c6, [(c6, emb)] * 2)
        first = result.coprojections[0]
        assert result.base_map.mapping == tuple(first(emb(s)) for s in range(c6.size))


def test_random_three_element_binary_generators_agree():
    # 3-element binary generators, whose coproducts can outgrow the table
    # budget: wherever the built route answers, the verdicts agree
    rng = random.Random(3)
    budget = Budget(max_carrier=200)
    for _ in range(40):
        gen = FiniteAlgebra(BINARY, 3, {"g": [rng.randrange(3) for _ in range(9)]})
        for algs in ([gen], [gen, gen], [gen, SWAP]):
            want = outcome(lambda: built(sp(gen), algs, budget=budget).all_injective())
            if not exhausted(want):
                assert outcome(lambda: is_compatible(sp(gen), algs)) == want


def test_coproduct_hom_lists_are_searched_once(monkeypatch):
    # the membership walk's searches are drained, not started again
    starts = []
    real = _Search.iterate

    def counting(self, seed):
        starts.append((id(self.A), id(self.B)))
        return real(self, seed)

    monkeypatch.setattr(_Search, "iterate", counting)
    c2, c3 = cyclic_unary(2), cyclic_unary(3)
    coproduct(sp(c2, c3, disjoint_union([c2, c3])), [cyclic_unary(6), c3, c2])
    assert len(starts) == len(set(starts)) == 9
