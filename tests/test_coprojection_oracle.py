"""Coprojection injectivity and hom lists from the membership walk against
the routes they replace.

``is_compatible``, ``is_comfortable`` and the amalgamation check read the
injectivity of coprojections off per-generator hom lists, and coproducts,
pushouts, relative subdirect irreducibility and compatible covers take
those lists from the membership walk's own searches (``_member_homs``).
The oracle is the route they replace: membership by ``separating_family``
on each factor, then ``find_homomorphisms`` for each (factor, generator),
then the coproduct or pushout built by closure; relative SI searching every
generator afresh; a cover judging each block by its own listing; the
amalgamation check listing each member's homs by ``find_homomorphisms``.
Verdicts, errors and their order, and node-budget exhaustion must not
change.  Inputs: small unary and 2-element binary generators, with factors
drawn from subalgebras of their products (members) and from arbitrary
small algebras (some not members).
"""

import functools
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
from prevar.algcore import _meet, _require_congruence_size
from prevar.homsearch import MembershipError, _Search, find_homomorphisms, separating_family
from prevar.prevariety import (
    AmalgamationCounterexample,
    _indexed_coproduct,
    _injective_coprojections,
    _member_hom_lists,
    _member_homs,
    _on_base,
    amalgamated_coproduct,
    check_amalgamation_bounded,
    coproduct,
    enumerate_members,
    is_comfortable,
    is_compatible,
    is_p_subdirectly_irreducible,
    minimum_compatible_cover,
    sp,
)

BINARY = Signature((("g", 2),))
SWAP = FiniteAlgebra(BINARY, 2, {"g": [1, 0, 0, 1]})

# -- the oracle ---------------------------------------------------------------------


def base_key(base, embeddings):
    return lambda i, h: tuple(h[embeddings[i](s)] for s in range(base.size))


def old_require_member(ctx, alg, budget=DEFAULT_BUDGET):
    """``require_member`` by ``separating_family``, whose homs are dropped."""
    ok, witness, _ = separating_family(alg, ctx.generators, budget)
    if not ok:
        raise MembershipError(f"algebra of size {alg.size} is not in SP of the generators; "
                              f"elements {witness} cannot be separated", witness)


def old_lists(ctx, factors, budget=DEFAULT_BUDGET):
    """Each factor tested for membership, then every hom list searched afresh."""
    for f in factors:
        old_require_member(ctx, f, budget)
    return [[[h.mapping for h in find_homomorphisms(f, g, budget=budget)] for f in factors]
            for g in ctx.generators]


def built(ctx, factors, key=None, budget=DEFAULT_BUDGET):
    """The coproduct (or, given ``key``, pushout) the old way."""
    return _indexed_coproduct(ctx, factors, key, budget, old_lists(ctx, factors, budget))


def old_rel_si(ctx, alg, budget=DEFAULT_BUDGET):
    """Relative SI with membership tested first, then each generator
    searched again from scratch for the kernels."""
    if alg.size < 2:
        raise AlgebraError("relative irreducibility needs a nontrivial algebra")
    old_require_member(ctx, alg, budget)
    _require_congruence_size(alg, budget)
    kernels = (mapping for g in ctx.generators
               for mapping in _Search(alg, g, False, budget.max_nodes).iterate({})
               if len(set(mapping)) < alg.size)
    return _meet(alg.size, kernels) is not None


def old_cover(ctx, algebras, budget=DEFAULT_BUDGET):
    """The cover with every block membership-tested and listed on its own."""
    n = len(algebras)
    if n == 0:
        return []

    @functools.cache
    def block_ok(block):
        algs = [algebras[i] for i in sorted(block)]
        return _injective_coprojections(old_lists(ctx, algs, budget), algs, range(len(algs)))

    for max_blocks in range(1, n + 1):
        blocks = []

        def place(i):
            if i == n:
                return [sorted(b) for b in blocks]
            for b in blocks:
                if block_ok(frozenset(b | {i})):
                    b.add(i)
                    found = place(i + 1)
                    if found is not None:
                        return found
                    b.remove(i)
            if len(blocks) < max_blocks and block_ok(frozenset({i})):
                blocks.append({i})
                found = place(i + 1)
                if found is not None:
                    return found
                blocks.pop()
            return None

        found = place(0)
        if found is not None:
            return found
    raise AlgebraError("no compatible cover exists (a singleton block failed)")


def old_amalgamation(ctx, max_size, budget=DEFAULT_BUDGET, include_empty_base=False):
    """The amalgamation check with each member's homs into the generators
    listed by ``find_homomorphisms``, with no membership walk."""
    members = enumerate_members(ctx, max_size, budget)

    @functools.cache
    def embeddings(i, j):
        return find_homomorphisms(members[i], members[j], budget=budget, injective=True)

    @functools.cache
    def into_generators(j):
        return [[h.mapping for h in find_homomorphisms(members[j], gen, budget=budget)]
                for gen in ctx.generators]

    for i, a in enumerate(members):
        if a.size < 1 and not include_empty_base:
            continue
        for j, b in enumerate(members):
            if b.size < a.size or not embeddings(i, j):
                continue
            for k, c in enumerate(members):
                if c.size < a.size or not embeddings(i, k):
                    continue
                lists = list(zip(into_generators(j), into_generators(k)))
                for f in embeddings(i, j):
                    for g in embeddings(i, k):
                        if not _injective_coprojections(lists, [b, c], (0, 1), _on_base([f, g])):
                            return False, AmalgamationCounterexample(a, b, c, f, g)
    return True, None


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


# -- the membership walk's hom streams ----------------------------------------------


def count_search_starts(monkeypatch):
    """A list that records (source id, target id) each time a search starts."""
    starts = []
    real = _Search.iterate

    def counting(self, seed):
        starts.append((id(self.A), id(self.B)))
        return real(self, seed)

    monkeypatch.setattr(_Search, "iterate", counting)
    return starts


@settings(max_examples=100, deadline=None)
@given(contexts(), st.data(), st.integers(1, 12))
def test_require_member_matches_separating_family(ctx, data, max_nodes):
    budget = Budget(max_nodes=max_nodes)
    for alg in data.draw(factors(ctx, 1, 2)):
        assert (outcome(lambda: ctx.require_member(alg, budget))
                == outcome(lambda: old_require_member(ctx, alg, budget)))


@settings(max_examples=100, deadline=None)
@given(contexts(), st.data())
def test_streams_are_the_full_listings(ctx, data):
    for alg in data.draw(factors(ctx, 1, 2)):
        want = outcome(lambda: old_lists(ctx, [alg]))
        assert outcome(lambda: [[list(s)] for s in _member_homs(ctx, alg, DEFAULT_BUDGET)]) == want


def test_every_factor_is_walked_before_any_list_is_drained():
    # c2^4's walk fits in 11..29 nodes and its full listing does not, so
    # there c3's membership error must come first
    c2, c3 = cyclic_unary(2), cyclic_unary(3)
    ctx, algs = sp(c2), [disjoint_union([c2] * 4), c3]
    seen = set()
    for max_nodes in range(1, 40):
        budget = Budget(max_nodes=max_nodes)
        want = outcome(lambda: as_data(built(ctx, algs, budget=budget)))
        assert outcome(lambda: as_data(coproduct(ctx, algs, budget))) == want
        assert outcome(lambda: is_compatible(ctx, algs, budget)) == want
        seen.add(want[0])
    assert seen == {"BudgetExceededError", "MembershipError"}


def test_unreached_generators_are_searched_when_pulled(monkeypatch):
    starts = count_search_starts(monkeypatch)
    c2, c3 = cyclic_unary(2), cyclic_unary(3)
    streams = _member_homs(sp(c2, c3), c2, DEFAULT_BUDGET)
    assert starts == [(id(c2), id(c2))]  # the walk separated c2's points in c2
    assert next(streams[1], None) is None
    assert starts == [(id(c2), id(c2)), (id(c2), id(c3))]


@settings(max_examples=150, deadline=None)
@given(contexts(), st.data(), st.integers(1, 12))
def test_relative_si_node_budget_parity(ctx, data, max_nodes):
    budget = Budget(max_nodes=max_nodes)
    for alg in data.draw(factors(ctx, 1, 2)):
        assert (outcome(lambda: is_p_subdirectly_irreducible(ctx, alg, budget))
                == outcome(lambda: old_rel_si(ctx, alg, budget)))


def test_relative_si_node_budget_parity_on_fixed_inputs():
    c2, c3, c6 = cyclic_unary(2), cyclic_unary(3), cyclic_unary(6)
    cases = [
        (sp(c2, c3), c6), (sp(c3, c2), c6), (sp(c2, c3), disjoint_union([c2, c2, c2])),
        (sp(c2), c3), (sp(c2, c3), disjoint_union([c2, c3])),  # no members
    ]
    for ctx, alg in cases:
        kinds = set()
        for max_nodes in range(1, 40):
            budget = Budget(max_nodes=max_nodes)
            got = outcome(lambda: is_p_subdirectly_irreducible(ctx, alg, budget))
            assert got == outcome(lambda: old_rel_si(ctx, alg, budget))
            kinds.add(got[0] if isinstance(got, tuple) else "answer")
        assert "BudgetExceededError" in kinds and len(kinds) == 2


def test_relative_si_starts_each_search_once(monkeypatch):
    # the old route started both of c6's searches twice; c2 + c2 stops at
    # a diagonal meet before the walk's unreached generator is searched
    starts = count_search_starts(monkeypatch)
    c2, c3 = cyclic_unary(2), cyclic_unary(3)
    for alg, answer, searches in ((cyclic_unary(6), False, 2), (c2, True, 2),
                                  (disjoint_union([c2, c2]), False, 1)):
        starts.clear()
        assert is_p_subdirectly_irreducible(sp(c2, c3), alg) is answer
        assert len(starts) == len(set(starts)) == searches


@settings(max_examples=100, deadline=None)
@given(contexts(), st.data(), st.integers(1, 12))
def test_cover_node_budget_parity(ctx, data, max_nodes):
    algs = data.draw(factors(ctx, 1, 4))
    budget = Budget(max_nodes=max_nodes)
    assert (outcome(lambda: minimum_compatible_cover(ctx, algs, budget))
            == outcome(lambda: old_cover(ctx, algs, budget)))


def test_cover_node_budget_parity_on_fixed_inputs():
    c2, c3, c5, c6 = (cyclic_unary(n) for n in (2, 3, 5, 6))
    u23, u25, u35 = (disjoint_union(p) for p in ([c2, c3], [c2, c5], [c3, c5]))
    cases = [
        (sp(u23, u25, u35), [c2, c3, c5, cyclic_unary(2)]),
        (sp(c2, c3), [c6, c2, c3]),
        (sp(c2, c3), [c2, c5, c3]),  # the second algebra is no member
    ]
    for ctx, algs in cases:
        for max_nodes in range(1, 40):
            budget = Budget(max_nodes=max_nodes)
            assert (outcome(lambda: minimum_compatible_cover(ctx, algs, budget))
                    == outcome(lambda: old_cover(ctx, algs, budget)))


def test_cover_starts_each_search_once(monkeypatch):
    starts = count_search_starts(monkeypatch)
    c2, c3, c5 = cyclic_unary(2), cyclic_unary(3), cyclic_unary(5)
    ctx = sp(disjoint_union([c2, c3]), disjoint_union([c2, c5]), disjoint_union([c3, c5]))
    algs = [c2, c3, c5, cyclic_unary(2)]
    cover = minimum_compatible_cover(ctx, algs)
    assert len(starts) == len(set(starts)) == len(algs) * len(ctx.generators)
    starts.clear()
    assert cover == old_cover(ctx, algs) == [[0, 1, 3], [2]]
    assert len(starts) > 2 * len(algs) * len(ctx.generators)


def test_amalgamation_node_budget_parity():
    c2, c3 = cyclic_unary(2), cyclic_unary(3)
    cases = [(sp(c2), 3, True), (sp(c2, c3), 3, False),
             (sp(FiniteAlgebra(UNARY_SIGNATURE, 3, {"a": [0, 0, 1]})), 3, False)]
    for ctx, max_size, empty in cases:
        for max_nodes in range(1, 16):
            budget = Budget(max_nodes=max_nodes)
            assert (outcome(lambda: check_amalgamation_bounded(ctx, max_size, budget, empty))
                    == outcome(lambda: old_amalgamation(ctx, max_size, budget, empty)))
