"""The coproduct and independence checks against the plain extension route.

The oracle below lists every hom family through ``find_homomorphisms``
(validated ``Homomorphism`` objects), runs a fresh one-solution search per
family, and re-tests every ambient algebra for membership, as the checks
once did.  The library shares one search per (source, target) pair, walks
the families depth-first on it, and tests membership once; verdicts,
retractions, errors and their order must not change.  Inputs: unions of
cycles in SP(C2, C3) (some not members), subalgebras of squares of
2-element binary algebras, and fixed inputs for an empty hom list and for
constants.
"""

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from prevar.algcore import (
    AlgebraError,
    FiniteAlgebra,
    Homomorphism,
    Signature,
    UNARY_SIGNATURE,
    cyclic_unary,
    direct_product,
    disjoint_union,
    generated_subalgebra,
    identity_hom,
    subalgebra_on,
)
from prevar.homsearch import DEFAULT_BUDGET, MembershipError, SearchBudget, find_homomorphisms
from prevar.prevariety import (
    ChainHypothesisError,
    ChainReport,
    PrevarietyCtx,
    chain_independence,
    has_trivial_subalgebra,
    is_coproduct,
    is_independent,
    sp,
    subfamily_independence_check,
)

# -- the oracle ---------------------------------------------------------------------


def oracle_extend(source, target, pairs, search_budget):
    seed = {}
    for key, val in pairs:
        if seed.setdefault(key, val) != val:
            return None
    found = find_homomorphisms(
        source, target, seed=seed, budget=SearchBudget(search_budget.max_nodes, 1)
    )
    return found[0] if found else None


def oracle_generates_and_extends(ctx, b, maps, search_budget):
    union = sorted({v for m in maps for v in m.mapping})
    gen, _ = generated_subalgebra(b, union)
    if gen.size != b.size:
        return False
    for gen_alg in ctx.generators:
        hom_lists = [find_homomorphisms(m.source, gen_alg, budget=search_budget) for m in maps]
        for family in itertools.product(*hom_lists):
            pairs = [(m(x), g(x)) for m, g in zip(maps, family) for x in range(m.source.size)]
            if oracle_extend(b, gen_alg, pairs, search_budget) is None:
                return False
    return True


def oracle_is_coproduct(ctx, b, maps, search_budget=DEFAULT_BUDGET):
    for m in maps:
        if m.target != b:
            raise AlgebraError("a candidate coprojection does not target b")
        if not ctx.contains(m.source, search_budget):
            raise MembershipError("a coproduct factor is not in SP of the generators")
    if not ctx.contains(b, search_budget):
        return False
    return oracle_generates_and_extends(ctx, b, maps, search_budget)


def oracle_is_independent(ctx, ambient, subalgebras, search_budget=DEFAULT_BUDGET):
    ctx.require_member(ambient, search_budget)
    subsets = [sorted(set(s)) for s in subalgebras]
    union = sorted({x for s in subsets for x in s})
    generated, inclusion = generated_subalgebra(ambient, union)
    back = {inclusion(i): i for i in range(generated.size)}
    maps = []
    for s in subsets:
        sub, _ = subalgebra_on(ambient, s)
        maps.append(Homomorphism(sub, generated, tuple(back[x] for x in s)))
    return oracle_generates_and_extends(ctx, generated, maps, search_budget)


def oracle_chain_independence(a0, chain, components, search_budget=DEFAULT_BUDGET):
    chain = [sorted(set(s)) for s in chain]
    components = [sorted(set(s)) for s in components]
    n = len(chain)
    if len(components) != n:
        raise AlgebraError("chain and component lists differ in length")
    levels = [list(range(a0.size))] + chain
    for i in range(1, n + 1):
        if not set(levels[i]) <= set(levels[i - 1]):
            raise ChainHypothesisError(i, "chain is not descending")
        if not set(components[i - 1]) <= set(levels[i - 1]):
            raise ChainHypothesisError(i, "component leaves the previous level")
    last_alg, _ = subalgebra_on(a0, levels[n])
    ctx = PrevarietyCtx((last_alg,))
    ctx.require_member(a0, search_budget)
    retractions = []
    for i in range(1, n + 1):
        ambient, amb_inc = subalgebra_on(a0, levels[i - 1])
        to_local = {amb_inc(j): j for j in range(ambient.size)}
        a_local = [to_local[x] for x in levels[i]]
        b_local = [to_local[x] for x in components[i - 1]]
        if not oracle_is_independent(ctx, ambient, [a_local, b_local], search_budget):
            raise ChainHypothesisError(i, "the pair (A_i, B_i) is not independent")
        a_sub, _ = subalgebra_on(ambient, a_local)
        b_sub, _ = subalgebra_on(ambient, b_local)
        span, span_inc = generated_subalgebra(ambient, a_local + b_local)
        span_pos = {span_inc(j): j for j in range(span.size)}
        targets = find_homomorphisms(b_sub, a_sub, budget=SearchBudget(search_budget.max_nodes, 1))
        if not targets:
            retractions.append(None)
            continue
        f_i = targets[0]
        pairs = [(span_pos[x], k) for k, x in enumerate(a_local)]
        pairs += [(span_pos[x], f_i(k)) for k, x in enumerate(b_local)]
        retraction = oracle_extend(span, a_sub, pairs, search_budget)
        assert retraction is not None
        retractions.append(retraction)
    independent = oracle_is_independent(ctx, a0, components, search_budget)
    span_all, span_inc = generated_subalgebra(a0, levels[n] + [x for s in components for x in s])
    span_pos = {span_inc(j): j for j in range(span_all.size)}
    comp_subs = [subalgebra_on(a0, s)[0] for s in components]
    hom_lists = [find_homomorphisms(sub, last_alg, budget=search_budget) for sub in comp_subs]
    almost = True
    for family in itertools.product(*hom_lists):
        pairs = [(span_pos[x], k) for k, x in enumerate(levels[n])]
        pairs += [(span_pos[x], h(k)) for s, h in zip(components, family) for k, x in enumerate(s)]
        if oracle_extend(span_all, last_alg, pairs, search_budget) is None:
            almost = False
            break
    return ChainReport(independent, almost, retractions)


def oracle_subfamily_independence_check(ctx, ambient, family, subfamily):
    # nonempty subfamilies only: the empty one takes a path these checks skip
    if len(ctx.generators) != 1:
        raise AlgebraError("this check needs a single-generator prevariety")
    family = [sorted(set(s)) for s in family]
    if not oracle_is_independent(ctx, ambient, family):
        raise AlgebraError("the full family is not independent")
    if any(len(s) == 1 for s in family):
        gen = ctx.generators[0]
        if not (gen.size >= 2 and has_trivial_subalgebra(gen)):
            raise AlgebraError("trivial members need a nontrivial generator with an idempotent")
    return oracle_is_independent(ctx, ambient, [family[i] for i in subfamily])


def outcome(call):
    """A result or an error, as plain data that two routes can share."""
    try:
        r = call()
    except AlgebraError as e:
        return (type(e).__name__, str(e), getattr(e, "witness", None), getattr(e, "index", None))
    if isinstance(r, ChainReport):
        return (r.independent, r.almost_independent,
                [(h.source, h.target, h.mapping) if h else None for h in r.retractions])
    return r


# -- inputs -------------------------------------------------------------------------


@st.composite
def cycle_unions(draw):
    """A union of cycles (lengths 2, 3 and 6 are in SP(C2, C3), 1 and 4 not),
    with each cycle's carrier."""
    lengths = draw(st.lists(st.sampled_from([2, 3, 3, 6, 1, 4]), min_size=1, max_size=3))
    alg = disjoint_union([cyclic_unary(d) for d in lengths])
    starts = list(itertools.accumulate([0] + lengths))
    return alg, [list(range(starts[i], starts[i + 1])) for i in range(len(lengths))]


BINARY = Signature((("g", 2),))


@st.composite
def binary_square_subalgebras(draw):
    """A 2-element binary algebra and a subalgebra of its square, with the
    subalgebras generated by single elements and by pairs."""
    table = draw(st.lists(st.integers(0, 1), min_size=4, max_size=4))
    gen = FiniteAlgebra(BINARY, 2, {"g": table})
    square, _ = direct_product([gen, gen])
    seeds = draw(st.lists(st.integers(0, 3), min_size=1, max_size=3, unique=True))
    alg, _ = generated_subalgebra(square, seeds)
    parts = [generated_subalgebra(alg, [x])[1].mapping for x in range(alg.size)]
    parts += [generated_subalgebra(alg, [x, y])[1].mapping
              for x in range(alg.size) for y in range(x + 1, alg.size)]
    return gen, alg, [list(p) for p in parts]


@st.composite
def cases(draw):
    """(generators, ambient, closed subsets to pick from)."""
    if draw(st.booleans()):
        alg, comps = draw(cycle_unions())
        unions = [sorted(x for c in pick for x in c)
                  for k in range(1, len(comps) + 1) for pick in itertools.combinations(comps, k)]
        return [cyclic_unary(2), cyclic_unary(3)], alg, unions
    gen, alg, parts = draw(binary_square_subalgebras())
    return [gen], alg, parts


def picks(draw, subsets, min_size=0, max_size=3):
    return draw(st.lists(st.sampled_from(subsets), min_size=min_size, max_size=max_size))


# -- properties ---------------------------------------------------------------------


@settings(max_examples=120, deadline=None)
@given(cases(), st.data())
def test_is_independent_matches_oracle(case, data):
    gens, ambient, subsets = case
    chosen = picks(data.draw, subsets)
    ctx = sp(*gens)
    assert outcome(lambda: is_independent(ctx, ambient, chosen)) == outcome(
        lambda: oracle_is_independent(ctx, ambient, chosen))


@settings(max_examples=120, deadline=None)
@given(cases(), st.data())
def test_is_coproduct_matches_oracle(case, data):
    gens, ambient, subsets = case
    maps = [subalgebra_on(ambient, s)[1] for s in picks(data.draw, subsets)]
    ctx = sp(*gens)
    assert outcome(lambda: is_coproduct(ctx, ambient, maps)) == outcome(
        lambda: oracle_is_coproduct(ctx, ambient, maps))


@settings(max_examples=120, deadline=None)
@given(cases(), st.data())
def test_chain_independence_matches_oracle(case, data):
    _, a0, subsets = case
    # a descending chain drawn from the closed subsets, each component
    # inside the level before it (or, now and then, not)
    chain, components, level = [], [], set(range(a0.size))
    for _ in range(data.draw(st.integers(1, 2))):
        below = [s for s in subsets if set(s) <= level] or subsets
        comp = data.draw(st.sampled_from(subsets if data.draw(st.integers(0, 9)) == 0 else below))
        nxt = data.draw(st.sampled_from(below))
        chain.append(nxt)
        components.append(comp)
        level = set(nxt)
    assert outcome(lambda: chain_independence(a0, chain, components)) == outcome(
        lambda: oracle_chain_independence(a0, chain, components))


@settings(max_examples=120, deadline=None)
@given(cases(), st.data())
def test_subfamily_independence_check_matches_oracle(case, data):
    gens, ambient, subsets = case
    family = picks(data.draw, subsets, min_size=1)
    sub = data.draw(st.lists(st.integers(0, len(family) - 1), min_size=1, max_size=len(family),
                             unique=True))
    ctx = sp(gens[-1])
    assert outcome(lambda: subfamily_independence_check(ctx, ambient, family, sub)) == outcome(
        lambda: oracle_subfamily_independence_check(ctx, ambient, family, sub))


# -- fixed inputs -------------------------------------------------------------------

# the 2-element tail 1 -> 0 -> 0: into C2 it has no hom, so one hom list of
# the family product is empty and every family (there are none) extends,
# although both homs C2 -> C2 contradict the constant map C2 -> T at once
TAIL = FiniteAlgebra(UNARY_SIGNATURE, 2, {"a": [0, 0]})
# a constant c and a unary f: the one-element algebra is generated by its
# constant and has no hom into POINTED, where f moves c, but forgetting the
# constant would let it land on POINTED's fixed point
CONST_UNARY = Signature((("c", 0), ("f", 1)))
POINTED = FiniteAlgebra(CONST_UNARY, 2, {"c": [0], "f": [1, 1]})
ONE = FiniteAlgebra(CONST_UNARY, 1, {"c": [0], "f": [0]})


def fixed_cases():
    c2 = cyclic_unary(2)
    yield "empty hom list", sp(c2, TAIL), TAIL, [
        Homomorphism(c2, TAIL, (0, 0)), Homomorphism(TAIL, TAIL, (0, 1))], True
    yield "constants, no maps", sp(POINTED), ONE, [], False
    # POINTED is generated by its constant: the coproduct of no algebras
    yield "constants, initial", sp(POINTED), POINTED, [], True
    yield "constants, one map", sp(POINTED), POINTED, [identity_hom(POINTED)], True


def test_fixed_inputs_match_oracle():
    for label, ctx, b, maps, expected in fixed_cases():
        got = outcome(lambda: is_coproduct(ctx, b, maps))
        assert got == outcome(lambda: oracle_is_coproduct(ctx, b, maps)), label
        assert got == expected, label
