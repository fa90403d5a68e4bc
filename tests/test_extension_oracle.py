"""The coproduct and independence checks against the plain extension route.

The oracle below lists every hom family through ``find_homomorphisms``
(validated ``Homomorphism`` objects), runs a fresh one-solution search per
family, and re-tests every ambient algebra for membership, as the checks
once did.  The library shares one search per (source, target) pair, walks
the families depth-first on it, and tests membership once; verdicts,
retractions, errors and their order must not change.  Inputs: unions of
cycles in SP(C2, C3) (some not members), subalgebras of squares of
2-element binary algebras, products of small algebras with a constant
(for the empty family), and fixed inputs for an empty hom list, for
constants and for subsets that are not closed.
"""

import itertools

from hypothesis import example, given, settings
from hypothesis import strategies as st

from prevar.algcore import (
    AlgebraError,
    Budget,
    BudgetExceededError,
    DEFAULT_BUDGET,
    FiniteAlgebra,
    Homomorphism,
    Signature,
    UNARY_SIGNATURE,
    are_isomorphic,
    cyclic_unary,
    direct_product,
    disjoint_union,
    generated_subalgebra,
    subalgebra_on,
)
from prevar.homsearch import MembershipError, _Search, find_homomorphisms
from prevar.prevariety import (
    ChainHypothesisError,
    ChainReport,
    PrevarietyCtx,
    _independent,
    chain_independence,
    coproduct,
    has_trivial_subalgebra,
    is_coproduct,
    is_independent,
    sp,
    subfamily_independence_check,
)

# -- the oracle ---------------------------------------------------------------------


def identity_hom(alg):
    return Homomorphism(alg, alg, tuple(range(alg.size)))


def oracle_extend(source, target, pairs, budget):
    seed = {}
    for key, val in pairs:
        if seed.setdefault(key, val) != val:
            return None
    found = _Search(source, target, False, budget.max_nodes).first(sorted(seed.items()))
    return None if found is None else Homomorphism(source, target, found)


def oracle_generates_and_extends(ctx, b, maps, budget):
    union = sorted({v for m in maps for v in m.mapping})
    gen, _ = generated_subalgebra(b, union)
    if gen.size != b.size:
        return False
    for gen_alg in ctx.generators:
        hom_lists = [find_homomorphisms(m.source, gen_alg, budget=budget) for m in maps]
        for family in itertools.product(*hom_lists):
            pairs = [(m(x), g(x)) for m, g in zip(maps, family) for x in range(m.source.size)]
            if oracle_extend(b, gen_alg, pairs, budget) is None:
                return False
    return True


def oracle_is_coproduct(ctx, b, maps, budget=DEFAULT_BUDGET):
    for m in maps:
        if m.target != b:
            raise AlgebraError("a candidate coprojection does not target b")
        if not ctx.contains(m.source, budget):
            raise MembershipError("a coproduct factor is not in SP of the generators")
    if not ctx.contains(b, budget):
        return False
    return oracle_generates_and_extends(ctx, b, maps, budget)


def oracle_is_independent(ctx, ambient, subalgebras, budget=DEFAULT_BUDGET):
    ctx.require_member(ambient, budget)
    subsets = [sorted(set(s)) for s in subalgebras]
    union = sorted({x for s in subsets for x in s})
    generated, inclusion = generated_subalgebra(ambient, union)
    back = {inclusion(i): i for i in range(generated.size)}
    maps = []
    for s in subsets:
        sub, _ = subalgebra_on(ambient, s)
        maps.append(Homomorphism(sub, generated, tuple(back[x] for x in s)))
    return oracle_generates_and_extends(ctx, generated, maps, budget)


def oracle_chain_independence(a0, chain, components, budget=DEFAULT_BUDGET):
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
    ctx.require_member(a0, budget)
    retractions = []
    for i in range(1, n + 1):
        ambient, amb_inc = subalgebra_on(a0, levels[i - 1])
        to_local = {amb_inc(j): j for j in range(ambient.size)}
        a_local = [to_local[x] for x in levels[i]]
        b_local = [to_local[x] for x in components[i - 1]]
        if not oracle_is_independent(ctx, ambient, [a_local, b_local], budget):
            raise ChainHypothesisError(i, "the pair (A_i, B_i) is not independent")
        a_sub, _ = subalgebra_on(ambient, a_local)
        b_sub, _ = subalgebra_on(ambient, b_local)
        span, span_inc = generated_subalgebra(ambient, a_local + b_local)
        span_pos = {span_inc(j): j for j in range(span.size)}
        found = _Search(b_sub, a_sub, False, budget.max_nodes).first([])
        if found is None:
            retractions.append(None)
            continue
        f_i = Homomorphism(b_sub, a_sub, found)
        pairs = [(span_pos[x], k) for k, x in enumerate(a_local)]
        pairs += [(span_pos[x], f_i(k)) for k, x in enumerate(b_local)]
        retraction = oracle_extend(span, a_sub, pairs, budget)
        assert retraction is not None
        retractions.append(retraction)
    independent = oracle_is_independent(ctx, a0, components, budget)
    span_all, span_inc = generated_subalgebra(a0, levels[n] + [x for s in components for x in s])
    span_pos = {span_inc(j): j for j in range(span_all.size)}
    comp_subs = [subalgebra_on(a0, s)[0] for s in components]
    hom_lists = [find_homomorphisms(sub, last_alg, budget=budget) for sub in comp_subs]
    almost = True
    for family in itertools.product(*hom_lists):
        pairs = [(span_pos[x], k) for k, x in enumerate(levels[n])]
        pairs += [(span_pos[x], h(k)) for s, h in zip(components, family) for k, x in enumerate(s)]
        if oracle_extend(span_all, last_alg, pairs, budget) is None:
            almost = False
            break
    return ChainReport(independent, almost, retractions)


def oracle_empty_family_independent(ctx, ambient):
    # the closure of the constants against the coproduct of no algebras
    generated, _ = generated_subalgebra(ambient, [])
    return are_isomorphic(generated, coproduct(ctx, []).algebra)


def oracle_subfamily_independence_check(ctx, ambient, family, subfamily):
    if len(ctx.generators) != 1:
        raise AlgebraError("this check needs a single-generator prevariety")
    family = [sorted(set(s)) for s in family]
    if not oracle_is_independent(ctx, ambient, family):
        raise AlgebraError("the full family is not independent")
    if any(len(s) == 1 for s in family):
        gen = ctx.generators[0]
        if not (gen.size >= 2 and has_trivial_subalgebra(gen)):
            raise AlgebraError("trivial members need a nontrivial generator with an idempotent")
    if not subfamily:
        return oracle_empty_family_independent(ctx, ambient)
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


# a constant c with a unary f, or with a binary g
CONST_UNARY = Signature((("c", 0), ("f", 1)))
CONST_BINARY = Signature((("c", 0), ("g", 2)))


@st.composite
def constant_members(draw):
    """One or two algebras of size 1 to 3 over a signature with a constant,
    and a member of their prevariety: a subalgebra of a product of them."""
    sig = draw(st.sampled_from([CONST_UNARY, CONST_BINARY]))

    def algebra():
        size = draw(st.integers(1, 3))
        return FiniteAlgebra(sig, size, {
            name: draw(st.lists(st.integers(0, size - 1), min_size=size**arity,
                                max_size=size**arity))
            for name, arity in sig.ops})

    gens = [algebra() for _ in range(draw(st.integers(1, 2)))]
    product, _ = direct_product(draw(st.lists(st.sampled_from(gens), min_size=1, max_size=2)))
    seeds = draw(st.lists(st.integers(0, product.size - 1), max_size=2))
    return gens, generated_subalgebra(product, seeds)[0]


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
    sub = data.draw(st.lists(st.integers(0, len(family) - 1), max_size=len(family), unique=True))
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


# ONE lies in SP(POINTED) as the empty product; with no hom into POINTED,
# the closure of its constant is not the initial algebra
@settings(max_examples=200, deadline=None)
@given(constant_members())
@example(([POINTED], POINTED))
@example(([POINTED], ONE))
@example(([POINTED, ONE], ONE))
def test_empty_family_matches_initial_algebra(case):
    # the closure of the constants is independent iff every generator
    # receives a hom from it iff it is the initial algebra
    gens, ambient = case
    ctx = sp(*gens)
    assert _independent(ctx, ambient, [], DEFAULT_BUDGET) == oracle_empty_family_independent(
        ctx, ambient)


def test_chain_refuses_unclosed_subsets():
    # three 3-cycles 0-1-2, 3-4-5, 6-7-8 lie in SP(C3); with a fixed point
    # added they do not.  A subset that is not closed is refused by
    # subalgebra_on: a last level before the membership test, any other at
    # its step, after the hypotheses of the steps before it
    a0 = disjoint_union([cyclic_unary(3)] * 3)
    outside = disjoint_union([cyclic_unary(3)] * 2 + [cyclic_unary(1)])
    unclosed = ("AlgebraError", "subset is not closed under 'a'", None, None)
    inputs = [
        (a0, [[0, 1]], [[3, 4, 5]], unclosed),
        (outside, [[0, 1]], [[3]], unclosed),
        (outside, [[0, 1, 2]], [[3]], "MembershipError"),
        (a0, [[0, 1, 2]], [[3]], unclosed),
        (a0, [[0, 1, 2, 3], [0, 1, 2]], [[6, 7, 8], [0, 1, 2]], unclosed),
        (a0, [list(range(6)), [0, 1, 2]], [[6, 7], [0, 1, 2]], unclosed),
        (a0, [list(range(6)), [0, 1, 2]], [[6, 7, 8], [3]], unclosed),
        (a0, [list(range(6)), [0, 1, 2]], [[0, 1, 2], [3]],
         ("ChainHypothesisError", "step 1: the pair (A_i, B_i) is not independent", None, 1)),
    ]
    for ambient, chain, components, expected in inputs:
        got = outcome(lambda: chain_independence(ambient, chain, components))
        assert got == outcome(lambda: oracle_chain_independence(ambient, chain, components))
        assert (got[0] if isinstance(expected, str) else got) == expected, (chain, components)


def test_chain_refuses_an_unclosed_component_before_listing_a_part():
    # under 10 nodes the walk of a0 into A_1 ends but listing Hom(A_1, A_1)
    # overruns; a step builds both its subalgebras before it lists either,
    # so the unclosed B_1 is the error
    a0 = disjoint_union([cyclic_unary(3)] * 3)
    budget = Budget(max_nodes=10)
    assert outcome(lambda: chain_independence(a0, [list(range(6))], [[6, 7]], budget)) == \
        ("AlgebraError", "subset is not closed under 'a'", None, None)
    assert budgeted(lambda: chain_independence(a0, [list(range(6))], [[6, 7, 8]], budget)) == \
        ("BudgetExceededError", "homomorphism search exceeded 10 nodes")


# -- node budgets: the extension test fed by the membership walk --------------------
#
# The routes the checks took before every hom stream into the generators came
# from one maker: the extension test listed each part's homs with a search of
# its own, over a list of targets, and ``is_coproduct`` walked each source for
# membership with ``ctx.contains`` before that listing searched it again.  Under
# every node budget the library must end the same way: same verdict, report,
# error text, witness and step index.


def listed_every_family_extends(source, targets, fixed, parts, budget):
    for target in targets:
        stages = [[list(zip(image, h))
                   for h in _Search(part, target, False, budget.max_nodes).iterate([])]
                  for part, image in parts]
        if not _Search(source, target, False, budget.max_nodes).every_choice_extends([[fixed], *stages]):
            return False
    return True


def listed_span(ambient, subsets):
    subsets = [sorted(set(s)) for s in subsets]
    span, inclusion = generated_subalgebra(ambient, sorted({x for s in subsets for x in s}))
    position = {x: j for j, x in enumerate(inclusion.mapping)}
    return span, [(subalgebra_on(ambient, s)[0], [position[x] for x in s]) for s in subsets]


def listed_independent(ctx, ambient, subalgebras, budget):
    span, parts = listed_span(ambient, subalgebras)
    return listed_every_family_extends(span, ctx.generators, [], parts, budget)


def listed_is_independent(ctx, ambient, subalgebras, budget):
    ctx.require_member(ambient, budget)
    return listed_independent(ctx, ambient, subalgebras, budget)


def listed_is_coproduct(ctx, b, maps, budget):
    for m in maps:
        if m.target != b:
            raise AlgebraError("a candidate coprojection does not target b")
        if not ctx.contains(m.source, budget):
            raise MembershipError("a coproduct factor is not in SP of the generators")
    if not ctx.contains(b, budget):
        return False
    gen, _ = generated_subalgebra(b, sorted({v for m in maps for v in m.mapping}))
    if gen.size != b.size:
        return False
    return listed_every_family_extends(
        b, ctx.generators, [], [(m.source, m.mapping) for m in maps], budget)


def listed_chain_independence(a0, chain, components, budget):
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
    ctx.require_member(a0, budget)
    retractions = []
    for i in range(1, n + 1):
        span, parts = listed_span(a0, [levels[i], components[i - 1]])
        if not listed_every_family_extends(span, ctx.generators, [], parts, budget):
            raise ChainHypothesisError(i, "the pair (A_i, B_i) is not independent")
        (a_sub, a_pos), (b_sub, b_pos) = parts
        f_i = _Search(b_sub, a_sub, False, budget.max_nodes).first([])
        if f_i is None:
            retractions.append(None)
            continue
        pairs = [*zip(a_pos, range(len(a_pos))), *zip(b_pos, f_i)]
        retraction = _Search(span, a_sub, False, budget.max_nodes).first(pairs)
        assert retraction is not None
        retractions.append(Homomorphism(span, a_sub, retraction))
    independent = listed_independent(ctx, a0, components, budget)
    span_all, [(_, last_pos), *parts] = listed_span(a0, [levels[n], *components])
    fixed = [(p, k) for k, p in enumerate(last_pos)]
    almost = listed_every_family_extends(span_all, [last_alg], fixed, parts, budget)
    return ChainReport(independent, almost, retractions)


def budgeted(call):
    try:
        return outcome(call)
    except BudgetExceededError as e:
        return ("BudgetExceededError", str(e))


def budget_cases():
    """(label, library call, listed call), each taking a ``Budget``."""
    c2, c3 = cyclic_unary(2), cyclic_unary(3)
    r = coproduct(sp(c3), [c3, c3])
    b, maps = r.algebra, r.coprojections
    swap = Homomorphism(c3, c3, (1, 2, 0))
    yield ("coproduct of two C3", lambda bud: is_coproduct(sp(c3), b, maps, bud),
           lambda bud: listed_is_coproduct(sp(c3), b, maps, bud))
    # the identity and a rotation of C3 agree nowhere, so C3 is not their coproduct
    maps2 = [identity_hom(c3), swap]
    yield ("C3 twice into C3", lambda bud: is_coproduct(sp(c3), c3, maps2, bud),
           lambda bud: listed_is_coproduct(sp(c3), c3, maps2, bud))
    # C2 has no hom into C3, so in SP(C3) the first source is refused
    pair = disjoint_union([c2, c3])
    inc = [subalgebra_on(pair, [0, 1])[1], subalgebra_on(pair, [2, 3, 4])[1]]
    yield ("C2 + C3 in SP(C3)", lambda bud: is_coproduct(sp(c3), pair, inc, bud),
           lambda bud: listed_is_coproduct(sp(c3), pair, inc, bud))
    # C6 needs both generators to separate its points, so each source's walk
    # leaves a search into C2 and one into C3 for the extension test to go on with
    c6 = cyclic_unary(6)
    twice = disjoint_union([c6, c6])
    left, right = list(range(6)), list(range(6, 12))
    sides = [subalgebra_on(twice, left)[1], subalgebra_on(twice, right)[1]]
    yield ("C6 + C6 in SP(C2, C3)", lambda bud: is_coproduct(sp(c2, c3), twice, sides, bud),
           lambda bud: listed_is_coproduct(sp(c2, c3), twice, sides, bud))
    # one side does not generate C6 + C6: False before any hom is listed
    yield ("one side of C6 + C6", lambda bud: is_coproduct(sp(c2, c3), twice, sides[:1], bud),
           lambda bud: listed_is_coproduct(sp(c2, c3), twice, sides[:1], bud))
    for ambient, pick in ((twice, [left, right]), (twice, [left, left]), (twice, [right]),
                          (disjoint_union([c2, c3]), [[0, 1], [2, 3, 4]])):
        yield (f"independence of {pick} in {ambient.size} elements",
               lambda bud, a=ambient, p=pick: is_independent(sp(c2, c3), a, p, bud),
               lambda bud, a=ambient, p=pick: listed_is_independent(sp(c2, c3), a, p, bud))
    a0 = disjoint_union([c3] * 3)
    for chain, components in (([list(range(6)), [0, 1, 2]], [[6, 7, 8], [3, 4, 5]]),
                              ([list(range(6)), [0, 1, 2]], [[0, 1, 2], [3, 4, 5]])):
        yield (f"chain {chain} {components}",
               lambda bud, c=chain, k=components: chain_independence(a0, c, k, bud),
               lambda bud, c=chain, k=components: listed_chain_independence(a0, c, k, bud))


def test_node_budget_parity_on_fixed_inputs():
    for label, library, listed in budget_cases():
        exhausted = set()
        for max_nodes in range(1, 16):
            budget = Budget(max_nodes=max_nodes)
            got = budgeted(lambda: library(budget))
            assert got == budgeted(lambda: listed(budget)), (label, max_nodes)
            exhausted.add(isinstance(got, tuple) and got[0] == "BudgetExceededError")
        assert exhausted == {True, False}, label


def count_search_starts(monkeypatch):
    """A list that records (source id, target id) each time a search starts."""
    starts = []
    real = _Search.iterate

    def counting(self, seed):
        starts.append((id(self.A), id(self.B)))
        return real(self, seed)

    monkeypatch.setattr(_Search, "iterate", counting)
    return starts


def test_is_coproduct_starts_each_listing_once(monkeypatch):
    # the listed route walks each C3 source and b, then lists C3 -> C3 twice
    # more; the library goes on with the sources' walks
    c3 = cyclic_unary(3)
    r = coproduct(sp(c3), [c3, c3])
    starts = count_search_starts(monkeypatch)
    assert listed_is_coproduct(sp(c3), r.algebra, r.coprojections, DEFAULT_BUDGET)
    assert len(starts) == 5
    starts.clear()
    assert is_coproduct(sp(c3), r.algebra, r.coprojections)
    assert starts == [(id(c3), id(c3)), (id(c3), id(c3)), (id(r.algebra), id(c3))]


def test_parts_are_listed_only_up_to_the_first_failing_generator(monkeypatch):
    # one copy of C6 twice is not independent, and C2 already shows it: the
    # parts' homs into C3 are never listed
    c2, c3, c6 = cyclic_unary(2), cyclic_unary(3), cyclic_unary(6)
    twice = disjoint_union([c6, c6])
    starts = count_search_starts(monkeypatch)
    assert not is_independent(sp(c2, c3), twice, [range(6), range(6)])
    assert [b for _, b in starts].count(id(c3)) == 1  # the ambient's walk


def test_chain_independence_lists_each_part_once(monkeypatch):
    # n = 2 over three copies of C3: A_1, B_1 in step 1 and A_2, B_2 in step 2,
    # then B_1, B_2 again in the independence check and in the "almost" form.
    # The listed route starts those 8 part listings; the library starts each
    # of the 4 distinct parts once, after the walk of a0 into A_2
    a0 = disjoint_union([cyclic_unary(3)] * 3)
    chain, components = [list(range(6)), [0, 1, 2]], [[6, 7, 8], [3, 4, 5]]
    starts = count_search_starts(monkeypatch)
    want = listed_chain_independence(a0, chain, components, DEFAULT_BUDGET)
    assert len(starts) == 1 + 8
    starts.clear()
    assert chain_independence(a0, chain, components) == want
    walk, *parts = starts
    assert walk[0] == id(a0) and len(parts) == len({source for source, _ in parts}) == 4


def test_the_almost_independent_form_holds_the_last_level_fixed(monkeypatch):
    # with n = 0 the last level is a0 itself; the strong form passes its
    # identity as one more part, so the only search to start is the walk of
    # a0 into A_0: listing Hom(A_0, A_0) would leave A_0 free and start another
    a0 = disjoint_union([cyclic_unary(3)] * 2)
    starts = count_search_starts(monkeypatch)
    assert chain_independence(a0, [], []) == ChainReport(True, True, [])
    assert len(starts) == 1 and starts[0][0] == id(a0)
