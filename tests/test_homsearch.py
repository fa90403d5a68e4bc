import itertools
import os
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import prevar
from prevar.algcore import (
    AlgebraError,
    Budget,
    BudgetExceededError,
    FiniteAlgebra,
    Homomorphism,
    Signature,
    UNARY_SIGNATURE,
    congruence_generated,
    cyclic_unary,
    direct_product,
    disjoint_union,
    find_isomorphism,
    generated_subalgebra,
    quotient,
    subalgebra_on,
    trivial_algebra,
)
from prevar.homsearch import (
    MembershipError,
    _Search,
    find_homomorphisms,
    in_sp,
    separating_family,
    sp_embedding,
)

C2 = cyclic_unary(2)
C3 = cyclic_unary(3)
C6 = cyclic_unary(6)


def brute_force_homs(a, b):
    """Every carrier map checked directly against every operation table."""
    out = []
    for mapping in itertools.product(range(b.size), repeat=a.size):
        good = True
        for name, arity in a.signature.ops:
            for args in itertools.product(range(a.size), repeat=arity):
                if mapping[a.op(name, *args)] != b.op(name, *(mapping[x] for x in args)):
                    good = False
                    break
            if not good:
                break
        if good:
            out.append(mapping)
    return sorted(out)


def all_unary_algebras(max_size):
    yield FiniteAlgebra(UNARY_SIGNATURE, 0, {"a": []})
    for n in range(1, max_size + 1):
        for table in itertools.product(range(n), repeat=n):
            yield FiniteAlgebra(UNARY_SIGNATURE, n, {"a": table})


class TestFindHomomorphisms:
    def test_no_map_from_two_cycle_to_three_cycle(self):
        assert find_homomorphisms(C2, C3) == []

    def test_exactly_two_endomorphisms_of_two_cycle(self):
        homs = find_homomorphisms(C2, C2)
        assert [h.mapping for h in homs] == [(0, 1), (1, 0)]

    def test_identity_seed_contains_identity(self):
        seed = {i: i for i in range(C3.size)}
        homs = find_homomorphisms(C3, C3, seed=seed)
        assert [h.mapping for h in homs] == [(0, 1, 2)]

    def test_matches_brute_force_on_all_small_unary_pairs(self):
        algebras = list(all_unary_algebras(3))
        for a in algebras:
            for b in algebras:
                found = sorted(h.mapping for h in find_homomorphisms(a, b))
                assert found == brute_force_homs(a, b)

    def test_matches_brute_force_on_seeded_size_four_pairs(self):
        rng = random.Random(41)
        for _ in range(120):
            na, nb = rng.randint(1, 4), rng.randint(1, 4)
            a = FiniteAlgebra(UNARY_SIGNATURE, na, {"a": [rng.randrange(na) for _ in range(na)]})
            b = FiniteAlgebra(UNARY_SIGNATURE, nb, {"a": [rng.randrange(nb) for _ in range(nb)]})
            found = sorted(h.mapping for h in find_homomorphisms(a, b))
            assert found == brute_force_homs(a, b)

    def test_matches_brute_force_on_seeded_binary_pairs(self):
        rng = random.Random(3)
        sig = Signature((("m", 2),))
        for _ in range(20):
            na, nb = rng.randint(1, 3), rng.randint(1, 3)
            a = FiniteAlgebra(sig, na, {"m": [rng.randrange(na) for _ in range(na * na)]})
            b = FiniteAlgebra(sig, nb, {"m": [rng.randrange(nb) for _ in range(nb * nb)]})
            found = sorted(h.mapping for h in find_homomorphisms(a, b))
            assert found == brute_force_homs(a, b)

    def test_deterministic_order(self):
        first = [h.mapping for h in find_homomorphisms(C6, C6)]
        second = [h.mapping for h in find_homomorphisms(C6, C6)]
        assert first == second and len(first) == 6

    def test_first_solution_stops_the_search(self):
        # the identity is found on the first node; listing every
        # automorphism needs more nodes than the budget allows
        budget = Budget(max_nodes=1)
        assert _Search(C6, C6, True, budget.max_nodes).first([]) == tuple(range(6))
        assert find_isomorphism(C6, C6).mapping == tuple(range(6))
        with pytest.raises(BudgetExceededError):
            find_homomorphisms(C6, C6, injective=True, budget=budget)

    def test_budget_exhaustion_is_distinct_from_no_solutions(self):
        big = disjoint_union([C2] * 4)
        with pytest.raises(BudgetExceededError):
            find_homomorphisms(big, big, budget=Budget(max_nodes=3))
        # genuinely empty result does not raise
        assert find_homomorphisms(C2, C3, budget=Budget(max_nodes=3)) == []

    def test_empty_source_has_exactly_the_empty_map(self):
        empty = FiniteAlgebra(UNARY_SIGNATURE, 0, {"a": []})
        homs = find_homomorphisms(empty, C2)
        assert len(homs) == 1 and homs[0].mapping == ()
        assert find_homomorphisms(C2, empty) == []


def embeds(a, b):
    """Whether ``a`` embeds in ``b``, by the injective search, which must
    agree with the brute-force list of every homomorphism."""
    found = bool(find_homomorphisms(a, b, injective=True))
    assert found == any(len(set(m)) == len(m) for m in brute_force_homs(a, b))
    return found


class TestExistsEmbedding:
    """Whether an embedding exists, as ``find_homomorphisms(...,
    injective=True)`` answers it."""

    def test_summand_inclusion(self):
        assert embeds(C2, disjoint_union([C2, C3]))

    def test_no_map_at_all(self):
        assert not embeds(C2, C3)

    def test_six_cycle_into_product(self):
        prod, _ = direct_product([C2, C3])
        assert embeds(C6, prod)

    def test_transitive_on_generated_instances(self):
        chain = [C2, disjoint_union([C2, C2]), disjoint_union([C2, C2, C3])]
        assert embeds(chain[0], chain[1])
        assert embeds(chain[1], chain[2])
        assert embeds(chain[0], chain[2])

    def test_size_prevents_embedding(self):
        assert not embeds(C6, C3)


class TestInSP:
    def test_six_cycle_in_sp_of_two_and_three(self):
        assert in_sp(C6, [C2, C3])

    def test_union_not_in_sp_of_parts(self):
        assert not in_sp(disjoint_union([C2, C3]), [C2, C3])

    def test_trivial_always_member(self):
        assert in_sp(trivial_algebra(UNARY_SIGNATURE), [C2])

    def test_empty_member_when_no_constants(self):
        assert in_sp(FiniteAlgebra(UNARY_SIGNATURE, 0, {"a": []}), [C2])

    def test_monotone_in_generators(self):
        assert not in_sp(C6, [C2])
        assert in_sp(C6, [C2, C3])
        assert in_sp(C2, [C2])  # every algebra belongs to its own class

    def test_witness_pair_reported(self):
        ok, witness, _ = separating_family(disjoint_union([C2, C3]), [C2, C3])
        assert not ok and witness == (0, 1)

    def test_membership_yields_explicit_embedding(self):
        ok, _, homs = separating_family(C6, [C2, C3])
        assert ok and len(homs) == 15  # one separating hom per element pair
        square = disjoint_union([C2, C2])
        prod, injection = sp_embedding(square, [C2])
        assert injection.is_injective()
        assert prod.size == 2 ** 6  # one two-element factor per pair

    def test_embedding_product_is_bounded(self):
        square = disjoint_union([C2, C2])  # the product has 64 elements
        with pytest.raises(BudgetExceededError, match="^SP product has 64 elements, over budget 63$"):
            sp_embedding(square, [C2], Budget(max_carrier=63))
        with pytest.raises(BudgetExceededError, match="^operation table too large"):
            sp_embedding(square, [C2], Budget(max_table_cells=63))

    def test_semilattice_cube_embedding_raises_promptly(self):
        # one 2-element factor per pair of the 8 elements: 2**28 elements,
        # far too many to build, so the budget must refuse them first
        code = ("from prevar.algcore import BudgetExceededError, FiniteAlgebra, Signature, "
                "direct_product\n"
                "from prevar.homsearch import sp_embedding\n"
                "l2 = FiniteAlgebra(Signature((('m', 2),)), 2, {'m': [0, 0, 0, 1]})\n"
                "cube, _ = direct_product([l2] * 3)\n"
                "try:\n"
                "    sp_embedding(cube, [l2])\n"
                "except BudgetExceededError as e:\n"
                "    print(e)\n")
        env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(prevar.__file__))}
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env, timeout=10)
        assert proc.returncode == 0
        assert proc.stdout == "SP product has 268435456 elements, over budget 10000\n"

    def test_embedding_fails_with_witness(self):
        with pytest.raises(MembershipError) as err:
            sp_embedding(disjoint_union([C2, C3]), [C2, C3])
        assert err.value.witness == (0, 1)


class TestSeeds:
    """Seeds are plain dicts from source elements to target elements."""

    def test_consistent_seed_is_extended(self):
        homs = find_homomorphisms(C6, C6, seed={0: 2})
        assert [h.mapping for h in homs] == [(2, 3, 4, 5, 0, 1)]

    @pytest.mark.parametrize("seed", [{0: 0, 1: 2}, {0: 1, 3: 3}])
    def test_contradictory_seed_has_no_extension(self, seed):
        assert find_homomorphisms(C6, C6, seed=seed) == []
        assert find_homomorphisms(C6, C6, seed=seed, injective=True) == []

    @pytest.mark.parametrize("seed", [{0: 6}, {6: 0}, {-1: 0}, {0: -1}])
    def test_off_carrier_seed_rejected(self, seed):
        with pytest.raises(AlgebraError, match="^seed assignment is off a carrier$"):
            find_homomorphisms(C6, C6, seed=seed)

    def test_seed_checked_with_an_empty_carrier(self):
        empty = FiniteAlgebra(UNARY_SIGNATURE, 0, {"a": []})
        for source, target, seed in [(empty, empty, {0: 0}), (C2, empty, {5: 5}),
                                     (empty, C2, {0: 0})]:
            with pytest.raises(AlgebraError, match="^seed assignment is off a carrier$"):
                find_homomorphisms(source, target, seed=seed)


# -- cross-checks of the lazy, table-indexed search against eager references ----------


def eager_search(a, b, seed, injective):
    """The eager search the generator replaced, kept as the order reference:
    every solution collected by recursion, cells evaluated through ``op``."""
    assignment, used, solutions = [None] * a.size, [0] * b.size, []
    constraints = [
        (name, args, a.op(name, *args))
        for name, arity in a.signature.ops if arity
        for args in itertools.product(range(a.size), repeat=arity)
    ]

    def assign_all(pending):
        queue = list(pending)
        while queue:
            x, v = queue.pop()
            if assignment[x] is not None:
                if assignment[x] != v:
                    return False
                continue
            if injective and used[v]:
                return False
            assignment[x] = v
            used[v] += 1
            for name, args, result in constraints:
                if x not in args and x != result:
                    continue
                vals = [assignment[t] for t in args]
                if None in vals:
                    continue
                forced = b.op(name, *vals)
                if assignment[result] is None:
                    queue.append((result, forced))
                elif assignment[result] != forced:
                    return False
        return True

    def candidates(x):
        out = []
        for v in range(b.size):
            if injective and used[v]:
                continue
            ok = True
            for name, args, result in constraints:
                if x not in args and x != result:
                    continue
                vals = [assignment[t] if t != x else v for t in args]
                if None in vals:
                    continue
                forced = b.op(name, *vals)
                res = assignment[result] if result != x else v
                if (res is not None and res != forced) or (
                        injective and res is None and used[forced]):
                    ok = False
                    break
            if ok:
                out.append(v)
        return out

    def extend():
        unassigned = [x for x in range(a.size) if assignment[x] is None]
        if not unassigned:
            solutions.append(tuple(assignment))
            return
        best = None
        for x in unassigned:
            cands = candidates(x)
            if best is None or (len(cands), x) < (len(best[1]), best[0]):
                best = (x, cands)
            if not cands:
                break
        x, cands = best
        for v in cands:
            trail = (list(assignment), list(used))
            if assign_all([(x, v)]):
                extend()
            assignment[:], used[:] = trail

    constants = [(a.op(name), b.op(name)) for name, arity in a.signature.ops if arity == 0]
    if assign_all(sorted(seed.items()) + constants):
        extend()
    return solutions


def eager_separating_family(a, generators):
    """The separating family as computed before the search became lazy:
    every homomorphism into every generator listed first."""
    if a.size <= 1:
        return True, None, []
    hom_lists = [find_homomorphisms(a, g) for g in generators]
    chosen = []
    for x in range(a.size):
        for y in range(x + 1, a.size):
            sep = next((h for homs in hom_lists for h in homs if h(x) != h(y)), None)
            if sep is None:
                return False, (x, y), []
            chosen.append(sep)
    return True, None, chosen


SMALL_SIGNATURES = [
    UNARY_SIGNATURE,
    Signature((("m", 2),)),
    Signature((("c", 0), ("a", 1))),
    Signature((("c", 0), ("m", 2))),
]


@st.composite
def small_algebra(draw, sig, min_size=1, max_size=None):
    binary = any(arity == 2 for _, arity in sig.ops)
    size = draw(st.integers(min_size, max_size or (4 if binary else 5)))
    return FiniteAlgebra(sig, size, {
        name: draw(st.lists(st.integers(0, size - 1), min_size=size**arity,
                            max_size=size**arity))
        for name, arity in sig.ops
    })


@st.composite
def algebra_pairs(draw):
    sig = draw(st.sampled_from(SMALL_SIGNATURES))
    return draw(small_algebra(sig)), draw(small_algebra(sig))


@settings(max_examples=150, deadline=None)
@given(algebra_pairs(), st.booleans(), st.data())
def test_search_generator_matches_eager_order_and_brute_force(pair, injective, data):
    a, b = pair
    seed = data.draw(st.dictionaries(st.integers(0, a.size - 1), st.integers(0, b.size - 1),
                                     max_size=1))
    found = list(_Search(a, b, injective, 10**6).iterate(seed.items()))
    assert found == eager_search(a, b, seed, injective)
    if not seed and not injective:
        assert sorted(found) == brute_force_homs(a, b)


@st.composite
def membership_cases(draw):
    sig = draw(st.sampled_from(SMALL_SIGNATURES))
    gens = draw(st.lists(small_algebra(sig), min_size=1, max_size=3))
    return draw(small_algebra(sig)), gens


@settings(max_examples=150, deadline=None)
@given(membership_cases())
def test_lazy_separating_family_matches_eager_reference(case):
    a, gens = case
    ok, witness, homs = separating_family(a, gens)
    ref_ok, ref_witness, ref_homs = eager_separating_family(a, gens)
    assert (ok, witness) == (ref_ok, ref_witness)
    assert [(h.target, h.mapping) for h in homs] == [(h.target, h.mapping) for h in ref_homs]


def table_separating_family(a, generators, budget):
    """``separating_family`` as it was when the walk itself kept a table of
    each pair's first separating homomorphism."""
    for g in generators:
        if g.signature != a.signature:
            raise AlgebraError("membership test across signatures")
    pending = [(x, y) for x in range(a.size) for y in range(x + 1, a.size)]
    chosen = {}
    for g in generators:
        if not pending:
            break
        for mapping in _Search(a, g, False, budget.max_nodes).iterate([]):
            separated = [(x, y) for x, y in pending if mapping[x] != mapping[y]]
            if separated:
                chosen.update(dict.fromkeys(separated, Homomorphism._unchecked(a, g, mapping)))
                pending = [p for p in pending if p not in chosen]
                if not pending:
                    break
    if pending:
        return False, pending[0], []
    return True, None, [chosen[(x, y)] for x in range(a.size) for y in range(x + 1, a.size)]


@st.composite
def walk_cases(draw):
    """A small unary algebra with unary generators, or a small binary algebra
    (now and then a subalgebra of a product of the generators) with
    2-element binary generators."""
    if draw(st.booleans()):
        gens = draw(st.lists(small_algebra(UNARY_SIGNATURE), min_size=1, max_size=3))
        return draw(small_algebra(UNARY_SIGNATURE, min_size=2)), gens
    sig = Signature((("m", 2),))
    gens = draw(st.lists(small_algebra(sig, min_size=2, max_size=2), min_size=1, max_size=2))
    if draw(st.booleans()):
        return draw(small_algebra(sig, min_size=2)), gens
    product, _ = direct_product(draw(st.lists(st.sampled_from(gens), min_size=1, max_size=2)))
    seeds = draw(st.lists(st.integers(0, product.size - 1), min_size=1, max_size=3))
    return generated_subalgebra(product, seeds)[0], gens


def walk_outcome(call):
    try:
        r = call()
    except BudgetExceededError as e:
        return ("BudgetExceededError", str(e))
    if isinstance(r, bool):
        return r
    ok, witness, homs = r
    return ok, witness, [(h.source, h.target, h.mapping) for h in homs]


@settings(max_examples=300, deadline=None)
@given(walk_cases(), st.integers(1, 12))
def test_walk_matches_the_chosen_table_walk(case, max_nodes):
    a, gens = case
    for budget in (Budget(), Budget(max_nodes=max_nodes)):
        want = walk_outcome(lambda: table_separating_family(a, gens, budget))
        assert walk_outcome(lambda: separating_family(a, gens, budget)) == want
        assert walk_outcome(lambda: in_sp(a, gens, budget)) == (
            want if want[0] == "BudgetExceededError" else want[0])


def first_commutation_failure(a, b, mapping):
    for name, arity in a.signature.ops:
        for args in itertools.product(range(a.size), repeat=arity):
            if mapping[a.op(name, *args)] != b.op(name, *(mapping[x] for x in args)):
                return f"map does not commute with {name!r} at {args}"
    return None


@settings(max_examples=300, deadline=None)
@given(algebra_pairs(), st.data())
def test_validator_matches_brute_force_commutation(pair, data):
    a, b = pair
    mapping = tuple(data.draw(st.lists(st.integers(0, b.size - 1), min_size=a.size,
                                       max_size=a.size)))
    expected = first_commutation_failure(a, b, mapping)
    if expected is None:
        assert Homomorphism(a, b, mapping).mapping == mapping
    else:
        with pytest.raises(AlgebraError) as err:
            Homomorphism(a, b, mapping)
        assert str(err.value) == expected


def test_separating_family_stops_once_every_pair_is_separated():
    # the search into the second generator needs more than two nodes, but
    # the first homomorphism into C2 already separates C2's only pair
    big = disjoint_union([C2] * 4)
    budget = Budget(max_nodes=2)
    with pytest.raises(BudgetExceededError):
        find_homomorphisms(C2, big, budget=budget)
    ok, witness, homs = separating_family(C2, [C2, big], budget)
    assert ok and witness is None
    assert [(h.target, h.mapping) for h in homs] == [(C2, (0, 1))]


def test_node_budget_applies_per_seed():
    # each seed leaves three fixed points free, so its first extension takes
    # three nodes; one search reused for all of them must not add them up
    points = FiniteAlgebra(UNARY_SIGNATURE, 6, {"a": list(range(6))})
    two = FiniteAlgebra(UNARY_SIGNATURE, 2, {"a": [0, 1]})
    search = _Search(points, two, False, 3)
    for seed in ({0: 0, 1: 1, 2: 0}, {3: 1, 4: 1, 5: 0}, {0: 1, 2: 1, 4: 0}):
        found = next(search.iterate(seed.items()))
        assert all(found[x] == v for x, v in seed.items())
        assert search.nodes == 3
    with pytest.raises(BudgetExceededError, match="exceeded 3 nodes"):
        next(search.iterate([]))


@settings(max_examples=150, deadline=None)
@given(algebra_pairs(), st.data())
def test_unchecked_outputs_pass_the_checked_constructor(pair, data):
    # every map an internal producer builds without re-validation, rebuilt
    # through the validating constructor
    a, b = pair
    x, y = data.draw(st.integers(0, a.size - 1)), data.draw(st.integers(0, a.size - 1))
    seeds = data.draw(st.lists(st.integers(0, a.size - 1), max_size=2))
    _, inclusion = generated_subalgebra(a, seeds)
    maps = [
        *find_homomorphisms(a, b),
        *find_homomorphisms(a, b, injective=True),
        *separating_family(a, [b, a])[2],
        inclusion,
        subalgebra_on(a, inclusion.mapping)[1],
        *direct_product([a, b])[1],
        quotient(a, congruence_generated(a, [(x, y)]))[1],
    ]
    for h in maps:
        assert Homomorphism(h.source, h.target, h.mapping) == h


def per_choice_extends(a, b, max_nodes, fixed, stages):
    """The family check before it walked prefixes: one fresh seeded search
    per choice, in product order."""
    for choice in itertools.product(*stages):
        seed = {}
        for x, v in fixed + [p for pairs in choice for p in pairs]:
            if seed.setdefault(x, v) != v:
                return False
        if next(_Search(a, b, False, max_nodes).iterate(seed.items()), None) is None:
            return False
    return True


@settings(max_examples=200, deadline=None)
@given(algebra_pairs(), st.integers(1, 4), st.data())
def test_every_choice_extends_matches_one_search_per_choice(pair, max_nodes, data):
    a, b = pair
    pairs = st.lists(st.tuples(st.integers(0, a.size - 1), st.integers(0, b.size - 1)),
                     max_size=2)
    fixed = data.draw(pairs)
    stages = data.draw(st.lists(st.lists(pairs, max_size=3), max_size=3))

    def outcome(check):
        try:
            return check()
        except BudgetExceededError as e:
            return str(e)

    library = _Search(a, b, False, max_nodes).every_choice_extends
    assert outcome(lambda: library([[fixed], *stages])) \
        == outcome(lambda: per_choice_extends(a, b, max_nodes, fixed, stages))


# -- unary cells against the generic constraint handling ------------------------------


class GenericSearch(_Search):
    """``_Search`` as it was before unary cells were filed apart: every cell of
    arity 1 or more is one (target table, args, result) constraint, filed under
    each of its arguments, and candidates are tried value by value."""

    def __init__(self, source, target, injective, max_nodes):
        super().__init__(source, target, injective, max_nodes)
        self.generic = [[] for _ in range(source.size)]
        for name, arity in source.signature.ops:
            if arity == 0:
                continue
            table = target.tables[name]
            cells = itertools.product(range(source.size), repeat=arity)
            for args, result in zip(cells, source.tables[name]):
                constraint = (table, args, result)
                for e in set(args):
                    self.generic[e].append(constraint)

    def _assign_all(self, assignment, pending) -> bool:
        touching, size, injective = self.generic, self.B.size, self.injective
        queue = list(pending)
        while queue:
            x, v = queue.pop()
            cur = assignment[x]
            if cur is not None:
                if cur != v:
                    return False
                continue
            if injective and v in assignment:
                return False
            assignment[x] = v
            for table, args, result in touching[x]:
                idx = 0
                for a in args:
                    w = assignment[a]
                    if w is None:
                        break
                    idx = idx * size + w
                else:
                    forced = table[idx]
                    res = assignment[result]
                    if res is None:
                        queue.append((result, forced))
                    elif res != forced:
                        return False
        return True

    def _candidates(self, assignment, x) -> list[int]:
        touching, size, injective = self.generic[x], self.B.size, self.injective
        taken = set(assignment)
        out = []
        for v in range(size):
            if injective and v in taken:
                continue
            assignment[x] = v
            for table, args, result in touching:
                idx = 0
                for a in args:
                    w = assignment[a]
                    if w is None:
                        break
                    idx = idx * size + w
                else:
                    res = assignment[result]
                    if res is not None:
                        if res != table[idx]:
                            break
                    elif injective and table[idx] in taken:
                        break
            else:
                out.append(v)
        assignment[x] = None
        return out


UNARY_MIXES = [
    Signature((("a", 1), ("b", 1))),
    Signature((("a", 1), ("m", 2))),
    Signature((("c", 0), ("a", 1))),
]


@st.composite
def unary_mix_pairs(draw):
    """Two algebras over a signature with unary ops, some of whose cells are
    made fixed points, alone or next to a binary op or a constant."""
    sig = draw(st.sampled_from(UNARY_MIXES))
    a, b = draw(small_algebra(sig)), draw(small_algebra(sig))
    fixed = draw(st.lists(st.integers(0, a.size - 1), max_size=2))
    tables = {name: list(t) for name, t in a.tables.items()}
    for x in fixed:
        tables["a"][x] = x
    return FiniteAlgebra(sig, a.size, tables), b


def pulled(search, seed):
    """The mappings a search yields before it ends or overruns its nodes."""
    out = []
    try:
        out.extend(search.iterate(seed.items()))
    except BudgetExceededError as e:
        return out, str(e)
    return out, None


@settings(max_examples=300, deadline=None)
@given(unary_mix_pairs(), st.booleans(), st.integers(1, 12), st.data())
def test_unary_cells_match_the_generic_constraints(pair, injective, max_nodes, data):
    a, b = pair
    search, generic = _Search(a, b, injective, 10**6), GenericSearch(a, b, injective, 10**6)
    partial = data.draw(st.lists(st.one_of(st.none(), st.integers(0, b.size - 1)),
                                 min_size=a.size, max_size=a.size))
    for x in range(a.size):
        if partial[x] is None:
            assert search._candidates(list(partial), x) == generic._candidates(list(partial), x)
    x, v = data.draw(st.integers(0, a.size - 1)), data.draw(st.integers(0, b.size - 1))
    mine, theirs = list(partial), list(partial)
    ok = search._assign_all(mine, [(x, v)])
    assert ok == generic._assign_all(theirs, [(x, v)])
    if ok:
        assert mine == theirs
    seed = data.draw(st.dictionaries(st.integers(0, a.size - 1), st.integers(0, b.size - 1),
                                     max_size=1))
    for nodes in (10**6, max_nodes):
        assert pulled(_Search(a, b, injective, nodes), seed) == \
            pulled(GenericSearch(a, b, injective, nodes), seed)


def test_a_result_forced_onto_the_trial_value_is_refuted_on_assignment():
    # m(0, 0) = 1 in the source and m(v, v) = v in the target, so trying v
    # for 0 forces 1 onto v too.  Candidates count only the targets taken
    # before 0, so both values stay; assigning either clashes there
    sig = Signature((("m", 2),))
    a = FiniteAlgebra(sig, 2, {"m": [1, 1, 1, 1]})
    b = FiniteAlgebra(sig, 2, {"m": [0, 0, 1, 1]})
    search = _Search(a, b, True, 10**6)
    assert search._candidates([None, None], 0) == [0, 1]
    for v in (0, 1):
        assert not search._assign_all([None, None], [(0, v)])
    assert find_homomorphisms(a, b, injective=True) == eager_search(a, b, {}, True) == []
