import dataclasses
import importlib
import inspect
import itertools
import json
import os
import pkgutil
import random
import re
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import prevar
from prevar.algcore import (
    AlgebraError,
    App,
    Budget,
    BudgetExceededError,
    Congruence,
    FiniteAlgebra,
    Homomorphism,
    Signature,
    UNARY_SIGNATURE,
    Var,
    _closure,
    _labels,
    _meet,
    _product_rows,
    all_congruences,
    apply_relabeling,
    are_isomorphic,
    canonical_form,
    congruence_generated,
    cyclic_unary,
    direct_product,
    disjoint_union,
    empty_algebra,
    eval_term,
    generated_subalgebra,
    is_subdirectly_irreducible,
    quotient,
    subalgebra_on,
    trivial_algebra,
)

C2 = cyclic_unary(2)
C3 = cyclic_unary(3)
C4 = cyclic_unary(4)
C6 = cyclic_unary(6)


def a_power(k, base=Var(0)):
    t = base
    for _ in range(k):
        t = App("a", (t,))
    return t


class TestEvalTerm:
    def test_cycle_step(self):
        assert eval_term(C3, a_power(2), {0: 0}) == 2

    def test_variable(self):
        assert eval_term(C2, Var(0), {0: 1}) == 1

    def test_full_cycle_is_identity(self):
        # lcm(2, 3) applications of a fix every element of the 6-cycle
        assert eval_term(C6, a_power(6), {0: 4}) == 4

    def test_unassigned_variable_rejected(self):
        with pytest.raises(AlgebraError):
            eval_term(C2, Var(1), {0: 0})

    def test_arity_mismatch_rejected(self):
        with pytest.raises(AlgebraError):
            eval_term(C2, App("a", (Var(0), Var(0))), {0: 0})


class TestGeneratedSubalgebra:
    def test_cycle_generated_by_any_point(self):
        sub, inc = generated_subalgebra(C4, {0})
        assert sub.size == 4
        assert list(inc.mapping) == [0, 1, 2, 3]

    def test_component_stays_closed(self):
        union = disjoint_union([C2, C3])
        sub, inc = generated_subalgebra(union, {0})
        assert sub.size == 2
        assert are_isomorphic(sub, C2)
        assert set(inc.mapping) == {0, 1}

    def test_empty_seed_empty_algebra(self):
        sub, _ = generated_subalgebra(C2, set())
        assert sub.size == 0

    def test_monotone_and_idempotent(self):
        rng = random.Random(7)
        for _ in range(20):
            n = rng.randint(1, 6)
            alg = FiniteAlgebra(
                UNARY_SIGNATURE, n, {"a": [rng.randrange(n) for _ in range(n)]}
            )
            small = {rng.randrange(n)}
            big = small | {rng.randrange(n)}
            sub_small, inc_small = generated_subalgebra(alg, small)
            sub_big, inc_big = generated_subalgebra(alg, big)
            assert set(inc_small.mapping) <= set(inc_big.mapping)
            again, inc_again = generated_subalgebra(alg, inc_small.mapping)
            assert inc_again.mapping == inc_small.mapping
            assert again.tables == sub_small.tables

    @pytest.mark.parametrize("carrier, bad", [([-1, 2], -1), ([2, 5], 5), ([0, 3], 3)])
    def test_subset_off_the_carrier_rejected(self, carrier, bad):
        # -1 once read the last element through Python's negative indexing
        identity = FiniteAlgebra(UNARY_SIGNATURE, 3, {"a": [0, 1, 2]})
        with pytest.raises(AlgebraError, match=f"^subset element {bad} is off the carrier$"):
            subalgebra_on(identity, carrier)


def _relabelled_closure(alg, seed):
    """The route ``generated_subalgebra`` took before it restricted with
    ``subalgebra_on``: build the closure's algebra in discovery order, then
    relabel it to ascending carrier order."""
    elems, tables = _closure(alg.signature, _product_rows([alg]), [(x,) for x in seed])
    carrier = sorted(x for (x,) in elems)
    position = {x: i for i, x in enumerate(carrier)}
    found = FiniteAlgebra(alg.signature, len(elems), tables)
    return apply_relabeling(found, [position[x] for (x,) in elems]), tuple(carrier)


@st.composite
def seeded_algebras(draw):
    """A unary algebra on up to 6 elements or a binary one on up to 3, with
    or without a constant, and a seed of up to 3 elements."""
    sig, max_size = draw(st.sampled_from([
        (UNARY_SIGNATURE, 6), (Signature((("c", 0), ("a", 1))), 6),
        (Signature((("g", 2),)), 3), (Signature((("c", 0), ("g", 2))), 3)]))
    size = draw(st.integers(1, max_size))
    element = st.integers(0, size - 1)
    tables = {name: draw(st.lists(element, min_size=size**arity, max_size=size**arity))
              for name, arity in sig.ops}
    return FiniteAlgebra(sig, size, tables), draw(st.lists(element, max_size=3))


class TestGeneratedSubalgebraOracle:
    @settings(max_examples=300, deadline=None)
    @given(seeded_algebras())
    def test_matches_the_relabelled_closure(self, case):
        alg, seed = case
        sub, inclusion = generated_subalgebra(alg, seed)
        expected, carrier = _relabelled_closure(alg, seed)
        assert sub == expected
        assert inclusion.mapping == carrier
        assert inclusion.source is sub and inclusion.target is alg


class TestDirectProduct:
    def test_orbit_of_diagonal_has_lcm_length(self):
        prod, projections = direct_product([C2, C3])
        assert prod.size == 6
        seen = set()
        x = 0  # the (0, 0) tuple is first in lexicographic order
        while x not in seen:
            seen.add(x)
            x = prod.op("a", x)
        assert len(seen) == 6
        for proj in projections:
            assert isinstance(proj, Homomorphism)

    def test_empty_family_is_one_element(self):
        prod, projections = direct_product([], signature=UNARY_SIGNATURE)
        assert prod.size == 1
        assert projections == []

    def test_unary_product_isomorphic_to_factor(self):
        prod, _ = direct_product([C2])
        assert are_isomorphic(prod, C2)


class TestDisjointUnion:
    def test_two_cycles(self):
        union = disjoint_union([C2, C3])
        assert union.size == 5
        assert union.op("a", 0) == 1 and union.op("a", 1) == 0
        assert union.op("a", 2) == 3 and union.op("a", 4) == 2

    def test_single_summand(self):
        assert disjoint_union([C2]) == C2

    def test_zeroary_signature_rejected(self):
        sig = Signature((("e", 0), ("mul", 2)))
        ring_like = FiniteAlgebra(sig, 1, {"e": [0], "mul": [0]})
        with pytest.raises(AlgebraError):
            disjoint_union([ring_like])


class TestQuotient:
    def test_halving_the_four_cycle(self):
        cong = Congruence(C4, (0, 1, 0, 1))
        q, qmap = quotient(C4, cong)
        assert are_isomorphic(q, C2)
        assert qmap.mapping == (0, 1, 0, 1)

    def test_diagonal_gives_copy(self):
        q, _ = quotient(C3, Congruence.diagonal(C3))
        assert are_isomorphic(q, C3)

    def test_full_partition_gives_trivial(self):
        q, _ = quotient(C3, Congruence.full(C3))
        assert q.size == 1

    def test_incompatible_partition_rejected(self):
        with pytest.raises(AlgebraError):
            Congruence(C4, (0, 0, 1, 1))


class TestCongruenceGenerated:
    def test_principal_pair_on_four_cycle(self):
        cong = congruence_generated(C4, {(0, 2)})
        assert cong.blocks == (0, 1, 0, 1)

    def test_empty_pairs_give_diagonal(self):
        assert congruence_generated(C4, set()).is_diagonal()

    def test_adjacent_pair_collapses_everything(self):
        assert congruence_generated(C4, {(0, 1)}).num_blocks() == 1

    def test_off_carrier_pairs_rejected(self):
        # an index past the carrier, and a negative one that would wrap around
        with pytest.raises(AlgebraError, match="pair element 9 is off the carrier"):
            congruence_generated(C4, [(0, 9)])
        with pytest.raises(AlgebraError, match="pair element -1 is off the carrier"):
            congruence_generated(C4, [(-1, 2)])

    def test_least_congruence_factors_through_others(self):
        # any congruence relating the pair refines to a factoring quotient map
        for alg in (C4, C6, disjoint_union([C2, C2])):
            for a, b in itertools.combinations(range(alg.size), 2):
                principal = congruence_generated(alg, {(a, b)})
                for other in all_congruences(alg):
                    if not other.related(a, b):
                        continue
                    q_p, _ = quotient(alg, principal)
                    q_o, map_o = quotient(alg, other)
                    # block map: principal block -> other block
                    table = {}
                    for x in range(alg.size):
                        table[principal.blocks[x]] = other.blocks[x]
                    factor = Homomorphism(
                        q_p, q_o, tuple(table[i] for i in range(q_p.size))
                    )
                    assert factor.mapping  # construction validates commutation


def _canonical_blocks(labels):
    """The label canonicaliser ``_labels`` replaced: renumber block labels
    in order of first occurrence."""
    seen = {}
    out = []
    for lab in labels:
        if lab not in seen:
            seen[lab] = len(seen)
        out.append(seen[lab])
    return tuple(out)


class TestLabels:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.one_of(st.integers(-3, 5), st.tuples(st.integers(0, 2), st.integers(0, 2)))))
    def test_labels_match_first_occurrence_loop(self, labels):
        assert _labels(labels) == _canonical_blocks(labels)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(2, 6).flatmap(lambda n: st.tuples(st.just(n), st.lists(
        st.lists(st.integers(0, n - 1), min_size=n, max_size=n), max_size=5))))
    def test_meet_matches_the_zipped_labels(self, case):
        n, labellings = case
        expected = _canonical_blocks(zip(*labellings)) if labellings else (0,) * n
        got = _meet(n, labellings)
        assert got == (None if len(set(expected)) == n else expected)

    def test_meet_stops_pulling_once_diagonal(self):
        labellings = iter([(0, 0, 1), (0, 1, 1), (0, 0, 0)])
        assert _meet(3, labellings) is None
        assert next(labellings) == (0, 0, 0)


def _pairwise_incompatible_op(alg, blocks):
    """The check the table-indexed validator replaced: the first op where
    moving one argument within its block moves the value to another block,
    or None when the partition is compatible."""
    for name, arity in alg.signature.ops:
        for args in itertools.product(range(alg.size), repeat=arity):
            for slot in range(arity):
                for other in range(alg.size):
                    if blocks[other] != blocks[args[slot]]:
                        continue
                    alt = list(args)
                    alt[slot] = other
                    if blocks[alg.op(name, *args)] != blocks[alg.op(name, *alt)]:
                        return name
    return None


def _slot_by_slot_generated(alg, pairs):
    """The generation loop the table-indexed one replaced: merge the values
    of argument tuples that differ in one slot within a class, to a fixpoint."""
    parent = list(range(alg.size))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    def union(a, b):
        ra, rb = sorted((find(a), find(b)))
        parent[rb] = ra
        return ra != rb

    for a, b in pairs:
        union(a, b)
    changed = True
    while changed:
        changed = False
        for name, arity in alg.signature.ops:
            for args in itertools.product(range(alg.size), repeat=arity):
                for slot in range(arity):
                    for y in range(args[slot] + 1, alg.size):
                        if find(args[slot]) == find(y):
                            alt = list(args)
                            alt[slot] = y
                            changed = union(alg.op(name, *args), alg.op(name, *alt)) or changed
    return _canonical_blocks([find(x) for x in range(alg.size)])


# unary up to size 6, binary up to size 4, and each with a constant;
# ternary up to size 3, where each argument position has its own stride
CONGRUENCE_CASES = [
    (UNARY_SIGNATURE, 6),
    (Signature((("a", 1), ("b", 1))), 6),
    (Signature((("c", 0), ("a", 1))), 6),
    (Signature((("g", 2),)), 4),
    (Signature((("c", 0), ("g", 2))), 4),
    (Signature((("a", 1), ("g", 2))), 4),
    (Signature((("t", 3),)), 3),
]


@st.composite
def partition_cases(draw):
    """An algebra, a few pairs, and a partition: a random one, the congruence
    the pairs generate, one the tables were drawn to respect, or one of the
    last two with one element moved."""
    sig, max_size = draw(st.sampled_from(CONGRUENCE_CASES))
    size = draw(st.integers(1, max_size))
    element = st.integers(0, size - 1)
    kind = draw(st.sampled_from(["random", "generated", "respected", "moved"]))
    blocks = draw(st.lists(element, min_size=size, max_size=size))
    tables = {}
    for name, arity in sig.ops:
        if kind in ("respected", "moved"):
            # each cell's block depends only on its arguments' blocks
            image = {}
            tables[name] = []
            for args in itertools.product(range(size), repeat=arity):
                key = tuple(blocks[a] for a in args)
                image.setdefault(key, draw(st.sampled_from(blocks)))
                tables[name].append(draw(st.sampled_from(
                    [x for x in range(size) if blocks[x] == image[key]])))
        else:
            tables[name] = draw(st.lists(element, min_size=size**arity, max_size=size**arity))
    alg = FiniteAlgebra(sig, size, tables)
    pairs = draw(st.lists(st.tuples(element, element), max_size=3))
    if kind == "generated":
        blocks = list(_slot_by_slot_generated(alg, pairs))
    if kind == "moved":
        blocks[draw(element)] = draw(st.integers(0, size))
    return alg, pairs, blocks


class TestCongruenceOracles:
    @settings(max_examples=400, deadline=None)
    @given(partition_cases())
    def test_validator_matches_pairwise_check(self, case):
        alg, _, blocks = case
        expected = _pairwise_incompatible_op(alg, _canonical_blocks(blocks))
        if expected is None:
            assert Congruence(alg, blocks).blocks == _canonical_blocks(blocks)
        else:
            message = f"^partition is not compatible with {re.escape(repr(expected))}$"
            with pytest.raises(AlgebraError, match=message):
                Congruence(alg, blocks)

    @settings(max_examples=300, deadline=None)
    @given(partition_cases())
    def test_generated_matches_slot_by_slot_loop(self, case):
        alg, pairs, _ = case
        got = congruence_generated(alg, pairs)
        assert got.blocks == _slot_by_slot_generated(alg, pairs)
        # the join of what two parts of the pairs generate is what all generate
        other = congruence_generated(alg, pairs[:1])
        assert other.join(congruence_generated(alg, pairs[1:])) == got
        # results built without re-validation still pass the public check
        for c in (got, got.join(other), got.meet(other)):
            assert Congruence(alg, c.blocks).blocks == c.blocks


# unary, two unary ops and a constant with a unary op up to size 8; binary
# up to size 4, alone and with a constant; ternary up to size 3
LATTICE_CASES = [
    (UNARY_SIGNATURE, 8),
    (Signature((("a", 1), ("b", 1))), 8),
    (Signature((("c", 0), ("a", 1))), 8),
    (Signature((("g", 2),)), 4),
    (Signature((("c", 0), ("g", 2))), 4),
    (Signature((("t", 3),)), 3),
]


@st.composite
def lattice_algebras(draw, min_size):
    sig, max_size = draw(st.sampled_from(LATTICE_CASES))
    size = draw(st.integers(min_size, max_size))
    element = st.integers(0, size - 1)
    tables = {name: draw(st.lists(element, min_size=size**arity, max_size=size**arity))
              for name, arity in sig.ops}
    return FiniteAlgebra(sig, size, tables)


class TestAllCongruences:
    def test_four_cycle_has_three(self):
        assert len(all_congruences(C4)) == 3

    def test_six_cycle_has_one_per_divisor(self):
        assert len(all_congruences(C6)) == 4

    def test_trivial_algebra_has_one(self):
        assert len(all_congruences(trivial_algebra(UNARY_SIGNATURE))) == 1

    def test_size_bound_enforced(self):
        with pytest.raises(BudgetExceededError):
            all_congruences(cyclic_unary(13))

    def test_empty_algebra_has_one(self):
        assert [c.blocks for c in all_congruences(empty_algebra(UNARY_SIGNATURE))] == [()]

    @settings(max_examples=150, deadline=None)
    @given(lattice_algebras(min_size=1))
    def test_matches_frontier_join_loop(self, alg):
        assert all_congruences(alg) == _frontier_join_congruences(alg)

    @pytest.mark.parametrize("n", range(8))
    def test_identity_has_bell_many(self, n):
        # every partition is a congruence: a skipped or repeated join shows
        blocks = [c.blocks for c in all_congruences(
            FiniteAlgebra(UNARY_SIGNATURE, n, {"a": list(range(n))}))]
        assert len(blocks) == len(set(blocks)) == [1, 1, 2, 5, 15, 52, 203, 877][n]

    @pytest.mark.parametrize("n", range(1, 13))
    def test_cycle_has_one_per_divisor(self, n):
        blocks = [c.blocks for c in all_congruences(cyclic_unary(n))]
        assert len(blocks) == len(set(blocks)) == sum(n % d == 0 for d in range(1, n + 1))


def _frontier_join_congruences(alg):
    """The lattice loop the Freese-style one replaced, on its own code: the
    principal congruences come from the slot-by-slot loop, and every
    partition found is joined, by a local union-find over the carrier,
    with each of the n(n-1)/2 principals until no new one appears."""

    def join(x, y):
        parent = list(range(alg.size))

        def find(v):
            while parent[v] != v:
                v = parent[v]
            return v

        for blocks in (x, y):
            first = {}
            for v, lab in enumerate(blocks):
                parent[find(v)] = find(first.setdefault(lab, v))
        return _canonical_blocks([find(v) for v in range(alg.size)])

    principal = [_slot_by_slot_generated(alg, [(a, b)])
                 for a, b in itertools.combinations(range(alg.size), 2)]
    found = {tuple(range(alg.size)), *principal}
    frontier = list(found)
    while frontier:
        fresh = []
        for c in frontier:
            for p in principal:
                j = join(c, p)
                if j not in found:
                    found.add(j)
                    fresh.append(j)
        frontier = fresh
    return [Congruence._unchecked(alg, blocks)
            for blocks in sorted(found, key=lambda c: (-len(set(c)), c))]


def _lattice_si(alg):
    """The irreducibility route the meet of principal congruences replaced:
    the meet of every non-diagonal congruence in the whole lattice."""
    meet = Congruence.full(alg)
    for c in _frontier_join_congruences(alg):
        if not c.is_diagonal():
            meet = meet.meet(c)
    return (False, None) if meet.is_diagonal() else (True, meet.blocks)


def _subdirect_reducibility_oracle(alg):
    """Independent route: inject into the product of all proper quotients.

    The diagonal map sends x to its block in every proper congruence; the
    algebra is a subdirect product of proper quotients exactly when that
    map is one-to-one.
    """
    proper = [c for c in all_congruences(alg) if not c.is_diagonal()]
    signatures = {tuple(c.blocks[x] for c in proper) for x in range(alg.size)}
    return len(signatures) == alg.size


class TestSubdirectIrreducibility:
    def test_four_cycle_with_monolith(self):
        ok, monolith = is_subdirectly_irreducible(C4)
        assert ok and monolith.blocks == (0, 1, 0, 1)

    def test_six_cycle_reducible(self):
        ok, monolith = is_subdirectly_irreducible(C6)
        assert not ok and monolith is None

    def test_two_cycle_irreducible(self):
        ok, _ = is_subdirectly_irreducible(C2)
        assert ok

    def test_trivial_rejected(self):
        with pytest.raises(AlgebraError):
            is_subdirectly_irreducible(trivial_algebra(UNARY_SIGNATURE))

    def test_agrees_with_product_embedding_oracle(self):
        for n in range(2, 5):
            for table in itertools.product(range(n), repeat=n):
                alg = FiniteAlgebra(UNARY_SIGNATURE, n, {"a": table})
                ok, _ = is_subdirectly_irreducible(alg)
                assert ok == (not _subdirect_reducibility_oracle(alg))

    def test_explicit_product_embedding_for_six_cycle(self):
        # the reducible case embeds honestly: build the product algebra and
        # the diagonal map, and let the homomorphism checks run
        proper = [c for c in all_congruences(C6) if not c.is_diagonal()]
        quotients = [quotient(C6, c)[0] for c in proper]
        prod, _ = direct_product(quotients, signature=C6.signature)
        sizes = [q.size for q in quotients]
        mapping = []
        for x in range(C6.size):
            idx = 0
            for c, s in zip(proper, sizes):
                idx = idx * s + c.blocks[x]
            mapping.append(idx)
        diag = Homomorphism(C6, prod, tuple(mapping))
        assert diag.is_injective()

    @settings(max_examples=100, deadline=None)
    @given(lattice_algebras(min_size=2))
    def test_matches_lattice_route(self, alg):
        ok, monolith = is_subdirectly_irreducible(alg)
        assert (ok, monolith.blocks if ok else monolith) == _lattice_si(alg)

    def test_size_bound_enforced(self):
        with pytest.raises(BudgetExceededError,
                           match="^congruence enumeration bound 12 exceeded by size 13$"):
            is_subdirectly_irreducible(cyclic_unary(13))

    def test_identity_on_ten_answers_promptly(self):
        # Bell(10) = 115,975 congruences: the lattice route took about 97 s
        code = ("from prevar.algcore import FiniteAlgebra, UNARY_SIGNATURE, "
                "is_subdirectly_irreducible\n"
                "alg = FiniteAlgebra(UNARY_SIGNATURE, 10, {'a': list(range(10))})\n"
                "print(is_subdirectly_irreducible(alg))\n")
        env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(prevar.__file__))}
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env, timeout=5)
        assert proc.returncode == 0 and proc.stdout == "(False, None)\n"

    def test_oracle_agreement_on_binary_ops(self):
        rng = random.Random(11)
        sig = Signature((("m", 2),))
        for _ in range(15):
            n = rng.randint(2, 4)
            alg = FiniteAlgebra(
                sig, n, {"m": [rng.randrange(n) for _ in range(n * n)]}
            )
            ok, _ = is_subdirectly_irreducible(alg)
            assert ok == (not _subdirect_reducibility_oracle(alg))


class TestCyclicUnary:
    def test_one_element_fixed_point(self):
        one = cyclic_unary(1)
        assert one.op("a", 0) == 0

    @pytest.mark.parametrize("d", [3, 5])
    def test_full_cycle(self, d):
        alg = cyclic_unary(d)
        x = 0
        for _ in range(d):
            x = alg.op("a", x)
        assert x == 0
        assert len({alg.op("a", i) for i in range(d)}) == d

    def test_zero_rejected(self):
        with pytest.raises(AlgebraError):
            cyclic_unary(0)


class TestFileFormat:
    def test_documented_example(self):
        text = '{"signature":[{"name":"a","arity":1}],"size":3,"ops":{"a":[1,2,0]}}'
        alg = FiniteAlgebra.from_json(text)
        assert alg == C3
        assert alg.to_json() == text

    def test_round_trip_byte_stable(self, tmp_path):
        sig = Signature((("mul", 2), ("inv", 1), ("e", 0)))
        alg = FiniteAlgebra(
            sig, 2, {"mul": [0, 1, 1, 0], "inv": [0, 1], "e": [0]}
        )
        path = tmp_path / "k2.alg"
        alg.save(path)
        text = path.read_text()
        again = FiniteAlgebra.load(path)
        assert again == alg
        assert again.to_json() + "\n" == text

    def test_row_major_table_order(self):
        # mixed-radix: table index of (i, j) over size n is i*n + j
        sig = Signature((("m", 2),))
        alg = FiniteAlgebra(sig, 2, {"m": [0, 1, 1, 0]})
        assert alg.op("m", 0, 1) == 1
        assert alg.op("m", 1, 0) == 1
        assert alg.op("m", 1, 1) == 0

    def test_zeroary_table_is_single_entry(self):
        sig = Signature((("e", 0),))
        alg = FiniteAlgebra(sig, 2, {"e": [1]})
        assert alg.op("e") == 1


class TestValidation:
    def test_empty_algebra_with_constants_rejected(self):
        sig = Signature((("e", 0),))
        with pytest.raises(AlgebraError):
            FiniteAlgebra(sig, 0, {"e": []})

    def test_empty_algebra_without_constants_allowed(self):
        assert empty_algebra(UNARY_SIGNATURE).size == 0

    def test_table_entries_checked(self):
        for table in ([0, 2], [-1, 0], [2, -1]):
            with pytest.raises(AlgebraError,
                               match="^table for 'a' has entries outside the carrier$"):
                FiniteAlgebra(UNARY_SIGNATURE, 2, {"a": table})

    @pytest.mark.parametrize("table", [["0", 1], [0, None], [[1], 0]])
    def test_non_int_table_entries_refused(self, table):
        with pytest.raises(TypeError):
            FiniteAlgebra(UNARY_SIGNATURE, 2, {"a": table})
        text = FiniteAlgebra(UNARY_SIGNATURE, 2, {"a": [1, 0]}).to_json().replace(
            "[1,0]", json.dumps(table))
        with pytest.raises(AlgebraError, match="^malformed algebra document: TypeError"):
            FiniteAlgebra.from_json(text)

    @pytest.mark.parametrize("size, table", [(2, [1.0, 0]), (2, [True, False]), (True, [0]),
                                             (2.0, [1, 0])])
    def test_non_int_document_values_refused(self, size, table):
        # 1.0 and True compare equal to 1, so only their type tells them apart
        doc = {"signature": [{"name": "a", "arity": 1}], "size": size, "ops": {"a": table}}
        with pytest.raises(AlgebraError, match="^malformed algebra document: TypeError: "
                                               "the size and every table entry must be integers$"):
            FiniteAlgebra.from_json(json.dumps(doc))

    def test_homomorphism_commutation_checked(self):
        with pytest.raises(AlgebraError):
            Homomorphism(C2, C3, (0, 1))

    def test_projections_commute_everywhere(self):
        prod, projections = direct_product([C2, C3, C2])
        for proj in projections:
            for x in range(prod.size):
                assert proj(prod.op("a", x)) == proj.target.op("a", proj(x))


ISO_SIGNATURES = [
    UNARY_SIGNATURE,
    Signature((("g", 2),)),
    Signature((("f", 1), ("g", 2))),
    Signature((("c", 0), ("f", 1))),
]


@st.composite
def algebra_pairs(draw):
    """Pairs of equal size: a relabeled copy, possibly with one entry
    changed, or an independent draw."""
    sig = draw(st.sampled_from(ISO_SIGNATURES))
    size = draw(st.integers(1, 5))

    def tables():
        return {
            name: draw(st.lists(st.integers(0, size - 1), min_size=size**arity,
                                max_size=size**arity))
            for name, arity in sig.ops
        }

    a = FiniteAlgebra(sig, size, tables())
    kind = draw(st.sampled_from(["copy", "perturbed", "independent"]))
    if kind == "independent":
        return a, FiniteAlgebra(sig, size, tables())
    b = apply_relabeling(a, draw(st.permutations(range(size))))
    if kind == "perturbed":
        name = draw(st.sampled_from(sig.names))
        table = list(b.tables[name])
        table[draw(st.integers(0, len(table) - 1))] = draw(st.integers(0, size - 1))
        b = FiniteAlgebra(sig, size, {**b.tables, name: table})
    return a, b


class TestIsomorphism:
    @settings(max_examples=200, deadline=None)
    @given(algebra_pairs())
    def test_agrees_with_canonical_form_oracle(self, pair):
        a, b = pair
        assert are_isomorphic(a, b) == (canonical_form(a) == canonical_form(b))

    def test_size_and_signature_mismatch(self):
        assert not are_isomorphic(C2, C3)
        assert not are_isomorphic(C2, trivial_algebra(Signature((("g", 2),))))


class TestApplyRelabeling:
    def test_non_bijection_rejected(self):
        # [0, 0, 1] would merge 0 and 1 into a non-isomorphic algebra
        with pytest.raises(AlgebraError):
            apply_relabeling(C3, [0, 0, 1])

    @pytest.mark.parametrize("perm", [[0, 1], [0, 1, 2, 3]])
    def test_wrong_length_rejected(self, perm):
        with pytest.raises(AlgebraError):
            apply_relabeling(C3, perm)


def brute_canonical_form(alg: FiniteAlgebra) -> tuple:
    """The reference: the least relabeled table vector over all n! permutations."""
    best = None
    for perm in itertools.permutations(range(alg.size)):
        relabeled = apply_relabeling(alg, perm)
        key = tuple(relabeled.tables[name] for name in alg.signature.names)
        if best is None or key < best:
            best = key
    return (alg.size, best)


CANONICAL_CASES = [  # signature, largest size, smallest size
    (UNARY_SIGNATURE, 6, 0),
    (Signature((("g", 2),)), 4, 0),
    (Signature((("c", 0), ("f", 1))), 6, 1),
    (Signature((("f", 1), ("h", 1))), 6, 0),
    (Signature((("c", 0), ("d", 0))), 5, 1),
]


@st.composite
def canonical_cases(draw):
    """Random tables, often over few values so that automorphisms abound."""
    sig, largest, smallest = draw(st.sampled_from(CANONICAL_CASES))
    size = draw(st.integers(smallest, largest))
    top = draw(st.integers(0, size - 1)) if size else 0
    return FiniteAlgebra(sig, size, {
        name: draw(st.lists(st.integers(0, top), min_size=size**arity, max_size=size**arity))
        for name, arity in sig.ops
    })


class TestCanonicalForm:
    @settings(max_examples=300, deadline=None)
    @given(canonical_cases())
    def test_matches_brute_force(self, alg):
        assert canonical_form(alg) == brute_canonical_form(alg)

    @pytest.mark.parametrize("alg", [
        empty_algebra(UNARY_SIGNATURE),
        disjoint_union([C2, C2, C2]),
        direct_product([C2, C4])[0],
        FiniteAlgebra(Signature((("g", 2),)), 4,
                      {"g": [x ^ y for x, y in itertools.product(range(4), repeat=2)]}),
    ])
    def test_matches_brute_force_on_symmetric_algebras(self, alg):
        assert canonical_form(alg) == brute_canonical_form(alg)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(7, 8).flatmap(lambda n: st.tuples(
        st.lists(st.integers(0, n - 1), min_size=n, max_size=n),
        st.permutations(range(n)))))
    def test_invariant_under_relabeling(self, case):
        table, perm = case
        alg = FiniteAlgebra(UNARY_SIGNATURE, len(table), {"a": table})
        assert canonical_form(apply_relabeling(alg, perm)) == canonical_form(alg)


class TestBudget:
    INT_FIELDS = [f.name for f in dataclasses.fields(Budget)]

    def test_defaults(self):
        assert dataclasses.astuple(Budget()) == (
            2_000_000, 10**6, 10**4, 4 * 10**6, 10**6, 12, 64, 64)

    @pytest.mark.parametrize("field", INT_FIELDS)
    @pytest.mark.parametrize("value", [0, -1, 1.5, True, "3"])
    def test_rejects_a_limit_that_is_not_a_positive_int(self, field, value):
        with pytest.raises(AlgebraError, match=f"^budget field {field} must be a positive int"):
            Budget(**{field: value})

    def test_solution_cap_is_gone(self):
        # a search lists every solution or raises; nothing truncates it
        with pytest.raises(TypeError):
            Budget(max_solutions=1)

    def test_congruence_size_is_read(self):
        assert len(all_congruences(cyclic_unary(13), Budget(max_congruence_size=13))) == 2
        with pytest.raises(BudgetExceededError,
                           match="^congruence enumeration bound 3 exceeded by size 4$"):
            is_subdirectly_irreducible(C4, Budget(max_congruence_size=3))

    def test_no_public_function_takes_a_separate_limit(self):
        # these limits are fields of the one Budget parameter, never parameters
        retired = {"search_budget", "size_bound", "max_rules", "max_word_len"}
        modules = [importlib.import_module(f"prevar.{m.name}")
                   for m in pkgutil.iter_modules(prevar.__path__)]
        found = []
        for module in [prevar, *modules]:
            for name, obj in vars(module).items():
                if name.startswith("_"):
                    continue
                members = [(name, obj)]
                if inspect.isclass(obj):
                    members = [(f"{name}.{k}", v) for k, v in vars(obj).items()
                               if not k.startswith("_")]
                for qual, fn in members:
                    if inspect.isfunction(fn):
                        found += [(module.__name__, qual, p)
                                  for p in inspect.signature(fn).parameters if p in retired]
        assert found == []
