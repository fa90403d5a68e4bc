import itertools
import os
import random
import subprocess
import sys
import tracemalloc

import pytest
from hypothesis import assume, given, settings
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
    are_isomorphic,
    cyclic_unary,
    direct_product,
    disjoint_union,
    empty_algebra,
    eval_term,
    generated_subalgebra,
    subalgebra_on,
    trivial_algebra,
)
from prevar.homsearch import MembershipError, _Search, find_homomorphisms, in_sp
from prevar.prevariety import (
    AmalgamationCounterexample,
    ChainHypothesisError,
    PrevarietyCtx,
    QuasiIdentity,
    amalgamated_coproduct,
    chain_independence,
    check_amalgamation_bounded,
    constants_si_census,
    coproduct,
    enumerate_members,
    free_algebra,
    has_trivial_subalgebra,
    is_comfortable,
    is_compatible,
    is_coproduct,
    is_independent,
    is_p_subdirectly_irreducible,
    minimum_compatible_cover,
    parse_quasi_identity,
    quasi_identity_holds,
    relative_congruences,
    sp,
    subfamily_independence_check,
)

C2 = cyclic_unary(2)
C3 = cyclic_unary(3)
C5 = cyclic_unary(5)
C6 = cyclic_unary(6)
U23 = disjoint_union([C2, C3])
TRIV = trivial_algebra(UNARY_SIGNATURE)


def a_word(k):
    return "a(" * k + "x" + ")" * k


def _recursive_eval(alg, t, assignment):
    """The recursive evaluator that compiled terms replaced: the oracle."""
    if isinstance(t, Var):
        if t.index not in assignment:
            raise AlgebraError(f"variable {t.index} is unassigned")
        value = assignment[t.index]
        if not (0 <= value < alg.size):
            raise AlgebraError(f"assignment of variable {t.index} is off the carrier")
        return value
    arity = alg.signature.arity(t.op)
    if arity != len(t.args):
        raise AlgebraError(f"arity mismatch for {t.op!r}")
    return alg.op(t.op, *(_recursive_eval(alg, a, assignment) for a in t.args))


def _recursive_holds(alg, q):
    """The quasi-identity walk on the recursive evaluator: a dict per assignment."""
    if alg.size == 0:
        return True
    for values in itertools.product(range(alg.size), repeat=len(q.variables)):
        assignment = dict(enumerate(values))
        if all(_recursive_eval(alg, lhs, assignment) == _recursive_eval(alg, rhs, assignment)
               for lhs, rhs in q.premises):
            lhs, rhs = q.conclusion
            if _recursive_eval(alg, lhs, assignment) != _recursive_eval(alg, rhs, assignment):
                return False
    return True


# unary, binary, a constant with a unary op, and a constant with a binary op
QI_SIGNATURES = [
    UNARY_SIGNATURE,
    Signature((("g", 2),)),
    Signature((("c", 0), ("a", 1))),
    Signature((("c", 0), ("g", 2))),
]


@st.composite
def quasi_identity_cases(draw):
    """An algebra of size <= 5 and a quasi-identity in 1-3 variables over it,
    with up to two premises, and one assignment of its variables."""
    sig = draw(st.sampled_from(QI_SIGNATURES))
    size = draw(st.integers(1, 5))
    element = st.integers(0, size - 1)
    alg = FiniteAlgebra(sig, size, {
        name: draw(st.lists(element, min_size=size**arity, max_size=size**arity))
        for name, arity in sig.ops})
    nvars = draw(st.integers(1, 3))
    leaves = st.builds(Var, st.integers(0, nvars - 1))
    if sig.has_zeroary():
        leaves |= st.just(App("c", ()))
    terms = st.recursive(leaves, lambda inner: st.one_of([
        st.builds(App, st.just(name), st.lists(inner, min_size=arity, max_size=arity))
        for name, arity in sig.ops if arity]), max_leaves=5)
    equation = st.tuples(terms, terms)
    q = QuasiIdentity(("x", "y", "z")[:nvars], tuple(draw(st.lists(equation, max_size=2))),
                      draw(equation))
    return alg, q, draw(st.lists(element, min_size=nvars, max_size=nvars))


class TestQuasiIdentity:
    @settings(max_examples=400, deadline=None)
    @given(quasi_identity_cases())
    def test_compiled_walk_matches_the_recursive_one(self, case):
        alg, q, values = case
        assert quasi_identity_holds(alg, q) == _recursive_holds(alg, q)
        assignment = dict(enumerate(values))
        for t in (*itertools.chain(*q.premises), *q.conclusion):
            assert eval_term(alg, t, assignment) == _recursive_eval(alg, t, assignment)

    @settings(max_examples=200, deadline=None)
    @given(quasi_identity_cases())
    def test_text_round_trip(self, case):
        alg, q, _ = case
        assert str(parse_quasi_identity(str(q), alg.signature)) == str(q)

    @pytest.mark.parametrize("text, message", [
        ("=> a(x = x", "expected ',' or ')' in a term"),
        ("=> a(x y) = x", "expected ',' or ')' in a term"),
        ("=> a( = x", "unexpected end of term"),
        ("=> a(x,) = x", "unexpected token ')'"),
        ("=> a(,x) = x", "unexpected token ','"),
        ("=> g(x,,y) = x", "unexpected token ','"),
        ("=> a(x)) = x", "trailing tokens in ' a(x)) = x'"),
    ])
    def test_malformed_term_texts(self, text, message):
        with pytest.raises(AlgebraError) as info:
            parse_quasi_identity(text)
        assert str(info.value) == message

    @pytest.mark.parametrize("term, message", [
        (App("a", (Var(0), Var(0))), "^arity mismatch for 'a'$"),
        (App("b", (Var(0),)), "^unknown operation symbol 'b'$"),
        (Var(1), "^variable 1 is unassigned$"),
        (Var(-1), "^variable -1 is unassigned$"),
    ])
    def test_a_malformed_term_raises_before_the_walk(self, term, message):
        # the 2-cycle has no fixed point, so the premise never holds and the
        # recursive walk never evaluated the conclusion: it answered True
        q = QuasiIdentity(("x",), ((App("a", (Var(0),)), Var(0)),), (term, Var(0)))
        assert _recursive_holds(C2, q)
        for alg in (C2, empty_algebra(UNARY_SIGNATURE)):
            with pytest.raises(AlgebraError, match=message):
                quasi_identity_holds(alg, q)
        with pytest.raises(AlgebraError, match=message):
            _recursive_eval(C2, term, {0: 0})

    @pytest.mark.parametrize("text", ["=> a(x) = x + 1", "=> a(x) = 3x", "=> a(x)$ = x"])
    def test_characters_outside_the_grammar_refused(self, text):
        with pytest.raises(AlgebraError, match="^unexpected character"):
            parse_quasi_identity(text)

    def test_several_and_no_arguments_match_brute_force(self):
        # m is a random binary table and c a constant, on 3 elements
        sig = Signature((("m", 2), ("c", 0)))
        rng = random.Random(7)
        for _ in range(20):
            m = [rng.randrange(3) for _ in range(9)]
            alg = FiniteAlgebra(sig, 3, {"m": m, "c": [rng.randrange(3)]})
            c = alg.op("c")
            laws = {
                "=> m(x, y) = m(y, x)": all(m[3 * x + y] == m[3 * y + x]
                                            for x in range(3) for y in range(3)),
                "=> m(x, c()) = x": all(m[3 * x + c] == x for x in range(3)),
                "m(x, y) = c() => m(y, x) = c": all(m[3 * y + x] == c for x in range(3)
                                                    for y in range(3) if m[3 * x + y] == c),
            }
            for text, holds in laws.items():
                assert quasi_identity_holds(alg, parse_quasi_identity(text, sig)) == holds

    def test_sixth_power_identity_on_six_cycle(self):
        q = parse_quasi_identity(f"=> {a_word(6)} = x")
        assert quasi_identity_holds(C6, q)

    def test_period_transfer_fails_on_union(self):
        q = parse_quasi_identity("a(a(x)) = x => a(a(y)) = y")
        assert not quasi_identity_holds(U23, q)
        assert quasi_identity_holds(C2, q)

    def test_trivial_algebra_satisfies_everything(self):
        q = parse_quasi_identity("a(x) = x => y = z")
        assert quasi_identity_holds(TRIV, q)

    def test_parser_round_trip(self):
        for text in (
            "a(a(x)) = x & a(y) = y => u = v",
            "=> a(x) = x",
            "a(x) = y => x = y",
        ):
            q = parse_quasi_identity(text)
            assert str(q) == text
            assert parse_quasi_identity(str(q)) == q

    def test_zeroary_symbols_need_a_signature(self):
        sig = Signature((("c", 0), ("f", 1)))
        q = parse_quasi_identity("=> f(c) = c", sig)
        (lhs, rhs) = q.conclusion
        assert lhs == App("f", (App("c", ()),)) and rhs == App("c", ())

    def test_preserved_by_products_and_subalgebras(self):
        rng = random.Random(5)
        quasis = [
            parse_quasi_identity("a(a(x)) = x => a(a(y)) = y"),
            parse_quasi_identity(f"=> {a_word(6)} = x"),
            parse_quasi_identity("a(x) = x => y = z"),
        ]
        pool = [C2, C3, C6, U23, disjoint_union([C2, C2])]
        for _ in range(10):
            a, b = rng.choice(pool), rng.choice(pool)
            prod, _ = direct_product([a, b])
            seed = {rng.randrange(prod.size)}
            sub, _ = generated_subalgebra(prod, seed)
            for q in quasis:
                if quasi_identity_holds(a, q) and quasi_identity_holds(b, q):
                    assert quasi_identity_holds(prod, q)
                    assert quasi_identity_holds(sub, q)


class TestFreeAlgebra:
    def test_rank_one_over_two_and_three(self):
        ctx = sp(C2, C3)
        alg, gens = free_algebra(ctx, 1)
        assert alg.size == 6
        assert are_isomorphic(alg, C6)
        sub, _ = generated_subalgebra(alg, set(gens))
        assert sub.size == 6

    def test_rank_zero_is_empty_for_unary_signature(self):
        alg, gens = free_algebra(sp(C2), 0)
        assert alg.size == 0 and gens == []

    def test_rank_one_over_single_two_cycle(self):
        alg, _ = free_algebra(sp(C2), 1)
        assert are_isomorphic(alg, C2)

    def test_rank_two_is_a_pair_of_disjoint_orbits(self):
        alg, gens = free_algebra(sp(C2, C3), 2)
        assert alg.size == 12  # two disjoint orbits of period lcm(2, 3)
        assert len(set(gens)) == 2

    def test_table_cells_budget_enforced(self):
        lattice = FiniteAlgebra(Signature((("j", 2), ("m", 2))), 2,
                                {"j": [0, 1, 1, 1], "m": [0, 0, 0, 1]})
        with pytest.raises(BudgetExceededError):
            free_algebra(sp(lattice), 3, Budget(max_table_cells=100))
        # checked as the closure runs: the table bound trips before the
        # 166-element carrier reaches the carrier bound
        with pytest.raises(BudgetExceededError, match="table"):
            free_algebra(sp(lattice), 4, Budget(max_carrier=100, max_table_cells=100))

    def test_universal_property_exactly_one_hom_per_tuple(self):
        ctx = sp(C2, C3)
        for n in (1, 2):
            alg, gens = free_algebra(ctx, n)
            for target in ctx.generators:
                for values in itertools.product(range(target.size), repeat=n):
                    seed = {g: v for g, v in zip(gens, values)}
                    homs = find_homomorphisms(alg, target, seed=seed)
                    assert len(homs) == 1


class TestCoproduct:
    def test_parts_recover_their_union(self):
        ctx = sp(U23)
        result = coproduct(ctx, [C2, C3])
        assert result.algebra.size == 5
        assert result.all_injective()
        assert are_isomorphic(result.algebra, U23)

    def test_incompatible_generators_collapse(self):
        ctx = sp(C2, C3)
        result = coproduct(ctx, [C2, C3])
        assert result.algebra.size == 1
        assert result.index_metadata == ()

    def test_single_factor_is_identity_like(self):
        ctx = sp(C3)
        result = coproduct(ctx, [C3])
        assert are_isomorphic(result.algebra, C3)
        assert result.coprojections[0].is_injective()

    def test_empty_family_gives_initial_algebra(self):
        result = coproduct(sp(C3), [])
        assert result.algebra.size == 0  # unary signature: initial is empty

    def test_factor_membership_enforced(self):
        with pytest.raises(MembershipError):
            coproduct(sp(C2), [C3])

    def test_images_generate(self):
        ctx = sp(U23)
        result = coproduct(ctx, [C2, C3])
        union = {v for c in result.coprojections for v in c.mapping}
        sub, _ = generated_subalgebra(result.algebra, union)
        assert sub.size == result.algebra.size

    def test_oversized_index_refused_before_listing(self):
        # 6**7 = 279,936 families of homs from seven C6 into C6: the budget
        # is checked against their number, not against a listed index
        tracemalloc.start()
        try:
            with pytest.raises(BudgetExceededError, match="^hom-family index exceeds the budget$"):
                coproduct(sp(C6), [C6] * 7, Budget(max_index=10**5))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 10**6

    def test_index_budget_is_exact(self):
        lattice = FiniteAlgebra(Signature((("j", 2), ("m", 2))), 3, {
            "j": [max(p) for p in itertools.product(range(3), repeat=2)],
            "m": [min(p) for p in itertools.product(range(3), repeat=2)],
        })
        base = FiniteAlgebra(lattice.signature, 2, {"j": [0, 1, 1, 1], "m": [0, 0, 0, 1]})
        top = Homomorphism(base, lattice, (0, 2))
        builds = [  # unfiltered, and filtered by agreement on the base
            lambda budget: coproduct(sp(base), [lattice, lattice], budget),
            lambda budget: amalgamated_coproduct(sp(base), base, [(lattice, top)] * 2, budget),
        ]
        for build in builds:
            entries = len(build(Budget()).index_metadata)
            assert build(Budget(max_index=entries)).index_metadata
            with pytest.raises(BudgetExceededError, match="^hom-family index exceeds the budget$"):
                build(Budget(max_index=entries - 1))


class TestAmalgamatedIndex:
    def test_index_is_the_families_agreeing_on_the_base(self):
        chain = lambda n: FiniteAlgebra(Signature((("j", 2), ("m", 2))), n, {
            "j": [max(p) for p in itertools.product(range(n), repeat=2)],
            "m": [min(p) for p in itertools.product(range(n), repeat=2)],
        })
        base, l3 = chain(2), chain(3)
        embeddings = [Homomorphism(base, l3, m) for m in [(0, 1), (0, 2), (1, 2)]]
        for ctx in (sp(base), sp(l3), sp(base, l3)):
            for arms in itertools.product([(l3, e) for e in embeddings], repeat=3):
                want = []
                for a_idx, gen in enumerate(ctx.generators):
                    lists = [find_homomorphisms(alg, gen) for alg, _ in arms]
                    for family in itertools.product(*lists):
                        if len({tuple(h(e(s)) for s in range(base.size))
                                for h, (_, e) in zip(family, arms)}) == 1:
                            want.append((a_idx, tuple(h.mapping for h in family)))
                got = amalgamated_coproduct(ctx, base, list(arms)).index_metadata
                assert list(got) == want

    def test_no_arms_give_one_empty_family_per_generator(self):
        result = amalgamated_coproduct(sp(C2, C3), C6, [])
        assert result.index_metadata == ((0, ()), (1, ()))

    def test_nine_arms_over_a_cycle_answer_promptly(self):
        # 6**9 families of homs from nine C6 into C6, of which the 6 that agree
        # on the base are the index: walking every family took about 40 s
        code = ("from prevar.algcore import Budget, Homomorphism, cyclic_unary\n"
                "from prevar.prevariety import amalgamated_coproduct, sp\n"
                "c6 = cyclic_unary(6)\n"
                "arms = [(c6, Homomorphism(c6, c6, tuple(range(6))))] * 9\n"
                "result = amalgamated_coproduct(sp(c6), c6, arms, Budget(max_index=1000))\n"
                "print(len(result.index_metadata))\n")
        env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(prevar.__file__))}
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env, timeout=10)
        assert proc.returncode == 0 and proc.stdout == "6\n"


def brute_unique_extension(b, maps, target, family):
    """Count all set maps b -> target extending the family along the maps
    and commuting with every operation; no search machinery involved."""
    count = 0
    for mapping in itertools.product(range(target.size), repeat=b.size):
        ok = True
        for m, g in zip(maps, family):
            for x in range(m.source.size):
                if mapping[m(x)] != g(x):
                    ok = False
                    break
            if not ok:
                break
        if not ok:
            continue
        for name, arity in b.signature.ops:
            for args in itertools.product(range(b.size), repeat=arity):
                if mapping[b.op(name, *args)] != target.op(
                    name, *(mapping[x] for x in args)
                ):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            count += 1
    return count


class TestIsCoproduct:
    def test_union_with_part_inclusions(self):
        ctx = sp(U23)
        c2_part, _ = subalgebra_on(U23, [0, 1])
        c3_part, _ = subalgebra_on(U23, [2, 3, 4])
        maps = [
            Homomorphism(c2_part, U23, (0, 1)),
            Homomorphism(c3_part, U23, (2, 3, 4)),
        ]
        assert is_coproduct(ctx, U23, maps)

    def test_generation_failure_detected(self):
        ctx = sp(C3)
        double = disjoint_union([C3, C3])
        first, _ = subalgebra_on(double, [0, 1, 2])
        maps = [Homomorphism(first, double, (0, 1, 2))]
        assert not is_coproduct(ctx, double, maps)

    def test_identity_is_one_factor_coproduct(self):
        ctx = sp(C3)
        assert is_coproduct(ctx, C3, [Homomorphism(C3, C3, (0, 1, 2))])

    def test_candidate_outside_the_class_rejected(self):
        # the union is generated by its parts and the extension condition
        # is vacuous, but it is not itself a member, so it is no coproduct
        ctx = sp(C2, C3)
        c2_part, _ = subalgebra_on(U23, [0, 1])
        c3_part, _ = subalgebra_on(U23, [2, 3, 4])
        maps = [
            Homomorphism(c2_part, U23, (0, 1)),
            Homomorphism(c3_part, U23, (2, 3, 4)),
        ]
        assert not is_coproduct(ctx, U23, maps)

    def test_relabeled_canonical_coproduct_still_passes(self):
        from prevar.algcore import apply_relabeling

        rng = random.Random(2)
        ctx = sp(C3)
        result = coproduct(ctx, [C3, C3])
        perm = list(range(result.algebra.size))
        rng.shuffle(perm)
        twisted = apply_relabeling(result.algebra, perm)
        maps = [
            Homomorphism(m.source, twisted, tuple(perm[v] for v in m.mapping))
            for m in result.coprojections
        ]
        assert is_coproduct(ctx, twisted, maps)
        # aiming both factors at the same copy is no longer a coproduct
        assert not is_coproduct(
            ctx, result.algebra, [result.coprojections[0]] * 2
        )

    def test_agreement_with_canonical_construction(self):
        # positive case: the canonical coproduct passes its own test and is
        # isomorphic, compatibly with the maps, to any passing candidate
        ctx = sp(U23)
        result = coproduct(ctx, [C2, C3])
        assert is_coproduct(ctx, result.algebra, result.coprojections)
        iso = None
        for mapping in itertools.permutations(range(5)):
            try:
                h = Homomorphism(result.algebra, U23, mapping)
            except AlgebraError:
                continue
            if all(
                h(result.coprojections[0](x)) == (0, 1)[x] for x in range(2)
            ) and all(
                h(result.coprojections[1](x)) == (2, 3, 4)[x] for x in range(3)
            ):
                iso = h
                break
        assert iso is not None

    def test_unique_extension_brute_force_small(self):
        ctx = sp(U23)
        result = coproduct(ctx, [C2, C3])
        targets = [U23, trivial_algebra(UNARY_SIGNATURE)]
        for target in targets:
            fams = list(
                itertools.product(
                    find_homomorphisms(C2, target), find_homomorphisms(C3, target)
                )
            )
            for family in fams:
                assert (
                    brute_unique_extension(
                        result.algebra, result.coprojections, target, family
                    )
                    == 1
                )


def compatible_common_target(ctx, algebras, max_total_factors):
    """The oracle for ``is_compatible``: a bounded search for one SP(Y)
    member embedding all the algebras, among products of generators with at
    most ``max_total_factors`` factors.  The first target found, or None."""
    k = len(ctx.generators)
    for total in range(1, max_total_factors + 1):
        for combo in itertools.combinations_with_replacement(range(k), total):
            target, _ = direct_product(
                [ctx.generators[i] for i in combo], signature=ctx.signature
            )
            # one embedding of each: every search stops at its first
            if all(a.size <= target.size
                   and _Search(a, target, True, Budget().max_nodes).first([]) is not None
                   for a in algebras):
                return target
    return None


class TestCompatibility:
    def test_incompatible_pair(self):
        assert not is_compatible(sp(C2, C3), [C2, C3])

    def test_compatible_under_union_generator(self):
        assert is_compatible(sp(U23), [C2, C3])

    def test_singleton_always_compatible(self):
        for alg in (C2, C3, U23):
            assert is_compatible(sp(U23), [alg])

    def test_agrees_with_common_target_search(self):
        ctx = sp(U23)
        for group in ([C2, C3], [C2], [C3, C3]):
            direct = is_compatible(ctx, group)
            target = compatible_common_target(ctx, group, max_total_factors=2)
            assert direct == (target is not None)
        ctx2 = sp(C2, C3)
        assert not is_compatible(ctx2, [C2, C3])
        assert compatible_common_target(ctx2, [C2, C3], max_total_factors=3) is None

    def test_empty_family_compatible(self):
        assert is_compatible(sp(C2), [])

    def test_decided_without_building_the_coproduct(self):
        # the coproduct of two copies of this 3-element binary algebra has
        # an op table over the default max_table_cells; the verdict needs
        # only the hom lists
        y = FiniteAlgebra(Signature((("j", 2),)), 3, {"j": [0, 1, 1, 2, 0, 2, 2, 0, 2]})
        assert is_compatible(sp(y), [y, y])
        with pytest.raises(BudgetExceededError):
            coproduct(sp(y), [y, y])


class TestComfortable:
    def test_trivial_comfortable_with_two_cycle(self):
        assert is_comfortable(sp(C2), TRIV, C2)

    def test_two_cycle_not_comfortable_with_trivial(self):
        assert not is_comfortable(sp(C2), C2, TRIV)

    def test_three_cycle_comfortable_with_itself(self):
        ctx = sp(C3)
        assert is_comfortable(ctx, C3, C3)
        result = coproduct(ctx, [C3, C3])
        assert result.algebra.size == 6 and result.all_injective()


class TestRelativeCongruences:
    def test_six_cycle_kernels_present(self):
        ctx = sp(C2, C3)
        rel = relative_congruences(ctx, C6)
        blocks = {c.blocks for c in rel}
        assert (0, 1, 0, 1, 0, 1) in blocks  # kernel onto the 2-cycle
        assert (0, 1, 2, 0, 1, 2) in blocks  # kernel onto the 3-cycle
        for c in rel:
            from prevar.algcore import quotient

            q, _ = quotient(C6, c)
            assert in_sp(q, [C2, C3])

    def test_trivial_algebra_single_congruence(self):
        rel = relative_congruences(sp(C2), TRIV)
        assert len(rel) == 1

    def test_two_cycle_diagonal_and_full(self):
        rel = relative_congruences(sp(C2), C2)
        assert sorted(c.num_blocks() for c in rel) == [1, 2]


def _relative_lattice_si(ctx, alg):
    """The route the lazy kernel meet replaced: the meet of the non-diagonal
    relative congruences, found by testing the quotient of every congruence."""
    meet = Congruence.full(alg)
    for c in relative_congruences(ctx, alg):
        if not c.is_diagonal():
            meet = meet.meet(c)
    return not meet.is_diagonal()


@st.composite
def relative_si_cases(draw):
    """Generators Y, cycles of length 1-4 or 2-element binary tables, and a
    nontrivial algebra of size at most 8: a subalgebra of a product of
    members of Y, or a random table that may fall outside SP(Y)."""
    if draw(st.booleans()):
        lengths = draw(st.lists(st.integers(1, 4), min_size=1, max_size=2, unique=True))
        gens = [cyclic_unary(d) for d in lengths]
    else:
        bit = st.integers(0, 1)
        tables = draw(st.lists(st.lists(bit, min_size=4, max_size=4), min_size=1, max_size=2))
        gens = [FiniteAlgebra(Signature((("g", 2),)), 2, {"g": t}) for t in tables]
    sig = gens[0].signature
    if draw(st.integers(0, 3)):  # mostly members: they reach the search
        prod, _ = direct_product(draw(st.lists(st.sampled_from(gens), min_size=1, max_size=3)))
        seeds = draw(st.lists(st.integers(0, prod.size - 1), min_size=1, max_size=3))
        alg, _ = generated_subalgebra(prod, seeds)
    else:
        size = draw(st.integers(2, 5))
        element = st.integers(0, size - 1)
        alg = FiniteAlgebra(sig, size, {
            name: draw(st.lists(element, min_size=size**arity, max_size=size**arity))
            for name, arity in sig.ops})
    assume(2 <= alg.size <= 8)
    return gens, alg


class TestRelativeSI:
    def test_generators_are_relatively_irreducible(self):
        ctx = sp(C2, C3)
        assert is_p_subdirectly_irreducible(ctx, C2)
        assert is_p_subdirectly_irreducible(ctx, C3)

    def test_six_cycle_is_not(self):
        assert not is_p_subdirectly_irreducible(sp(C2, C3), C6)

    def test_trivial_rejected(self):
        with pytest.raises(AlgebraError):
            is_p_subdirectly_irreducible(sp(C2), TRIV)

    def test_validates_no_congruence(self, monkeypatch):
        # the meet starts from the full congruence, which needs no check
        calls = []
        validate = Congruence.__post_init__
        monkeypatch.setattr(Congruence, "__post_init__",
                            lambda self: (calls.append(self), validate(self)))
        ctx = sp(C2, C3)
        assert is_p_subdirectly_irreducible(ctx, C3)
        assert not is_p_subdirectly_irreducible(ctx, C6)
        assert not is_p_subdirectly_irreducible(ctx, disjoint_union([C2, C2]))
        assert calls == []
        Congruence.full(C6)
        assert len(calls) == 1

    def test_size_bound_after_membership(self):
        with pytest.raises(MembershipError):
            is_p_subdirectly_irreducible(sp(C2), C3, Budget(max_congruence_size=2))
        with pytest.raises(BudgetExceededError,
                           match="^congruence enumeration bound 5 exceeded by size 6$"):
            is_p_subdirectly_irreducible(sp(C2, C3), C6, Budget(max_congruence_size=5))

    @settings(max_examples=200, deadline=None)
    @given(relative_si_cases())
    def test_matches_relative_congruence_route(self, case):
        gens, alg = case
        ctx = sp(*gens)

        def outcome(decide):
            try:
                return decide(ctx, alg)
            except MembershipError as exc:
                return str(exc), exc.witness

        assert outcome(is_p_subdirectly_irreducible) == outcome(_relative_lattice_si)

    def test_member_of_size_twelve_answers_promptly(self):
        # six disjoint 2-cycles: the relative congruence route took about 10 s
        code = ("from prevar.algcore import cyclic_unary, disjoint_union\n"
                "from prevar.prevariety import is_p_subdirectly_irreducible, sp\n"
                "alg = disjoint_union([cyclic_unary(2)] * 6)\n"
                "print(is_p_subdirectly_irreducible(sp(cyclic_unary(2), cyclic_unary(3)), alg))\n")
        env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(prevar.__file__))}
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env, timeout=5)
        assert proc.returncode == 0 and proc.stdout == "False\n"


def brute_force_min_cover(ctx, algebras):
    """Try every set partition, smallest block count first."""
    n = len(algebras)
    if n == 0:
        return []

    def partitions(indices):
        if not indices:
            yield []
            return
        first, rest = indices[0], indices[1:]
        for sub in partitions(rest):
            for i in range(len(sub)):
                yield sub[:i] + [[first] + sub[i]] + sub[i + 1 :]
            yield [[first]] + sub

    best = None
    for part in partitions(list(range(n))):
        if best is not None and len(part) >= len(best):
            continue
        if all(is_compatible(ctx, [algebras[i] for i in block]) for block in part):
            best = part
    return best


class TestMinimumCompatibleCover:
    def test_two_blocks_for_separate_generators(self):
        blocks = minimum_compatible_cover(sp(C2, C3), [C2, C3])
        assert blocks == [[0], [1]]

    def test_one_block_under_union_generator(self):
        blocks = minimum_compatible_cover(sp(U23), [C2, C3])
        assert blocks == [[0, 1]]

    def test_empty_list(self):
        assert minimum_compatible_cover(sp(C2), []) == []

    def test_matches_brute_force_on_small_lists(self):
        u25 = disjoint_union([C2, C5])
        u35 = disjoint_union([C3, C5])
        ctx = sp(U23, u25, u35)
        group = [C2, C3, C5, C2]
        mine = minimum_compatible_cover(ctx, group)
        brute = brute_force_min_cover(ctx, group)
        assert len(mine) == len(brute)
        assert all(is_compatible(ctx, [group[i] for i in b]) for b in mine)

    def test_pairwise_union_generators(self):
        u25 = disjoint_union([C2, C5])
        u35 = disjoint_union([C3, C5])
        ctx = sp(U23, u25, u35)
        assert is_compatible(ctx, [C2, C3])
        assert is_compatible(ctx, [C2, C5])
        assert is_compatible(ctx, [C3, C5])
        assert not is_compatible(ctx, [C2, C3, C5])
        assert len(minimum_compatible_cover(ctx, [C2, C3, C5])) == 2


class TestIndependence:
    def test_union_parts_independent(self):
        ctx = sp(U23)
        assert is_independent(ctx, U23, [[0, 1], [2, 3, 4]])

    def test_two_summands_of_three_cycles(self):
        double = disjoint_union([C3, C3])
        ctx = sp(C3)
        assert is_independent(ctx, double, [[0, 1, 2], [3, 4, 5]])

    def test_single_subalgebra_independent(self):
        ctx = sp(C3)
        double = disjoint_union([C3, C3])
        assert is_independent(ctx, double, [[0, 1, 2]])

    def test_non_closed_subset_rejected(self):
        ctx = sp(C3)
        with pytest.raises(AlgebraError):
            is_independent(ctx, C3, [[0]])

    def test_overlapping_copies_not_independent(self):
        ctx = sp(C3)
        double = disjoint_union([C3, C3])
        assert not is_independent(ctx, double, [[0, 1, 2], [0, 1, 2]])


class TestChainIndependence:
    def test_two_summand_chain(self):
        double = disjoint_union([C3, C3])
        report = chain_independence(double, [[0, 1, 2]], [[3, 4, 5]])
        assert report.ok
        assert report.retractions[0] is not None
        retraction = report.retractions[0]
        # fixes the chain member pointwise: it maps the span onto A_1
        assert retraction.target.size == 3

    def test_empty_chain_initial_object(self):
        double = disjoint_union([C3, C3])
        report = chain_independence(double, [], [])
        assert report.ok and report.retractions == []

    def test_three_summand_nested_chain(self):
        triple = disjoint_union([C3, C3, C3])
        report = chain_independence(
            triple, [[0, 1, 2, 3, 4, 5], [0, 1, 2]], [[6, 7, 8], [3, 4, 5]]
        )
        assert report.ok
        assert all(r is not None for r in report.retractions)

    def test_no_component_map_leaves_no_retraction(self):
        # the one-element B_1 has no hom into the empty A_1
        report = chain_independence(cyclic_unary(1), [[]], [[0]])
        assert report.retractions == [None] and report.ok

    def test_hypothesis_violation_reports_index(self):
        double = disjoint_union([C3, C3])
        with pytest.raises(ChainHypothesisError) as err:
            chain_independence(double, [[0, 1, 2]], [[0, 1, 2]])
        assert err.value.index == 1

    def test_descending_violation_reports_index(self):
        triple = disjoint_union([C3, C3, C3])
        with pytest.raises(ChainHypothesisError) as err:
            chain_independence(
                triple, [[0, 1, 2], [3, 4, 5]], [[6, 7, 8], [6, 7, 8]]
            )
        assert err.value.index == 2


class TestHasTrivialSubalgebra:
    def test_fixed_point(self):
        assert has_trivial_subalgebra(cyclic_unary(1))

    def test_no_fixed_point(self):
        assert not has_trivial_subalgebra(C2)

    def test_union_with_fixed_point(self):
        assert has_trivial_subalgebra(disjoint_union([C2, cyclic_unary(1)]))


class TestEnumerateMembers:
    def test_sp_of_two_cycle_up_to_four(self):
        members = enumerate_members(sp(C2), 4)
        sizes = sorted(m.size for m in members)
        assert sizes == [0, 1, 2, 4]  # empty, trivial, C2, C2+C2

    def test_classes_are_pairwise_non_isomorphic(self):
        members = enumerate_members(sp(C2, C3), 4)
        for a, b in itertools.combinations(members, 2):
            assert not are_isomorphic(a, b)

    def test_membership_tested_once_per_class(self, monkeypatch):
        # 1 + 3 + 7 + 19 unary tables up to relabelling, of 1 + 4 + 27 + 256
        tested = []
        contains = PrevarietyCtx.contains
        monkeypatch.setattr(PrevarietyCtx, "contains",
                            lambda ctx, alg, budget: tested.append(alg) or contains(ctx, alg, budget))
        enumerate_members(sp(C2, C3), 4)
        assert len(tested) == 30

    def test_enumeration_budget_counts_every_table(self):
        raw = 1 + 2**2 + 3**3 + 4**4
        assert len(enumerate_members(sp(C2, C3), 4, Budget(max_enumeration=raw))) == 5
        with pytest.raises(BudgetExceededError,
                           match="^raw algebra enumeration exceeds the budget; lower max_size$"):
            enumerate_members(sp(C2, C3), 4, Budget(max_enumeration=raw - 1))


class TestAmalgamation:
    def test_single_two_cycle_generator_holds(self):
        ok, counterexample = check_amalgamation_bounded(sp(C2), 4)
        assert ok and counterexample is None

    def test_trivial_generator_holds(self):
        ok, _ = check_amalgamation_bounded(sp(trivial_algebra(UNARY_SIGNATURE)), 3)
        assert ok

    def test_two_and_three_cycle_generators_fixture(self):
        # regression fixture: exhaustive result over members of size <= 5
        ok, counterexample = check_amalgamation_bounded(sp(C2, C3), 5)
        assert ok and counterexample is None

    def test_empty_base_exposes_joint_embedding_failure(self):
        # with the empty algebra admitted as a base, the square over
        # (empty -> trivial, empty -> C2) cannot be completed in SP(C2)
        ok, counterexample = check_amalgamation_bounded(
            sp(C2), 2, include_empty_base=True
        )
        assert not ok
        assert counterexample.base.size == 0
        sizes = sorted((counterexample.left.size, counterexample.right.size))
        assert sizes == [1, 2]

    @staticmethod
    def _listing_every_pushout(ctx, max_size, include_empty_base=False):
        """The check before its hom lists were memoised, building every
        pushout: the a -> c embeddings listed once per b, every arm's homs
        into every generator once per pushout."""
        members = enumerate_members(ctx, max_size)
        for a in [m for m in members if m.size >= 1 or include_empty_base]:
            for b in members:
                if b.size < a.size:
                    continue
                embeddings_ab = prevar.prevariety.find_homomorphisms(a, b, injective=True)
                if not embeddings_ab:
                    continue
                for c in members:
                    if c.size < a.size:
                        continue
                    embeddings_ac = prevar.prevariety.find_homomorphisms(a, c, injective=True)
                    for f in embeddings_ab:
                        for g in embeddings_ac:
                            pushout = amalgamated_coproduct(ctx, a, [(b, f), (c, g)])
                            if not all(h.is_injective() for h in pushout.coprojections):
                                return False, AmalgamationCounterexample(a, b, c, f, g)
        return True, None

    @pytest.mark.parametrize("gens, max_size, empty", [
        ([C2], 4, False),
        ([C2], 2, True),
        ([C2, C3], 4, False),
        ([FiniteAlgebra(UNARY_SIGNATURE, 3, {"a": [0, 0, 1]})], 4, False),
    ])
    def test_each_hom_list_is_listed_once(self, monkeypatch, gens, max_size, empty):
        calls = []
        real = prevar.prevariety.find_homomorphisms

        def counting(source, target, **kwargs):
            calls.append((id(source), id(target), kwargs.get("injective", False)))
            return real(source, target, **kwargs)

        monkeypatch.setattr(prevar.prevariety, "find_homomorphisms", counting)
        ctx = sp(*gens)
        got = check_amalgamation_bounded(ctx, max_size, include_empty_base=empty)
        memoised = len(calls)
        assert len(set(calls)) == memoised
        calls.clear()
        # the first counterexample, in the old loop order, is unchanged
        assert got == self._listing_every_pushout(ctx, max_size, empty)
        assert memoised < len(calls)


class TestTransitivity:
    def test_nested_independent_families_flatten(self):
        # two independent subalgebras, each split into two independent
        # halves; the four halves are independent in the ambient algebra
        ctx = sp(C2)
        quad = disjoint_union([C2, C2, C2, C2])
        b1 = [0, 1, 2, 3]
        b2 = [4, 5, 6, 7]
        assert is_independent(ctx, quad, [b1, b2])
        b1_alg, _ = subalgebra_on(quad, b1)
        b2_alg, _ = subalgebra_on(quad, b2)
        assert is_independent(ctx, b1_alg, [[0, 1], [2, 3]])
        assert is_independent(ctx, b2_alg, [[0, 1], [2, 3]])
        assert is_independent(ctx, quad, [[0, 1], [2, 3], [4, 5], [6, 7]])


class TestSubfamilyIndependence:
    def test_singleton_subfamily(self):
        double = disjoint_union([C3, C3])
        assert subfamily_independence_check(
            sp(C3), double, [[0, 1, 2], [3, 4, 5]], [0]
        )

    def test_two_of_three_summands(self):
        triple = disjoint_union([C3, C3, C3])
        family = [[0, 1, 2], [3, 4, 5], [6, 7, 8]]
        for pair in itertools.combinations(range(3), 2):
            assert subfamily_independence_check(sp(C3), triple, family, list(pair))

    def test_empty_subfamily_matches_initial_algebra(self):
        double = disjoint_union([C3, C3])
        assert subfamily_independence_check(
            sp(C3), double, [[0, 1, 2], [3, 4, 5]], []
        )

    def test_multiple_generators_rejected(self):
        with pytest.raises(AlgebraError):
            subfamily_independence_check(sp(C2, C3), U23, [[0, 1]], [0])


class TestConstantsCensus:
    def test_kappa_one(self):
        census = constants_si_census(1)
        assert census.count == 1
        alg = census.algebras[0]
        assert alg.size == 2 and alg.op("c0") == 0

    def test_kappa_two_structure(self):
        census = constants_si_census(2)
        assert census.count == 2
        assert census.partitions == [(0, 0), (0, 1)]

    def test_distinct_partitions_incompatible(self):
        census = constants_si_census(3)
        for i in range(census.count):
            for j in range(census.count):
                assert census.compatibility[i][j] == (i == j)


class TestAbsolutelyDirectedSpot:
    def test_single_generator_pairwise_implies_setwise(self):
        # over one generating algebra, pairwise compatibility of nontrivial
        # members extends to every tested finite set
        ctx = sp(U23)
        members = [m for m in enumerate_members(ctx, 5) if m.size >= 2]
        for a, b in itertools.combinations(members, 2):
            assert is_compatible(ctx, [a, b])
        for group in itertools.combinations(members, 3):
            assert is_compatible(ctx, list(group))
