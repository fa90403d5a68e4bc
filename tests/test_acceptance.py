"""Acceptance suite: one test per numbered criterion, each printing a
PASS line with its measured cost.  Stated time bounds are asserted."""

import itertools
import random
import time

from prevar.algcore import (
    FiniteAlgebra,
    Signature,
    UNARY_SIGNATURE,
    apply_relabeling,
    are_isomorphic,
    canonical_form,
    cyclic_unary,
    direct_product,
    disjoint_union,
    generated_subalgebra,
)
from prevar.amalgam import (
    alternating_strings,
    coset_torsion_scan,
    stabilizer_coset_survey,
    sym_stab_amalgam,
)
from prevar.freeness import (
    CollapseRule,
    FreeTermContext,
    Tag,
    Word,
    ZERO,
    make_tag,
    no_free_triple_bounded,
    normal_form,
    parse_free_term,
    survival_oracle_agreement,
    verify_free_pair,
    witness_triple_hom,
)
from prevar.homsearch import find_homomorphisms, in_sp
from prevar.prevariety import (
    ChainHypothesisError,
    PrevarietyCtx,
    chain_independence,
    constants_si_census,
    coproduct,
    free_algebra,
    is_compatible,
    is_coproduct,
    is_p_subdirectly_irreducible,
    minimum_compatible_cover,
    parse_quasi_identity,
    quasi_identity_holds,
    sp,
)
from prevar.srs import Presentation, coproduct_presentation, knuth_bendix, reduce, words_equal

C2 = cyclic_unary(2)
C3 = cyclic_unary(3)
C5 = cyclic_unary(5)
C6 = cyclic_unary(6)
U23 = disjoint_union([C2, C3])


def report(number, description, started, bound=None):
    elapsed = time.perf_counter() - started
    print(f"PASS criterion {number}: {description} ({elapsed:.2f}s)")
    if bound is not None:
        assert elapsed < bound, f"criterion {number} exceeded {bound}s"


def test_criterion_01_cyclic_family_free_algebra():
    started = time.perf_counter()
    ctx = sp(C2, C3)
    alg, gens = free_algebra(ctx, 1)
    assert alg.size == 6
    assert are_isomorphic(alg, C6)
    q = parse_quasi_identity("=> a(a(a(a(a(a(x)))))) = x")
    assert quasi_identity_holds(alg, q)
    report(1, "free algebra of rank 1 over the 2- and 3-cycles is the 6-cycle",
           started, bound=1.0)


def test_criterion_02_incompatibility():
    started = time.perf_counter()
    ctx = sp(C2, C3)
    result = coproduct(ctx, [C2, C3])
    assert result.algebra.size == 1
    assert not is_compatible(ctx, [C2, C3])
    union_ctx = sp(U23)
    result = coproduct(union_ctx, [C2, C3])
    assert result.algebra.size == 5
    assert result.all_injective()
    assert is_compatible(union_ctx, [C2, C3])
    report(2, "2- and 3-cycles incompatible alone, compatible under the union",
           started)


def test_criterion_03_relative_si_census():
    started = time.perf_counter()
    ctx = sp(C2, C3)
    members = []
    for m in range(1, 7):
        for table in itertools.product(range(m), repeat=m):
            alg = FiniteAlgebra(UNARY_SIGNATURE, m, {"a": table})
            if in_sp(alg, [C2, C3]):
                members.append(alg)
    classes = {}
    for alg in members:
        classes.setdefault(canonical_form(alg), alg)
    irreducible = {
        key: alg
        for key, alg in classes.items()
        if alg.size >= 2 and is_p_subdirectly_irreducible(ctx, alg)
    }
    expected = {canonical_form(C2), canonical_form(C3)}
    assert set(irreducible) == expected
    report(3, f"relative SI census over {len(members)} member tables "
              f"({len(classes)} classes) finds exactly the 2- and 3-cycles",
           started, bound=60.0)


def test_criterion_04_cover_counts():
    started = time.perf_counter()
    assert minimum_compatible_cover(sp(C2, C3), [C2, C3]) == [[0], [1]]
    assert minimum_compatible_cover(sp(U23), [C2, C3]) == [[0, 1]]
    u25 = disjoint_union([C2, C5])
    u35 = disjoint_union([C3, C5])
    ctx = sp(U23, u25, u35)
    for pair in itertools.combinations([C2, C3, C5], 2):
        assert is_compatible(ctx, list(pair))
    assert not is_compatible(ctx, [C2, C3, C5])
    assert len(minimum_compatible_cover(ctx, [C2, C3, C5])) == 2
    report(4, "cover sizes: 2 blocks, 1 block, and pairwise-not-triple generators",
           started)


def test_criterion_05_two_generated_collapse_suite():
    started = time.perf_counter()
    one = FreeTermContext(CollapseRule.TWO_GENERATED, 1)
    words = [
        Word("".join(ls), 0)
        for n in range(5)
        for ls in itertools.product("pq", repeat=n)
    ]
    assert len(words) == 31
    for u, v, w in itertools.product(words, repeat=3):
        assert make_tag(one, u, v, w) == ZERO
    three = FreeTermContext(CollapseRule.TWO_GENERATED, 3)
    assert isinstance(normal_form(three, parse_free_term("t(x, y, z)")), Tag)
    pair = verify_free_pair(CollapseRule.TWO_GENERATED, 4)
    assert pair.failures == [] and pair.collisions == 0
    cert = no_free_triple_bounded(4)
    assert cert.conclusive
    report(5, "no free triple over one generator; pair free to depth 4",
           started, bound=10.0)


def test_criterion_06_stem_split_suite():
    started = time.perf_counter()
    ctx = FreeTermContext(CollapseRule.STEM_SPLIT, 1)
    assert normal_form(ctx, parse_free_term("t(p x, p q x, q q x)")) == ZERO
    survivor = normal_form(ctx, parse_free_term("t(x, q x, p x)"))
    assert isinstance(survivor, Tag)
    rng = random.Random(20240601)
    for _ in range(100):
        words = [
            "".join(rng.choice("pq") for _ in range(rng.randint(0, 8)))
            for _ in range(3)
        ]
        assert witness_triple_hom(*words).ok
    report(6, "stem-split collapses and 100 seeded witness triples", started,
           bound=10.0)


def test_criterion_07_survival_oracle_agreement():
    started = time.perf_counter()
    for rule in (CollapseRule.TWO_GENERATED, CollapseRule.STEM_SPLIT):
        checked, disagreements = survival_oracle_agreement(rule, 3, 3)
        assert checked == 45 ** 3
        assert disagreements == []
    report(7, "survival predicates match the schema-instance oracle on "
              f"2 x {45 ** 3} bounded triples", started, bound=10.0)


def test_criterion_08_monoid_counterexamples():
    started = time.perf_counter()
    inverses = Presentation(("x", "y", "z"), ((("x", "y"), ()), (("z", "x"), ())))
    done = knuth_bendix(inverses)
    assert done.completed
    assert words_equal(done.system, ("y",), ("z",))
    assert reduce(done.system, ("x", "y")) == ()
    assert reduce(done.system, ("z", "x")) == ()
    b1 = Presentation(("u1", "x", "y"), ((("y",), ("x", "u1")),))
    b2 = Presentation(("u2", "x", "y"), ((("y",), ("x", "u2")),))
    two = knuth_bendix(coproduct_presentation([b1, b2], ["x", "y"]))
    assert two.completed
    assert not words_equal(two.system, ("u1",), ("u2",))
    assert words_equal(two.system, ("x", "u1"), ("x", "u2"))
    b3 = Presentation(("x", "y", "w"), ((("x", "w"), ()), (("w", "x"), ())))
    three = knuth_bendix(coproduct_presentation([b1, b2, b3], ["x", "y"]))
    assert three.completed
    assert words_equal(three.system, ("u1",), ("u2",))
    report(8, "one-sided inverses fall together; distinguished generators "
              "separate until a two-sided inverse is adjoined", started,
           bound=1.0)


def test_criterion_09_amalgam_torsion():
    started = time.perf_counter()
    ctx = sym_stab_amalgam(3)
    for length in range(5):
        expected = length % 2 == 1 or length == 0
        for string in alternating_strings(ctx, length):
            assert coset_torsion_scan(ctx, string) == expected
    for n in range(2, 6):
        survey = stabilizer_coset_survey(n)
        assert survey.all_cosets_have_involutions
        assert len(survey.witnesses) == n
    report(9, "coset torsion follows string parity; stabilizer cosets have "
              "involutions up to n=5", started, bound=30.0)


# -- criterion 10 machinery ---------------------------------------------------


def brute_homs(a, b):
    out = []
    for mapping in itertools.product(range(b.size), repeat=a.size):
        ok = True
        for name, arity in a.signature.ops:
            for args in itertools.product(range(a.size), repeat=arity):
                if mapping[a.op(name, *args)] != b.op(name, *(mapping[x] for x in args)):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            out.append(mapping)
    return out


def brute_generates(alg, seeds):
    members = set(seeds)
    for name, arity in alg.signature.ops:
        if arity == 0:
            members.add(alg.op(name))
    while True:
        new = set()
        for name, arity in alg.signature.ops:
            if arity == 0:
                continue
            for args in itertools.product(sorted(members), repeat=arity):
                v = alg.op(name, *args)
                if v not in members:
                    new.add(v)
        if not new:
            break
        members |= new
    return len(members) == alg.size


def brute_coproduct_verdict(generators, b, maps, targets):
    """Generation plus unique extension against every target and family,
    all by raw enumeration."""
    images = {v for m in maps for v in m.mapping}
    if not brute_generates(b, images):
        return False
    b_homs_cache = {}
    for target in targets:
        key = id(target)
        if key not in b_homs_cache:
            b_homs_cache[key] = brute_homs(b, target)
        candidates = b_homs_cache[key]
        factor_homs = [brute_homs(m.source, target) for m in maps]
        for family in itertools.product(*factor_homs):
            extensions = 0
            for mapping in candidates:
                if all(
                    mapping[m(x)] == g[x]
                    for m, g in zip(maps, family)
                    for x in range(m.source.size)
                ):
                    extensions += 1
            if extensions != 1:
                return False
    return True


def random_member(rng, generators, max_size):
    """A generated subalgebra of a small product of generators."""
    for _ in range(40):
        chosen = [rng.choice(generators) for _ in range(rng.randint(1, 2))]
        prod, _ = direct_product(chosen, signature=generators[0].signature)
        if prod.size == 0:
            continue
        seeds = {rng.randrange(prod.size) for _ in range(rng.randint(1, 2))}
        sub, _ = generated_subalgebra(prod, seeds)
        if 1 <= sub.size <= max_size:
            return sub
    return None


def test_criterion_10_coproduct_universal_property_oracle():
    started = time.perf_counter()
    rng = random.Random(101)
    unary = UNARY_SIGNATURE
    binary = Signature((("m", 2),))
    instances = 0
    verdicts = {True: 0, False: 0}
    while instances < 50:
        sig = unary if instances % 2 == 0 else binary
        gens = []
        for _ in range(rng.randint(1, 2)):
            n = rng.randint(1, 3)
            tables = {
                name: [rng.randrange(n) for _ in range(n**arity)]
                for name, arity in sig.ops
            }
            gens.append(FiniteAlgebra(sig, n, tables))
        ctx = PrevarietyCtx(tuple(gens))
        factors = []
        for _ in range(rng.randint(1, 2)):
            member = random_member(rng, gens, 3)
            if member is not None:
                factors.append(member)
        if not factors:
            continue
        try:
            canonical = coproduct(ctx, factors)
        except Exception:
            continue
        if canonical.algebra.size > 5 or canonical.algebra.size == 0:
            continue
        b, maps = canonical.algebra, canonical.coprojections
        if rng.random() < 0.5 and len(factors) >= 2:
            # perturb: aim every factor at the first coprojection's image
            first = maps[0]
            redirected = []
            ok = True
            for m in maps:
                homs = find_homomorphisms(m.source, first.source)
                if not homs:
                    ok = False
                    break
                redirected.append(first.compose(homs[0]))
            if ok:
                maps = redirected
        targets = list(gens)
        extra = random_member(rng, gens, 5)
        if extra is not None:
            targets.append(extra)
        mine = is_coproduct(ctx, b, maps)
        brute = brute_coproduct_verdict(gens, b, maps, targets)
        assert mine == brute, f"instance {instances} disagrees"
        verdicts[mine] += 1
        instances += 1
    assert verdicts[True] >= 10 and verdicts[False] >= 5
    report(10, f"coproduct test agrees with unique-extension brute force on "
               f"50 seeded instances ({verdicts[True]} positive, "
               f"{verdicts[False]} negative)", started)


def test_criterion_11_chain_theorem_exhaustive():
    started = time.perf_counter()

    def comp_subsets(components, allow_empty=True):
        out = []
        for r in range(0 if allow_empty else 1, len(components) + 1):
            out.extend(itertools.combinations(components, r))
        return out

    verified = 0
    excluded = 0
    for k in (1, 2, 3):
        a0 = disjoint_union([C3] * k)
        components = [list(range(3 * i, 3 * i + 3)) for i in range(k)]

        def carrier(comps):
            return sorted(x for c in comps for x in c)

        # n = 0
        rep = chain_independence(a0, [], [])
        assert rep.ok
        verified += 1
        # n = 1
        for a1 in comp_subsets(components, allow_empty=False):
            for b1 in comp_subsets(components):
                try:
                    rep = chain_independence(a0, [carrier(a1)], [carrier(b1)])
                except ChainHypothesisError:
                    excluded += 1
                    continue
                assert rep.ok
                assert all(r is not None for r in rep.retractions)
                verified += 1
        # n = 2
        if k < 2:
            continue
        for a1 in comp_subsets(components, allow_empty=False):
            for b1 in comp_subsets(components):
                inner = list(a1)
                for a2 in comp_subsets(inner, allow_empty=False):
                    for b2 in comp_subsets(inner):
                        try:
                            rep = chain_independence(
                                a0,
                                [carrier(a1), carrier(a2)],
                                [carrier(b1), carrier(b2)],
                            )
                        except ChainHypothesisError:
                            excluded += 1
                            continue
                        assert rep.ok
                        assert all(r is not None for r in rep.retractions)
                        verified += 1
    report(11, f"chain instances verified exhaustively "
               f"({verified} satisfied the hypothesis, {excluded} excluded)",
           started)


def test_criterion_12_hom_search_oracle():
    started = time.perf_counter()
    algebras = [FiniteAlgebra(UNARY_SIGNATURE, 0, {"a": []})]
    for n in range(1, 4):
        for table in itertools.product(range(n), repeat=n):
            algebras.append(FiniteAlgebra(UNARY_SIGNATURE, n, {"a": table}))
    pairs = 0
    for a in algebras:
        for b in algebras:
            found = sorted(h.mapping for h in find_homomorphisms(a, b))
            assert found == sorted(brute_homs(a, b))
            pairs += 1
    rng = random.Random(12)
    sig = Signature((("m", 2),))
    for _ in range(20):
        na, nb = rng.randint(1, 3), rng.randint(1, 3)
        a = FiniteAlgebra(sig, na, {"m": [rng.randrange(na) for _ in range(na * na)]})
        b = FiniteAlgebra(sig, nb, {"m": [rng.randrange(nb) for _ in range(nb * nb)]})
        found = sorted(h.mapping for h in find_homomorphisms(a, b))
        assert found == sorted(brute_homs(a, b))
    report(12, f"search equals brute force on {pairs} unary pairs and "
               "20 seeded binary pairs", started)


def test_criterion_13_constants_census():
    started = time.perf_counter()
    census = constants_si_census(3)
    sig = census.algebras[0].signature
    brute = {}
    for values in itertools.product(range(2), repeat=3):
        alg = FiniteAlgebra(sig, 2, {f"c{i}": [values[i]] for i in range(3)})
        key = min(
            canonical_form(alg),
            canonical_form(apply_relabeling(alg, (1, 0))),
        )
        brute[key] = alg
    assert census.count == len(brute) == 4
    for i in range(census.count):
        for j in range(census.count):
            assert census.compatibility[i][j] == (i == j)
    report(13, "census of two-element constant algebras matches brute-force "
               "enumeration; distinct partitions are incompatible", started)
