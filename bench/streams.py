"""Seeded query streams, one per workload.

A stream is a sequence of rounds.  Round ``r`` draws the shape of every
input (isomorphism types, sizes, presentation families, term shapes) from
a catalogue generator that depends on (workload, r) only, and everything
else from the run seed: the labelling of every algebra, words, letter
names and the order of the queries.  So each seed gives other inputs
while the work a run does, and with it its figures, stays steady from seed
to seed.  Each round has the same slots (query kinds and input sizes).
"""

from __future__ import annotations

import itertools
import random

import model as M
from model import Alg

L2 = Alg((("j", 2), ("m", 2)), 2, {"j": [0, 1, 1, 1], "m": [0, 0, 0, 1]})
S2 = Alg((("j", 2),), 2, {"j": [0, 1, 1, 1]})
B2 = Alg((("j", 2), ("m", 2), ("n", 1), ("z", 0), ("o", 0)), 2,
         {"j": [0, 1, 1, 1], "m": [0, 0, 0, 1], "n": [1, 0], "z": [0], "o": [1]})
BINARY = (("j", 2),)
BINARY_TABLES = [list(t) for t in itertools.product((0, 1), repeat=4)]


def q(kind, **args):
    return (kind, args)


def texts(algs):
    return [a.text() for a in algs]


def mixed(rng, alg):
    return M.relabel(alg, M.shuffled(rng, alg.size))


def binary(t):
    return Alg(BINARY, 2, {"j": t})


def sub_power(g: Alg, k: int, seeds) -> Alg:
    """Subalgebra of g^k generated by the seed tuples (a member of SP(g))."""
    elems = sorted(M.closure(g.sig, [g] * k, seeds))
    pos = {t: i for i, t in enumerate(elems)}
    return Alg(g.sig, len(elems), {
        n: [pos[tuple(g.apply(n, [x[c] for x in args]) for c in range(k))]
            for args in itertools.product(elems, repeat=a)]
        for n, a in g.sig
    })


def random_sub_power(cat, g, k, count):
    seeds = [tuple(cat.randrange(g.size) for _ in range(k)) for _ in range(count)]
    return sub_power(g, k, seeds)


def random_unary(cat, n):
    return Alg(M.UNARY, n, {"a": [cat.randrange(n) for _ in range(n)]})


def random_binary(cat, n):
    return Alg(BINARY, n, {"j": [cat.randrange(n) for _ in range(n * n)]})


def member_cycle_lengths(lengths, top=12):
    """Cycle lengths d with C_d in SP(C_e : e in lengths): d is the lcm of
    the e that divide it."""
    return [d for d in range(1, top + 1) if d == M.lcm([e for e in lengths if d % e == 0])]


def table_order(salt, tables):
    """A fixed order of the given two-element binary tables; round r uses
    entry r mod their number, so the tables take turns."""
    order = list(tables)
    random.Random(salt).shuffle(order)
    return order


# -- construct -------------------------------------------------------------------------


def cycle_list(cat):
    """One to three distinct cycle lengths up to 6 with lcm at most 12 (a
    larger period makes free algebras too slow for the deadline)."""
    while True:
        lengths = sorted(cat.sample(range(1, 7), cat.randint(1, 3)))
        if M.lcm(lengths) <= 12:
            return lengths


def cycles(rng, lengths):
    return [mixed(rng, M.cycle(d)) for d in lengths]


def free_cycles_size(lengths, rank):
    """Free algebra of SP(C_e : e in lengths) on ``rank`` generators: one
    cycle of length lcm per generator, or a single point when lcm is 1."""
    period = M.lcm(lengths)
    return rank * period if period > 1 else 1


def unary_factors(cat, rng, count):
    lengths = cat.choice([[2, 3], [2], [3], [2, 4], [2, 3, 4], [1, 2]])
    members = member_cycle_lengths(lengths)
    return cycles(rng, lengths), cycles(rng, [cat.choice(members) for _ in range(count)])


def power_factors(cat, rng, count):
    """Members of SP(L2) or SP(S2): subalgebras of the square.  Lattice
    factors stay at two elements, since the coproduct of two 4-element
    lattices is the 166-element free one."""
    if cat.random() < 0.5:
        factors = [random_sub_power(cat, L2, 2, 1) if cat.random() < 0.5 else L2
                   for _ in range(count)]
        return [mixed(rng, L2)], [mixed(rng, f) for f in factors]
    factors = [random_sub_power(cat, S2, 2, cat.randint(1, 2)) for _ in range(count)]
    return [mixed(rng, S2)], [mixed(rng, f) for f in factors]


# Binary tables whose free algebras of rank 3 and 4 prevar builds well
# within the deadline today.  Rank 3 leaves out NOR and NAND (tables 8 and
# 14: 256 elements, over 2 s, too near the deadline on a loaded box); rank 4
# also leaves out x&~y, ~x&y, x|~y and ~x|y (tables 2, 4, 11 and 13: not
# done after 3 s).  The others answer within 0.08 s.
RANK3_TABLES = [t for t in range(16) if t not in (8, 14)]
RANK4_TABLES = [t for t in RANK3_TABLES if t not in (2, 4, 11, 13)]


def construct_round(cat, rng, r):
    t3 = table_order("construct:rank3", RANK3_TABLES)[r % len(RANK3_TABLES)]
    t4 = table_order("construct:rank4", RANK4_TABLES)[r % len(RANK4_TABLES)]
    out = []
    # no query of this stream may fail, so it leaves out what overruns today:
    # the 166-element free lattice on 4 generators, the free algebras of the
    # tables above, and `prevar free --gen c2 --gen c3 -n 2` (12 elements,
    # whose cyclic-order check tries all 12! orders)
    for rank, size in zip((1, 2, 3), (1, 4, 18)):
        out.append(q("free", gens=texts([mixed(rng, L2)]), n=rank, spectrum=size))
    for rank in range(1, 6):
        out.append(q("free", gens=texts([mixed(rng, S2)]), n=rank, spectrum=2 ** rank - 1))
    for rank in range(0, 3):
        out.append(q("free", gens=texts([mixed(rng, B2)]), n=rank, spectrum=2 ** 2 ** rank))
    for _ in range(3):
        lengths, rank = cycle_list(cat), cat.randint(1, 3)
        out.append(q("free", gens=texts(cycles(rng, lengths)), n=rank,
                     spectrum=free_cycles_size(lengths, rank)))
    for rank, t in ((2, cat.randrange(16)), (2, cat.randrange(16)), (3, t3), (4, t4)):
        out.append(q("free", gens=texts([mixed(rng, binary(BINARY_TABLES[t]))]), n=rank,
                     spectrum=None))
    # coproduct-type verdicts of about a millisecond, where the median falls
    for make in (unary_factors, unary_factors, power_factors, power_factors, power_factors):
        gens, factors = make(cat, rng, 2)
        out.append(q("coproduct", gens=texts(gens), factors=texts(factors)))
    for _ in range(4):
        gens, (a, b) = power_factors(cat, rng, 2)
        base = Alg(a.sig, 1, {n: [0] for n, _ in a.sig})
        arms = [[a.text(), [cat.randrange(a.size)]], [b.text(), [cat.randrange(b.size)]]]
        out.append(q("amalgamated_coproduct", gens=texts(gens), base=base.text(), arms=arms))
    for make in (unary_factors, power_factors) * 2:
        gens, factors = make(cat, rng, 2)
        out.append(q("is_compatible", gens=texts(gens), factors=texts(factors)))
        gens, factors = make(cat, rng, 2)
        out.append(q("is_comfortable", gens=texts(gens), factors=texts(factors)))
    lengths = cycle_list(cat)
    out.append(q("cli_free", gens=texts(cycles(rng, lengths)), n=1,
                 spectrum=free_cycles_size(lengths, 1), cyclic=M.lcm(lengths)))
    rank = cat.randint(1, 3)
    out.append(q("cli_free", gens=texts([mixed(rng, L2)]), n=rank,
                 spectrum=(1, 4, 18)[rank - 1], cyclic=None))
    gens, factors = power_factors(cat, rng, 2)
    out.append(q("cli_coproduct", gens=texts(gens), factors=texts(factors)))
    gens, factors = unary_factors(cat, rng, 2)
    out.append(q("cli_compatible", gens=texts(gens), factors=texts(factors)))
    return out


# -- separate ----------------------------------------------------------------------------


def unary_generators(cat):
    if cat.random() < 0.5:
        return [M.cycle(d) for d in cycle_list(cat)]
    return [M.union([M.cycle(d) for d in sorted(cat.sample(range(1, 5), 2))])]


def cycle_lengths_of(gens):
    lengths = set()
    for g in gens:
        a, seen = g.ops["a"], set()
        for x in range(g.size):
            if x not in seen:
                orbit = [x]
                while a[orbit[-1]] != x:
                    orbit.append(a[orbit[-1]])
                seen.update(orbit)
                lengths.add(len(orbit))
    return sorted(lengths)


def unary_candidate(cat, gens, n):
    """Half random unary algebras, half unions of cycles built from the
    generators' cycle lengths (often members)."""
    if cat.random() < 0.5:
        return random_unary(cat, n)
    lengths = [d for d in member_cycle_lengths(cycle_lengths_of(gens), n) if d > 1] or [1]
    parts, total = [], 0
    while total < n:
        d = cat.choice([d for d in lengths if d <= n - total] or [1])
        parts.append(M.cycle(d))
        total += d
    return M.union(parts)


def binary_case(cat, n):
    gens = [binary(cat.choice(BINARY_TABLES)) for _ in range(cat.randint(1, 2))]
    if cat.random() < 0.5:
        return gens, random_sub_power(cat, gens[0], 2, cat.randint(1, 2))
    return gens, random_binary(cat, n)


def c3_union(rng, k):
    perm = M.shuffled(rng, 3 * k)
    ambient = M.relabel(M.union([M.cycle(3)] * k), perm)
    comps = [sorted(perm[3 * i + j] for j in range(3)) for i in range(k)]
    return ambient, comps


def separate_round(cat, rng, r):
    out = []
    for fn in ("in_sp", "separating_family"):
        for n in (4, 5, 6, 7):
            gens = unary_generators(cat)
            alg = unary_candidate(cat, gens, n)
            out.append(q(fn, gens=texts([mixed(rng, g) for g in gens]), alg=mixed(rng, alg).text()))
        for n in (2, 3, 4):
            gens, alg = binary_case(cat, n)
            out.append(q(fn, gens=texts([mixed(rng, g) for g in gens]), alg=mixed(rng, alg).text()))
    d = cat.choice([2, 3])
    small = M.union([M.cycle(d)] * (2 if d == 2 else 1))
    out.append(q("sp_embedding", gens=texts(cycles(rng, [d])), alg=mixed(rng, small).text()))
    g = binary(cat.choice(BINARY_TABLES))
    alg = random_sub_power(cat, g, 2, 1)
    out.append(q("sp_embedding", gens=texts([mixed(rng, g)]), alg=mixed(rng, alg).text()))
    c3 = texts(cycles(rng, [3]))
    for k in (1, 2, 3):
        ambient, comps = c3_union(rng, k)
        out.append(q("is_independent", gens=c3, ambient=ambient.text(), subsets=comps))
    ambient, comps = c3_union(rng, 3)
    overlapping = [sorted(comps[0] + comps[1]), sorted(comps[1] + comps[2])]
    out.append(q("is_independent", gens=c3, ambient=ambient.text(), subsets=overlapping))
    ambient, comps = c3_union(rng, 2)
    out.append(q("chain_independence", a0=ambient.text(), chain=[comps[0]],
                 components=[comps[1]]))
    ambient, comps = c3_union(rng, 3)
    out.append(q("chain_independence", a0=ambient.text(),
                 chain=[sorted(comps[0] + comps[1]), comps[0]],
                 components=[comps[2], comps[1]]))
    return out


# -- classify ----------------------------------------------------------------------------

UNARY_COUNTS = (1, 3, 7, 19, 47)  # unary algebras of sizes 1..5 up to isomorphism


def unary_representatives(n):
    """One unary algebra per isomorphism class of size n (brute force)."""
    seen = {}
    for t in itertools.product(range(n), repeat=n):
        alg = Alg(M.UNARY, n, {"a": t})
        key = min(M.relabel(alg, p).ops["a"] for p in itertools.permutations(range(n)))
        seen.setdefault(key, alg)
    return list(seen.values())


def census_generators(slot):
    """Generator lists with known member counts up to isomorphism (sizes <= k,
    the empty algebra included)."""
    if slot < 3:
        n = slot + 1
        union = M.union([a for k in range(1, n + 1) for a in unary_representatives(k)])
        return [union], n, 1 + sum(UNARY_COUNTS[:n])
    if slot == 3:
        return [M.cycle(2), M.cycle(3)], 4, 5  # empty, trivial, C2, C3, C2+C2
    return [M.cycle(2)], 4, 4  # empty, trivial, C2, C2+C2


def power_term(cat, variables):
    t = cat.choice(variables)
    for _ in range(cat.randint(0, 4)):
        t = ["a", [t]]
    return t


def term_text(t):
    return t if isinstance(t, str) else f"{t[0]}({term_text(t[1][0])})"


def quasi_identity(cat):
    variables = ["x", "y", "z"][:cat.randint(1, 3)]
    premises = [[power_term(cat, variables), power_term(cat, variables)]
                for _ in range(cat.randint(0, 2))]
    conclusion = [power_term(cat, variables), power_term(cat, variables)]
    side = lambda eq: f"{term_text(eq[0])} = {term_text(eq[1])}"
    text = " & ".join(side(p) for p in premises) + " => " + side(conclusion)
    used = []
    for eq in premises + [conclusion]:
        for t in eq:
            while not isinstance(t, str):
                t = t[1][0]
            if t not in used:
                used.append(t)
    return {"text": text, "variables": used, "premises": premises, "conclusion": conclusion}


def classify_round(cat, rng, r):
    out = []
    for fn in ("subdirectly_irreducible", "all_congruences"):
        for n in (5, 6, 7, 8):
            out.append(q(fn, alg=mixed(rng, random_unary(cat, n)).text()))
        for n in (3, 4, 5):
            out.append(q(fn, alg=mixed(rng, random_binary(cat, n)).text()))
    for _ in range(4):
        parts, known = cat.choice([([2], True), ([3], True), ([6], False), ([2, 2], False),
                                   ([2, 2, 2], False), ([3, 3], False)])
        alg = mixed(rng, M.union([M.cycle(d) for d in parts]))
        out.append(q("rel_si", gens=texts(cycles(rng, [2, 3])), alg=alg.text(), known=known))
    # size 8 takes 8! relabellings, most of a round's time: every other round
    for n in (5, 6, 6, 7, 8) if r % 2 == 0 else (5, 6, 6, 7):
        out.append(q("canonical_form", alg=mixed(rng, random_unary(cat, n)).text(),
                     perm=M.shuffled(rng, n)))
    gens, k, count = census_generators(r % 5)
    out.append(q("enumerate_members", gens=texts([mixed(rng, g) for g in gens]), k=k, known=count))
    for n in (5, 6, 7, 8):
        out.append(q("quasi_identity_holds", alg=mixed(rng, random_unary(cat, n)).text(),
                     **quasi_identity(cat)))
    return out


# -- rewrite -----------------------------------------------------------------------------


def transposition(points, i, j):
    t = list(range(points))
    t[i], t[j] = j, i
    return t


def group_family(rng):
    """A presentation that completes, with a faithful transformation model of
    each letter (in the order of ``relations`` letters 0, 1, 2)."""
    kind = rng.choice(["abelian", "dihedral", "coxeter", "monoid"])
    if kind == "abelian":
        m, n = rng.randint(2, 6), rng.randint(2, 6)
        rels = [([0] * m, []), ([1] * n, []), ([1, 0], [0, 1])]
        model = [[(x + 1) % m if x < m else x for x in range(m + n)],
                 [x if x < m else m + (x - m + 1) % n for x in range(m + n)]]
        return rels, model
    if kind == "dihedral":
        n = rng.randint(3, 6)
        rels = [([0] * n, []), ([1, 1], []), ([1, 0], [0] * (n - 1) + [1])]
        return rels, [[(x + 1) % n for x in range(n)], [(-x) % n for x in range(n)]]
    if kind == "coxeter":
        pairs = rng.choice([((0, 1), (1, 2), (2, 3)), ((0, 1), (1, 2), (3, 4)),
                            ((0, 1), (2, 3), (4, 5))])
        points = max(p for pair in pairs for p in pair) + 1
        model = [transposition(points, *pair) for pair in pairs]
        rels = [([i, i], []) for i in range(3)]
        for i, j in ((0, 1), (1, 2), (0, 2)):
            commute = not set(pairs[i]) & set(pairs[j])
            rels.append(([i, j], [j, i]) if commute else ([i, j, i], [j, i, j]))
        return rels, model
    k, n = rng.randint(1, 3), rng.randint(2, 4)
    size = k + n
    succ = [x + 1 if x + 1 < size else k for x in range(size)]
    rels = [([0] * size, [0] * k), ([1] * size, [1] * k), ([1, 0], [0, 1])]
    model = [[succ[x // size] * size + x % size for x in range(size * size)],
             [(x // size) * size + succ[x % size] for x in range(size * size)]]
    return rels, model


def word_text(w):
    return " ".join(w) if w else "1"


def presentation_text(alphabet, relations):
    lines = [" ".join(alphabet)] + [f"{word_text(l)} = {word_text(r)}" for l, r in relations]
    return "\n".join(lines) + "\n"


# The three monoid presentations of the completion counterexamples, with
# the facts the paper states about them.
MONOID_CASES = [
    (["x", "y", "z"], [[["x", "y"], []], [["z", "x"], []]],
     [["equal", ["y"], ["z"]], ["equal", ["x", "y"], []], ["equal", ["z", "x"], []]]),
    (["u1", "x", "y", "u2"], [[["y"], ["x", "u1"]], [["y"], ["x", "u2"]]],
     [["distinct", ["u1"], ["u2"]], ["equal", ["x", "u1"], ["x", "u2"]]]),
    (["u1", "x", "y", "u2", "w"],
     [[["y"], ["x", "u1"]], [["y"], ["x", "u2"]], [["x", "w"], []], [["w", "x"], []]],
     [["equal", ["u1"], ["u2"]], ["equal", ["u1"], ["w", "y"]]]),
]


def srs_group(cat, rng, r, g):
    rels, model = group_family(cat)
    letters = len(model)
    names = rng.sample(["a", "b", "c", "x", "y", "z"], letters)
    order = M.shuffled(rng, letters)
    alphabet = [names[i] for i in order]
    relations = [[[names[i] for i in l], [names[i] for i in rhs]] for l, rhs in rels]
    rng.shuffle(relations)
    relations = [rel if rng.random() < 0.5 else rel[::-1] for rel in relations]
    common = {"system": f"{r}.{g}", "alphabet": alphabet,
              "model": [model[i] for i in order]}
    out = [q("knuth_bendix", text=presentation_text(alphabet, relations),
             relations=relations, **common)]

    def word():
        return [rng.choice(alphabet) for _ in range(rng.randint(3, 10))]

    for _ in range(2):
        out.append(q("reduce", word=word(), **common))
    for _ in range(2):
        u = word()
        v = word()
        if rng.random() < 0.5:
            lhs, rhs = rng.choice(relations)
            i = rng.randint(0, len(u))
            v = u[:i] + lhs + u[i:]
            u = u[:i] + rhs + u[i:]
        out.append(q("words_equal", u=u, v=v, **common))
    return out


def amalgam_word(rng, n, length):
    order = 1
    for k in range(2, n + 1):
        order *= k
    return [[rng.randrange(2), rng.randrange(order)] for _ in range(length)]


def coset_string(rng, n, length):
    perms = sorted(itertools.permutations(range(n)))
    reps = {}
    for i, p in enumerate(perms):
        if p[n - 1] != n - 1:
            reps.setdefault(p[n - 1], i)
    start = rng.randrange(2)
    return [[(start + i) % 2, rng.choice(sorted(reps.values()))] for i in range(length)]


def free_term(rng, gens, depth):
    if depth > 0 and rng.random() < 0.5:
        return ["t"] + [free_term(rng, gens, depth - 1) for _ in range(3)]
    if rng.random() < 0.1:
        return ["0"]
    return ["w", "".join(rng.choice("pq") for _ in range(rng.randint(0, 3))), rng.randrange(gens)]


def free_term_text(t):
    if t[0] == "0":
        return "0"
    if t[0] == "w":
        return " ".join(list(t[1]) + ["xyz"[t[2]]])
    return "t(" + ", ".join(free_term_text(a) for a in t[1:]) + ")"


RULES = ["two-generated", "stem-split"]


def rewrite_round(cat, rng, r):
    groups = [srs_group(cat, rng, r, g) for g in range(3)]
    alphabet, relations, facts = MONOID_CASES[r % 3]
    groups.append([q("knuth_bendix", text=presentation_text(alphabet, relations),
                     relations=relations, system=f"{r}.monoid", alphabet=alphabet,
                     model=None, facts=facts)])
    n = 3 + r % 2
    for _ in range(4):
        groups.append([q("amalgam_normal_form", n=n, word=amalgam_word(rng, n, rng.randint(1, 8)))])
    for _ in range(2):
        groups.append([q("amalgam_multiply", n=n, word=amalgam_word(rng, n, rng.randint(1, 6)),
                         other=amalgam_word(rng, n, rng.randint(1, 6)))])
    for _ in range(3):
        groups.append([q("is_torsion", n=n, word=amalgam_word(rng, n, rng.randint(1, 6)))])
    groups.append([q("coset_torsion_scan", n=n, string=coset_string(rng, n, cat.randint(0, 4)))])
    for _ in range(4):
        gens = rng.randint(1, 3)
        term = free_term(rng, gens, 2)
        groups.append([q("free_normal_form", rule=rng.choice(RULES), gens=gens, term=term,
                         text=free_term_text(term))])
    for _ in range(4):
        words = [["".join(rng.choice("pq") for _ in range(rng.randint(0, 4))), rng.randrange(3)]
                 for _ in range(3)]
        groups.append([q("tag_survives", rule=rng.choice(RULES), words=words)])
    groups.append([q("witness_triple_hom",
                     words=["".join(rng.choice("pq") for _ in range(rng.randint(0, 6)))
                            for _ in range(3)])])
    # the two sweeps cost as much as many rounds without them: the free-pair
    # sweep runs every eighth round, the oracle agreement every fourth
    if r % 8 == 0:
        groups.append([q("verify_free_pair", rule=RULES[r // 8 % 2], depth=2)])
    elif r % 4 == 2:
        groups.append([q("survival_oracle_agreement", rule=cat.choice(RULES), length=1,
                         gens=cat.choice([2, 3]))])
    return groups


ROUNDS = {
    "construct": construct_round,
    "separate": separate_round,
    "classify": classify_round,
    "rewrite": rewrite_round,
}


def round_specs(workload, seed, r):
    """The queries of round r: shapes from the catalogue, the rest from the seed.

    A round function returns queries, or lists of queries that must run in
    order (a completion before the reductions that use its system).
    """
    cat = random.Random(f"{workload}:catalogue:{r}")
    rng = random.Random(f"{workload}:{seed}:{r}")
    groups = [x if isinstance(x, list) else [x] for x in ROUNDS[workload](cat, rng, r)]
    rng.shuffle(groups)
    return [spec for group in groups for spec in group]
