"""Golden digests pinning the discovery order of the canonical constructions.

Free algebras and coproducts are built in a fixed discovery order, so their
tables, generator indices and coprojections are reproducible byte for byte.
Each digest below is the sha256 of ``to_json()`` followed by the JSON of the
generator indices (free algebras) or the coprojection and base mappings
(coproducts).  A change that renumbers carriers changes a digest.  The
closure engine is also checked against the naive fixpoint loop it replaced,
and the closure over tuples in a product, budget errors included, against
the per-cell loop that preceded the row kernel.

Search-order digests pin what depends on the order in which homomorphisms
are found: the separating family chosen for each pair, the product and
embedding ``sp_embedding`` builds from it, and the retractions
``chain_independence`` reports.  Each is the sha256 of the output's JSON.
Independence digests pin ``is_independent`` verdicts and whole
``chain_independence`` reports (retractions included) on shuffled unions of
3-cycles shaped like the benchmark's separate stream, and on a union with a
fixed point; an error is pinned by its type, message, witness and step.

Congruence digests pin the lists ``all_congruences`` and
``relative_congruences`` return (every block vector, in order) and the
verdicts and monoliths of the (relative) irreducibility checks.

Canonical-form digests pin ``canonical_form`` on fixed algebras, and on
every unary table of size 5 as one digest over the set of forms.

Member digests pin the list ``enumerate_members`` returns (every table, in
order) for four prevarieties: two unary, one binary, and one with a
constant.  ``enumerate_members`` is also checked against the loop it
replaced (every table tested for membership, repeated canonical forms
dropped), and the orderly generator behind it against the tables that are
least under all ``n!`` relabellings.
"""

import hashlib
import itertools
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prevar.algcore import (
    UNARY_SIGNATURE,
    AlgebraError,
    BudgetExceededError,
    FiniteAlgebra,
    Homomorphism,
    Signature,
    _closure,
    all_congruences,
    apply_relabeling,
    canonical_form,
    cyclic_unary,
    direct_product,
    disjoint_union,
    empty_algebra,
    is_subdirectly_irreducible,
)
from prevar.homsearch import separating_family, sp_embedding
from prevar.prevariety import (
    ConstructionBudget,
    _canonical_tables,
    _closed_tuple_algebra,
    amalgamated_coproduct,
    chain_independence,
    coproduct,
    enumerate_members,
    free_algebra,
    is_independent,
    is_p_subdirectly_irreducible,
    relative_congruences,
    sp,
)


def _chain(size: int, sig: Signature) -> FiniteAlgebra:
    pairs = list(itertools.product(range(size), repeat=2))
    return FiniteAlgebra(sig, size, {"j": [max(p) for p in pairs], "m": [min(p) for p in pairs]})


LATTICE_SIG = Signature((("j", 2), ("m", 2)))
L2 = _chain(2, LATTICE_SIG)
L3 = _chain(3, LATTICE_SIG)
S2 = FiniteAlgebra(Signature((("j", 2),)), 2, {"j": [0, 1, 1, 1]})
B2 = FiniteAlgebra(
    Signature((("j", 2), ("m", 2), ("n", 1), ("z", 0), ("o", 0))), 2,
    {"j": [0, 1, 1, 1], "m": [0, 0, 0, 1], "n": [1, 0], "z": [0], "o": [1]},
)
# two-element binary tables: j(x, y) = x & ~y and NOR
X_AND_NOT_Y = FiniteAlgebra(S2.signature, 2, {"j": [0, 0, 1, 0]})
NOR = FiniteAlgebra(S2.signature, 2, {"j": [1, 0, 0, 0]})
C2, C3 = cyclic_unary(2), cyclic_unary(3)
# a tail of two elements running into a 4-cycle, next to a 2-cycle
RHO = FiniteAlgebra(UNARY_SIGNATURE, 8, {"a": [1, 2, 3, 4, 5, 2, 7, 6]})
TAIL = FiniteAlgebra(UNARY_SIGNATURE, 5, {"a": [0, 0, 1, 2, 3]})
Z4 = FiniteAlgebra(Signature((("g", 2),)), 4,
                   {"g": [(x + y) % 4 for x, y in itertools.product(range(4), repeat=2)]})
XOR8 = FiniteAlgebra(Signature((("g", 2),)), 8,
                     {"g": [x ^ y for x, y in itertools.product(range(8), repeat=2)]})
TAIL3 = FiniteAlgebra(UNARY_SIGNATURE, 3, {"a": [0, 0, 1]})
POINTED_SIG = Signature((("c", 0), ("f", 1)))
# a 2-cycle through the constant, and a tail running into it
POINTED_GENS = [FiniteAlgebra(POINTED_SIG, 2, {"c": [0], "f": [1, 0]}),
                FiniteAlgebra(POINTED_SIG, 3, {"c": [0], "f": [0, 0, 1]})]
POINTED = FiniteAlgebra(Signature((("c", 0), ("f", 1))), 7,
                        {"c": [4], "f": [1, 0, 3, 2, 4, 6, 5]})


def _digest(alg: FiniteAlgebra, extra) -> str:
    return hashlib.sha256((alg.to_json() + json.dumps(extra)).encode()).hexdigest()


def _free(gens, n):
    alg, generators = free_algebra(sp(*gens), n)
    return _digest(alg, generators)


def _coproduct():
    result = coproduct(sp(disjoint_union([C2, C3])), [C2, C3])
    return _digest(result.algebra, [list(c.mapping) for c in result.coprojections])


def _amalgamated():
    top = Homomorphism(L2, L3, (0, 2))
    result = amalgamated_coproduct(sp(L2), L2, [(L3, top), (L3, top)])
    maps = [list(c.mapping) for c in result.coprojections] + [list(result.base_map.mapping)]
    return _digest(result.algebra, maps)


def _sha(data) -> str:
    return hashlib.sha256(json.dumps(data).encode()).hexdigest()


def _separating(alg, gens):
    ok, witness, homs = separating_family(alg, gens)
    return _sha([ok, witness, [[h.target.to_json(), list(h.mapping)] for h in homs]])


def _embedding(alg, gens):
    prod, injection = sp_embedding(alg, gens)
    return _sha([prod.to_json(), list(injection.mapping)])


def _chain_report(a0, chain, components):
    r = chain_independence(a0, chain, components)
    return _sha([r.independent, r.almost_independent,
                 [list(h.mapping) if h else None for h in r.retractions]])


def _c3_union(seed, k):
    """k 3-cycles relabelled by a seeded shuffle, and their carriers."""
    perm = list(range(3 * k))
    random.Random(seed).shuffle(perm)
    table = [0] * (3 * k)
    for x in range(3 * k):
        table[perm[x]] = perm[3 * (x // 3) + (x + 1) % 3]
    comps = [sorted(perm[3 * i + j] for j in range(3)) for i in range(k)]
    return FiniteAlgebra(UNARY_SIGNATURE, 3 * k, {"a": table}), comps


def _outcome(call):
    try:
        r = call()
    except AlgebraError as e:
        return [type(e).__name__, str(e), getattr(e, "witness", None), getattr(e, "index", None)]
    if isinstance(r, bool):
        return r
    return [r.independent, r.almost_independent,
            [list(h.mapping) if h else None for h in r.retractions]]


def _independent_c3_unions():
    out = []
    for seed in range(6):
        for k in (1, 2, 3):
            amb, comps = _c3_union(seed, k)
            for gens in ([C3], [cyclic_unary(1), C3], [cyclic_unary(6)]):
                out.append(_outcome(lambda: is_independent(sp(*gens), amb, comps)))
        for subsets in ([[0, 1], [1, 2]], [[0, 1], [2]], [[0], [0]], [[0, 1, 2]]):
            # unions of the k = 3 components
            amb, comps = _c3_union(seed, 3)
            subs = [sorted(x for i in s for x in comps[i]) for s in subsets]
            out.append(_outcome(lambda: is_independent(sp(C3), amb, subs)))
        out.append(_outcome(lambda: is_independent(sp(C3), amb, [comps[0][:2]])))
    return _sha(out)


def _chain_c3_unions():
    out = []
    for seed in range(6):
        amb, c = _c3_union(seed, 2)
        out.append(_outcome(lambda: chain_independence(amb, [c[0]], [c[1]])))
        amb, c = _c3_union(seed, 3)
        for chain, comps in (
            ([sorted(c[0] + c[1]), c[0]], [c[2], c[1]]),
            ([sorted(c[0] + c[1])], [c[0]]),
            ([c[0]], [sorted(c[1] + c[2])]),
        ):
            out.append(_outcome(lambda: chain_independence(amb, chain, comps)))
    return _sha(out)


# two 3-cycles (0-2, 3-5) and a fixed point 6
C3C3C1 = disjoint_union([C3, C3, cyclic_unary(1)])


def _independent_with_fixed_point():
    out = []
    for gens in ([disjoint_union([C3, cyclic_unary(1)])], [C3, cyclic_unary(1)]):
        for subs in ([[0, 1, 2], [3, 4, 5]], [[6], [0, 1, 2]], [[0, 1, 2, 6], [3, 4, 5, 6]],
                     [[6], [6]], [[0, 1, 2], [0, 1, 2]], [[0, 1, 2, 3, 4, 5]]):
            out.append(_outcome(lambda: is_independent(sp(*gens), C3C3C1, subs)))
    return _sha(out)


def _chain_with_fixed_point():
    return _sha([
        _outcome(lambda: chain_independence(C3C3C1, chain, comps))
        for chain, comps in (
            ([[0, 1, 2, 6]], [[3, 4, 5]]),
            ([[0, 1, 2]], [[6]]),
            ([[0, 1, 2, 6], [6]], [[3, 4, 5], [0, 1, 2]]),
            ([[3, 4, 5, 6]], [[0, 1, 2, 6]]),
        )
    ])


def _congruences(alg):
    return _sha([list(c.blocks) for c in all_congruences(alg)])


def _si(alg):
    ok, monolith = is_subdirectly_irreducible(alg)
    return _sha([ok, list(monolith.blocks) if monolith else None])


def _relative(ctx, alg):
    return _sha([[list(c.blocks) for c in relative_congruences(ctx, alg)],
                 is_p_subdirectly_irreducible(ctx, alg)])


def _unary(table):
    return FiniteAlgebra(UNARY_SIGNATURE, len(table), {"a": table})


def _canonical(alg):
    return _sha(canonical_form(alg))


def _all_unary_forms(size):
    return _sha(sorted({canonical_form(_unary(list(t)))
                        for t in itertools.product(range(size), repeat=size)}))


def _members(gens, max_size):
    return _sha([m.to_json() for m in enumerate_members(sp(*gens), max_size)])


def _free_semilattice_3():
    return free_algebra(sp(S2), 3)[0]


CASES = {
    "free-lattice-0": lambda: _free([L2], 0),
    "free-lattice-1": lambda: _free([L2], 1),
    "free-lattice-2": lambda: _free([L2], 2),
    "free-lattice-3": lambda: _free([L2], 3),
    "free-lattice-4": lambda: _free([L2], 4),
    "free-semilattice-4": lambda: _free([S2], 4),
    "free-semilattice-5": lambda: _free([S2], 5),
    "free-boolean-1": lambda: _free([B2], 1),
    "free-boolean-2": lambda: _free([B2], 2),
    "free-x-and-not-y-3": lambda: _free([X_AND_NOT_Y], 3),
    "free-nor-3": lambda: _free([NOR], 3),
    "free-c2-c3-1": lambda: _free([C2, C3], 1),
    "free-c2-c3-2": lambda: _free([C2, C3], 2),
    "coproduct-u23-c2-c3": _coproduct,
    "amalgamated-l3-l3-over-l2": _amalgamated,
    "separating-c6-c2-c3": lambda: _separating(cyclic_unary(6), [C2, C3]),
    "separating-c2c3-witness": lambda: _separating(disjoint_union([C2, C3]), [C2, C3]),
    "separating-l2xl3-l3-l2": lambda: _separating(direct_product([L2, L3])[0], [L3, L2]),
    "embedding-c2c2-c2": lambda: _embedding(disjoint_union([C2, C2]), [C2]),
    "embedding-l3-l2": lambda: _embedding(L3, [L2]),
    "chain-u3-two-steps": lambda: _chain_report(
        disjoint_union([C3, C3, C3]), [[0, 1, 2, 3, 4, 5], [0, 1, 2]], [[6, 7, 8], [3, 4, 5]]
    ),
    "chain-u2-two-steps": lambda: _chain_report(
        disjoint_union([C2, C2, C2]), [[0, 1, 2, 3], [0, 1]], [[4, 5], [2, 3]]
    ),
    "independent-c3-unions": _independent_c3_unions,
    "independent-fixed-point": _independent_with_fixed_point,
    "chain-c3-unions": _chain_c3_unions,
    "chain-fixed-point": _chain_with_fixed_point,
    "congruences-c12": lambda: _congruences(cyclic_unary(12)),
    "congruences-rho": lambda: _congruences(RHO),
    "congruences-l2xl3": lambda: _congruences(direct_product([L2, L3])[0]),
    "congruences-b2xb2": lambda: _congruences(direct_product([B2, B2])[0]),
    "congruences-free-semilattice-3": lambda: _congruences(_free_semilattice_3()),
    "si-c8": lambda: _si(cyclic_unary(8)),
    "si-rho": lambda: _si(RHO),
    "si-tail": lambda: _si(TAIL),
    "si-z4": lambda: _si(Z4),
    "si-b2xb2": lambda: _si(direct_product([B2, B2])[0]),
    "si-free-semilattice-3": lambda: _si(_free_semilattice_3()),
    "relative-c6-in-sp-c2-c3": lambda: _relative(sp(C2, C3), cyclic_unary(6)),
    "relative-l2xl3-in-sp-l3": lambda: _relative(sp(L3), direct_product([L2, L3])[0]),
    "canonical-c8": lambda: _canonical(cyclic_unary(8)),
    "canonical-identity-8": lambda: _canonical(_unary(list(range(8)))),
    "canonical-constant-8": lambda: _canonical(_unary([5] * 8)),
    "canonical-random-8a": lambda: _canonical(_unary([3, 6, 3, 0, 7, 2, 2, 5])),
    "canonical-random-8b": lambda: _canonical(_unary([1, 4, 4, 6, 0, 1, 7, 3])),
    "canonical-xor-8": lambda: _canonical(XOR8),
    "canonical-pointed-7": lambda: _canonical(POINTED),
    "canonical-all-unary-5": lambda: _all_unary_forms(5),
    "members-c2-c3-6": lambda: _members([C2, C3], 6),
    "members-tail3-5": lambda: _members([TAIL3], 5),
    "members-s2-3": lambda: _members([S2], 3),
    "members-pointed-5": lambda: _members(POINTED_GENS, 5),
}

# taken with the brute-force closure loops that preceded the shared engine
GOLDEN = {
    "free-lattice-0": "bcbbcd51cda7d004b8a603b0ac3aa43475d4215adb49392334051e168a6f0399",
    "free-lattice-1": "6ef56e8f86211a71147197f129e2511687f000aef75399413725bad388ca3a51",
    "free-lattice-2": "9e322876f7c0a48c0030a931010ed700ed35162245f21cb3f40ad21b7eda9aab",
    "free-lattice-3": "75899f2557dc79bef55f4732ac053403874c9bdae4192ee6341bc7c4479698c0",
    "free-lattice-4": "c83375f59ef4ae9592f300d6610d0e8d7ed6b6cc973b0ac9ce643939eb113691",
    "free-semilattice-4": "ae0fc858827c99407f45082ce1371a08c0742366bed238c1e893f5c9b260010a",
    "free-boolean-1": "ad2e14737dc6ecfdd7236461116e31a769ef93843fcf159589b8e82160f5d525",
    "free-c2-c3-1": "ea3fcb8a871a36c61b80c132915fff6b10e2eafc6e05396e5f795efd045d815e",
    "free-c2-c3-2": "a5a5a9a5dd815b24570c4aaea7c9c84550718eba2e58fcf99039a0a9e0ae62bb",
    "coproduct-u23-c2-c3": "c810be1f0cf5824e1893982c4a816635a629354374ef2ea78e9925efb8e43540",
    "amalgamated-l3-l3-over-l2": "e193ed7eba7927ccd7ce384aff4f352b8eecf581df7394b9561436e3bbbcc4e5",
    # taken with the per-cell closure loop that preceded the row kernel
    "free-semilattice-5": "c9b5e11b785ac187ffc12c0da797eb6ae97e11c0780eb8fee7f61e3cbc512987",
    "free-boolean-2": "7cf71b8eeabb562926c802fa3e523a15ccbd0eed518cb096a5165d3f6e631ece",
    "free-x-and-not-y-3": "cf77f302b55edfd552dec1afd6d3bc0f426e1d776c0e686bbacb06de6e59c609",
    "free-nor-3": "032848034df3a1b445310f966a61b71c38b51552e878324a244cd8da9f322689",
    # taken with the eager search that listed every homomorphism into every
    # generator before looking at a pair
    "separating-c6-c2-c3": "5d342308a11537c9d41c8302b9959bef1f1566bc8ce9227bf9cd7a7328d8b9b4",
    "separating-c2c3-witness": "2eb3ba7b9aa52af94952313f4202617dcf65961eef930121c3fb0dc80169e72d",
    "separating-l2xl3-l3-l2": "e5337d39027a4d6a0c11b86fa38decd952cff9a7914d0f2a8c0824a8b36110d3",
    "embedding-c2c2-c2": "5105feac11c59f29e322a129e6a562ddcd41fb828d2eebe9fc238519836af968",
    "embedding-l3-l2": "1a1400a89d4500ad5ad058fa3f2189ec1613f125266bd49f17dfaf1a122c3e6a",
    "chain-u3-two-steps": "8d66be25a32f35083d0903bcdbaab976e9e63d5b9fa2c2da5e965bcec386bf39",
    "chain-u2-two-steps": "0d777498dcf1cfa963aa75decfafd407704c697e24e1f811eaefa6e367193cb1",
    # taken with a fresh find_homomorphisms list per source and a fresh
    # seeded search per family, each ambient re-checked for membership
    "independent-c3-unions": "3e00cb4254e348e3ccd2e0eff1863ce28244eb1b1ee819f10a3679bee2408399",
    "independent-fixed-point": "e42a35b4aa5e180f0e73351ab6c54d64e4a97e9a7c197f4348d5425095ac1b1e",
    "chain-c3-unions": "95c8344e5c42f5222b7d6810fa3f651cf1f0aa95837091e89d044835a07ef0f3",
    "chain-fixed-point": "b74fb1619ae73ac41690707dddec3e6a691caba5a1202cc9405786254979e7bb",
    # taken with the pairwise congruence check and the slot-by-slot
    # congruence generation that preceded the table-indexed ones
    "congruences-c12": "e45c2aeebbc7f778587f86d021ab6f402218e0aa1941716a7a88f06277fbdc93",
    "congruences-rho": "5f64c7efcd365852cfbd8e38ab699d66ce3106d20b7568bb3901eff28c89615d",
    "congruences-l2xl3": "f5fc3bdda7f7998f693ae05b5b7d8071183444012b5dcc7f696da047d6b0d9fe",
    "congruences-b2xb2": "8a7ae89c33b7e330a8a2015e611aac63224d5a0fba951706d6b1fd29dc5819a7",
    "congruences-free-semilattice-3": "db35d302683d0888f0087705e774ccad0fa0faf6fcc6a7e836f41a28690b76a8",
    "si-c8": "f02cbba633e39229dd72b1ce685bbb8a01b8e4518c12f9d567ff34a76bedf436",
    "si-rho": "7f7cc798db9e0c65ad2f1721cc87b81ddf48aa3920df74d994966b1076e6171d",
    "si-tail": "a49b6656f5cbb3c251ce8e428583aa0b6c21937c565e3e9fe12c4e3a03f7012c",
    "si-z4": "e5f7093fec3619bf77485b93faf5eb289af9161923f491ca6b9580bdf9011b1a",
    "si-b2xb2": "7f7cc798db9e0c65ad2f1721cc87b81ddf48aa3920df74d994966b1076e6171d",
    "si-free-semilattice-3": "7f7cc798db9e0c65ad2f1721cc87b81ddf48aa3920df74d994966b1076e6171d",
    "relative-c6-in-sp-c2-c3": "5885c926dd0bd5564203820a9ceec1b8739ac036e1602e7c2ea64f356e6be899",
    "relative-l2xl3-in-sp-l3": "c6c7ddb6165e4763db7520dd1db41cb9289695d405500bcbb7e9d8f2dfb4c517",
    # taken with the loop over all n! relabelings that preceded the
    # labelling search
    "canonical-c8": "5b1af0bf0401f13ae470e211f585e6213c1c4439aad97b6b6964856c27a0b283",
    "canonical-identity-8": "ee1cbeb85fe38b9a93ee8dee5261bceae39767a349ed6a088da221146aef2576",
    "canonical-constant-8": "46fdaea41f3c30648dd90fbf46969cbcc61856e3feee4bee3a0a07b1190203b9",
    "canonical-random-8a": "9c6bebfc93b891c80c34404d3946cc885be8f55ceb5117c77a49e47f1746f5f5",
    "canonical-random-8b": "5a50c52e75a12fb2e9ccd8ff760871531d6f9d5f0d8e4503f49e6286e59f36c8",
    "canonical-xor-8": "afba1b50800daafc7d512b853fe75bf6dd1e8f866b7beb991d06861b08839f9e",
    "canonical-pointed-7": "418e8680ade71c215df4911fa0c1c43a80d53e85c281d32f515ae93cb28f344c",
    "canonical-all-unary-5": "02bbee430ffbbc1949ca364e9e82e770603e4e91d84102797592e1c392aa6a80",
    # taken with the loop that tested every table for membership and then
    # dropped repeated canonical forms
    "members-c2-c3-6": "0a554ddbc72946fff5353e8a1028931c143c736c1b58e8888f057538396feeed",
    "members-tail3-5": "828100fd1dcfad5c9919a2d7cedbdd005a8d21b9592f58aed5b9365a166f2660",
    "members-s2-3": "e065b7dfd5c47e86a39277dfbbafeb6f10406425bc30c6cf817842acc45c91c9",
    "members-pointed-5": "0398a3b8bc5c26541c299b0fb0195327a26b8de1b345eb649b0605ad4680b103",
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_digest(name):
    assert CASES[name]() == GOLDEN[name]


def _naive_closure(alg: FiniteAlgebra, seeds):
    """The reference: rounds over a snapshot of every element found so far,
    then a second pass over all argument tuples for the tables."""
    elems, index = [], {}

    def add(v):
        if v not in index:
            index[v] = len(elems)
            elems.append(v)

    for name, arity in alg.signature.ops:
        if arity == 0:
            add(alg.op(name))
    for s in seeds:
        add(s)
    while True:
        before = len(elems)
        snapshot = list(elems)
        for name, arity in alg.signature.ops:
            if arity == 0:
                continue
            for args in itertools.product(snapshot, repeat=arity):
                add(alg.op(name, *args))
        if len(elems) == before:
            break
    tables = {
        name: [index[alg.op(name, *args)] for args in itertools.product(elems, repeat=arity)]
        for name, arity in alg.signature.ops
    }
    return elems, tables


SIGNATURES = [
    Signature((("g", 2),)),
    Signature((("g", 2), ("h", 2))),
    Signature((("f", 1), ("g", 2))),
    Signature((("c", 0), ("g", 2))),
    Signature((("t", 3),)),
    Signature((("f", 1), ("u", 1))),
]


def _tables(draw, sig, size):
    return {
        name: draw(st.lists(st.integers(0, size - 1), min_size=size**arity, max_size=size**arity))
        for name, arity in sig.ops
    }


@st.composite
def algebras_with_seeds(draw):
    sig = draw(st.sampled_from(SIGNATURES))
    size = draw(st.integers(1, 7))
    tables = _tables(draw, sig, size)
    seeds = draw(st.lists(st.integers(0, size - 1), max_size=3))
    return FiniteAlgebra(sig, size, tables), seeds


def _op_rows(alg: FiniteAlgebra):
    """``alg.op`` as a ``_closure`` row, one call per cell."""
    def row(name, prefix, lasts):
        prefix = list(prefix)
        return alg.op(name) if lasts is None else [alg.op(name, *prefix, y) for y in lasts]
    return row


@settings(max_examples=200, deadline=None)
@given(algebras_with_seeds())
def test_closure_matches_naive_fixpoint(case):
    alg, seeds = case
    got = _closure(alg.signature, _op_rows(alg), seeds)
    assert got == _naive_closure(alg, seeds)


def _per_cell_closure(signature, apply, seeds, max_carrier=None, max_table_cells=None):
    """The closure loop the row kernel replaced: one ``apply(name, args)``
    per argument tuple, results kept in nested lists."""
    elems, index = [], {}
    found = {name: [] for name in signature.names}

    def add(v):
        i = index.get(v)
        if i is None:
            if max_carrier is not None and len(elems) >= max_carrier:
                raise BudgetExceededError(f"carrier exceeded budget {max_carrier} during closure")
            i = index[v] = len(elems)
            elems.append(v)
        return i

    for name, arity in signature.ops:
        if arity == 0:
            found[name].append(add(apply(name, ())))
    for s in seeds:
        add(s)
    old = 0
    while True:
        n = len(elems)
        if max_table_cells is not None and any(n**a > max_table_cells for _, a in signature.ops):
            raise BudgetExceededError("operation table too large for the budget")
        for name, arity in signature.ops:
            if arity == 0:
                continue
            for args in itertools.product(range(n), repeat=arity):
                if max(args) >= old:
                    row = found[name]
                    for a in args[:-1]:
                        if a == len(row):
                            row.append([])
                        row = row[a]
                    row.append(add(apply(name, [elems[a] for a in args])))
        if len(elems) == n:
            break
        old = n

    def flatten(rows, depth):
        return rows if depth <= 1 else [v for r in rows for v in flatten(r, depth - 1)]

    return elems, {name: flatten(found[name], arity) for name, arity in signature.ops}


def _per_cell_product(factors):
    """The coordinatewise ``apply`` over tuples the row kernel replaced."""
    sizes = [f.size for f in factors]

    def apply(name, args):
        if not args:
            return tuple(f.tables[name][0] for f in factors)
        idx = args[0]
        for a in args[1:]:
            idx = [i * s + x for i, s, x in zip(idx, sizes, a)]
        return tuple(f.tables[name][i] for f, i in zip(factors, idx))

    return apply


@st.composite
def tuple_closures(draw):
    """Seeds in a product of zero to three factors of mixed sizes."""
    sig = draw(st.sampled_from(SIGNATURES))
    sizes = draw(st.lists(st.integers(1, 3), max_size=3))
    factors = [FiniteAlgebra(sig, size, _tables(draw, sig, size)) for size in sizes]
    seeds = draw(st.lists(st.tuples(*(st.integers(0, size - 1) for size in sizes)), max_size=3))
    return sig, factors, seeds


@settings(max_examples=200, deadline=None)
@given(tuple_closures())
def test_tuple_closure_matches_per_cell_loop(case):
    sig, factors, seeds = case
    alg, elems = _closed_tuple_algebra(sig, factors, seeds, ConstructionBudget())
    want_elems, want_tables = _per_cell_closure(sig, _per_cell_product(factors), seeds)
    assert elems == want_elems
    assert alg.tables == {name: tuple(table) for name, table in want_tables.items()}


def _elements_or_error(run):
    try:
        return run()
    except BudgetExceededError as e:
        return str(e)


# NOR's free algebra on 3 generators: 256 elements, the last round starting
# with all of them (256**2 = 65,536 cells per table)
@pytest.mark.parametrize("limits, message", [
    ({"max_carrier": 100}, "carrier exceeded budget 100 during closure"),
    ({"max_carrier": 255}, "carrier exceeded budget 255 during closure"),
    ({"max_carrier": 256}, None),
    ({"max_table_cells": 8}, "operation table too large for the budget"),
    ({"max_table_cells": 65535}, "operation table too large for the budget"),
    ({"max_table_cells": 65536}, None),
])
def test_budgets_fire_as_in_the_per_cell_loop(limits, message):
    factors = [NOR] * 8
    seeds = list(zip(*itertools.product(range(2), repeat=3)))
    budget = ConstructionBudget(**limits)
    got = _elements_or_error(lambda: _closed_tuple_algebra(NOR.signature, factors, seeds, budget)[1])
    want = _elements_or_error(lambda: _per_cell_closure(
        NOR.signature, _per_cell_product(factors), seeds, budget.max_carrier,
        budget.max_table_cells,
    )[0])
    assert got == want
    if message is not None:
        assert got == message


# unary; two unary; constant plus unary; binary; constant plus binary, each
# with the largest size the raw loop below walks in well under a second
MEMBER_SIGNATURES = {
    Signature((("a", 1),)): 5,
    Signature((("f", 1), ("u", 1))): 3,
    Signature((("c", 0), ("f", 1))): 4,
    Signature((("g", 2),)): 2,
    Signature((("c", 0), ("g", 2))): 2,
}


def _flat_tables(sig, size):
    """Every flat table vector of ``size``, in product order."""
    return itertools.product(range(size), repeat=sum(size**arity for _, arity in sig.ops))


def _algebra(sig, size, flat):
    values = iter(flat)
    return FiniteAlgebra(sig, size, {name: list(itertools.islice(values, size**arity))
                                     for name, arity in sig.ops})


def _raw_members(ctx, max_size):
    """The loop that preceded orderly generation: every table is tested for
    membership, and the first of each canonical form is kept."""
    sig, out, seen = ctx.signature, [], set()
    if not sig.has_zeroary():
        out.append(empty_algebra(sig))
    for size in range(1, max_size + 1):
        for flat in _flat_tables(sig, size):
            cand = _algebra(sig, size, flat)
            if ctx.contains(cand):
                key = canonical_form(cand)
                if key not in seen:
                    seen.add(key)
                    out.append(cand)
    return out


@st.composite
def member_cases(draw):
    sig = draw(st.sampled_from(list(MEMBER_SIGNATURES)))
    sizes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=2))
    gens = [FiniteAlgebra(sig, size, _tables(draw, sig, size)) for size in sizes]
    return sp(*gens), draw(st.integers(0, MEMBER_SIGNATURES[sig]))


@settings(max_examples=60, deadline=None)
@given(member_cases())
def test_members_match_the_raw_loop(case):
    ctx, max_size = case
    assert enumerate_members(ctx, max_size) == _raw_members(ctx, max_size)


@pytest.mark.parametrize("sig, max_size", [
    (Signature((("a", 1),)), 4),
    (Signature((("f", 1), ("u", 1))), 3),
    (Signature((("c", 0), ("f", 1))), 3),
    (Signature((("g", 2),)), 3),
    (Signature((("c", 0), ("g", 2))), 2),
    (Signature((("c", 0), ("d", 0), ("e", 0))), 4),
    (Signature(()), 2),
])
def test_canonical_tables_are_the_least_relabellings(sig, max_size):
    for n in range(1, max_size + 1):
        least = []
        for flat in _flat_tables(sig, n):
            alg = _algebra(sig, n, flat)
            relabelled = (apply_relabeling(alg, perm).tables for perm in itertools.permutations(range(n)))
            if all(sum((t[name] for name in sig.names), ()) >= flat for t in relabelled):
                least.append(flat)
        assert list(_canonical_tables(sig, n)) == least


def test_constants_only_members_match_the_raw_loop():
    # no op reads an argument, so the 9! relabellings of size 9 far outnumber
    # its 9**2 tables: the least ones are found without listing relabellings
    sig = Signature((("c", 0), ("d", 0)))
    ctx = sp(FiniteAlgebra(sig, 2, {"c": [0], "d": [1]}), FiniteAlgebra(sig, 1, {"c": [0], "d": [0]}))
    assert enumerate_members(ctx, 9) == _raw_members(ctx, 9)
