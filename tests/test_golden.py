"""Golden digests pinning the discovery order of the canonical constructions.

Free algebras and coproducts are built in a fixed discovery order, so their
tables, generator indices and coprojections are reproducible byte for byte.
Each digest below is the sha256 of ``to_json()`` followed by the JSON of the
generator indices (free algebras) or the coprojection and base mappings
(coproducts).  A change that renumbers carriers changes a digest.  The
closure engine is also checked against the naive fixpoint loop it replaced.
"""

import hashlib
import itertools
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prevar.algcore import (
    FiniteAlgebra,
    Homomorphism,
    Signature,
    _closure,
    cyclic_unary,
    disjoint_union,
)
from prevar.prevariety import amalgamated_coproduct, coproduct, free_algebra, sp


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
C2, C3 = cyclic_unary(2), cyclic_unary(3)


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


CASES = {
    "free-lattice-0": lambda: _free([L2], 0),
    "free-lattice-1": lambda: _free([L2], 1),
    "free-lattice-2": lambda: _free([L2], 2),
    "free-lattice-3": lambda: _free([L2], 3),
    "free-lattice-4": lambda: _free([L2], 4),
    "free-semilattice-4": lambda: _free([S2], 4),
    "free-boolean-1": lambda: _free([B2], 1),
    "free-c2-c3-1": lambda: _free([C2, C3], 1),
    "free-c2-c3-2": lambda: _free([C2, C3], 2),
    "coproduct-u23-c2-c3": _coproduct,
    "amalgamated-l3-l3-over-l2": _amalgamated,
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
]


@st.composite
def algebras_with_seeds(draw):
    sig = draw(st.sampled_from(SIGNATURES))
    size = draw(st.integers(1, 7))
    tables = {
        name: draw(st.lists(st.integers(0, size - 1), min_size=size**arity, max_size=size**arity))
        for name, arity in sig.ops
    }
    seeds = draw(st.lists(st.integers(0, size - 1), max_size=3))
    return FiniteAlgebra(sig, size, tables), seeds


@settings(max_examples=200, deadline=None)
@given(algebras_with_seeds())
def test_closure_matches_naive_fixpoint(case):
    alg, seeds = case
    got = _closure(alg.signature, lambda name, args: alg.op(name, *args), seeds)
    assert got == _naive_closure(alg, seeds)
