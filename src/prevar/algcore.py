"""Finite algebras over finitary signatures.

Carriers are always ``0..n-1``.  Operation tables are stored row-major
over mixed-radix argument tuples (the order produced by
``itertools.product(range(n), repeat=arity)``), so serialized algebras
round-trip bit-exactly.  The empty algebra (size 0) is permitted when
the signature has no zeroary operations.  Everything here is immutable
after construction and all operations are pure functions.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import json
import operator
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence


class AlgebraError(ValueError):
    """Malformed algebra, term, map or partition."""


class BudgetExceededError(RuntimeError):
    """A configured size or node budget was hit before the answer was known.

    Deliberately distinct from a negative answer: callers must never
    confuse "ran out of budget" with "refuted".
    """


@dataclass(frozen=True)
class Budget:
    """Every limit on a computation that could blow up, in one object.

    Each layer reads the fields it bounds and passes plain ints to its
    loops.  Every field is a positive int.
    """

    max_nodes: int = 2_000_000  # homsearch: nodes of each seeded search
    max_index: int = 10**6  # prevariety: hom-family / product index entries
    max_carrier: int = 10**4  # closure: elements discovered
    max_table_cells: int = 4 * 10**6  # closure: cells of one op table
    max_enumeration: int = 10**6  # prevariety: raw tables when enumerating members
    max_congruence_size: int = 12  # congruences: largest algebra enumerated
    max_rules: int = 64  # srs: rules during Knuth-Bendix completion
    max_word_len: int = 64  # srs: longest rule side during completion

    def __post_init__(self):
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if type(value) is not int or value <= 0:
                raise AlgebraError(f"budget field {f.name} must be a positive int, not {value!r}")


DEFAULT_BUDGET = Budget()


@dataclass(frozen=True)
class Signature:
    """Ordered list of (symbol, arity) pairs; symbols distinct, arities finite."""

    ops: tuple[tuple[str, int], ...]

    def __post_init__(self):
        names = [name for name, _ in self.ops]
        if len(set(names)) != len(names):
            raise AlgebraError(f"duplicate operation symbols in {names}")
        for name, arity in self.ops:
            if type(arity) is not int or arity < 0:
                raise AlgebraError(f"arity for {name!r} must be a natural number, not {arity!r}")

    def arity(self, name: str) -> int:
        for op, ar in self.ops:
            if op == name:
                return ar
        raise AlgebraError(f"unknown operation symbol {name!r}")

    @functools.cached_property
    def names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.ops)

    def has_zeroary(self) -> bool:
        return any(ar == 0 for _, ar in self.ops)

    def all_unary(self) -> bool:
        return all(ar == 1 for _, ar in self.ops)


UNARY_SIGNATURE = Signature((("a", 1),))


class FiniteAlgebra:
    """A finite algebra: a carrier ``0..size-1`` plus one total table per op."""

    __slots__ = ("signature", "size", "tables", "_arities")

    def __init__(self, signature: Signature, size: int, tables: dict[str, Sequence[int]]):
        if size < 0:
            raise AlgebraError("negative size")
        if size == 0 and signature.has_zeroary():
            raise AlgebraError("empty algebra is not allowed with zeroary operations")
        if set(tables) != set(signature.names):
            raise AlgebraError("tables do not match the signature's symbols")
        frozen: dict[str, tuple[int, ...]] = {}
        for name, arity in signature.ops:
            table = tuple(tables[name])
            if len(table) != size**arity:
                raise AlgebraError(
                    f"table for {name!r} has {len(table)} entries, expected {size**arity}"
                )
            if table and (min(table) < 0 or max(table) >= size):
                raise AlgebraError(f"table for {name!r} has entries outside the carrier")
            frozen[name] = table
        self.signature = signature
        self.size = size
        self.tables = frozen
        self._arities = dict(signature.ops)

    def op(self, name: str, *args: int) -> int:
        if len(args) != self._arities[name]:
            raise AlgebraError(f"arity mismatch applying {name!r}")
        idx = 0
        for a in args:
            idx = idx * self.size + a
        return self.tables[name][idx]

    def _cells(self, name: str, values: Sequence[int]) -> Iterable[int]:
        """The ``name`` table's entries at every argument tuple over ``values``,
        in ``itertools.product(values, repeat=arity)`` order."""
        idxs = [0]
        for _ in range(self._arities[name]):
            idxs = [i * self.size + v for i in idxs for v in values]
        return map(self.tables[name].__getitem__, idxs)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FiniteAlgebra)
            and self.signature == other.signature
            and self.size == other.size
            and self.tables == other.tables
        )

    def __hash__(self):
        return hash((self.signature, self.size, tuple(sorted(self.tables.items()))))

    def __repr__(self):
        return f"FiniteAlgebra(size={self.size}, ops={list(self.tables)})"

    # -- canonical JSON text format ------------------------------------
    #
    # {"signature":[{"name":"a","arity":1}],"size":3,"ops":{"a":[1,2,0]}}
    #
    # Keys appear in exactly the order shown; ops follow signature order.
    # Serializing a parsed file reproduces it byte for byte.

    def to_json(self) -> str:
        doc = {
            "signature": [{"name": n, "arity": a} for n, a in self.signature.ops],
            "size": self.size,
            "ops": {n: list(self.tables[n]) for n, _ in self.signature.ops},
        }
        return json.dumps(doc, separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> "FiniteAlgebra":
        """Parse ``to_json`` output; a malformed document raises ``AlgebraError``."""
        try:
            doc = json.loads(text)
            sig = Signature(tuple((e["name"], e["arity"]) for e in doc["signature"]))
            size, tables = doc["size"], {n: doc["ops"][n] for n in sig.names}
            if type(size) is not int or any(type(v) is not int for t in tables.values() for v in t):
                raise TypeError("the size and every table entry must be integers")
            return cls(sig, size, tables)
        except (json.JSONDecodeError, KeyError, TypeError) as exc:
            raise AlgebraError(f"malformed algebra document: {type(exc).__name__}: {exc}") from exc

    def save(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(self.to_json() + "\n")

    @classmethod
    def load(cls, path) -> "FiniteAlgebra":
        with open(path) as fh:
            return cls.from_json(fh.read())


# -- terms --------------------------------------------------------------


@dataclass(frozen=True)
class Var:
    index: int


@dataclass(frozen=True)
class App:
    op: str
    args: tuple

    def __post_init__(self):
        object.__setattr__(self, "args", tuple(self.args))


Term = Var | App


def eval_term(alg: FiniteAlgebra, t: Term, assignment: dict[int, int]) -> int:
    """Evaluate a term by recursive table lookup under a variable assignment."""
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
    return alg.op(t.op, *(eval_term(alg, a, assignment) for a in t.args))


# -- homomorphisms and congruences ---------------------------------------


@dataclass(frozen=True)
class Homomorphism:
    """A total structure-preserving map; commutation is checked on construction."""

    source: FiniteAlgebra
    target: FiniteAlgebra
    mapping: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "mapping", tuple(self.mapping))
        if self.source.signature != self.target.signature:
            raise AlgebraError("homomorphism between different signatures")
        if len(self.mapping) != self.source.size:
            raise AlgebraError("mapping length differs from the source carrier")
        src, tgt, m = self.source, self.target, self.mapping
        if m and (min(m) < 0 or max(m) >= tgt.size):
            raise AlgebraError("mapping leaves the target carrier")
        for name, arity in src.signature.ops:
            # the image of each source cell against the target cell at the
            # images of its arguments, cell by cell in row-major order
            lhs = [m[v] for v in src.tables[name]]
            rhs = list(tgt._cells(name, m))
            if lhs != rhs:
                k = next(k for k, (u, w) in enumerate(zip(lhs, rhs)) if u != w)
                args = next(itertools.islice(
                    itertools.product(range(src.size), repeat=arity), k, None))
                raise AlgebraError(f"map does not commute with {name!r} at {args}")

    @classmethod
    def _unchecked(cls, source: FiniteAlgebra, target: FiniteAlgebra, mapping) -> "Homomorphism":
        """A homomorphism that is valid by construction: not re-validated."""
        h = object.__new__(cls)
        h.__dict__.update(source=source, target=target, mapping=tuple(mapping))
        return h

    def __call__(self, x: int) -> int:
        return self.mapping[x]

    def is_injective(self) -> bool:
        return len(set(self.mapping)) == len(self.mapping)

    def compose(self, inner: "Homomorphism") -> "Homomorphism":
        """(self ∘ inner)(x) = self(inner(x)), valid by construction."""
        if inner.target is not self.source and inner.target != self.source:
            raise AlgebraError("composition mismatch")
        return Homomorphism._unchecked(inner.source, self.target,
                                       [self.mapping[v] for v in inner.mapping])


@dataclass(frozen=True)
class Congruence:
    """An op-compatible partition, stored as a block index per element."""

    algebra: FiniteAlgebra
    blocks: tuple[int, ...]

    def __post_init__(self):
        if len(self.blocks) != self.algebra.size:
            raise AlgebraError("partition length differs from the carrier")
        object.__setattr__(self, "blocks", _labels(self.blocks))
        # compatible iff each cell shares a block with the cell at its
        # arguments' block representatives (the first element of each block)
        alg, blocks = self.algebra, self.blocks
        first: dict[int, int] = {}
        reps = [first.setdefault(lab, x) for x, lab in enumerate(blocks)]
        for name in alg.signature.names:
            if any(blocks[u] != blocks[v]
                   for u, v in zip(alg.tables[name], alg._cells(name, reps))):
                raise AlgebraError(f"partition is not compatible with {name!r}")

    @classmethod
    def _unchecked(cls, alg: FiniteAlgebra, labels: Sequence,
                   canonical: bool = False) -> "Congruence":
        """A congruence that is valid by construction: the labels are
        canonicalised (unless they already are) but not re-validated."""
        c = object.__new__(cls)
        object.__setattr__(c, "algebra", alg)
        object.__setattr__(c, "blocks", tuple(labels) if canonical else _labels(labels))
        return c

    @classmethod
    def diagonal(cls, alg: FiniteAlgebra) -> "Congruence":
        return cls(alg, tuple(range(alg.size)))

    @classmethod
    def full(cls, alg: FiniteAlgebra) -> "Congruence":
        return cls(alg, (0,) * alg.size)

    def is_diagonal(self) -> bool:
        return len(set(self.blocks)) == len(self.blocks)

    def num_blocks(self) -> int:
        return len(set(self.blocks))

    def related(self, a: int, b: int) -> bool:
        return self.blocks[a] == self.blocks[b]

    def meet(self, other: "Congruence") -> "Congruence":
        if other.algebra is not self.algebra and other.algebra != self.algebra:
            raise AlgebraError("congruences on different algebras")
        return Congruence._unchecked(self.algebra, list(zip(self.blocks, other.blocks)))

    def join(self, other: "Congruence") -> "Congruence":
        # the transitive closure of the union of two congruences is again
        # a congruence, so merging without translations suffices
        if other.algebra is not self.algebra and other.algebra != self.algebra:
            raise AlgebraError("congruences on different algebras")
        roots = _merge(range(self.algebra.size), (), _witness(self.blocks) + _witness(other.blocks))
        return Congruence._unchecked(self.algebra, _labels(roots), True)


def _witness(labels: Sequence) -> list[tuple[int, int]]:
    """Pairs of each element with the first of its block: the partition's generators."""
    first: dict = {}
    return [(r, x) for x, lab in enumerate(labels) if (r := first.setdefault(lab, x)) != x]


def _merge(parent, rows, pairs) -> list[int]:
    """The congruence kernel (Freese, "Computing congruences efficiently",
    2008).  Union-find from ``parent`` (``range(n)``: the diagonal) over a
    worklist of pairs; each merge links the larger root below the smaller
    and pushes ``zip(rows[x], rows[y])``, the two roots' images under every
    translation, so every merge is forced and the end is compatible.
    Returns each element's root, the least element of its block.
    """
    parent = list(parent)
    todo = list(pairs)
    pop, push = todo.pop, todo.extend
    while todo:
        x, y = pop()
        while parent[x] != x:
            x = parent[x]
        while parent[y] != y:
            y = parent[y]
        if x != y:
            if y < x:
                x, y = y, x
            parent[y] = x
            if rows:
                push(zip(rows[x], rows[y]))
    # parent[v] <= v throughout, so one ascending pass finds every root
    for v, p in enumerate(parent):
        parent[v] = parent[p]
    return parent


def _labels(labels: Sequence) -> tuple[int, ...]:
    """Canonical labels: blocks renumbered 0, 1, ... in order of first occurrence."""
    rank = {r: i for i, r in enumerate(dict.fromkeys(labels))}
    return tuple([rank[r] for r in labels])


def _meet(n: int, labellings: Iterable[Sequence]) -> Optional[tuple[int, ...]]:
    """The canonical labels of the meet of partitions of ``0..n-1``, n >= 2,
    taken one labelling at a time (the empty meet is the full partition), or
    None as soon as the meet is diagonal; later labellings are not pulled."""
    meet = (0,) * n
    for labels in labellings:
        seen: dict = {}
        meet = [seen.setdefault(pair, len(seen)) for pair in zip(meet, labels)]
        if len(seen) == n:
            return None
    return tuple(meet)


def _translation_rows(alg: FiniteAlgebra) -> list[tuple[int, ...]]:
    """Row x lists t(x) for every distinct basic translation t, that is an
    op with all arguments but one fixed.  Constant translations and the
    identity relate nothing new and are left out."""
    n, columns = alg.size, {}
    for name, arity in alg.signature.ops:
        table = alg.tables[name]
        for i in range(arity):
            step = n ** (arity - 1 - i)
            for cell in range(len(table)):
                if cell // step % n == 0:  # argument i is 0 here
                    columns[table[cell:cell + n * step:step]] = None
    columns.pop(tuple(range(n)), None)
    return list(zip(*[t for t in columns if t.count(t[0]) < n]))


def _principals(alg: FiniteAlgebra):
    """Cg(a, b) as ``_merge`` roots, for each pair a < b in order."""
    n, rows = alg.size, _translation_rows(alg)
    for a in range(n):
        for b in range(a + 1, n):
            yield a, b, tuple(_merge(range(n), rows, [(a, b)]))


# -- constructions --------------------------------------------------------


def _closure(
    signature: Signature,
    row,
    seeds: Iterable,
    max_carrier: Optional[int] = None,
    max_table_cells: Optional[int] = None,
) -> tuple[list, dict[str, list[int]]]:
    """Close ``seeds`` under the ops: elements in discovery order and each op
    table over their indices, recorded as found.

    ``row(name, prefix, lasts)`` gives the op's values at ``(*prefix, y)``
    for each ``y`` in ``lasts``; ``row(name, (), None)`` gives a constant.
    Order: zeroary results, the seeds, then rounds of each op over the
    elements known when the round began.  A round skips argument tuples
    whose arguments all predate the previous round (semi-naive): their
    results are already known, so the order is the naive loop's.  Each
    table row is kept under its prefix's indices and only ever extended.
    """
    elems: list = []
    index: dict = {}
    rows: dict[str, dict] = {name: {} for name in signature.names}

    def add(v) -> int:
        i = index.get(v)
        if i is None:
            if max_carrier is not None and len(elems) >= max_carrier:
                raise BudgetExceededError(
                    f"carrier exceeded budget {max_carrier} during closure"
                )
            i = index[v] = len(elems)
            elems.append(v)
        return i

    for name, arity in signature.ops:
        if arity == 0:
            rows[name][()] = [add(row(name, (), None))]
    for s in seeds:
        add(s)
    old = 0
    while True:
        n = len(elems)
        if max_table_cells is not None and any(
            n**arity > max_table_cells for _, arity in signature.ops
        ):
            raise BudgetExceededError("operation table too large for the budget")
        known, new = elems[:n], elems[old:n]
        for name, arity in signature.ops:
            if arity == 0:
                continue
            for at in itertools.product(range(n), repeat=arity - 1):
                lasts = known if at and max(at) >= old else new
                vals = row(name, map(known.__getitem__, at), lasts)
                got = list(map(index.get, vals))  # every value already known: no add
                rows[name].setdefault(at, []).extend(map(add, vals) if None in got else got)
        if len(elems) == n:
            break
        old = n
    return elems, {
        name: list(itertools.chain.from_iterable(r for _, r in sorted(table.items())))
        for name, table in rows.items()
    }


def _product_rows(factors: Sequence[FiniteAlgebra]):
    """The ``row`` of ``_closure`` over tuples in the product of ``factors``:
    a row cuts each factor's table at the offset its prefix coordinates fix,
    and a cell reads one entry of each cut."""
    sizes = [f.size for f in factors]

    def row(name, prefix, lasts):
        base = [0] * len(sizes)
        for p in prefix:
            base = list(map(operator.mul, map(operator.add, base, p), sizes))
        segs = [f.tables[name][b:b + s] for f, b, s in zip(factors, base, sizes)]
        if lasts is None:
            return tuple(seg[0] for seg in segs)
        return [tuple(map(operator.getitem, segs, y)) for y in lasts]

    return row


def _mask_rows(factors: Sequence[FiniteAlgebra]):
    """The ``row`` of ``_closure`` over a product of two-element ``factors``:
    an element is one int whose bit c is coordinate c.  Per op, bit c of
    ``masks[t]`` is factor c's entry at flat cell t; each prefix argument,
    most significant first, selects per bit one half of the masks, down to
    the values p at y = 0 and q at y = 1."""
    masks = {name: [sum(f.tables[name][t] << c for c, f in enumerate(factors))
                    for t in range(2**arity)] for name, arity in factors[0].signature.ops}

    def row(name, prefix, lasts):
        m = masks[name]
        for x in prefix:
            half = len(m) // 2
            m = [a ^ ((a ^ b) & x) for a, b in zip(m[:half], m[half:])]
        if lasts is None:
            return m[0]
        p, d = m[0], m[0] ^ m[1]
        return [p ^ (d & y) for y in lasts]

    return row


def generated_subalgebra(
    alg: FiniteAlgebra, seed: Iterable[int]
) -> tuple[FiniteAlgebra, Homomorphism]:
    """Least subset containing ``seed`` closed under all ops, with its inclusion.

    The closure runs in ``_closure`` over one-coordinate tuples and the
    result is ``subalgebra_on`` its ascending carrier.  The empty seed yields
    the closure of the zeroary constants (the empty algebra when there are
    none).
    """
    seed = list(seed)
    for x in seed:
        if not (0 <= x < alg.size):
            raise AlgebraError(f"seed element {x} is off the carrier")
    elems, _ = _closure(alg.signature, _product_rows([alg]), [(x,) for x in seed])
    return subalgebra_on(alg, sorted(x for (x,) in elems))


def subalgebra_on(alg: FiniteAlgebra, carrier: Sequence[int]) -> tuple[FiniteAlgebra, Homomorphism]:
    """Restrict ``alg`` to an already-closed subset (ascending order kept)."""
    carrier = list(carrier)
    if carrier and (min(carrier) < 0 or max(carrier) >= alg.size):
        x = next(x for x in carrier if not 0 <= x < alg.size)
        raise AlgebraError(f"subset element {x} is off the carrier")
    position = {x: i for i, x in enumerate(carrier)}
    if len(position) != len(carrier):
        raise AlgebraError("carrier subset has repeats")
    tables = {}
    for name in alg.signature.names:
        table = [position.get(v) for v in alg._cells(name, carrier)]
        if None in table:
            raise AlgebraError(f"subset is not closed under {name!r}")
        tables[name] = table
    sub = FiniteAlgebra(alg.signature, len(carrier), tables)
    return sub, Homomorphism._unchecked(sub, alg, carrier)


def direct_product(
    algebras: Sequence[FiniteAlgebra], signature: Optional[Signature] = None
) -> tuple[FiniteAlgebra, list[Homomorphism]]:
    """Componentwise product; the empty family gives the one-element algebra.

    Returns the product together with its projection homomorphisms.
    """
    algebras = list(algebras)
    if signature is None:
        if not algebras:
            raise AlgebraError("empty product needs an explicit signature")
        signature = algebras[0].signature
    for a in algebras:
        if a.signature != signature:
            raise AlgebraError("product factors have mismatched signatures")
    carrier = list(itertools.product(*(range(a.size) for a in algebras)))
    tables = {}
    for name, arity in signature.ops:
        # each cell's index in the carrier, a mixed-radix number built one
        # coordinate at a time from that factor's table
        table = [0] * len(carrier) ** arity
        for k, a in enumerate(algebras):
            column = a._cells(name, [t[k] for t in carrier])
            table = [i * a.size + v for i, v in zip(table, column)]
        tables[name] = table
    prod = FiniteAlgebra(signature, len(carrier), tables)
    projections = [
        Homomorphism._unchecked(prod, algebras[k], (t[k] for t in carrier))
        for k in range(len(algebras))
    ]
    return prod, projections


def disjoint_union(algebras: Sequence[FiniteAlgebra]) -> FiniteAlgebra:
    """Disjoint sum of all-unary algebras; each op acts within its summand."""
    algebras = list(algebras)
    if not algebras:
        raise AlgebraError("disjoint union of no algebras has no signature")
    sig = algebras[0].signature
    if not sig.all_unary():
        raise AlgebraError("disjoint unions only exist for all-unary signatures")
    for a in algebras:
        if a.signature != sig:
            raise AlgebraError("summands have mismatched signatures")
    offsets = []
    total = 0
    for a in algebras:
        offsets.append(total)
        total += a.size
    tables: dict[str, list[int]] = {name: [] for name in sig.names}
    for a, off in zip(algebras, offsets):
        for name in sig.names:
            tables[name].extend(off + v for v in a.tables[name])
    return FiniteAlgebra(sig, total, tables)


def quotient(alg: FiniteAlgebra, c: Congruence) -> tuple[FiniteAlgebra, Homomorphism]:
    """Carrier = blocks; tables are well defined by compatibility."""
    if c.algebra is not alg and c.algebra != alg:
        raise AlgebraError("congruence is on a different algebra")
    nblocks = c.num_blocks()
    reps = [c.blocks.index(b) for b in range(nblocks)]
    tables = {name: [c.blocks[v] for v in alg._cells(name, reps)] for name in alg.tables}
    q = FiniteAlgebra(alg.signature, nblocks, tables)
    return q, Homomorphism._unchecked(alg, q, c.blocks)


def congruence_generated(alg: FiniteAlgebra, pairs: Iterable[tuple[int, int]]) -> Congruence:
    """Least congruence containing the pairs.

    The pairs feed ``_merge``'s worklist over the algebra's translation
    rows: each merge of two blocks relates the images of their roots
    under every basic translation, until the worklist is empty.
    """
    pairs = list(pairs)
    for x in itertools.chain.from_iterable(pairs):
        if not (0 <= x < alg.size):
            raise AlgebraError(f"pair element {x} is off the carrier")
    roots = _merge(range(alg.size), _translation_rows(alg), pairs)
    return Congruence._unchecked(alg, _labels(roots), True)


def _require_congruence_size(alg: FiniteAlgebra, budget: Budget) -> None:
    if alg.size > budget.max_congruence_size:
        raise BudgetExceededError(
            f"congruence enumeration bound {budget.max_congruence_size} exceeded by size {alg.size}"
        )


def all_congruences(alg: FiniteAlgebra, budget: Budget = DEFAULT_BUDGET) -> list[Congruence]:
    """Complete congruence list, coarsest first: the joins of the distinct
    principal congruences Cg(a, b).

    Close-by-one (Kuznetsov 1993) lists each join once: a congruence found
    by adding principal i is joined, by ``_merge`` of the witness pairs,
    with each principal j > i outside it, and the join is kept iff no
    principal before j outside the congruence lies below it.  Guarded by
    ``max_congruence_size`` since the lattice can blow up (the identity on
    n: Bell(n)).
    """
    _require_congruence_size(alg, budget)
    principal = {roots: (a, b) for a, b, roots in _principals(alg)}
    gens = [(a, b, _witness(roots)) for roots, (a, b) in principal.items()]
    found, todo = [], [(tuple(range(alg.size)), -1)]
    while todo:
        roots, last = todo.pop()
        found.append(_labels(roots))
        outside = [(j, a, b) for j, (a, b, _) in enumerate(gens) if roots[a] != roots[b]]
        for i, (j, _, _) in enumerate(outside):
            if j > last:
                joined = _merge(roots, (), gens[j][2])
                for _, a, b in outside[:i]:
                    if joined[a] == joined[b]:
                        break
                else:
                    todo.append((tuple(joined), j))
    return [Congruence._unchecked(alg, blocks, True)
            for blocks in sorted(found, key=lambda c: (-len(set(c)), c))]


def is_subdirectly_irreducible(
    alg: FiniteAlgebra, budget: Budget = DEFAULT_BUDGET
) -> tuple[bool, Optional[Congruence]]:
    """True iff the meet of all non-diagonal congruences is non-diagonal.

    Returns that meet (the monolith) in the positive case.  Every
    non-diagonal congruence contains some principal Cg(a, b), so the
    monolith is the meet of the n(n-1)/2 principal congruences, taken on
    plain label tuples as ``_merge`` returns them (``_meet``); the
    congruence lattice is never built, and the meet stops at the first
    diagonal one.  The size bound is that of ``all_congruences``.
    """
    if alg.size < 2:
        raise AlgebraError("subdirect irreducibility needs a nontrivial algebra")
    _require_congruence_size(alg, budget)
    meet = _meet(alg.size, (roots for _, _, roots in _principals(alg)))
    if meet is None:
        return False, None
    return True, Congruence._unchecked(alg, meet, True)


def cyclic_unary(d: int) -> FiniteAlgebra:
    """The d-element algebra with one unary op cycling 0 -> 1 -> ... -> 0."""
    if d < 1:
        raise AlgebraError("cyclic algebra needs at least one element")
    return FiniteAlgebra(UNARY_SIGNATURE, d, {"a": [(i + 1) % d for i in range(d)]})


def empty_algebra(signature: Signature) -> FiniteAlgebra:
    return FiniteAlgebra(signature, 0, {name: [] for name in signature.names})


def trivial_algebra(signature: Signature) -> FiniteAlgebra:
    return FiniteAlgebra(
        signature, 1, {name: [0] * (1**arity) for name, arity in signature.ops}
    )


# -- isomorphism helpers ---------------------------------------------------


def apply_relabeling(alg: FiniteAlgebra, perm: Sequence[int]) -> FiniteAlgebra:
    """The isomorphic copy where old element x is renamed perm[x]."""
    if sorted(perm) != list(range(alg.size)):
        raise AlgebraError(f"{list(perm)} is not a permutation of the carrier")
    inverse = [0] * alg.size
    for x, y in enumerate(perm):
        inverse[y] = x
    tables = {name: [perm[v] for v in alg._cells(name, inverse)] for name in alg.tables}
    return FiniteAlgebra(alg.signature, alg.size, tables)


def canonical_form(alg: FiniteAlgebra) -> tuple:
    """The size and the least table vector (signature order, then row-major)
    of ``apply_relabeling(alg, perm)`` over all perms; an iso invariant.  An
    exact search hands out labels 0, 1, ... in reading order: a cell's
    unlabelled value gets the next label; a cell that needs it as an argument
    branches over the elements giving the cell its least value, skipping ``y``
    if swapping it with a kept ``x`` is an automorphism; a branch stops above
    the best key.  ``n!`` leaves at worst (McKay & Piperno, 2014)."""
    n, best = alg.size, [alg.size]  # above every key: labels are below n
    cells = [(alg.tables[name], args, max(args, default=-1)) for name, arity in alg.signature.ops
             for args in itertools.product(range(n), repeat=arity)]

    def label(table, args, order: list) -> int:  # order: new label -> old element
        value = table[sum(order[b] * n**i for i, b in enumerate(reversed(args)))]
        if value not in order:
            order.append(value)
        return order.index(value)

    @functools.cache
    def automorphic(x: int, y: int) -> bool:  # the transposition (x y) is an automorphism
        swap = [{x: y, y: x}.get(z, z) for z in range(n)]
        return all(swap[v] == w for name, table in alg.tables.items()
                   for v, w in zip(alg._cells(name, swap), table))

    def search(start: int, order: list, key: list) -> None:
        for pos in range(start, len(cells)):
            table, args, need = cells[pos]
            if need == len(order):
                scores = {x: label(table, args, order + [x]) for x in range(n) if x not in order}
                kept, low = [], min(scores.values())
                for y in scores:
                    if scores[y] == low and not any(automorphic(x, y) for x in kept):
                        kept.append(y)
                        search(pos, order + [y], list(key))
                return
            key.append(label(table, args, order))
            if key > best[:pos + 1]:
                return
        if key < best:
            best[:] = key

    search(0, [], [])
    values = iter(best)
    return (n, tuple(tuple(itertools.islice(values, n**arity)) for _, arity in alg.signature.ops))


def find_isomorphism(a: FiniteAlgebra, b: FiniteAlgebra) -> Optional[Homomorphism]:
    """Some isomorphism a -> b, or None: on carriers of equal size an
    injective homomorphism is bijective, hence an isomorphism."""
    from .homsearch import _Search  # homsearch imports this module

    if a.signature != b.signature or a.size != b.size:
        return None
    mapping = _Search(a, b, True, DEFAULT_BUDGET.max_nodes).first([])
    return None if mapping is None else Homomorphism._unchecked(a, b, mapping)


def are_isomorphic(a: FiniteAlgebra, b: FiniteAlgebra) -> bool:
    return a.size == b.size and find_isomorphism(a, b) is not None
