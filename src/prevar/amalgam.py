"""Free products of finite groups with amalgamation.

Elements are kept in the standard normal form: an alternating string of
non-identity left-coset representatives from the two factors, followed by
an element of the amalgamated subgroup.  Each coset is represented by its
least carrier index, except the subgroup's own coset, represented by the
identity.

Torsion detection uses the structural criterion (an element is conjugate
into a factor iff its cyclically reduced string has length <= 1) and
always cross-checks it against a powers oracle, trusting neither alone.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .algcore import (AlgebraError, BudgetExceededError, DEFAULT_BUDGET, FiniteAlgebra,
                      Homomorphism, Signature, subalgebra_on)

GROUP_SIGNATURE = Signature((("mul", 2), ("inv", 1), ("e", 0)))


class FiniteGroup:
    """A finite group presented by tables; the constructor checks the axioms
    up front, and groups built as groups (``symmetric_group``, ``subgroup``)
    skip that O(n³) check.

    The tables are flattened on construction since group arithmetic sits
    in the innermost loops of the normal-form machinery.
    """

    __slots__ = ("alg", "size", "identity", "_mul", "_inv")

    def __init__(self, alg: FiniteAlgebra):
        if alg.signature != GROUP_SIGNATURE:
            raise AlgebraError("groups use the signature {mul/2, inv/1, e/0}")
        self._adopt(alg)
        n, e = self.size, self.identity
        for x in range(n):
            if self.mul(e, x) != x or self.mul(x, e) != x:
                raise AlgebraError("identity law fails")
            if self.mul(x, self.inv(x)) != e or self.mul(self.inv(x), x) != e:
                raise AlgebraError("inverse law fails")
        for x in range(n):
            for y in range(n):
                for z in range(n):
                    if self.mul(self.mul(x, y), z) != self.mul(x, self.mul(y, z)):
                        raise AlgebraError("associativity fails")

    @classmethod
    def _unchecked(cls, alg: FiniteAlgebra) -> "FiniteGroup":
        """A group that is one by construction: the axioms are not re-checked."""
        group = object.__new__(cls)
        group._adopt(alg)
        return group

    def _adopt(self, alg: FiniteAlgebra) -> None:
        self.alg, self.size, self.identity = alg, alg.size, alg.op("e")
        self._mul, self._inv = alg.tables["mul"], alg.tables["inv"]

    def mul(self, x: int, y: int) -> int:
        return self._mul[x * self.size + y]

    def inv(self, x: int) -> int:
        return self._inv[x]

    def order_of(self, x: int) -> int:
        e = self.identity
        acc, k = x, 1
        while acc != e:
            acc = self.mul(acc, x)
            k += 1
        return k

    def __repr__(self):
        return f"FiniteGroup(order={self.size})"


def symmetric_group(n: int) -> tuple[FiniteGroup, list[tuple[int, ...]]]:
    """Sym(n) on the points 0..n-1; carrier indices follow the
    lexicographic order of the permutation tuples, so the identity is 0.

    Composition is (g*h)(x) = g(h(x)).
    """
    if n < 1:
        raise AlgebraError("symmetric groups need at least one point")
    cells = math.factorial(n) ** 2
    if cells > DEFAULT_BUDGET.max_table_cells:
        raise BudgetExceededError(f"Sym({n}) has {cells} table cells, "
                                  f"over the budget {DEFAULT_BUDGET.max_table_cells}")
    perms = sorted(itertools.permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    mul = [index[tuple(g[x] for x in h)] for g in perms for h in perms]
    inv = [index[tuple(sorted(range(n), key=g.__getitem__))] for g in perms]
    alg = FiniteAlgebra(GROUP_SIGNATURE, len(perms), {"mul": mul, "inv": inv, "e": [0]})
    return FiniteGroup._unchecked(alg), perms


def subgroup(group: FiniteGroup, members: Iterable[int]) -> tuple[FiniteGroup, tuple[int, ...]]:
    """The subgroup on the given closed subset, with its inclusion indices."""
    carrier = sorted(set(members))
    return FiniteGroup._unchecked(subalgebra_on(group.alg, carrier)[0]), tuple(carrier)


def point_stabilizer(group: FiniteGroup, perms: Sequence[tuple[int, ...]], point: int):
    members = [i for i, p in enumerate(perms) if p[point] == point]
    return subgroup(group, members)


@dataclass(frozen=True)
class AmalgamCtx:
    """Two factor groups with a common amalgamated subgroup.

    ``embeddings[k]`` sends subgroup indices into factor ``k``; one that is
    not an injective homomorphism raises ``AlgebraError``.  The derived
    ``transversals`` list the least left-coset representatives of each
    embedded subgroup, identity first.
    """

    factors: tuple[FiniteGroup, FiniteGroup]
    base: FiniteGroup
    embeddings: tuple[tuple[int, ...], tuple[int, ...]]
    transversals: tuple[tuple[int, ...], tuple[int, ...]] = field(init=False)

    def __post_init__(self):
        if len(self.factors) != 2 or len(self.embeddings) != 2:
            raise AlgebraError("an amalgam has two factors, each with an embedding")
        transversals, tables = [], []
        for group, emb in zip(self.factors, self.embeddings):
            if not Homomorphism(self.base.alg, group.alg, emb).is_injective():
                raise AlgebraError("embedding is not one-to-one on the subgroup")
            # factor element -> (representative, subgroup part); a coset is
            # met first at its least index, and the subgroup's own coset
            # is represented by the identity
            reps, table = [], {}
            for g in range(group.size):
                if g in table:
                    continue
                rep = group.identity if g in emb else g
                reps.append(rep)
                for b, h in enumerate(emb):
                    table[group.mul(rep, h)] = (rep, b)
            reps.sort(key=lambda r: (r != group.identity, r))
            transversals.append(tuple(reps))
            tables.append(table)
        object.__setattr__(self, "transversals", tuple(transversals))
        object.__setattr__(self, "_split_tables", tuple(tables))


@dataclass(frozen=True)
class AmalgamElement:
    """Alternating non-identity representatives, then a subgroup element."""

    reps: tuple[tuple[int, int], ...]  # (factor, representative)
    tail: int                          # subgroup carrier index

    def length(self) -> int:
        return len(self.reps)


def identity_element(ctx: AmalgamCtx) -> AmalgamElement:
    return AmalgamElement((), ctx.base.identity)


def _prepend(ctx: AmalgamCtx, k: int, g: int, el: AmalgamElement) -> AmalgamElement:
    """Normal form of (g in factor k) * el, read from the flat tables."""
    factors, base = ctx.factors, ctx.base
    muls = (factors[0]._mul, factors[1]._mul)
    sizes = (factors[0].size, factors[1].size)
    splits, embs = ctx._split_tables, ctx.embeddings
    reps = el.reps
    n, i = len(reps), 0
    mul, size = muls[k], sizes[k]
    while i < n and reps[i][0] == k:
        g = mul[g * size + reps[i][1]]
        i += 1
    rep, beta = splits[k][g]
    out = [] if rep == factors[k].identity else [(k, rep)]
    while i < n:
        fi, ri = reps[i]
        # pushing a subgroup element through never lands in the subgroup
        rep_i, beta = splits[fi][muls[fi][embs[fi][beta] * sizes[fi] + ri]]
        out.append((fi, rep_i))
        i += 1
    return AmalgamElement(tuple(out), base._mul[beta * base.size + el.tail])


def normal_form(ctx: AmalgamCtx, word: Sequence[tuple[int, int]]) -> AmalgamElement:
    """Fold the letters right to left, splitting each against the transversal."""
    el = identity_element(ctx)
    for k, g in reversed(list(word)):
        if k not in (0, 1):
            raise AlgebraError("factor tags are 0 and 1")
        if not 0 <= g < ctx.factors[k].size:
            raise AlgebraError("letter outside its factor")
        el = _prepend(ctx, k, g, el)
    return el


def to_word(ctx: AmalgamCtx, el: AmalgamElement) -> list[tuple[int, int]]:
    return list(el.reps) + [(0, ctx.embeddings[0][el.tail])]


def multiply(ctx: AmalgamCtx, e1: AmalgamElement, e2: AmalgamElement) -> AmalgamElement:
    """The normal form of e1 * e2; an argument not in normal form raises
    ``AlgebraError``."""
    _check_element(ctx, e1)
    _check_element(ctx, e2)
    return _multiply(ctx, e1, e2)


def _multiply(ctx: AmalgamCtx, e1: AmalgamElement, e2: AmalgamElement) -> AmalgamElement:
    el = e2
    for k, g in reversed(to_word(ctx, e1)):
        el = _prepend(ctx, k, g, el)
    return el


def inverse(ctx: AmalgamCtx, el: AmalgamElement) -> AmalgamElement:
    _check_element(ctx, el)
    word = to_word(ctx, el)
    inverted = [(k, ctx.factors[k].inv(g)) for k, g in reversed(word)]
    return normal_form(ctx, inverted)


def power(ctx: AmalgamCtx, el: AmalgamElement, k: int) -> AmalgamElement:
    if k < 0:
        raise AlgebraError("power needs a non-negative exponent")
    _check_element(ctx, el)
    acc = identity_element(ctx)
    for _ in range(k):
        acc = _multiply(ctx, acc, el)
    return acc


def cyclically_reduce(ctx: AmalgamCtx, el: AmalgamElement) -> AmalgamElement:
    """Conjugate away matching ends until the string length stabilizes."""
    _check_element(ctx, el)
    return _cyclically_reduce(ctx, el)


def _cyclically_reduce(ctx: AmalgamCtx, el: AmalgamElement) -> AmalgamElement:
    while el.length() >= 2:
        k, r = el.reps[0]
        letter = normal_form(ctx, [(k, r)])
        conj = _multiply(ctx, _prepend(ctx, k, ctx.factors[k].inv(r), el), letter)
        if conj.length() < el.length():
            el = conj
        else:
            break
    return el


def _check_string(ctx: AmalgamCtx, reps: Sequence[tuple[int, int]]) -> None:
    """Alternating non-identity transversal representatives."""
    for k, r in reps:
        if k not in (0, 1):
            raise AlgebraError("factor tags are 0 and 1")
        if r == ctx.factors[k].identity or r not in ctx.transversals[k]:
            raise AlgebraError("coset strings use non-identity transversal reps")
    for i in range(len(reps) - 1):
        if reps[i][0] == reps[i + 1][0]:
            raise AlgebraError("coset strings must alternate factors")


def _check_element(ctx: AmalgamCtx, el: AmalgamElement) -> None:
    """A normal form: a coset string, then a tail in the subgroup."""
    _check_string(ctx, el.reps)
    if not 0 <= el.tail < ctx.base.size:
        raise AlgebraError("tail outside the subgroup")


def is_torsion(ctx: AmalgamCtx, el: AmalgamElement) -> bool:
    """Finite order iff the cyclically reduced string has length <= 1.

    The structural verdict is cross-validated by the powers oracle: a
    positive answer must exhibit the order, a negative one strict string
    growth of the powers.  A disagreement would mean a bug, and raises.
    An element that is not in normal form raises ``AlgebraError``.
    """
    _check_element(ctx, el)
    return _is_torsion(ctx, el)


def _is_torsion(ctx: AmalgamCtx, el: AmalgamElement) -> bool:
    reduced = _cyclically_reduce(ctx, el)
    length = reduced.length()
    if length <= 1:
        bound = ctx.factors[0].size * ctx.factors[1].size * ctx.base.size
        one, acc = identity_element(ctx), el
        for _ in range(bound):
            if acc == one:
                return True
            acc = _multiply(ctx, acc, el)
        raise AlgebraError("structural torsion verdict failed the powers oracle")
    acc = reduced
    for k in range(2, 7):
        acc = _multiply(ctx, reduced, acc)
        if acc.length() != k * length:
            raise AlgebraError("expected strict normal-form growth of powers")
    return False


def coset_torsion_scan(ctx: AmalgamCtx, string: Sequence[tuple[int, int]]) -> bool:
    """Whether the left coset (string * subgroup) contains a torsion element.

    Enumerates all |base| members of the coset.
    """
    reps = tuple(string)
    _check_string(ctx, reps)
    for b in range(ctx.base.size):
        if _is_torsion(ctx, AmalgamElement(reps, b)):
            return True
    return False


def alternating_strings(ctx: AmalgamCtx, length: int):
    """All alternating transversal strings of exactly the given length."""
    if length == 0:
        yield ()
        return
    nonid = [
        [r for r in ctx.transversals[k] if r != ctx.factors[k].identity]
        for k in (0, 1)
    ]
    for start in (0, 1):
        factors = [(start + i) % 2 for i in range(length)]
        for choice in itertools.product(*(nonid[f] for f in factors)):
            yield tuple(zip(factors, choice))


def sym_stab_amalgam(n: int) -> AmalgamCtx:
    """Sym(n) amalgamated with a second copy over the stabilizer of the
    last point."""
    g, perms = symmetric_group(n)
    stab, inclusion = point_stabilizer(g, perms, n - 1)
    return AmalgamCtx((g, g), stab, (inclusion, inclusion))


@dataclass
class CosetWitness:
    image: int
    witness: tuple[int, ...]
    order: int


@dataclass
class StabilizerSurvey:
    n: int
    witnesses: list[CosetWitness]

    @property
    def all_cosets_have_involutions(self) -> bool:
        return all(w.order <= 2 for w in self.witnesses)


def stabilizer_coset_survey(n: int) -> StabilizerSurvey:
    """In Sym(n) with the stabilizer of the last point as subgroup, every
    left coset contains an element of order <= 2; report one per coset.

    The coset sending the stabilized point to y contains the transposition
    of the point with y (or the identity when y is the point itself).
    """
    if not 2 <= n <= 6:
        raise AlgebraError("survey implemented for 2 <= n <= 6")
    group, perms = symmetric_group(n)
    point = n - 1
    witnesses = []
    for y in range(n):
        found = None
        for idx, p in enumerate(perms):
            if p[point] == y and group.order_of(idx) <= 2:
                found = CosetWitness(y, p, group.order_of(idx))
                break
        if found is None:
            raise AlgebraError(f"coset sending {point} to {y} has no involution")
        witnesses.append(found)
    return StabilizerSurvey(n, witnesses)
