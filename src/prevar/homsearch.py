"""Homomorphism and embedding search between finite algebras.

Backtracking constraint satisfaction with a fixed, reproducible order:
the next variable is the least-index unassigned element among those with
the smallest candidate set, and values are tried in ascending order.
Assigning an element propagates forward through every operation whose
arguments are now all assigned.  Injectivity, when requested, is read
from the assignment during search rather than checked by post-filtering.
A search lists every solution, stops at the first, or tests a product of
seed choices, propagating each prefix once; past ``max_nodes`` it raises,
never truncates.  Results are not re-validated.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterator, Optional, Sequence

from .algcore import (
    AlgebraError,
    Budget,
    BudgetExceededError,
    DEFAULT_BUDGET,
    FiniteAlgebra,
    Homomorphism,
    direct_product,
)


class MembershipError(AlgebraError):
    """An algebra failed a membership precondition; carries a witness pair."""

    def __init__(self, message: str, witness: Optional[tuple[int, int]] = None):
        super().__init__(message)
        self.witness = witness


class _Search:
    """``iterate`` yields each homomorphism's mapping only when it is pulled,
    so a caller that stops pulling stops the search.  One instance serves
    any number of seeds, one ``iterate`` at a time; each starts its node
    count afresh, so ``max_nodes`` bounds every seeded search on its own."""

    def __init__(self, source, target, injective, max_nodes):
        self.A = source
        self.B = target
        self.injective = injective
        self.max_nodes = max_nodes
        self.nodes = 0
        # one (target table, args, result) constraint per cell of each source
        # table of arity 2 or more, and one (target table, result) per unary
        # cell, filed under its argument; zeroary ops become forced assignments.
        # a constraint already satisfied never breaks later, so propagation
        # and candidate filtering only visit those with the element being
        # assigned among their arguments (the last one assigned forces the result)
        self.unary = [[] for _ in range(source.size)]
        self.touching = [[] for _ in range(source.size)]
        for name, arity in source.signature.ops:
            table = target.tables[name]
            if arity == 1:
                for x, result in enumerate(source.tables[name]):
                    self.unary[x].append((table, result))
            elif arity:
                cells = itertools.product(range(source.size), repeat=arity)
                for args, result in zip(cells, source.tables[name]):
                    constraint = (table, args, result)
                    for e in set(args):
                        self.touching[e].append(constraint)

    def iterate(self, seed: dict[int, int]) -> Iterator[tuple[int, ...]]:
        assignment = self._start(sorted(seed.items()))
        if assignment is not None:
            yield from self._extend(assignment)

    def first(self, pairs) -> Optional[tuple[int, ...]]:
        """The first mapping extending the seed ``pairs``, or None when two
        pairs conflict or nothing extends them."""
        assignment = self._start(pairs)
        return None if assignment is None else next(self._extend(assignment), None)

    def every_choice_extends(self, fixed, stages) -> bool:
        """True iff ``fixed`` plus each choice of one seed-pair list per stage
        extends, in product order; each choice prefix is propagated once, and
        a leaf left with unassigned elements is searched from a fresh node count."""
        if not all(stages):
            return True  # an empty stage leaves no choice to test
        assignment = self._start(fixed)
        return assignment is not None and self._walk(stages, assignment)

    def _walk(self, stages, assignment) -> bool:
        if not stages:
            if None not in assignment:
                return True  # a complete leaf is its own extension
            self.nodes = 0
            return next(self._extend(assignment), None) is not None
        for pairs in stages[0]:
            below = list(assignment)
            if not (self._assign_all(below, pairs) and self._walk(stages[1:], below)):
                return False
        return True

    def _start(self, seed_pairs):
        # a fresh state with the seed pairs propagated, or None on a contradiction
        self.nodes = 0
        assignment: list[Optional[int]] = [None] * self.A.size
        pending = list(seed_pairs)
        if any(not (0 <= x < self.A.size and 0 <= v < self.B.size) for x, v in pending):
            raise AlgebraError("seed assignment is off a carrier")
        for name, arity in self.A.signature.ops:
            if arity == 0:
                # constants are hard constraints; conflicts kill the branch
                pending.append((self.A.tables[name][0], self.B.tables[name][0]))
        return assignment if self._assign_all(assignment, pending) else None

    # assign the pending pairs plus everything they force through determined
    # constraints; False means a contradiction (this branch has no extension)
    def _assign_all(self, assignment, pending) -> bool:
        unary, touching, size, injective = self.unary, self.touching, self.B.size, self.injective
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
            for table, result in unary[x]:
                res = assignment[result]
                if res is None:
                    queue.append((result, table[v]))
                elif res != table[v]:
                    return False
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
        # x is unassigned; each unary cell on x narrows the ascending values
        # with one table read per value, then each value left is tried
        # against the wider cells by assigning it in place.  An injective
        # search reads the targets taken before x, so x's own trial value
        # never counts as taken here; _assign_all refutes that clash
        touching, size, injective = self.touching[x], self.B.size, self.injective
        taken = set(assignment) if injective else ()
        values = [v for v in range(size) if v not in taken] if injective else range(size)
        for table, result in self.unary[x]:
            res = assignment[result]
            if result == x:
                values = [v for v in values if table[v] == v]
            elif res is not None:
                values = [v for v in values if table[v] == res]
            elif injective:  # the result would be forced onto a taken target
                values = [v for v in values if table[v] not in taken]
        if not touching:
            return list(values)
        out = []
        for v in values:
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
                        # result would be forced onto an already-taken target
                        break
            else:
                out.append(v)
        assignment[x] = None
        return out

    def _extend(self, assignment) -> Iterator[tuple[int, ...]]:
        unassigned = [x for x in range(self.A.size) if assignment[x] is None]
        if not unassigned:
            yield tuple(assignment)
            return
        best = None
        for x in unassigned:
            cands = self._candidates(assignment, x)
            if best is None or len(cands) < len(best[1]):
                best = (x, cands)
            if not cands:
                break
        x, cands = best
        for v in cands:
            self.nodes += 1
            if self.nodes > self.max_nodes:
                raise BudgetExceededError(f"homomorphism search exceeded {self.max_nodes} nodes")
            trail = list(assignment)
            if self._assign_all(assignment, [(x, v)]):
                yield from self._extend(assignment)
            assignment[:] = trail


def find_homomorphisms(
    source: FiniteAlgebra,
    target: FiniteAlgebra,
    seed: Optional[dict[int, int]] = None,
    budget: Budget = DEFAULT_BUDGET,
    injective: bool = False,
) -> list[Homomorphism]:
    """All total homomorphisms extending ``seed``, in deterministic order.

    A seed pair off a carrier raises ``AlgebraError``; a contradictory seed
    has no extension.  Exceeding ``max_nodes`` raises ``BudgetExceededError``
    so exhaustion is never mistaken for "no solutions".  The results are
    valid by construction and skip the ``Homomorphism`` constructor's
    re-validation.
    """
    if source.signature != target.signature:
        raise AlgebraError("search between different signatures")
    found = _Search(source, target, injective, budget.max_nodes).iterate(seed or {})
    return [Homomorphism._unchecked(source, target, m) for m in found]


def separating_family(
    a: FiniteAlgebra,
    generators: Sequence[FiniteAlgebra],
    budget: Budget = DEFAULT_BUDGET,
) -> tuple[bool, Optional[tuple[int, int]], list[Homomorphism]]:
    """Point-separation data for membership of ``a`` in SP(generators).

    Returns ``(ok, witness, homs)``: when ``ok`` is false, ``witness`` is
    the first pair of elements no homomorphism into any generator
    separates; when true, ``homs`` holds, for each element pair in pair
    order, the first separating homomorphism in generator order, then in
    ``find_homomorphisms`` order.  The generators are searched in order,
    one homomorphism at a time, each under ``budget``; the search stops as
    soon as every pair is separated, and later generators are not searched.
    """
    pending, walked = _separate(a, generators, budget)
    if pending:
        return False, pending[0], []
    homs = [Homomorphism._unchecked(a, g, m) for g, (ms, _) in zip(generators, walked) for m in ms]
    images = list(zip(*(h.mapping for h in homs)))  # x -> its image under each hom
    witnesses = []
    for x, y in itertools.combinations(range(a.size), 2):
        i = 0
        while images[x][i] == images[y][i]:
            i += 1
        witnesses.append(homs[i])
    return True, None, witnesses


def _separate(a, generators, budget):
    """``separating_family``'s walk.  Returns the pairs left unseparated and,
    per searched generator, (the mappings pulled, its live search), which a
    caller may drain; it stops pulling once every pair is separated."""
    if any(g.signature != a.signature for g in generators):
        raise AlgebraError("membership test across signatures")
    pending = list(itertools.combinations(range(a.size), 2))
    walked = []
    for g in generators:
        if not pending:
            break
        pulled, search = [], _Search(a, g, False, budget.max_nodes).iterate({})
        walked.append((pulled, search))
        for mapping in search:
            pulled.append(mapping)
            pending = [(x, y) for x, y in pending if mapping[x] == mapping[y]]
            if not pending:
                break
    return pending, walked


def in_sp(
    a: FiniteAlgebra,
    generators: Sequence[FiniteAlgebra],
    budget: Budget = DEFAULT_BUDGET,
) -> bool:
    """Membership in SP(generators) by the point-separation criterion.

    Algebras of size <= 1 always belong (they embed in the empty product);
    otherwise every pair of distinct elements must be separated by a
    homomorphism into some generator.
    """
    return not _separate(a, generators, budget)[0]


def sp_embedding(
    a: FiniteAlgebra,
    generators: Sequence[FiniteAlgebra],
    budget: Budget = DEFAULT_BUDGET,
):
    """An explicit injective map of ``a`` into a product of generators.

    Returns ``(product, injection)`` built from one separating homomorphism
    per element pair; raises ``MembershipError`` when ``a`` is not in SP.
    A product over ``max_carrier`` elements or ``max_table_cells`` cells in
    an op table raises ``BudgetExceededError`` before it is built.
    """
    ok, witness, homs = separating_family(a, generators, budget)
    if not ok:
        raise MembershipError("algebra is not in SP of the generators", witness)
    targets = [h.target for h in homs]
    sizes = [t.size for t in targets]
    size = math.prod(sizes)
    if size > budget.max_carrier:
        raise BudgetExceededError(f"SP product has {size} elements, over budget {budget.max_carrier}")
    if any(size**arity > budget.max_table_cells for _, arity in a.signature.ops):
        raise BudgetExceededError("operation table too large for the budget in the SP product")
    prod, _ = direct_product(targets, signature=a.signature)
    mapping = []
    for x in range(a.size):
        idx = 0
        for h, s in zip(homs, sizes):
            idx = idx * s + h(x)
        mapping.append(idx)
    return prod, Homomorphism._unchecked(a, prod, mapping)
