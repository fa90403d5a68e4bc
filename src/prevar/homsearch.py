"""Homomorphism and embedding search between finite algebras.

Backtracking constraint satisfaction with a fixed, reproducible order:
the next variable is the least-index unassigned element among those with
the smallest candidate set, and values are tried in ascending order.
Assigning an element propagates forward through every operation whose
arguments are now all assigned.  Injectivity, when requested, is
enforced during search by tracking used targets rather than by
post-filtering.  A product of seed choices propagates each prefix once
(``_Search.every_choice_extends``); results are not re-validated.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

from .algcore import (
    AlgebraError,
    BudgetExceededError,
    FiniteAlgebra,
    Homomorphism,
)


@dataclass(frozen=True)
class SearchBudget:
    max_nodes: int = 2_000_000
    max_solutions: Optional[int] = None

    def __post_init__(self):
        if self.max_nodes <= 0:
            raise AlgebraError("max_nodes must be positive")
        if self.max_solutions is not None and self.max_solutions <= 0:
            raise AlgebraError("max_solutions must be positive")


DEFAULT_BUDGET = SearchBudget()


@dataclass(frozen=True)
class PartialMap:
    """A partial assignment between carriers, consistent where determined.

    Construction rejects assignments that already violate an operation
    whose arguments are all assigned.
    """

    source: FiniteAlgebra
    target: FiniteAlgebra
    assignment: tuple[tuple[int, int], ...]

    def __post_init__(self):
        object.__setattr__(self, "assignment", tuple(sorted(dict(self.assignment).items())))
        mapping = dict(self.assignment)
        for x, v in mapping.items():
            if not (0 <= x < self.source.size) or not (0 <= v < self.target.size):
                raise AlgebraError("partial map leaves a carrier")
        for name, arity in self.source.signature.ops:
            for args in itertools.product(sorted(mapping), repeat=arity):
                result = self.source.op(name, *args)
                if result in mapping:
                    forced = self.target.op(name, *(mapping[a] for a in args))
                    if mapping[result] != forced:
                        raise AlgebraError(
                            f"partial map already violates {name!r} at {args}"
                        )

    def as_dict(self) -> dict[int, int]:
        return dict(self.assignment)


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
        # one (target table, args, result) constraint per cell of each
        # non-zeroary source table; zeroary ops become forced assignments.
        # a constraint already satisfied never breaks later, so propagation
        # and candidate filtering only visit constraints touching the
        # element being assigned
        self.touching = [[] for _ in range(source.size)]
        for name, arity in source.signature.ops:
            if arity == 0:
                continue
            table = target.tables[name]
            cells = itertools.product(range(source.size), repeat=arity)
            for args, result in zip(cells, source.tables[name]):
                constraint = (table, args, result)
                for e in {*args, result}:
                    self.touching[e].append(constraint)

    def iterate(self, seed: dict[int, int]) -> Iterator[tuple[int, ...]]:
        state = self._start(sorted(seed.items()))
        if state is not None:
            yield from self._extend(*state)

    def first(self, pairs) -> Optional[tuple[int, ...]]:
        """The first mapping extending the seed ``pairs``, or None when two
        pairs conflict or nothing extends them."""
        state = self._start(pairs)
        return None if state is None else next(self._extend(*state), None)

    def every_choice_extends(self, fixed, stages) -> bool:
        """True iff ``fixed`` plus each choice of one seed-pair list per stage
        extends, in product order; each choice prefix is propagated once, and
        a leaf left with unassigned elements is searched from a fresh node count."""
        if not all(stages):
            return True  # an empty stage leaves no choice to test
        state = self._start(fixed)
        return state is not None and self._walk(stages, *state)

    def _walk(self, stages, assignment, used) -> bool:
        if not stages:
            self.nodes = 0
            return next(self._extend(assignment, used), None) is not None
        for pairs in stages[0]:
            below, below_used = list(assignment), list(used)
            if not (self._assign_all(below, below_used, pairs)
                    and self._walk(stages[1:], below, below_used)):
                return False
        return True

    def _start(self, seed_pairs):
        # a fresh state with the seed pairs propagated, or None on a contradiction
        self.nodes = 0
        assignment: list[Optional[int]] = [None] * self.A.size
        used = [0] * self.B.size
        pending = list(seed_pairs)
        if any(not (0 <= x < self.A.size and 0 <= v < self.B.size) for x, v in pending):
            raise AlgebraError("seed assignment is off a carrier")
        for name, arity in self.A.signature.ops:
            if arity == 0:
                # constants are hard constraints; conflicts kill the branch
                pending.append((self.A.tables[name][0], self.B.tables[name][0]))
        return (assignment, used) if self._assign_all(assignment, used, pending) else None

    # assign the pending pairs plus everything they force through determined
    # constraints; False means a contradiction (this branch has no extension)
    def _assign_all(self, assignment, used, pending) -> bool:
        touching, size, injective = self.touching, self.B.size, self.injective
        queue = list(pending)
        while queue:
            x, v = queue.pop()
            cur = assignment[x]
            if cur is not None:
                if cur != v:
                    return False
                continue
            if injective and used[v]:
                return False
            assignment[x] = v
            used[v] += 1
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

    def _candidates(self, assignment, used, x) -> list[int]:
        # x is unassigned; each value is tried by assigning it in place
        touching, size, injective = self.touching[x], self.B.size, self.injective
        out = []
        for v in range(size):
            if injective and used[v]:
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
                    elif injective and used[table[idx]]:
                        # result would be forced onto an already-taken target
                        break
            else:
                out.append(v)
        assignment[x] = None
        return out

    def _extend(self, assignment, used) -> Iterator[tuple[int, ...]]:
        unassigned = [x for x in range(self.A.size) if assignment[x] is None]
        if not unassigned:
            yield tuple(assignment)
            return
        best = None
        for x in unassigned:
            cands = self._candidates(assignment, used, x)
            if best is None or len(cands) < len(best[1]):
                best = (x, cands)
            if not cands:
                break
        x, cands = best
        for v in cands:
            self.nodes += 1
            if self.nodes > self.max_nodes:
                raise BudgetExceededError(
                    f"homomorphism search exceeded {self.max_nodes} nodes"
                )
            trail_assignment = list(assignment)
            trail_used = list(used)
            if self._assign_all(assignment, used, [(x, v)]):
                yield from self._extend(assignment, used)
            assignment[:] = trail_assignment
            used[:] = trail_used


def find_homomorphisms(
    source: FiniteAlgebra,
    target: FiniteAlgebra,
    seed: Optional[dict[int, int] | PartialMap] = None,
    budget: SearchBudget = DEFAULT_BUDGET,
    injective: bool = False,
) -> list[Homomorphism]:
    """All total homomorphisms extending ``seed``, in deterministic order.

    ``seed`` is a dict or a ``PartialMap``.  The search is lazy: reaching
    ``max_solutions`` stops it before any further node.  Exceeding
    ``max_nodes`` raises ``BudgetExceededError`` so exhaustion is never
    mistaken for "no solutions".  The results are valid by construction
    and skip the ``Homomorphism`` constructor's re-validation.
    """
    if source.signature != target.signature:
        raise AlgebraError("search between different signatures")
    if isinstance(seed, PartialMap):
        if seed.source != source or seed.target != target:
            raise AlgebraError("partial map belongs to different algebras")
        seed = seed.as_dict()
    if target.size == 0:
        return [] if source.size > 0 else [Homomorphism(source, target, ())]
    found = _Search(source, target, injective, budget.max_nodes).iterate(seed or {})
    return [Homomorphism._unchecked(source, target, m) for m in itertools.islice(found, budget.max_solutions)]


def exists_embedding(
    a: FiniteAlgebra, b: FiniteAlgebra, budget: SearchBudget = DEFAULT_BUDGET
) -> bool:
    """True iff an injective homomorphism a -> b exists."""
    if a.size > b.size:
        return False
    found = find_homomorphisms(
        a, b, budget=SearchBudget(budget.max_nodes, 1), injective=True
    )
    return bool(found)


def separating_family(
    a: FiniteAlgebra,
    generators: Sequence[FiniteAlgebra],
    budget: SearchBudget = DEFAULT_BUDGET,
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
    for g in generators:
        if g.signature != a.signature:
            raise AlgebraError("membership test across signatures")
    if a.size <= 1:
        return True, None, []
    pending = pairs = [(x, y) for x in range(a.size) for y in range(x + 1, a.size)]
    chosen: dict[tuple[int, int], Homomorphism] = {}
    for g in generators:
        found = _Search(a, g, False, budget.max_nodes).iterate({})
        for mapping in itertools.islice(found, budget.max_solutions):
            separated = [(x, y) for x, y in pending if mapping[x] != mapping[y]]
            if separated:
                chosen.update(dict.fromkeys(separated, Homomorphism._unchecked(a, g, mapping)))
                pending = [p for p in pending if p not in chosen]
                if not pending:
                    return True, None, [chosen[p] for p in pairs]
    return False, pending[0], []


def in_sp(
    a: FiniteAlgebra,
    generators: Sequence[FiniteAlgebra],
    budget: SearchBudget = DEFAULT_BUDGET,
) -> bool:
    """Membership in SP(generators) by the point-separation criterion.

    Algebras of size <= 1 always belong (they embed in the empty product);
    otherwise every pair of distinct elements must be separated by a
    homomorphism into some generator.
    """
    ok, _, _ = separating_family(a, generators, budget)
    return ok


def sp_embedding(
    a: FiniteAlgebra,
    generators: Sequence[FiniteAlgebra],
    budget: SearchBudget = DEFAULT_BUDGET,
):
    """An explicit injective map of ``a`` into a product of generators.

    Returns ``(product, injection)`` built from one separating homomorphism
    per element pair; raises ``MembershipError`` when ``a`` is not in SP.
    """
    from .algcore import direct_product

    ok, witness, homs = separating_family(a, generators, budget)
    if not ok:
        raise MembershipError("algebra is not in SP of the generators", witness)
    targets = [h.target for h in homs]
    prod, _ = direct_product(targets, signature=a.signature)
    sizes = [t.size for t in targets]
    mapping = []
    for x in range(a.size):
        idx = 0
        for h, s in zip(homs, sizes):
            idx = idx * s + h(x)
        mapping.append(idx)
    return prod, Homomorphism(a, prod, tuple(mapping))
