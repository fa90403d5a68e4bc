"""Free algebras, coproducts and compatibility in a finitely generated prevariety.

A prevariety here is always presented by its finite generating algebras
``Y``; the class it stands for is SP(Y), all algebras embeddable in
products of members of ``Y``.  Free algebras and coproducts are built
canonically as concrete subalgebras of explicitly indexed products, so
no construction is ever "up to isomorphism": tests compare honest
carriers and, where needed, run an isomorphism search.

The hom-family index of each construction is kept on the result for
debugging and assertions.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional, Sequence

from .algcore import (
    AlgebraError,
    App,
    BudgetExceededError,
    Congruence,
    DEFAULT_CONGRUENCE_SIZE_BOUND,
    FiniteAlgebra,
    Homomorphism,
    Signature,
    Term,
    Var,
    _closure,
    _product_rows,
    _require_size_bound,
    all_congruences,
    are_isomorphic,
    empty_algebra,
    eval_term,
    generated_subalgebra,
    quotient,
    subalgebra_on,
)
from .homsearch import (
    DEFAULT_BUDGET,
    MembershipError,
    SearchBudget,
    _Search,
    find_homomorphisms,
    in_sp,
    separating_family,
)


@dataclass(frozen=True)
class PrevarietyCtx:
    """A finite list of generating algebras over a common signature."""

    generators: tuple[FiniteAlgebra, ...]

    def __post_init__(self):
        object.__setattr__(self, "generators", tuple(self.generators))
        if not self.generators:
            raise AlgebraError("a prevariety context needs at least one generator")
        sig = self.generators[0].signature
        for g in self.generators:
            if g.signature != sig:
                raise AlgebraError("generators have mismatched signatures")

    @property
    def signature(self) -> Signature:
        return self.generators[0].signature

    def contains(self, alg: FiniteAlgebra, budget: SearchBudget = DEFAULT_BUDGET) -> bool:
        return in_sp(alg, self.generators, budget)

    def require_member(self, alg: FiniteAlgebra, budget: SearchBudget = DEFAULT_BUDGET):
        ok, witness, _ = separating_family(alg, self.generators, budget)
        if not ok:
            raise MembershipError(
                f"algebra of size {alg.size} is not in SP of the generators; "
                f"elements {witness} cannot be separated",
                witness,
            )


def sp(*generators: FiniteAlgebra) -> PrevarietyCtx:
    return PrevarietyCtx(tuple(generators))


@dataclass(frozen=True)
class ConstructionBudget:
    max_index: int = 10**6      # hom-family / product index entries
    max_carrier: int = 10**4    # elements discovered during closure
    max_table_cells: int = 4 * 10**6
    max_enumeration: int = 10**6  # raw candidates when enumerating members


DEFAULT_CONSTRUCTION_BUDGET = ConstructionBudget()


# -- closed subalgebras of indexed products -------------------------------


def _closed_tuple_algebra(
    signature: Signature,
    factors: Sequence[FiniteAlgebra],
    seeds: Sequence[tuple[int, ...]],
    budget: ConstructionBudget,
) -> tuple[FiniteAlgebra, list[tuple[int, ...]]]:
    """Subalgebra of the product of ``factors`` generated by ``seeds``.

    The ambient product is never materialized: ``_closure`` works directly
    on tuples, in its discovery order, looking each coordinate up in its
    factor's table.
    """
    elems, tables = _closure(
        signature, _product_rows(factors), [tuple(s) for s in seeds], budget.max_carrier,
        budget.max_table_cells,
    )
    return FiniteAlgebra(signature, len(elems), tables), elems


# -- free algebras ---------------------------------------------------------


def free_algebra(
    ctx: PrevarietyCtx,
    n: int,
    budget: ConstructionBudget = DEFAULT_CONSTRUCTION_BUDGET,
) -> tuple[FiniteAlgebra, list[int]]:
    """The free algebra of SP(Y) on ``n`` generators, built canonically.

    The index runs over all pairs (generator A, assignment of the n
    generators into A); generator k becomes the tuple picking out the
    k-th assigned value everywhere.  The universal property holds by
    construction; a test verifies it by brute force.
    """
    if n < 0:
        raise AlgebraError("generator count must be a natural number")
    index = sum(alg.size**n for alg in ctx.generators)
    if index > budget.max_index:
        raise BudgetExceededError(f"product index of {index} exceeds budget {budget.max_index}")
    pairs = [
        (a_idx, v)
        for a_idx, alg in enumerate(ctx.generators)
        for v in itertools.product(range(alg.size), repeat=n)
    ]
    factors = [ctx.generators[a_idx] for a_idx, _ in pairs]
    seeds = [tuple(v[k] for _, v in pairs) for k in range(n)]
    alg, elems = _closed_tuple_algebra(ctx.signature, factors, seeds, budget)
    gens = [elems.index(s) for s in seeds]
    return alg, gens


# -- coproducts ------------------------------------------------------------


@dataclass
class CoproductResult:
    """A canonical coproduct: the algebra, its coprojections, and the index.

    ``index_metadata`` lists, per coordinate of the ambient product, the
    generator index and the family of homomorphism tables it came from.
    """

    algebra: FiniteAlgebra
    coprojections: list[Homomorphism]
    index_metadata: tuple[tuple[int, tuple[tuple[int, ...], ...]], ...]
    element_tuples: list[tuple[int, ...]] = field(repr=False, default_factory=list)

    def all_injective(self) -> bool:
        return all(c.is_injective() for c in self.coprojections)


def _hom_family_index(
    ctx: PrevarietyCtx,
    sources: Sequence[FiniteAlgebra],
    key,
    search_budget: SearchBudget,
    max_index: int,
):
    """All pairs (generator, family of homs source_i -> generator).

    Given ``key(i, h)``, only families whose homs share one key are listed
    (amalgamation over a shared base): each first-source hom is followed by
    the product of the later sources' homs with its key.  Order: generators
    as declared, then families lexicographically in per-source hom order.
    More than ``max_index`` pairs raise ``BudgetExceededError``; unkeyed,
    they are counted before they are listed.
    """
    hom_lists = [[find_homomorphisms(src, gen, budget=search_budget) for src in sources]
                 for gen in ctx.generators]
    count = sum(math.prod(map(len, lists)) for lists in hom_lists) if key is None else 0
    entries = []
    for a_idx, lists in enumerate(hom_lists):
        families = itertools.product(*lists)
        if key is not None and lists:
            groups = [{} for _ in lists[1:]]
            for i, (group, homs) in enumerate(zip(groups, lists[1:]), 1):
                for h in homs:
                    group.setdefault(key(i, h), []).append(h)
            families = ((h, *rest) for h in lists[0]
                        for rest in itertools.product(*(g.get(key(0, h), ()) for g in groups)))
        for family in families:
            entries.append((a_idx, family))
            if max(count, len(entries)) > max_index:
                raise BudgetExceededError("hom-family index exceeds the budget")
    return entries


def _indexed_coproduct(
    ctx: PrevarietyCtx,
    sources: Sequence[FiniteAlgebra],
    key,
    budget: ConstructionBudget,
    search_budget: SearchBudget,
) -> CoproductResult:
    """The subalgebra generated by the sources' images in the product
    indexed by their hom families (those sharing one ``key``, if given),
    with the coprojections sending each element to its image."""
    entries = _hom_family_index(ctx, sources, key, search_budget, budget.max_index)
    images = [
        [tuple(family[i](x) for _, family in entries) for x in range(src.size)]
        for i, src in enumerate(sources)
    ]
    alg, elems = _closed_tuple_algebra(
        ctx.signature,
        [ctx.generators[a_idx] for a_idx, _ in entries],
        [t for per_source in images for t in per_source],
        budget,
    )
    position = {t: i for i, t in enumerate(elems)}
    coprojections = [
        Homomorphism(src, alg, tuple(position[t] for t in per_source))
        for src, per_source in zip(sources, images)
    ]
    metadata = tuple((a_idx, tuple(h.mapping for h in family)) for a_idx, family in entries)
    return CoproductResult(alg, coprojections, metadata, elems)


def coproduct(
    ctx: PrevarietyCtx,
    factors: Sequence[FiniteAlgebra],
    budget: ConstructionBudget = DEFAULT_CONSTRUCTION_BUDGET,
    search_budget: SearchBudget = DEFAULT_BUDGET,
    check_membership: bool = True,
) -> CoproductResult:
    """Coproduct of ``factors`` in SP(Y) as a subalgebra of an indexed product.

    When the hom-family index is empty the result is the one-element
    algebra, or the empty algebra when every factor is empty.
    """
    factors = list(factors)
    if check_membership:
        for f in factors:
            ctx.require_member(f, search_budget)
    return _indexed_coproduct(ctx, factors, None, budget, search_budget)


def _every_family_extends(
    source: FiniteAlgebra,
    target: FiniteAlgebra,
    fixed: list[tuple[int, int]],
    parts: Sequence[tuple[FiniteAlgebra, Sequence[int]]],
    search_budget: SearchBudget,
) -> bool:
    """True iff each family of homs h_i: part_i -> ``target`` extends to a
    hom ``source -> target`` sending image_i[x] to h_i(x) and agreeing with
    ``fixed``; ``parts`` holds the pairs (part_i, image_i).  One search of
    ``source -> target`` walks the families in product order, propagating
    each family prefix once (``_Search.every_choice_extends``)."""
    runs = (_Search(part, target, False, search_budget.max_nodes).iterate({}) for part, _ in parts)
    stages = [
        [list(zip(image, h)) for h in itertools.islice(homs, search_budget.max_solutions)]
        for (_, image), homs in zip(parts, runs)
    ]
    return _Search(source, target, False, search_budget.max_nodes).every_choice_extends(fixed, stages)


def is_coproduct(
    ctx: PrevarietyCtx,
    b: FiniteAlgebra,
    maps: Sequence[Homomorphism],
    search_budget: SearchBudget = DEFAULT_BUDGET,
) -> bool:
    """Coproduct test from the generation + extension characterization.

    True iff ``b`` lies in SP(Y), the images of the maps generate it, and
    every family of homomorphisms from the sources into a generator
    extends along the maps.
    """
    for m in maps:
        if m.target != b:
            raise AlgebraError("a candidate coprojection does not target b")
        if not ctx.contains(m.source, search_budget):
            raise MembershipError("a coproduct factor is not in SP of the generators")
    if not ctx.contains(b, search_budget):
        return False
    return _generates_and_extends(ctx, b, maps, search_budget)


def _generates_and_extends(ctx: PrevarietyCtx, b: FiniteAlgebra, maps, search_budget) -> bool:
    """``is_coproduct`` once ``b`` and the maps' sources are known members."""
    union = sorted({v for m in maps for v in m.mapping})
    gen, _ = generated_subalgebra(b, union)
    if gen.size != b.size:
        return False
    parts = [(m.source, m.mapping) for m in maps]
    return all(
        _every_family_extends(b, gen_alg, [], parts, search_budget)
        for gen_alg in ctx.generators
    )


def is_compatible(
    ctx: PrevarietyCtx,
    algebras: Sequence[FiniteAlgebra],
    budget: ConstructionBudget = DEFAULT_CONSTRUCTION_BUDGET,
    search_budget: SearchBudget = DEFAULT_BUDGET,
) -> bool:
    """True iff every coprojection into the canonical coproduct is injective.

    Equivalent to the existence of a common embedding target in SP(Y):
    the coproduct itself serves as the target in the positive case, and
    any target would force injective coprojections in the negative one.
    """
    result = coproduct(ctx, algebras, budget, search_budget)
    return result.all_injective()


def compatible_common_target(
    ctx: PrevarietyCtx,
    algebras: Sequence[FiniteAlgebra],
    max_total_factors: int = 3,
    search_budget: SearchBudget = DEFAULT_BUDGET,
) -> Optional[FiniteAlgebra]:
    """Bounded search for one SP(Y) member embedding all the algebras.

    Tries products of generators with at most ``max_total_factors``
    factors; returns the first target found, None if none in range.  Used
    to cross-check ``is_compatible`` against the direct formulation.
    """
    from .algcore import direct_product
    from .homsearch import exists_embedding

    k = len(ctx.generators)
    for total in range(1, max_total_factors + 1):
        for combo in itertools.combinations_with_replacement(range(k), total):
            target, _ = direct_product(
                [ctx.generators[i] for i in combo], signature=ctx.signature
            )
            if all(exists_embedding(a, target, search_budget) for a in algebras):
                return target
    return None


def is_comfortable(
    ctx: PrevarietyCtx,
    a: FiniteAlgebra,
    b: FiniteAlgebra,
    budget: ConstructionBudget = DEFAULT_CONSTRUCTION_BUDGET,
    search_budget: SearchBudget = DEFAULT_BUDGET,
) -> bool:
    """True iff the coprojection of ``a`` into the coproduct of [a, b] is 1-1.

    Not symmetric in general.
    """
    result = coproduct(ctx, [a, b], budget, search_budget)
    return result.coprojections[0].is_injective()


# -- relative congruences and subdirect irreducibility ---------------------


def relative_congruences(
    ctx: PrevarietyCtx,
    alg: FiniteAlgebra,
    size_bound: int = DEFAULT_CONGRUENCE_SIZE_BOUND,
    search_budget: SearchBudget = DEFAULT_BUDGET,
) -> list[Congruence]:
    """All congruences whose quotient stays inside SP(Y)."""
    ctx.require_member(alg, search_budget)
    out = []
    for c in all_congruences(alg, size_bound):
        q, _ = quotient(alg, c)
        if ctx.contains(q, search_budget):
            out.append(c)
    return out


def is_p_subdirectly_irreducible(
    ctx: PrevarietyCtx,
    alg: FiniteAlgebra,
    size_bound: int = DEFAULT_CONGRUENCE_SIZE_BOUND,
    search_budget: SearchBudget = DEFAULT_BUDGET,
) -> bool:
    """Relative subdirect irreducibility: the meet of the non-diagonal
    relative congruences is non-diagonal.

    The relative congruences are the meets of kernels of homomorphisms
    into the generators (the full congruence is the empty meet), so that
    meet is the meet of the kernels of the non-injective homomorphisms
    A -> Y_i.  They are pulled one at a time, each generator's search
    under ``search_budget.max_nodes``, and the search stops once the meet
    is diagonal; the congruence lattice is never built.  Checks run in
    this order: nontrivial, member of SP(Y), within ``size_bound``.
    """
    if alg.size < 2:
        raise AlgebraError("relative irreducibility needs a nontrivial algebra")
    ctx.require_member(alg, search_budget)
    _require_size_bound(alg, size_bound)
    meet = Congruence.full(alg)
    for g in ctx.generators:
        for mapping in _Search(alg, g, False, search_budget.max_nodes).iterate({}):
            if len(set(mapping)) < alg.size:
                meet = meet.meet(Congruence._unchecked(alg, mapping))
                if meet.is_diagonal():
                    return False
    return True


# -- compatible covers ------------------------------------------------------


def minimum_compatible_cover(
    ctx: PrevarietyCtx,
    algebras: Sequence[FiniteAlgebra],
    budget: ConstructionBudget = DEFAULT_CONSTRUCTION_BUDGET,
    search_budget: SearchBudget = DEFAULT_BUDGET,
) -> list[list[int]]:
    """Partition of the index set into the fewest compatible blocks.

    Exact branch-and-bound over restricted-growth strings, so the result
    is the lexicographically least among the minimum-size partitions.
    Compatibility of a block is decided by ``is_compatible`` and cached;
    subsets of compatible sets are compatible, which justifies pruning.
    """
    algebras = list(algebras)
    n = len(algebras)
    if n == 0:
        return []
    cache: dict[frozenset[int], bool] = {}

    def block_ok(block: frozenset[int]) -> bool:
        if block not in cache:
            cache[block] = is_compatible(
                ctx, [algebras[i] for i in sorted(block)], budget, search_budget
            )
        return cache[block]

    for max_blocks in range(1, n + 1):
        blocks: list[set[int]] = []

        def place(i: int) -> Optional[list[list[int]]]:
            if i == n:
                return [sorted(b) for b in blocks]
            for b in blocks:
                if block_ok(frozenset(b | {i})):
                    b.add(i)
                    found = place(i + 1)
                    if found is not None:
                        return found
                    b.remove(i)
            if len(blocks) < max_blocks:
                if block_ok(frozenset({i})):
                    blocks.append({i})
                    found = place(i + 1)
                    if found is not None:
                        return found
                    blocks.pop()
            return None

        found = place(0)
        if found is not None:
            return found
    raise AlgebraError("no compatible cover exists (a singleton block failed)")


# -- independence -----------------------------------------------------------


def is_independent(
    ctx: PrevarietyCtx,
    ambient: FiniteAlgebra,
    subalgebras: Sequence[Iterable[int]],
    search_budget: SearchBudget = DEFAULT_BUDGET,
) -> bool:
    """True iff the subalgebra generated by the union is the coproduct of
    the given closed subsets, via the inclusion maps.  Only ``ambient`` is
    tested for membership: SP(Y) is closed under subalgebras."""
    ctx.require_member(ambient, search_budget)
    return _independent(ctx, ambient, subalgebras, search_budget)


def _independent(ctx: PrevarietyCtx, ambient: FiniteAlgebra, subalgebras, search_budget) -> bool:
    """``is_independent`` once ``ambient`` is a known member of SP(Y)."""
    subsets = [sorted(set(s)) for s in subalgebras]
    union = sorted({x for s in subsets for x in s})
    generated, inclusion = generated_subalgebra(ambient, union)
    back = {inclusion(i): i for i in range(generated.size)}
    maps = []
    for s in subsets:
        sub, _ = subalgebra_on(ambient, s)  # raises if not closed
        maps.append(Homomorphism._unchecked(sub, generated, (back[x] for x in s)))
    return _generates_and_extends(ctx, generated, maps, search_budget)


class ChainHypothesisError(AlgebraError):
    """A chain-instance hypothesis failed; carries the failing step index."""

    def __init__(self, index: int, message: str):
        super().__init__(f"step {index}: {message}")
        self.index = index


@dataclass
class ChainReport:
    independent: bool
    almost_independent: bool
    retractions: list[Optional[Homomorphism]]

    @property
    def ok(self) -> bool:
        return self.independent and self.almost_independent


def chain_independence(
    a0: FiniteAlgebra,
    chain: Sequence[Iterable[int]],
    components: Sequence[Iterable[int]],
    search_budget: SearchBudget = DEFAULT_BUDGET,
) -> ChainReport:
    """Verify the nested-coproduct chain argument on concrete subalgebras.

    ``chain`` gives the descending subalgebras A_1 .. A_n of ``a0`` and
    ``components`` the subalgebras B_1 .. B_n with B_i inside A_{i-1};
    the ambient prevariety is generated by the last chain member.  Checks
    the hypothesis (each pair (A_i, B_i) independent, with containments),
    then the conclusion that B_1 .. B_n are independent, and builds the
    per-step retraction of <A_i, B_i> onto A_i that drives the inductive
    proof.  Also verifies the stronger "almost independent" form: every
    family of homomorphisms B_i -> A_n extends to <A_n, B_1, ..., B_n>
    fixing A_n pointwise.
    """
    chain = [sorted(set(s)) for s in chain]
    components = [sorted(set(s)) for s in components]
    n = len(chain)
    if len(components) != n:
        raise AlgebraError("chain and component lists differ in length")
    levels = [list(range(a0.size))] + chain
    for i in range(1, n + 1):
        if not set(levels[i]) <= set(levels[i - 1]):
            raise ChainHypothesisError(i, "chain is not descending")
        if not set(components[i - 1]) <= set(levels[i - 1]):
            raise ChainHypothesisError(i, "component leaves the previous level")
    last_alg, _ = subalgebra_on(a0, levels[n])
    ctx = PrevarietyCtx((last_alg,))
    ctx.require_member(a0, search_budget)

    retractions: list[Optional[Homomorphism]] = []
    for i in range(1, n + 1):
        ambient, amb_inc = subalgebra_on(a0, levels[i - 1])
        to_local = {amb_inc(j): j for j in range(ambient.size)}
        a_local = [to_local[x] for x in levels[i]]
        b_local = [to_local[x] for x in components[i - 1]]
        if not _independent(ctx, ambient, [a_local, b_local], search_budget):
            raise ChainHypothesisError(i, "the pair (A_i, B_i) is not independent")
        a_sub, _ = subalgebra_on(ambient, a_local)
        b_sub, _ = subalgebra_on(ambient, b_local)
        span, span_inc = generated_subalgebra(ambient, a_local + b_local)
        span_pos = {span_inc(j): j for j in range(span.size)}
        f_i = next(_Search(b_sub, a_sub, False, search_budget.max_nodes).iterate({}), None)
        if f_i is None:
            retractions.append(None)
            continue
        pairs = [(span_pos[x], k) for k, x in enumerate(a_local)]
        pairs += [(span_pos[x], f_i[k]) for k, x in enumerate(b_local)]
        retraction = _Search(span, a_sub, False, search_budget.max_nodes).first(pairs)
        if retraction is None:
            raise AlgebraError(
                "no retraction extends the chosen component map; "
                "contradicts the verified independence"
            )
        retractions.append(Homomorphism(span, a_sub, retraction))

    independent = _independent(ctx, a0, components, search_budget)

    # stronger form: families into the distinguished last level extend
    span_all, span_inc = generated_subalgebra(a0, levels[n] + [x for s in components for x in s])
    span_pos = {span_inc(j): j for j in range(span_all.size)}
    fixed = [(span_pos[x], k) for k, x in enumerate(levels[n])]
    parts = [(subalgebra_on(a0, s)[0], [span_pos[x] for x in s]) for s in components]
    almost = _every_family_extends(span_all, last_alg, fixed, parts, search_budget)
    return ChainReport(independent, almost, retractions)


def has_trivial_subalgebra(alg: FiniteAlgebra) -> bool:
    """True iff some element is idempotent under every operation."""
    for e in range(alg.size):
        if all(
            alg.op(name, *([e] * arity)) == e for name, arity in alg.signature.ops
        ):
            return True
    return False


# -- quasi-identities -------------------------------------------------------


@dataclass(frozen=True)
class QuasiIdentity:
    """Premises and a conclusion, each a pair of terms over named variables."""

    variables: tuple[str, ...]
    premises: tuple[tuple[Term, Term], ...]
    conclusion: tuple[Term, Term]

    def __str__(self) -> str:
        def side(eq):
            return f"{format_term(eq[0], self.variables)} = {format_term(eq[1], self.variables)}"

        left = " & ".join(side(p) for p in self.premises)
        if left:
            return f"{left} => {side(self.conclusion)}"
        return f"=> {side(self.conclusion)}"


def format_term(t: Term, variables: Sequence[str]) -> str:
    if isinstance(t, Var):
        return variables[t.index]
    if not t.args:
        return f"{t.op}()"
    return f"{t.op}({','.join(format_term(a, variables) for a in t.args)})"


_TOKEN = re.compile(r"[A-Za-z_][A-Za-z0-9_]*|\(|\)|,")


def _parse_term(tokens: list[str], pos: int, variables: list[str], signature):
    if pos >= len(tokens):
        raise AlgebraError("unexpected end of term")
    tok = tokens[pos]
    if not re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", tok):
        raise AlgebraError(f"unexpected token {tok!r}")
    pos += 1
    if pos < len(tokens) and tokens[pos] == "(":
        pos += 1
        args = []
        if tokens[pos] == ")":
            pos += 1
        else:
            while True:
                arg, pos = _parse_term(tokens, pos, variables, signature)
                args.append(arg)
                if tokens[pos] == ",":
                    pos += 1
                    continue
                if tokens[pos] == ")":
                    pos += 1
                    break
                raise AlgebraError("expected ',' or ')' in a term")
        return App(tok, tuple(args)), pos
    if signature is not None and tok in signature.names and signature.arity(tok) == 0:
        return App(tok, ()), pos
    if tok not in variables:
        variables.append(tok)
    return Var(variables.index(tok)), pos


def parse_quasi_identity(text: str, signature: Optional[Signature] = None) -> QuasiIdentity:
    """Parse ``a(a(x)) = x & a(y) = y => u = v``.

    The premise side may be empty.  Bare names are variables unless they
    match a zeroary symbol of the given signature.
    """
    if "=>" not in text:
        raise AlgebraError("a quasi-identity needs '=>'")
    left, right = text.split("=>", 1)
    variables: list[str] = []

    def parse_equation(chunk: str):
        sides = chunk.split("=")
        if len(sides) != 2:
            raise AlgebraError(f"bad equation {chunk!r}")
        out = []
        for s in sides:
            tokens = _TOKEN.findall(s)
            if not tokens:
                raise AlgebraError(f"empty side in {chunk!r}")
            term, pos = _parse_term(tokens, 0, variables, signature)
            if pos != len(tokens):
                raise AlgebraError(f"trailing tokens in {chunk!r}")
            out.append(term)
        return tuple(out)

    premises = []
    if left.strip():
        for chunk in left.split("&"):
            premises.append(parse_equation(chunk))
    conclusion = parse_equation(right)
    return QuasiIdentity(tuple(variables), tuple(premises), conclusion)


def quasi_identity_holds(alg: FiniteAlgebra, q: QuasiIdentity) -> bool:
    """Brute force over all assignments: premises all equal -> conclusion equal."""
    if alg.size == 0:
        return True
    nvars = len(q.variables)
    for values in itertools.product(range(alg.size), repeat=nvars):
        assignment = dict(enumerate(values))
        if all(
            eval_term(alg, lhs, assignment) == eval_term(alg, rhs, assignment)
            for lhs, rhs in q.premises
        ):
            lhs, rhs = q.conclusion
            if eval_term(alg, lhs, assignment) != eval_term(alg, rhs, assignment):
                return False
    return True


# -- member enumeration and amalgamation ------------------------------------


def _canonical_tables(sig: Signature, n: int) -> Iterator[tuple[int, ...]]:
    """The flat table vectors of size ``n`` (ops as declared, then row-major)
    that are least among their relabellings, in lex order: orderly
    generation (Read, 1978; McKay, 1998).  A depth-first walk over the cells,
    values ascending, drops a prefix once some relabelling makes the cells
    fixed so far strictly smaller; each relabelling resumes its comparison
    where the parent left it, and leaves the walk once it compares larger."""
    cells, offset = [], 0
    for _, arity in sig.ops:
        cells += [(offset, args) for args in itertools.product(range(n), repeat=arity)]
        offset += n**arity
    if all(arity == 0 for _, arity in sig.ops):
        # n! relabellings could outnumber the n**len(cells) tables; the least
        # relabelling numbers the constants' values in order of first appearance
        return (t for t in itertools.product(range(n), repeat=len(cells))
                if all(v <= max(t[:c], default=-1) + 1 for c, v in enumerate(t)))
    perms = []  # (s, read, k): s(T)[c] = s[T[read[c]]], equal to T below cell k
    for s in itertools.islice(itertools.permutations(range(n)), 1, None):
        inv = sorted(range(n), key=s.__getitem__)
        read = [start + sum(inv[a] * n**i for i, a in enumerate(reversed(args)))
                for start, args in cells]
        perms.append((s, read, 0))
    table = [0] * len(cells)

    def walk(p: int, alive: list):
        if p == len(cells):
            yield tuple(table)
            return
        for table[p] in range(n):
            kept = []
            for s, read, k in alive:
                while k <= p and read[k] <= p and s[table[read[k]]] == table[k]:
                    k += 1
                if k > p or read[k] > p:
                    kept.append((s, read, k))
                elif s[table[read[k]]] < table[k]:
                    break
            else:
                yield from walk(p + 1, kept)

    return walk(0, perms)


def enumerate_members(
    ctx: PrevarietyCtx,
    max_size: int,
    budget: ConstructionBudget = DEFAULT_CONSTRUCTION_BUDGET,
    search_budget: SearchBudget = DEFAULT_BUDGET,
    include_empty: bool = True,
) -> list[FiniteAlgebra]:
    """All members of SP(Y) of size <= max_size, one per isomorphism class:
    the lex-least table of each class, in lex order, sizes ascending.

    Only the lex-least tables are generated (``_canonical_tables``), and
    membership is tested once on each.  Guarded by the raw count of tables,
    ``size**(size**arity)`` per op; only workable for small sizes and
    signatures.
    """
    sig = ctx.signature
    out = []
    if include_empty and not sig.has_zeroary():
        out.append(empty_algebra(sig))
    total = 0
    for size in range(1, max_size + 1):
        total += size ** sum(size**arity for _, arity in sig.ops)
        if total > budget.max_enumeration:
            raise BudgetExceededError(
                "raw algebra enumeration exceeds the budget; lower max_size"
            )
        for flat in _canonical_tables(sig, size):
            values = iter(flat)
            cand = FiniteAlgebra(sig, size, {name: tuple(itertools.islice(values, size**arity))
                                             for name, arity in sig.ops})
            if ctx.contains(cand, search_budget):
                out.append(cand)
    return out


@dataclass
class AmalgamatedResult:
    algebra: FiniteAlgebra
    coprojections: list[Homomorphism]
    base_map: Optional[Homomorphism]
    index_metadata: tuple


def amalgamated_coproduct(
    ctx: PrevarietyCtx,
    base: FiniteAlgebra,
    arms: Sequence[tuple[FiniteAlgebra, Homomorphism]],
    budget: ConstructionBudget = DEFAULT_CONSTRUCTION_BUDGET,
    search_budget: SearchBudget = DEFAULT_BUDGET,
    check_membership: bool = True,
) -> AmalgamatedResult:
    """Pushout over a shared base, inside SP(Y).

    The index is restricted to hom families agreeing on the image of the
    base, realizing the coproduct in the comma category of algebras under
    the base.  Universal among SP(Y)-algebras receiving the arms
    compatibly, by the same subdirect argument as the plain coproduct.
    """
    arms = list(arms)
    for alg, emb in arms:
        if emb.source != base or emb.target != alg:
            raise AlgebraError("arm embeddings must run from the base into the arm")
    if check_membership:
        for alg, _ in arms:
            ctx.require_member(alg, search_budget)

    def on_base(i, h):
        return tuple(h(arms[i][1](s)) for s in range(base.size))

    sources = [alg for alg, _ in arms]
    result = _indexed_coproduct(ctx, sources, on_base, budget, search_budget)
    base_map = None
    if arms:
        first, emb0 = result.coprojections[0], arms[0][1]
        base_map = Homomorphism(base, result.algebra, tuple(first(emb0(s)) for s in range(base.size)))
    return AmalgamatedResult(
        result.algebra, result.coprojections, base_map, result.index_metadata
    )


@dataclass
class AmalgamationCounterexample:
    base: FiniteAlgebra
    left: FiniteAlgebra
    right: FiniteAlgebra
    left_embedding: Homomorphism
    right_embedding: Homomorphism


def check_amalgamation_bounded(
    ctx: PrevarietyCtx,
    max_size: int,
    budget: ConstructionBudget = DEFAULT_CONSTRUCTION_BUDGET,
    search_budget: SearchBudget = DEFAULT_BUDGET,
    include_empty_base: bool = False,
) -> tuple[bool, Optional[AmalgamationCounterexample]]:
    """Exhaustive amalgamation check over SP(Y)-members of size <= max_size.

    For every base A and pair of embeddings A >-> B, A >-> C among the
    enumerated members, the square completes with embeddings iff both
    coprojections into the canonical pushout are injective (any completing
    object factors through the pushout), so the verdict is exact rather
    than bounded by a target size.  Empty bases turn the check into a
    joint-embedding question and are excluded by default.
    """
    members = enumerate_members(ctx, max_size, budget, search_budget)
    bases = [m for m in members if m.size >= 1 or include_empty_base]
    for a in bases:
        for b in members:
            if b.size < a.size:
                continue
            embeddings_ab = find_homomorphisms(a, b, budget=search_budget, injective=True)
            if not embeddings_ab:
                continue
            for c in members:
                if c.size < a.size:
                    continue
                embeddings_ac = find_homomorphisms(
                    a, c, budget=search_budget, injective=True
                )
                for f in embeddings_ab:
                    for g in embeddings_ac:
                        pushout = amalgamated_coproduct(
                            ctx, a, [(b, f), (c, g)], budget, search_budget,
                            check_membership=False,
                        )
                        if not all(h.is_injective() for h in pushout.coprojections):
                            return False, AmalgamationCounterexample(a, b, c, f, g)
    return True, None


def check_coproduct_monotone_bounded(
    ctx: PrevarietyCtx,
    base: FiniteAlgebra,
    instances: Sequence[tuple[FiniteAlgebra, FiniteAlgebra, Homomorphism, Homomorphism]],
    budget: ConstructionBudget = DEFAULT_CONSTRUCTION_BUDGET,
    search_budget: SearchBudget = DEFAULT_BUDGET,
) -> bool:
    """Whether embeddings A_i >-> B_i induce an embedding of amalgamated coproducts.

    Each instance is (A_i, B_i, base->A_i, A_i->B_i), all maps injective.
    Builds both coproducts over the base canonically and checks the
    injectivity of the induced map.
    """
    for a, b, e, f in instances:
        if e.source != base or e.target != a or f.source != a or f.target != b:
            raise AlgebraError("instance maps are inconsistent")
        if not e.is_injective() or not f.is_injective():
            raise AlgebraError("instance maps must be one-to-one")
    qa = amalgamated_coproduct(
        ctx, base, [(a, e) for a, _, e, _ in instances], budget, search_budget
    )
    qb = amalgamated_coproduct(
        ctx, base, [(b, f.compose(e)) for _, b, e, f in instances], budget, search_budget
    )
    pairs = [
        (qa.coprojections[i](x), qb.coprojections[i](f(x)))
        for i, (a, _, _, f) in enumerate(instances)
        for x in range(a.size)
    ]
    induced = _Search(qa.algebra, qb.algebra, False, search_budget.max_nodes).first(pairs)
    if induced is None:
        raise AlgebraError(
            "no induced map between amalgamated coproducts; "
            "contradicts their universal property"
        )
    return Homomorphism(qa.algebra, qb.algebra, induced).is_injective()


def subfamily_independence_check(
    ctx: PrevarietyCtx,
    ambient: FiniteAlgebra,
    family: Sequence[Iterable[int]],
    subfamily: Sequence[int],
    search_budget: SearchBudget = DEFAULT_BUDGET,
) -> bool:
    """Subfamilies of independent families stay independent when the
    prevariety has a single generator.

    Hypotheses checked: single generator; the full family independent;
    members nontrivial, unless some nontrivial member of the prevariety
    has an idempotent element (then trivial members are allowed).  The
    empty subfamily is compared against the canonical empty coproduct.
    """
    if len(ctx.generators) != 1:
        raise AlgebraError("this check needs a single-generator prevariety")
    family = [sorted(set(s)) for s in family]
    if not is_independent(ctx, ambient, family, search_budget):
        raise AlgebraError("the full family is not independent")
    trivial_members = [s for s in family if len(s) == 1]
    if trivial_members:
        gen = ctx.generators[0]
        if not (gen.size >= 2 and has_trivial_subalgebra(gen)):
            raise AlgebraError(
                "trivial members need a nontrivial generator with an idempotent"
            )
    chosen = [family[i] for i in subfamily]
    if not chosen:
        initial = coproduct(ctx, [], check_membership=False)
        generated, _ = generated_subalgebra(ambient, [])
        return are_isomorphic(generated, initial.algebra)
    return _independent(ctx, ambient, chosen, search_budget)


# -- the zeroary-constants census -------------------------------------------


@dataclass
class ConstantsCensus:
    count: int
    algebras: list[FiniteAlgebra]
    partitions: list[tuple[int, ...]]
    compatibility: list[list[bool]]


def constants_si_census(kappa: int) -> ConstantsCensus:
    """Two-element algebras over a signature of ``kappa`` constants.

    With only zeroary operations every equivalence relation is a
    congruence, so these are exactly the subdirectly irreducible algebras
    of the variety.  Up to isomorphism one remains per two-block partition
    of the constants, plus the one-block case with a spare element; two of
    them are compatible iff their constant partitions agree, which the
    compatibility matrix exhibits via the canonical coproduct.
    """
    if not 1 <= kappa <= 4:
        raise AlgebraError("the census is implemented for 1..4 constants")
    sig = Signature(tuple((f"c{i}", 0) for i in range(kappa)))
    algebras = []
    partitions = []
    for bits in itertools.product((0, 1), repeat=kappa - 1):
        vector = (0,) + bits
        tables = {f"c{i}": [vector[i]] for i in range(kappa)}
        algebras.append(FiniteAlgebra(sig, 2, tables))
        partitions.append(vector)
    ctx = PrevarietyCtx(tuple(algebras))
    compatibility = [
        [is_compatible(ctx, [x, y]) for y in algebras] for x in algebras
    ]
    return ConstantsCensus(len(algebras), algebras, partitions, compatibility)
