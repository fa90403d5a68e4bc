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

import functools
import itertools
import math
import re
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

from .algcore import (
    AlgebraError,
    App,
    Budget,
    BudgetExceededError,
    DEFAULT_BUDGET,
    FiniteAlgebra,
    Homomorphism,
    Signature,
    Term,
    Var,
    _closure,
    _compile_term,
    _mask_rows,
    _meet,
    _product_rows,
    _require_congruence_size,
    empty_algebra,
    generated_subalgebra,
    subalgebra_on,
)
from .homsearch import (
    MembershipError,
    _Search,
    _separate,
    find_homomorphisms,
    in_sp,
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

    def contains(self, alg: FiniteAlgebra, budget: Budget = DEFAULT_BUDGET) -> bool:
        return in_sp(alg, self.generators, budget)

    def require_member(self, alg: FiniteAlgebra, budget: Budget = DEFAULT_BUDGET):
        _member_homs(self, alg, budget)


def _member_homs(ctx: PrevarietyCtx, alg: FiniteAlgebra, budget: Budget):
    """``_streams`` of ``alg`` going on with its membership walk (``_separate``)."""
    pending, walked = _separate(alg, ctx.generators, budget)
    if pending:
        raise MembershipError(f"algebra of size {alg.size} is not in SP of the generators; "
                              f"elements {pending[0]} cannot be separated", pending[0])
    return _streams(ctx, alg, budget, walked)


def _streams(ctx: PrevarietyCtx, alg: FiniteAlgebra, budget: Budget, walked=()):
    """Per generator, a stream of the homs (as mappings) from ``alg``: it goes
    on with the walked search, or starts one when first pulled, so each search
    starts at most once and its nodes count as in one listing from scratch."""

    def stream(k: int) -> Iterator[tuple[int, ...]]:
        yield from (itertools.chain(*walked[k]) if k < len(walked) else
                    _Search(alg, ctx.generators[k], False, budget.max_nodes).iterate([]))

    return [stream(k) for k in range(len(ctx.generators))]


def _member_hom_lists(ctx: PrevarietyCtx, algebras: Sequence[FiniteAlgebra], budget: Budget):
    """Per generator, the homs (as mappings) from each algebra: every
    algebra is membership-tested in order, then the streams are drained."""
    streams = [_member_homs(ctx, alg, budget) for alg in algebras]
    return [[list(s[k]) for s in streams] for k in range(len(ctx.generators))]


def sp(*generators: FiniteAlgebra) -> PrevarietyCtx:
    return PrevarietyCtx(tuple(generators))


# -- closed subalgebras of indexed products -------------------------------


def _closed_tuple_algebra(
    signature: Signature,
    factors: Sequence[FiniteAlgebra],
    seeds: Sequence[tuple[int, ...]],
    budget: Budget,
) -> tuple[FiniteAlgebra, list[int]]:
    """Subalgebra of the product of ``factors`` generated by ``seeds``, and
    the position of each seed in its carrier.

    The ambient product is never materialized: ``_closure`` works directly
    on tuples, in its discovery order, looking each coordinate up in its
    factor's table.  When every factor has two elements, it works on
    bitmasks instead (``_mask_rows``), which are never decoded: the seeds
    are found right after the constants, so their positions are read off
    the front of the discovery order.
    """
    if len(factors) > 0 and all(f.size == 2 for f in factors):
        row, seeds = _mask_rows(factors), [sum(v << c for c, v in enumerate(s)) for s in seeds]
    else:
        row, seeds = _product_rows(factors), [tuple(s) for s in seeds]
    elems, tables = _closure(signature, row, seeds, budget.max_carrier, budget.max_table_cells)
    return FiniteAlgebra(signature, len(elems), tables), [elems.index(s) for s in seeds]


# -- free algebras ---------------------------------------------------------


def free_algebra(
    ctx: PrevarietyCtx,
    n: int,
    budget: Budget = DEFAULT_BUDGET,
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
    return _closed_tuple_algebra(ctx.signature, factors, seeds, budget)


# -- coproducts ------------------------------------------------------------


@dataclass
class CoproductResult:
    """A canonical coproduct: the algebra, its coprojections, and the index.

    ``index_metadata`` lists, per coordinate of the ambient product, the
    generator index and the family of homomorphism tables it came from.
    A pushout's ``base_map`` sends the base in through the first arm.
    """

    algebra: FiniteAlgebra
    coprojections: list[Homomorphism]
    index_metadata: tuple[tuple[int, tuple[tuple[int, ...], ...]], ...]
    base_map: Optional[Homomorphism] = None

    def all_injective(self) -> bool:
        return all(c.is_injective() for c in self.coprojections)


def _hom_family_index(hom_lists, key, budget: Budget):
    """All pairs (generator index, family of homs source_i -> generator),
    from ``hom_lists``, per generator the homs (as mappings) from each source.

    Given ``key(i, h)``, only families whose homs share one key are listed
    (amalgamation over a shared base): each first-source hom is followed by
    the product of the later sources' homs with its key.  Order: generators
    as declared, then families lexicographically in per-source hom order.
    More than ``budget.max_index`` pairs raise ``BudgetExceededError``;
    unkeyed, they are counted before they are listed.
    """
    max_index = budget.max_index
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


def _indexed_coproduct(ctx: PrevarietyCtx, sources: Sequence[FiniteAlgebra], key,
                       budget: Budget, hom_lists) -> CoproductResult:
    """The subalgebra generated by the sources' images in the product
    indexed by their hom families (those sharing one ``key``, if given),
    with the coprojections sending each element to its image."""
    entries = _hom_family_index(hom_lists, key, budget)
    images = [
        [tuple(family[i][x] for _, family in entries) for x in range(src.size)]
        for i, src in enumerate(sources)
    ]
    alg, positions = _closed_tuple_algebra(
        ctx.signature,
        [ctx.generators[a_idx] for a_idx, _ in entries],
        [t for per_source in images for t in per_source],
        budget,
    )
    seeded = iter(positions)  # source by source, as the images were seeded
    coprojections = [
        Homomorphism._unchecked(src, alg, itertools.islice(seeded, src.size))
        for src in sources
    ]
    return CoproductResult(alg, coprojections, tuple(entries))


def _injective_coprojections(lists, algebras: Sequence[FiniteAlgebra], which, key=None) -> bool:
    """True iff the coprojections of the factors ``which`` into the
    coproduct ``_indexed_coproduct`` builds from ``lists`` and ``key`` are
    one-to-one, decided without building it.  The coprojection of factor i
    sends x to (h_i(x)) over the index families, so it is injective iff the
    homs of factor i that occur in some family (their key is shared by some
    hom of every other factor) separate its points."""
    key = key or (lambda i, h: None)
    occurring = [[] for _ in algebras]
    for per_source in lists:
        keys = [{key(j, h) for h in homs} for j, homs in enumerate(per_source)]
        for i in which:
            others = keys[:i] + keys[i + 1:]
            occurring[i] += [h for h in per_source[i] if all(key(i, h) in ks for ks in others)]
    return all(algebras[i].size < 2 or len(set(zip(*occurring[i]))) == algebras[i].size
               for i in which)


def coproduct(
    ctx: PrevarietyCtx,
    factors: Sequence[FiniteAlgebra],
    budget: Budget = DEFAULT_BUDGET,
) -> CoproductResult:
    """Coproduct of ``factors`` in SP(Y) as a subalgebra of an indexed product.

    When the hom-family index is empty the result is the one-element
    algebra, or the empty algebra when every factor is empty.
    """
    factors = list(factors)
    return _indexed_coproduct(ctx, factors, None, budget, _member_hom_lists(ctx, factors, budget))


def _every_family_extends(ctx: PrevarietyCtx, source: FiniteAlgebra,
                          parts: Sequence[tuple[list[Iterable], Sequence[int]]],
                          budget: Budget) -> bool:
    """True iff, for each generator Y_k, each family of homs h_i: part_i -> Y_k
    extends to a hom ``source -> Y_k`` sending image_i[x] to h_i(x); ``parts``
    holds (one hom stream per generator, image_i) per part, and stream k is
    drained only when Y_k is reached.  One search of ``source -> Y_k`` walks
    the families in product order, propagating each prefix once."""
    for k, target in enumerate(ctx.generators):
        stages = [[list(zip(image, h)) for h in streams[k]] for streams, image in parts]
        if not _Search(source, target, False, budget.max_nodes).every_choice_extends(stages):
            return False
    return True


def is_coproduct(
    ctx: PrevarietyCtx,
    b: FiniteAlgebra,
    maps: Sequence[Homomorphism],
    budget: Budget = DEFAULT_BUDGET,
) -> bool:
    """Coproduct test from the generation + extension characterization.

    True iff ``b`` lies in SP(Y), the images of the maps generate it, and
    every family of homomorphisms from the sources into a generator
    extends along the maps.
    """
    parts = []
    for m in maps:
        if m.target != b:
            raise AlgebraError("a candidate coprojection does not target b")
        try:
            parts.append((_member_homs(ctx, m.source, budget), m.mapping))
        except MembershipError:
            raise MembershipError("a coproduct factor is not in SP of the generators") from None
    if not ctx.contains(b, budget):
        return False
    gen, _ = generated_subalgebra(b, sorted({v for m in maps for v in m.mapping}))
    if gen.size != b.size:
        return False
    return _every_family_extends(ctx, b, parts, budget)


def is_compatible(
    ctx: PrevarietyCtx,
    algebras: Sequence[FiniteAlgebra],
    budget: Budget = DEFAULT_BUDGET,
) -> bool:
    """True iff every coprojection into the canonical coproduct is injective.

    Equivalent to the existence of a common embedding target in SP(Y):
    the coproduct itself serves as the target in the positive case, and
    any target would force injective coprojections in the negative one.
    Read off the hom lists, not a built coproduct: only ``max_nodes`` applies.
    """
    algebras = list(algebras)
    return _injective_coprojections(_member_hom_lists(ctx, algebras, budget), algebras,
                                    range(len(algebras)))


def is_comfortable(
    ctx: PrevarietyCtx,
    a: FiniteAlgebra,
    b: FiniteAlgebra,
    budget: Budget = DEFAULT_BUDGET,
) -> bool:
    """True iff the coprojection of ``a`` into the coproduct of [a, b] is 1-1.

    Not symmetric in general.  Decided like ``is_compatible``.
    """
    return _injective_coprojections(_member_hom_lists(ctx, [a, b], budget), [a, b], [0])


# -- relative subdirect irreducibility -------------------------------------


def is_p_subdirectly_irreducible(
    ctx: PrevarietyCtx,
    alg: FiniteAlgebra,
    budget: Budget = DEFAULT_BUDGET,
) -> bool:
    """Relative subdirect irreducibility: the meet of the non-diagonal
    relative congruences is non-diagonal.

    The relative congruences are the meets of kernels of homomorphisms
    into the generators (the full congruence is the empty meet), so that
    meet is the meet of the kernels of the non-injective homomorphisms
    A -> Y_i.  They are pulled one at a time from the membership walk's
    searches (``_member_homs``), and the searches stop once the meet is
    diagonal; the congruence lattice is never built.  Checks run in this
    order: nontrivial, member of SP(Y), within ``max_congruence_size``.
    """
    if alg.size < 2:
        raise AlgebraError("relative irreducibility needs a nontrivial algebra")
    streams = _member_homs(ctx, alg, budget)
    _require_congruence_size(alg, budget)
    kernels = (mapping for s in streams for mapping in s if len(set(mapping)) < alg.size)
    return _meet(alg.size, kernels) is not None


# -- compatible covers ------------------------------------------------------


def minimum_compatible_cover(
    ctx: PrevarietyCtx,
    algebras: Sequence[FiniteAlgebra],
    budget: Budget = DEFAULT_BUDGET,
) -> list[list[int]]:
    """Partition of the index set into the fewest compatible blocks.

    Exact branch-and-bound over restricted-growth strings, so the result
    is the lexicographically least among the minimum-size partitions.
    Each algebra's homs are listed once, the first time a block reaches it,
    and every block is judged from them as ``is_compatible`` judges it;
    subsets of compatible sets are compatible, which justifies pruning.
    """
    algebras = list(algebras)
    n = len(algebras)
    if n == 0:
        return []

    @functools.cache
    def homs(i: int) -> list:
        return [list(s) for s in _member_homs(ctx, algebras[i], budget)]

    @functools.cache
    def block_ok(block: tuple[int, ...]) -> bool:
        return _injective_coprojections(list(zip(*map(homs, block))),
                                        [algebras[i] for i in block], range(len(block)))

    for max_blocks in range(1, n + 1):
        blocks: list[set[int]] = []

        def place(i: int) -> Optional[list[list[int]]]:
            if i == n:
                return [sorted(b) for b in blocks]
            for b in blocks:
                if block_ok(tuple(sorted(b | {i}))):
                    b.add(i)
                    found = place(i + 1)
                    if found is not None:
                        return found
                    b.remove(i)
            if len(blocks) < max_blocks and block_ok((i,)):
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
    budget: Budget = DEFAULT_BUDGET,
) -> bool:
    """True iff the subalgebra generated by the union is the coproduct of
    the given closed subsets, via the inclusion maps.  Only ``ambient`` is
    tested for membership: SP(Y) is closed under subalgebras."""
    ctx.require_member(ambient, budget)
    return _independent(ctx, ambient, subalgebras, budget)


def _independent(ctx: PrevarietyCtx, ambient: FiniteAlgebra, subalgebras, budget) -> bool:
    """``is_independent`` once ``ambient`` is a known member of SP(Y).  The
    union generates the span by construction, so only extension is tested.
    With no subalgebras the span is the closure of the constants, and it is
    the initial algebra exactly when every generator receives a hom from it."""
    subsets = [sorted(set(s)) for s in subalgebras]
    span, positions = _span(ambient, subsets)
    streams = [_streams(ctx, subalgebra_on(ambient, s)[0], budget) for s in subsets]
    return _every_family_extends(ctx, span, list(zip(streams, positions)), budget)


def _span(ambient: FiniteAlgebra, subsets):
    """The subalgebra of ``ambient`` that the union of ``subsets`` (each sorted,
    without repeats) generates, and each subset's positions in it."""
    span, inclusion = generated_subalgebra(ambient, sorted({x for s in subsets for x in s}))
    position = {x: j for j, x in enumerate(inclusion.mapping)}
    return span, [[position[x] for x in s] for s in subsets]


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
    budget: Budget = DEFAULT_BUDGET,
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
    fixing A_n pointwise, that is, with A_n's identity as one more part.
    """
    chain = [tuple(sorted(set(s))) for s in chain]
    components = [tuple(sorted(set(s))) for s in components]
    n = len(chain)
    if len(components) != n:
        raise AlgebraError("chain and component lists differ in length")
    levels = [tuple(range(a0.size)), *chain]
    for i in range(1, n + 1):
        if not set(levels[i]) <= set(levels[i - 1]):
            raise ChainHypothesisError(i, "chain is not descending")
        if not set(components[i - 1]) <= set(levels[i - 1]):
            raise ChainHypothesisError(i, "component leaves the previous level")
    # each distinct subset's subalgebra is built, and its homs into A_n are
    # listed, once per call: with one generator every check drains a part's
    # homs in full, so keeping the listing loses no laziness
    subalgebra = functools.cache(lambda subset: subalgebra_on(a0, subset)[0])
    listing = functools.cache(lambda subset: list(_streams(ctx, subalgebra(subset), budget)[0]))

    def parts(subsets, images):
        # every subalgebra is built before any is listed, so an unclosed
        # subset raises ahead of a search that would overrun its budget
        list(map(subalgebra, subsets))
        return [([listing(s)], image) for s, image in zip(subsets, images)]

    ctx = PrevarietyCtx((subalgebra(levels[n]),))
    ctx.require_member(a0, budget)

    # A_{i-1} is closed, so <A_i, B_i> is the same in a0 as in A_{i-1}
    retractions: list[Optional[Homomorphism]] = []
    for i in range(1, n + 1):
        pair = (levels[i], components[i - 1])
        span, (a_pos, b_pos) = _span(a0, pair)
        if not _every_family_extends(ctx, span, parts(pair, [a_pos, b_pos]), budget):
            raise ChainHypothesisError(i, "the pair (A_i, B_i) is not independent")
        a_sub, b_sub = map(subalgebra, pair)
        f_i = _Search(b_sub, a_sub, False, budget.max_nodes).first([])
        if f_i is None:
            retractions.append(None)
            continue
        pairs = [*zip(a_pos, range(len(a_pos))), *zip(b_pos, f_i)]
        retraction = _Search(span, a_sub, False, budget.max_nodes).first(pairs)
        if retraction is None:
            raise AlgebraError("no retraction extends the chosen component map; "
                               "contradicts the verified independence")
        retractions.append(Homomorphism._unchecked(span, a_sub, retraction))

    span, images = _span(a0, components)
    independent = _every_family_extends(ctx, span, parts(components, images), budget)

    # stronger form: families into the distinguished last level extend
    span_all, [last_pos, *images] = _span(a0, [levels[n], *components])
    identity = ([[tuple(range(len(last_pos)))]], last_pos)
    almost = _every_family_extends(ctx, span_all, [identity, *parts(components, images)], budget)
    return ChainReport(independent, almost, retractions)


def has_trivial_subalgebra(alg: FiniteAlgebra) -> bool:
    """True iff some element is idempotent under every operation."""
    return any(all(alg.op(name, *([e] * arity)) == e for name, arity in alg.signature.ops)
               for e in range(alg.size))


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
        return f"{left} => {side(self.conclusion)}" if left else f"=> {side(self.conclusion)}"


def format_term(t: Term, variables: Sequence[str]) -> str:
    if isinstance(t, Var):
        return variables[t.index]
    return f"{t.op}({','.join(format_term(a, variables) for a in t.args)})"


_TOKEN = re.compile(r"[A-Za-z_][A-Za-z0-9_]*|\(|\)|,")


def _parse_term(tokens: list[str], pos: int, variables: list[str], signature):
    if pos >= len(tokens):
        raise AlgebraError("unexpected end of term")
    tok = tokens[pos]
    if not re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", tok):
        raise AlgebraError(f"unexpected token {tok!r}")
    pos += 1
    if tokens[pos:pos + 1] == ["("]:
        args, pos = [], pos + 1
        while tokens[pos:pos + 1] != [")"]:
            if args:
                if tokens[pos:pos + 1] != [","]:
                    raise AlgebraError("expected ',' or ')' in a term")
                pos += 1
            arg, pos = _parse_term(tokens, pos, variables, signature)
            args.append(arg)
        return App(tok, tuple(args)), pos + 1
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
            stray = re.sub(r"\s+|" + _TOKEN.pattern, "", s)
            if stray:
                raise AlgebraError(f"unexpected character {stray[0]!r} in {chunk!r}")
            tokens = _TOKEN.findall(s)
            if not tokens:
                raise AlgebraError(f"empty side in {chunk!r}")
            term, pos = _parse_term(tokens, 0, variables, signature)
            if pos != len(tokens):
                raise AlgebraError(f"trailing tokens in {chunk!r}")
            out.append(term)
        return tuple(out)

    premises = [parse_equation(chunk) for chunk in left.split("&")] if left.strip() else []
    conclusion = parse_equation(right)
    return QuasiIdentity(tuple(variables), tuple(premises), conclusion)


def quasi_identity_holds(alg: FiniteAlgebra, q: QuasiIdentity) -> bool:
    """Brute force over all assignments: premises all equal -> conclusion
    equal.  Each term is compiled once (``_compile_term``) to read the
    product's value tuples, so a malformed one raises before the walk."""
    known = range(len(q.variables)).__contains__
    *premises, (lhs, rhs) = [[_compile_term(alg, t, known) for t in eq]
                             for eq in (*q.premises, q.conclusion)]
    for values in itertools.product(range(alg.size), repeat=len(q.variables)):
        if all(s(values) == t(values) for s, t in premises) and lhs(values) != rhs(values):
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
    budget: Budget = DEFAULT_BUDGET,
) -> list[FiniteAlgebra]:
    """All members of SP(Y) of size <= max_size, one per isomorphism class:
    the lex-least table of each class, in lex order, sizes ascending.

    Only the lex-least tables are generated (``_canonical_tables``), and
    membership is tested once on each.  Guarded by the raw count of tables,
    ``size**(size**arity)`` per op; only workable for small sizes and
    signatures.
    """
    if max_size < 0:
        raise AlgebraError("the size bound must be a natural number")
    sig = ctx.signature
    out = []
    if not sig.has_zeroary():
        out.append(empty_algebra(sig))
    total = 0
    for size in range(1, max_size + 1):
        total += size ** sum(size**arity for _, arity in sig.ops)
        if total > budget.max_enumeration:
            raise BudgetExceededError("raw algebra enumeration exceeds the budget; lower max_size")
        for flat in _canonical_tables(sig, size):
            values = iter(flat)
            cand = FiniteAlgebra(sig, size, {name: tuple(itertools.islice(values, size**arity))
                                             for name, arity in sig.ops})
            if ctx.contains(cand, budget):
                out.append(cand)
    return out


def amalgamated_coproduct(
    ctx: PrevarietyCtx,
    base: FiniteAlgebra,
    arms: Sequence[tuple[FiniteAlgebra, Homomorphism]],
    budget: Budget = DEFAULT_BUDGET,
) -> CoproductResult:
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
    sources = [alg for alg, _ in arms]
    result = _indexed_coproduct(ctx, sources, _on_base([e for _, e in arms]), budget,
                                _member_hom_lists(ctx, sources, budget))
    if arms:
        result.base_map = Homomorphism._unchecked(base, result.algebra, [
            result.coprojections[0](v) for v in arms[0][1].mapping])
    return result


def _on_base(embeddings: Sequence[Homomorphism]):
    """The pushout's family key: arm i's hom h keyed by its values on the base."""
    return lambda i, h: tuple(h[v] for v in embeddings[i].mapping)


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
    budget: Budget = DEFAULT_BUDGET,
    include_empty_base: bool = False,
) -> tuple[bool, Optional[AmalgamationCounterexample]]:
    """Exhaustive amalgamation check over SP(Y)-members of size <= max_size.

    For every base A and pair of embeddings A >-> B, A >-> C among the
    enumerated members, the square completes with embeddings iff both
    coprojections into the canonical pushout are injective (any completing
    object factors through the pushout), so the verdict is exact rather
    than bounded by a target size.  Injectivity is read off the hom lists
    (``_injective_coprojections``); no pushout is built.  Empty bases turn
    the check into a joint-embedding question and are excluded by default.
    """
    members = enumerate_members(ctx, max_size, budget)
    # each hom list is made once per check, keyed by members' positions

    @functools.cache
    def embeddings(i, j):
        return find_homomorphisms(members[i], members[j], budget=budget, injective=True)

    @functools.cache
    def into_generators(j):
        return [list(s) for s in _member_homs(ctx, members[j], budget)]

    for i, a in enumerate(members):
        if a.size < 1 and not include_empty_base:
            continue
        for j, b in enumerate(members):
            if b.size < a.size or not embeddings(i, j):
                continue
            for k, c in enumerate(members):
                if c.size < a.size or not embeddings(i, k):
                    continue
                lists = list(zip(into_generators(j), into_generators(k)))
                for f in embeddings(i, j):
                    for g in embeddings(i, k):
                        if not _injective_coprojections(lists, [b, c], (0, 1), _on_base([f, g])):
                            return False, AmalgamationCounterexample(a, b, c, f, g)
    return True, None


def subfamily_independence_check(
    ctx: PrevarietyCtx,
    ambient: FiniteAlgebra,
    family: Sequence[Iterable[int]],
    subfamily: Sequence[int],
    budget: Budget = DEFAULT_BUDGET,
) -> bool:
    """Subfamilies of independent families stay independent when the
    prevariety has a single generator.

    Hypotheses checked: single generator; the full family independent;
    members nontrivial, unless some nontrivial member of the prevariety
    has an idempotent element (then trivial members are allowed).  The
    empty subfamily is independent when its span, the closure of the
    constants, is the initial algebra.
    """
    if len(ctx.generators) != 1:
        raise AlgebraError("this check needs a single-generator prevariety")
    family = [sorted(set(s)) for s in family]
    if not is_independent(ctx, ambient, family, budget):
        raise AlgebraError("the full family is not independent")
    trivial_members = [s for s in family if len(s) == 1]
    if trivial_members:
        gen = ctx.generators[0]
        if not (gen.size >= 2 and has_trivial_subalgebra(gen)):
            raise AlgebraError("trivial members need a nontrivial generator with an idempotent")
    return _independent(ctx, ambient, [family[i] for i in subfamily], budget)


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
    compatibility = [[is_compatible(ctx, [x, y]) for y in algebras] for x in algebras]
    return ConstantsCensus(len(algebras), algebras, partitions, compatibility)
