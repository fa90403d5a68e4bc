"""Command-line surface.

Each verb is a private function that returns its exit code, its ``--json``
report and its text lines; ``main`` prints that one report, as JSON or as
text, so a successful ``--json`` run prints exactly one object.
Exit codes: 0 = property verified / computation done, 1 = property
refuted (a witness is reported), 2 = usage error, 3 = a budget or the
stack was exhausted before an answer was known.  ``--json`` switches
every verb to a machine-readable report; reports are byte-stable for
fixed inputs.
Under ``--json`` a failure also prints ``{"error": "budget" | "membership"
| "usage", "message": ...}`` to stdout, next to its stderr line; so does
an argv that argparse refuses, with argparse's own message.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import itertools
import json
import random
import sys
from typing import Optional, Sequence

from .algcore import (
    AlgebraError,
    Budget,
    BudgetExceededError,
    DEFAULT_BUDGET,
    FiniteAlgebra,
    all_congruences,
    are_isomorphic,
    cyclic_unary,
    disjoint_union,
    is_subdirectly_irreducible,
)
from .amalgam import (
    AmalgamCtx,
    FiniteGroup,
    alternating_strings,
    coset_torsion_scan,
    normal_form as amalgam_normal_form,
    stabilizer_coset_survey,
    sym_stab_amalgam,
)
from .freeness import (
    CollapseRule,
    FreeTermContext,
    Tag,
    Word,
    Zero,
    make_tag,
    no_free_triple_bounded,
    verify_free_pair,
    witness_triple_hom,
)
from .homsearch import MembershipError, separating_family
from .prevariety import (
    PrevarietyCtx,
    chain_independence,
    check_amalgamation_bounded,
    constants_si_census,
    coproduct,
    free_algebra,
    is_comfortable,
    is_compatible,
    is_independent,
    is_p_subdirectly_irreducible,
    minimum_compatible_cover,
    parse_quasi_identity,
    quasi_identity_holds,
    subfamily_independence_check,
)
from .srs import (
    Presentation,
    coproduct_presentation,
    format_word,
    knuth_bendix,
    parse_presentation,
    parse_word,
    reduce as srs_reduce,
    words_equal,
)

EXIT_OK = 0
EXIT_REFUTED = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


def _load_algebras(paths: Sequence[str]) -> list[FiniteAlgebra]:
    return [FiniteAlgebra.load(p) for p in paths]


def _ctx(args) -> PrevarietyCtx:
    return PrevarietyCtx(tuple(_load_algebras(args.gen)))


def _int_list(text: str, sep: str, usage: str) -> list[int]:
    """The integers between the ``sep``s of ``text``, empty items skipped;
    any other item raises ``AlgebraError`` with the ``usage`` text."""
    try:
        return [int(x) for x in text.split(sep) if x]
    except ValueError as exc:
        raise AlgebraError(f"{usage}: {exc}") from None


# -- verbs -------------------------------------------------------------------

# what each verb returns: its exit code, its --json report and its text lines
_Outcome = tuple[int, dict, list[str]]


def _verdict(ok: bool, key: str, **extra) -> _Outcome:
    """A refutable verb's outcome: the report ``{key: ok}`` with ``extra``,
    and one text line, ``key`` with spaces."""
    line = f"{key.replace('_', ' ')}: {ok}"
    return EXIT_OK if ok else EXIT_REFUTED, {key: ok, **extra}, [line]


def _cmd_free(args) -> _Outcome:
    ctx = _ctx(args)
    alg, gens = free_algebra(ctx, args.n)
    cyc = alg.size if alg.size and are_isomorphic(alg, cyclic_unary(alg.size)) else None
    report = {"size": alg.size, "generators": gens, "cyclic_order": cyc}
    lines = [f"free algebra on {args.n} generators: {alg.size} elements"]
    if cyc is not None:
        lines.append(f"isomorphic to the {cyc}-element cycle: true")
    if args.out:
        alg.save(args.out)
        lines.append(f"written to {args.out}")
    return EXIT_OK, report, lines


def _cmd_coproduct(args) -> _Outcome:
    ctx = _ctx(args)
    factors = _load_algebras(args.factors)
    result = coproduct(ctx, factors)
    inj = [c.is_injective() for c in result.coprojections]
    report = {"size": result.algebra.size, "coprojections_injective": inj,
              "index_entries": len(result.index_metadata)}
    lines = [
        f"coproduct of {len(factors)} factors: {result.algebra.size} elements",
        f"coprojections injective: {inj}",
    ]
    if args.out:
        result.algebra.save(args.out)
        lines.append(f"written to {args.out}")
    return EXIT_OK, report, lines


def _cmd_compatible(args) -> _Outcome:
    ctx = _ctx(args)
    return _verdict(is_compatible(ctx, _load_algebras(args.factors)), "compatible")


def _cmd_comfortable(args) -> _Outcome:
    ctx = _ctx(args)
    return _verdict(is_comfortable(ctx, *_load_algebras([args.a, args.b])), "comfortable")


def _cmd_independent(args) -> _Outcome:
    ctx = _ctx(args)
    ambient = FiniteAlgebra.load(args.ambient)
    subsets = [_int_list(s, ",", "--subset takes comma-separated carrier indices")
               for s in args.subset]
    return _verdict(is_independent(ctx, ambient, subsets), "independent")


def _cmd_si(args) -> _Outcome:
    alg = FiniteAlgebra.load(args.algebra)
    ok, monolith = is_subdirectly_irreducible(alg)
    blocks = list(monolith.blocks) if monolith else None
    code, report, lines = _verdict(ok, "subdirectly_irreducible", monolith=blocks,
                                   congruences=len(all_congruences(alg)))
    if monolith:
        lines.append(f"monolith blocks: {blocks}")
    return code, report, lines


def _cmd_rel_si(args) -> _Outcome:
    ctx = _ctx(args)
    alg = FiniteAlgebra.load(args.algebra)
    return _verdict(is_p_subdirectly_irreducible(ctx, alg), "relatively_subdirectly_irreducible")


def _cmd_member(args) -> _Outcome:
    ctx = _ctx(args)
    alg = FiniteAlgebra.load(args.algebra)
    ok, witness, _ = separating_family(alg, ctx.generators)
    report = {"member": ok, "unseparated_pair": list(witness) if witness else None}
    lines = [f"member of the generated prevariety: {ok}"]
    if witness:
        lines.append(f"unseparated pair: {witness}")
    return EXIT_OK if ok else EXIT_REFUTED, report, lines


def _cmd_cover(args) -> _Outcome:
    ctx = _ctx(args)
    blocks = minimum_compatible_cover(ctx, _load_algebras(args.factors))
    return (EXIT_OK, {"blocks": blocks, "count": len(blocks)},
            [f"minimum compatible cover: {len(blocks)} blocks {blocks}"])


def _cmd_qid(args) -> _Outcome:
    alg = FiniteAlgebra.load(args.algebra)
    q = parse_quasi_identity(args.quasi_identity, alg.signature)
    return _verdict(quasi_identity_holds(alg, q), "holds", quasi_identity=str(q))


def _cmd_amalg_check(args) -> _Outcome:
    ctx = _ctx(args)
    ok, counterexample = check_amalgamation_bounded(ctx, args.k)
    report = {"amalgamation": ok}
    lines = [f"amalgamation up to size {args.k}: {ok}"]
    if counterexample:
        sizes = [counterexample.base.size, counterexample.left.size, counterexample.right.size]
        report["counterexample_sizes"] = sizes
        lines.append(f"counterexample sizes (base, left, right): {sizes}")
    return EXIT_OK if ok else EXIT_REFUTED, report, lines


def _completion(args):
    """The presentation file ``kb`` and ``reduce`` read, and its completion
    under their ``--max-rules`` and ``--max-word-len``."""
    with open(args.presentation) as fh:
        pres = parse_presentation(fh.read())
    return pres, knuth_bendix(pres, Budget(max_rules=args.max_rules,
                                           max_word_len=args.max_word_len))


def _cmd_kb(args) -> _Outcome:
    result = _completion(args)[1]
    rules = [[format_word(l), format_word(r)] for l, r in result.system.rules]
    report = {"completed": result.completed, "rules": rules, "reason": result.reason}
    lines = [f"completed: {result.completed}", *(f"  {l} -> {r}" for l, r in rules)]
    if result.reason:
        lines.append(f"reason: {result.reason}")
    return EXIT_OK if result.completed else EXIT_BUDGET, report, lines


def _cmd_reduce(args) -> _Outcome:
    pres, result = _completion(args)
    if not result.completed:
        return (EXIT_BUDGET, {"completed": False, "reason": result.reason},
                [f"completion failed: {result.reason}"])
    word = parse_word(args.word, pres.alphabet)
    nf = format_word(srs_reduce(result.system, word))
    return EXIT_OK, {"input": format_word(word), "normal_form": nf}, [f"normal form: {nf}"]


def _amalgam_ctx_from_args(args) -> AmalgamCtx:
    if args.sym:
        return sym_stab_amalgam(args.sym)
    if not (args.g1 and args.g2 and args.base and args.emb1 and args.emb2):
        raise AlgebraError("give --sym N, or all of --g1 --g2 --base --emb1 --emb2")
    g1, g2, base = (FiniteGroup(FiniteAlgebra.load(p)) for p in (args.g1, args.g2, args.base))
    embeddings = tuple(
        tuple(_int_list(text, ",", f"{flag} takes comma-separated subgroup images"))
        for flag, text in (("--emb1", args.emb1), ("--emb2", args.emb2)))
    return AmalgamCtx((g1, g2), base, embeddings)


def _parse_amalgam_word(text: str) -> list[tuple[int, int]]:
    usage, word = "amalgam letters are factor:element", []
    for token in text.split():
        letter = _int_list(token, ":", usage)
        if len(letter) != 2:
            raise AlgebraError(f"{usage}: {token!r}")
        word.append(tuple(letter))
    return word


def _cmd_amalgam_nf(args) -> _Outcome:
    ctx = _amalgam_ctx_from_args(args)
    el = amalgam_normal_form(ctx, _parse_amalgam_word(args.word))
    return (EXIT_OK, {"reps": [list(r) for r in el.reps], "tail": el.tail},
            [f"normal form: reps={list(el.reps)} tail={el.tail}"])


def _parity_scan(ctx: AmalgamCtx, max_len: int):
    """Each alternating coset string up to ``max_len`` with its torsion verdict,
    and whether all follow the rule: even cosets torsion-free, odd and empty
    cosets torsion.  A scan that may run more than
    ``DEFAULT_BUDGET.max_enumeration`` torsion tests, one per string and
    subgroup element, raises before any."""
    if max_len < 0:
        raise AlgebraError("--max-len must be a natural number")
    # the strings of each next length, counted by the factor they end in; the
    # count stops growing once it is over the budget
    limit = DEFAULT_BUDGET.max_enumeration
    t0, t1 = (len(t) - 1 for t in ctx.transversals)
    strings, ends = 1, (t0, t1)
    for _ in range(max_len):
        if strings * ctx.base.size > limit:
            break
        strings += sum(ends)
        ends = (ends[1] * t0, ends[0] * t1)
    if strings * ctx.base.size > limit:
        raise BudgetExceededError(
            f"the coset scan up to length {max_len} runs at least {strings * ctx.base.size} "
            f"torsion tests, over the budget {limit}")
    rows = [(length, string, coset_torsion_scan(ctx, string)) for length in range(max_len + 1)
            for string in alternating_strings(ctx, length)]
    return rows, all(t == (length % 2 == 1 or length == 0) for length, _, t in rows)


def _cmd_amalgam_scan(args) -> _Outcome:
    rows, ok = _parity_scan(_amalgam_ctx_from_args(args), args.max_len)
    cosets = [{"length": length, "string": [list(s) for s in string], "has_torsion": t}
              for length, string, t in rows]
    lines = [f"len={c['length']} torsion={c['has_torsion']} string={c['string']}" for c in cosets]
    lines.append(f"even cosets torsion-free, odd and empty cosets torsion: {ok}")
    return EXIT_OK if ok else EXIT_REFUTED, {"cosets": cosets, "matches_parity_rule": ok}, lines


# -- curated experiment suites -------------------------------------------------


def _suite_prop_2_1():
    checks = []
    cert = no_free_triple_bounded(3)
    checks.append(("free1:one-generator-word-triples-vanish", cert.all_word_triples_vanish))
    checks.append(("free1:tag-survives-three-generators", cert.tag_survives_on_three_generators))
    pair = verify_free_pair(CollapseRule.TWO_GENERATED, 3)
    checks.append(("free1:px-qx-pair-free-depth-3", not pair.failures and pair.collisions == 0))
    one = FreeTermContext(CollapseRule.TWO_GENERATED, 1)
    killed = make_tag(one, Word("p", 0), Word("pq", 0), Word("qq", 0))
    checks.append(("free1:px-pqx-qqx-not-free", isinstance(killed, Zero)))
    return checks


def _suite_prop_2_2():
    checks = []
    ctx = FreeTermContext(CollapseRule.STEM_SPLIT, 1)
    killed = make_tag(ctx, Word("p", 0), Word("pq", 0), Word("qq", 0))
    checks.append(("free0:px-pqx-qqx-collapses", isinstance(killed, Zero)))
    survivor = make_tag(ctx, Word("", 0), Word("q", 0), Word("p", 0))
    checks.append(("free0:x-qx-px-tag-survives", isinstance(survivor, Tag)))
    pair = verify_free_pair(CollapseRule.STEM_SPLIT, 3)
    checks.append(("free0:px-qx-pair-free-depth-3", not pair.failures and pair.collisions == 0))
    rng = random.Random(20240601)
    words = [["".join(rng.choice("pq") for _ in range(rng.randint(0, 8))) for _ in range(3)]
             for _ in range(25)]
    checks.append(("free0:witness-triples-map-correctly",
                   all(witness_triple_hom(*triple).ok for triple in words)))
    return checks


def _suite_cd_family():
    checks = []
    c2, c3 = cyclic_unary(2), cyclic_unary(3)
    ctx = PrevarietyCtx((c2, c3))
    alg, _ = free_algebra(ctx, 1)
    checks.append(("cyclic:free-rank-1-has-6-elements", alg.size == 6))
    checks.append(("cyclic:free-rank-1-is-the-6-cycle", are_isomorphic(alg, cyclic_unary(6))))
    q = parse_quasi_identity("=> a(a(a(a(a(a(x)))))) = x")
    checks.append(("cyclic:sixth-power-identity", quasi_identity_holds(alg, q)))
    checks.append(("cyclic:c2-c3-incompatible", not is_compatible(ctx, [c2, c3])))
    union_ctx = PrevarietyCtx((disjoint_union([c2, c3]),))
    checks.append(("cyclic:compatible-under-union-generator",
                   is_compatible(union_ctx, [c2, c3])))
    checks.append(("cyclic:cover-two-generators",
                   len(minimum_compatible_cover(ctx, [c2, c3])) == 2))
    checks.append(("cyclic:cover-union-generator",
                   len(minimum_compatible_cover(union_ctx, [c2, c3])) == 1))
    checks.append(("cyclic:c2-relatively-irreducible", is_p_subdirectly_irreducible(ctx, c2)))
    checks.append(("cyclic:c6-relatively-reducible",
                   not is_p_subdirectly_irreducible(ctx, cyclic_unary(6))))
    return checks


def _suite_monoid_amalgam():
    checks = []
    inverses = Presentation(("x", "y", "z"), ((("x", "y"), ()), (("z", "x"), ())))
    done = knuth_bendix(inverses)
    checks.append(("monoid:one-sided-inverses-complete", done.completed))
    sys_ = done.system
    checks.append(("monoid:left-right-inverses-fall-together",
                   words_equal(sys_, ("y",), ("z",))))
    checks.append(("monoid:xy-collapses-to-1", srs_reduce(sys_, ("x", "y")) == ()))
    checks.append(("monoid:zx-collapses-to-1", srs_reduce(sys_, ("z", "x")) == ()))

    b1 = Presentation(("u1", "x", "y"), ((("y",), ("x", "u1")),))
    b2 = Presentation(("u2", "x", "y"), ((("y",), ("x", "u2")),))
    two = knuth_bendix(coproduct_presentation([b1, b2], ["x", "y"]))
    checks.append(("monoid:two-distinguished-generators-stay-distinct",
                   two.completed and not words_equal(two.system, ("u1",), ("u2",))))
    checks.append(("monoid:xu1-equals-xu2",
                   words_equal(two.system, ("x", "u1"), ("x", "u2"))))
    b3 = Presentation(("x", "y", "w"), ((("x", "w"), ()), (("w", "x"), ())))
    three = knuth_bendix(coproduct_presentation([b1, b2, b3], ["x", "y"]))
    checks.append(("monoid:adjoining-inverse-identifies-them",
                   three.completed
                   and words_equal(three.system, ("u1",), ("u2",))
                   and words_equal(three.system, ("u1",), ("w", "y"))))
    return checks


def _suite_amalgam_torsion():
    checks = [("amalgam:coset-torsion-parity-up-to-4", _parity_scan(sym_stab_amalgam(3), 4)[1])]
    for n in (3, 4, 5):
        survey = stabilizer_coset_survey(n)
        checks.append((f"amalgam:stabilizer-cosets-have-involutions-n{n}",
                       survey.all_cosets_have_involutions))
    return checks


def _suite_constants_census():
    checks = []
    census = constants_si_census(3)
    checks.append(("constants:census-count-is-4", census.count == 4))
    off_diagonal = all(census.compatibility[i][j] == (i == j)
                       for i in range(census.count) for j in range(census.count))
    checks.append(("constants:distinct-partitions-incompatible", off_diagonal))
    return checks


def _suite_chain_theorem():
    checks = []
    c3 = cyclic_unary(3)
    a0 = disjoint_union([c3, c3])
    report = chain_independence(a0, [[0, 1, 2]], [[3, 4, 5]])
    checks.append(("chain:two-summands-independent", report.ok))
    checks.append(("chain:retraction-found", report.retractions[0] is not None))
    a0 = disjoint_union([c3, c3, c3])
    report = chain_independence(a0, [[0, 1, 2, 3, 4, 5], [0, 1, 2]], [[6, 7, 8], [3, 4, 5]])
    checks.append(("chain:three-summand-chain-independent", report.ok))
    return checks


def _suite_subfamily():
    """Subfamilies of an independent family stay independent over one
    generator (``subfamily_independence_check``): every pair out of three
    3-cycle summands, and the empty subfamily.  The paper's abstract does
    not state this lemma, and whether its body does is unchecked."""
    c3 = cyclic_unary(3)
    ctx, triple = PrevarietyCtx((c3,)), disjoint_union([c3, c3, c3])
    family = [[0, 1, 2], [3, 4, 5], [6, 7, 8]]
    checks = [(f"subfamily:summands-{i}-{j}-independent",
               subfamily_independence_check(ctx, triple, family, [i, j]))
              for i, j in ((0, 1), (0, 2), (1, 2))]
    checks.append(("subfamily:empty-subfamily-independent",
                   subfamily_independence_check(ctx, triple, family, [])))
    return checks


SUITES = {
    "prop-2-1": _suite_prop_2_1,
    "prop-2-2": _suite_prop_2_2,
    "cd-family": _suite_cd_family,
    "monoid-amalgam": _suite_monoid_amalgam,
    "amalgam-torsion": _suite_amalgam_torsion,
    "constants-census": _suite_constants_census,
    "chain-theorem": _suite_chain_theorem,
    "subfamily": _suite_subfamily,
}


def _cmd_paperlab(args) -> _Outcome:
    if args.suite not in SUITES:
        raise AlgebraError(f"unknown suite {args.suite!r}; known: {', '.join(sorted(SUITES))}")
    checks = SUITES[args.suite]()
    report = {"suite": args.suite,
              "checks": [{"anchor": a, "ok": ok} for a, ok in checks]}
    lines = [f"{'PASS' if ok else 'FAIL'} [{anchor}]" for anchor, ok in checks]
    return EXIT_OK if all(ok for _, ok in checks) else EXIT_REFUTED, report, lines


# -- parser --------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``prevar`` argument parser, built once per process: parsing
    leaves it unchanged, so every ``main`` call shares it."""
    parser = argparse.ArgumentParser(
        prog="prevar",
        description="finite universal algebra workbench",
    )
    parser.add_argument("--json", action="store_true", help="machine-readable reports")
    sub = parser.add_subparsers(dest="verb", required=True)

    def verb(name, func, summary):
        p = sub.add_parser(name, help=summary)
        p.set_defaults(func=func)
        return p

    def with_generators(p):
        p.add_argument("--gen", action="append", required=True,
                       help="generator algebra file (repeatable)")

    p = verb("free", _cmd_free, "canonical free algebra on n generators")
    with_generators(p)
    p.add_argument("-n", type=int, required=True)
    p.add_argument("--out")

    p = verb("coproduct", _cmd_coproduct, "canonical coproduct of algebra files")
    with_generators(p)
    p.add_argument("factors", nargs="+")
    p.add_argument("--out")

    p = verb("compatible", _cmd_compatible, "are all factors jointly embeddable")
    with_generators(p)
    p.add_argument("factors", nargs="+")

    p = verb("comfortable", _cmd_comfortable, "is the first coprojection one-to-one")
    with_generators(p)
    p.add_argument("a")
    p.add_argument("b")

    p = verb("independent", _cmd_independent, "do the subsets form a coproduct")
    with_generators(p)
    p.add_argument("ambient")
    p.add_argument("--subset", action="append", required=True,
                   help="comma-separated carrier indices (repeatable)")

    p = verb("si", _cmd_si, "subdirect irreducibility and monolith")
    p.add_argument("algebra")

    p = verb("rel-si", _cmd_rel_si, "subdirect irreducibility relative to SP(Y)")
    with_generators(p)
    p.add_argument("algebra")

    p = verb("member", _cmd_member, "membership in SP(Y) by point separation")
    with_generators(p)
    p.add_argument("algebra")

    p = verb("cover", _cmd_cover, "minimum partition into compatible blocks")
    with_generators(p)
    p.add_argument("factors", nargs="+")

    p = verb("qid", _cmd_qid, "does a quasi-identity hold")
    p.add_argument("algebra")
    p.add_argument("quasi_identity")

    p = verb("amalg-check", _cmd_amalg_check, "bounded amalgamation property check")
    with_generators(p)
    p.add_argument("-k", type=int, required=True, help="member size bound")

    def with_completion_budget(p):
        p.add_argument("--max-rules", type=int, default=DEFAULT_BUDGET.max_rules)
        p.add_argument("--max-word-len", type=int, default=DEFAULT_BUDGET.max_word_len)

    p = verb("kb", _cmd_kb, "Knuth-Bendix completion of a presentation file")
    p.add_argument("presentation")
    with_completion_budget(p)

    p = verb("reduce", _cmd_reduce, "normal form of a word after completion")
    p.add_argument("presentation")
    p.add_argument("word")
    with_completion_budget(p)

    def with_amalgam(p):
        p.add_argument("--sym", type=int, help="use Sym(n) over the last-point stabilizer")
        p.add_argument("--g1")
        p.add_argument("--g2")
        p.add_argument("--base")
        p.add_argument("--emb1", help="comma-separated images of the base in g1")
        p.add_argument("--emb2", help="comma-separated images of the base in g2")

    p = verb("amalgam-nf", _cmd_amalgam_nf, "normal form in an amalgamated product")
    with_amalgam(p)
    p.add_argument("word", help="space-separated factor:element letters")

    p = verb("amalgam-scan", _cmd_amalgam_scan, "torsion scan over coset strings")
    with_amalgam(p)
    p.add_argument("--max-len", type=int, default=4)

    p = verb("paperlab", _cmd_paperlab, "run a curated experiment suite")
    p.add_argument("suite")

    return parser


def _fail(args, kind: str, prefix: str, exc: Exception, code: int) -> int:
    """One stderr line; under ``--json`` also one ``{"error", "message"}``
    object on stdout."""
    print(f"{prefix}: {exc}", file=sys.stderr)
    if args.json:
        print(json.dumps({"error": kind, "message": str(exc)}, sort_keys=True))
    return code


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    refusal = io.StringIO()
    try:
        with contextlib.redirect_stderr(refusal):
            args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse refused argv (or printed --help): its text goes to stderr as
        # it was written; under --json, which the top-level parser reads before
        # the verb and also takes abbreviated (--j, --js, --jso), the message
        # of its last line is also one usage object
        sys.stderr.write(refusal.getvalue())
        if exc.code == 0:
            return EXIT_OK
        if any(len(a) > 2 and "--json".startswith(a)
               for a in itertools.takewhile(lambda a: a.startswith("-"), argv)):
            message = refusal.getvalue().splitlines()[-1].partition(": error: ")[2]
            print(json.dumps({"error": "usage", "message": message}, sort_keys=True))
        return EXIT_USAGE
    try:
        code, report, lines = args.func(args)
        print(json.dumps(report, sort_keys=True) if args.json else "\n".join(lines))
        return code
    except (BudgetExceededError, RecursionError) as exc:
        # a recursion that runs out of stack has no answer yet, as with a budget
        return _fail(args, "budget", "budget exhausted", exc, EXIT_BUDGET)
    except MembershipError as exc:
        return _fail(args, "membership", "membership failure", exc, EXIT_REFUTED)
    except (AlgebraError, OSError) as exc:
        return _fail(args, "usage", "error", exc, EXIT_USAGE)


if __name__ == "__main__":
    sys.exit(main())
