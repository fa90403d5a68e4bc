"""Query kinds: one call into prevar each, a canonical form of its output,
and an oracle written with the benchmark's own code (``model``).

``prepare(args, env)`` runs at set-up and returns the thunk that the stream
times.  ``canon(output)`` turns the raw output into JSON-able data; its
digest is what two runs compare byte for byte.  ``check(args, canon, env)``
returns None when the verdict is right and a message when it is wrong.
Both run outside the timed region.
"""

from __future__ import annotations

import functools
import io
import itertools
import json
from contextlib import redirect_stderr, redirect_stdout

import model as M
from model import Alg


class NoVerdict(Exception):
    """The call returned, but without an answer (an incomplete completion
    or a CLI budget exit); the query counts as failed, not as wrong."""


# kind name -> (prepare, canon, check)
KINDS: dict[str, tuple] = {}


def algs(api, texts):
    return [api.algcore.FiniteAlgebra.from_json(t) for t in texts]


def own(texts):
    return [Alg.parse(t) for t in texts]


# -- coordinates of canonical products (free algebras, coproducts) -------------------


def free_coords(gens, n):
    coords = [(g, v) for g in gens for v in itertools.product(range(g.size), repeat=n)]
    return [g for g, _ in coords], [tuple(v[k] for _, v in coords) for k in range(n)]


def family_coords(gens, factors, agree=None):
    """Coordinates of the hom-family index: every (generator, family of homs
    factor_i -> generator) that ``agree`` accepts."""
    coords, images = [], [[[] for _ in range(f.size)] for f in factors]
    for g in gens:
        for family in itertools.product(*(M.homs(f, g) for f in factors)):
            if agree is None or agree(family):
                coords.append(g)
                for i, h in enumerate(family):
                    for b, v in enumerate(h):
                        images[i][b].append(v)
    return coords, [[tuple(t) for t in per] for per in images]


def same_subalgebra(alg: Alg, coords, labelled):
    """Check that ``alg`` is the subalgebra of the product of ``coords``
    generated by the labelled elements, through the map it induces.

    ``labelled`` pairs carrier elements of ``alg`` with product tuples.  The
    map is spread along the tables of ``alg``; it must be well defined,
    reach every element, commute with every operation and be one-to-one.
    """
    tau = [None] * alg.size
    for x, t in labelled:
        if tau[x] is not None and tau[x] != t:
            return f"element {x} gets two product tuples"
        tau[x] = t
    for name, arity in alg.sig:
        if arity == 0:
            x, t = alg.apply(name, ()), tuple(f.apply(name, ()) for f in coords)
            if tau[x] is not None and tau[x] != t:
                return f"constant {name} is misplaced"
            tau[x] = t
    changed = True
    while changed:
        changed = False
        for name, args, res in alg.constraints():
            if args and tau[res] is None and all(tau[a] is not None for a in args):
                tau[res] = tuple(f.apply(name, [tau[a][k] for a in args])
                                 for k, f in enumerate(coords))
                changed = True
    if any(t is None for t in tau):
        return "not generated by the labelled elements"
    for name, args, res in alg.constraints():
        if tau[res] != tuple(f.apply(name, [tau[a][k] for a in args]) for k, f in enumerate(coords)):
            return f"table of {name} disagrees with the product at {args}"
    if len(set(tau)) != alg.size:
        return "two elements have the same product tuple"
    return None


def injective_images(per_element):
    return len(set(per_element)) == len(per_element)


# -- construct: free algebras, coproducts, compatibility --------------------------------


def _free_prepare(args, env):
    api = env.api
    ctx = api.prevariety.PrevarietyCtx(tuple(algs(api, args["gens"])))
    n = args["n"]
    return lambda: api.prevariety.free_algebra(ctx, n)


def _free_canon(out):
    alg, gens = out
    return {"algebra": alg.to_json(), "generators": list(gens)}


def _free_check(args, c, env):
    alg = Alg.parse(c["algebra"])
    if args["spectrum"] is not None and alg.size != args["spectrum"]:
        return f"size {alg.size}, known spectrum says {args['spectrum']}"
    coords, seeds = free_coords(own(args["gens"]), args["n"])
    return same_subalgebra(alg, coords, list(zip(c["generators"], seeds)))


KINDS["free"] = (_free_prepare, _free_canon, _free_check)


def _coproduct_prepare(args, env):
    api = env.api
    ctx = api.prevariety.PrevarietyCtx(tuple(algs(api, args["gens"])))
    factors = algs(api, args["factors"])
    return lambda: api.prevariety.coproduct(ctx, factors)


def _coproduct_canon(out):
    return {"algebra": out.algebra.to_json(),
            "coprojections": [list(h.mapping) for h in out.coprojections],
            "index_entries": len(out.index_metadata)}


def _coproduct_check(args, c, env):
    factors = own(args["factors"])
    coords, images = family_coords(own(args["gens"]), factors)
    if c["index_entries"] != len(coords):
        return f"index has {c['index_entries']} entries, expected {len(coords)}"
    labelled = [(c["coprojections"][i][b], images[i][b])
                for i, f in enumerate(factors) for b in range(f.size)]
    return same_subalgebra(Alg.parse(c["algebra"]), coords, labelled)


KINDS["coproduct"] = (_coproduct_prepare, _coproduct_canon, _coproduct_check)


def _amalgam_prepare(args, env):
    api = env.api
    ctx = api.prevariety.PrevarietyCtx(tuple(algs(api, args["gens"])))
    base = api.algcore.FiniteAlgebra.from_json(args["base"])
    arms = []
    for text, emb in args["arms"]:
        arm = api.algcore.FiniteAlgebra.from_json(text)
        arms.append((arm, api.algcore.Homomorphism(base, arm, tuple(emb))))
    return lambda: api.prevariety.amalgamated_coproduct(ctx, base, arms)


def _amalgam_check(args, c, env):
    arms = own([t for t, _ in args["arms"]])
    embs = [emb for _, emb in args["arms"]]
    base = Alg.parse(args["base"])

    def agree(family):
        return all(len({family[i][embs[i][s]] for i in range(len(arms))}) == 1
                   for s in range(base.size))

    coords, images = family_coords(own(args["gens"]), arms, agree)
    if c["index_entries"] != len(coords):
        return f"index has {c['index_entries']} entries, expected {len(coords)}"
    labelled = [(c["coprojections"][i][b], images[i][b])
                for i, f in enumerate(arms) for b in range(f.size)]
    return same_subalgebra(Alg.parse(c["algebra"]), coords, labelled)


KINDS["amalgamated_coproduct"] = (_amalgam_prepare, _coproduct_canon, _amalgam_check)


def _injective_coprojections(args, which):
    factors = own(args["factors"])
    _, images = family_coords(own(args["gens"]), factors)
    return all(injective_images(images[i]) for i in which(len(factors)))


def _compatible_prepare(args, env):
    api = env.api
    ctx = api.prevariety.PrevarietyCtx(tuple(algs(api, args["gens"])))
    factors = algs(api, args["factors"])
    return lambda: api.prevariety.is_compatible(ctx, factors)


def _verdict_canon(out):
    return {"verdict": bool(out)}


def _compatible_check(args, c, env):
    expected = _injective_coprojections(args, range)
    return None if c["verdict"] == expected else f"expected {expected}"


KINDS["is_compatible"] = (_compatible_prepare, _verdict_canon, _compatible_check)


def _comfortable_prepare(args, env):
    api = env.api
    ctx = api.prevariety.PrevarietyCtx(tuple(algs(api, args["gens"])))
    a, b = algs(api, args["factors"])
    return lambda: api.prevariety.is_comfortable(ctx, a, b)


def _comfortable_check(args, c, env):
    expected = _injective_coprojections(args, lambda n: [0])
    return None if c["verdict"] == expected else f"expected {expected}"


KINDS["is_comfortable"] = (_comfortable_prepare, _verdict_canon, _comfortable_check)


# -- construct: the same verbs through the command line ----------------------------------


def _cli_prepare(argv_of):
    def prepare(args, env):
        argv = ["--json"] + argv_of(args, env.file_for)
        main = env.api.cli

        def run():
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = main.main(argv)
            return code, out.getvalue()
        return run
    return prepare


def _gen_flags(args, file_for):
    return [x for t in args["gens"] for x in ("--gen", file_for(t))]


def _cli_canon(out):
    code, text = out
    if code == 3 or not text.strip():
        raise NoVerdict(f"cli exit code {code} without a report")
    return {"exit": code, "report": json.loads(text)}


def _cli_free_check(args, c, env):
    gens = own(args["gens"])
    coords, seeds = free_coords(gens, args["n"])
    size = len(M.closure(gens[0].sig, coords, seeds))
    report = c["report"]
    if c["exit"] != 0 or report["size"] != size:
        return f"exit {c['exit']} size {report['size']}, expected size {size}"
    if args["spectrum"] is not None and size != args["spectrum"]:
        return f"closure gives {size}, spectrum says {args['spectrum']}"
    if report["cyclic_order"] != args["cyclic"]:
        return f"cyclic order {report['cyclic_order']}, expected {args['cyclic']}"
    return None


KINDS["cli_free"] = (
    _cli_prepare(lambda a, f: ["free", *_gen_flags(a, f), "-n", str(a["n"])]),
    _cli_canon, _cli_free_check)


def _cli_coproduct_check(args, c, env):
    gens, factors = own(args["gens"]), own(args["factors"])
    coords, images = family_coords(gens, factors)
    size = len(M.closure(gens[0].sig, coords, [t for per in images for t in per]))
    expected = {"size": size, "index_entries": len(coords),
                "coprojections_injective": [injective_images(per) for per in images]}
    return None if (c["exit"], c["report"]) == (0, expected) else f"expected {expected}"


KINDS["cli_coproduct"] = (
    _cli_prepare(lambda a, f: ["coproduct", *_gen_flags(a, f),
                               *[f(t) for t in a["factors"]]]),
    _cli_canon, _cli_coproduct_check)


def _cli_compatible_check(args, c, env):
    expected = _injective_coprojections(args, range)
    ok = c["exit"] == (0 if expected else 1) and c["report"] == {"compatible": expected}
    return None if ok else f"expected compatible={expected}"


KINDS["cli_compatible"] = (
    _cli_prepare(lambda a, f: ["compatible", *_gen_flags(a, f),
                               *[f(t) for t in a["factors"]]]),
    _cli_canon, _cli_compatible_check)


# -- separate: membership by point separation ------------------------------------------


def _member_prepare(fn_name):
    def prepare(args, env):
        api = env.api
        gens = algs(api, args["gens"])
        alg = api.algcore.FiniteAlgebra.from_json(args["alg"])
        return lambda: getattr(api.homsearch, fn_name)(alg, gens)
    return prepare


def _in_sp_check(args, c, env):
    ok, _ = M.separation(Alg.parse(args["alg"]), own(args["gens"]))
    return None if c["verdict"] == ok else f"expected {ok}"


KINDS["in_sp"] = (_member_prepare("in_sp"), _verdict_canon, _in_sp_check)


def _family_canon(out):
    ok, witness, homs = out
    return {"member": ok, "witness": list(witness) if witness else None,
            "homs": [[h.target.to_json(), list(h.mapping)] for h in homs]}


def _family_check(args, c, env):
    alg, gens = Alg.parse(args["alg"]), own(args["gens"])
    ok, witness = M.separation(alg, gens)
    if (c["member"], c["witness"]) != (ok, witness):
        return f"expected member={ok} witness={witness}"
    texts = set(args["gens"])
    pairs = [(x, y) for x in range(alg.size) for y in range(x + 1, alg.size)]
    if ok and len(c["homs"]) != len(pairs):
        return "one separating homomorphism per pair expected"
    for (x, y), (target, mapping) in zip(pairs, c["homs"]):
        if target not in texts or not M.is_hom(alg, Alg.parse(target), mapping):
            return f"pair {(x, y)}: not a homomorphism into a generator"
        if mapping[x] == mapping[y]:
            return f"pair {(x, y)} is not separated by its homomorphism"
    return None


KINDS["separating_family"] = (_member_prepare("separating_family"), _family_canon, _family_check)


def _embedding_canon(out):
    if isinstance(out, Exception):
        return {"member": False, "witness": list(out.witness)}
    prod, inj = out
    return {"member": True, "product": prod.to_json(), "mapping": list(inj.mapping)}


def _embedding_check(args, c, env):
    alg = Alg.parse(args["alg"])
    ok, witness = M.separation(alg, own(args["gens"]))
    if c["member"] != ok or (not ok and c["witness"] != witness):
        return f"expected member={ok} witness={witness}"
    if ok:
        prod = Alg.parse(c["product"])
        if not M.is_hom(alg, prod, c["mapping"]) or not injective_images(c["mapping"]):
            return "the embedding is not a one-to-one homomorphism"
    return None


def _embedding_prepare(args, env):
    api = env.api
    gens = algs(api, args["gens"])
    alg = api.algcore.FiniteAlgebra.from_json(args["alg"])

    def run():
        try:
            return api.homsearch.sp_embedding(alg, gens)
        except api.homsearch.MembershipError as exc:  # a refutation, with its witness
            return exc
    return run


KINDS["sp_embedding"] = (_embedding_prepare, _embedding_canon, _embedding_check)


def own_independent(gens, ambient: Alg, subsets):
    """Coproduct criterion for the subalgebra generated by the subsets, from
    first principles: every family of homs on the subsets into a generator
    agrees on overlaps and extends to the generated subalgebra."""
    span = sorted(M.closed_set(ambient, [x for s in subsets for x in s]))
    gen_alg, pos = M.restrict(ambient, span), {x: i for i, x in enumerate(span)}
    for g in gens:
        for family in itertools.product(*(M.homs(M.restrict(ambient, s), g) for s in subsets)):
            seed = {}
            for s, h in zip(subsets, family):
                for k, x in enumerate(sorted(s)):
                    if seed.setdefault(pos[x], h[k]) != h[k]:
                        return False
            if not M.homs(gen_alg, g, seed=seed, first=True):
                return False
    return True


def _independent_prepare(args, env):
    api = env.api
    ctx = api.prevariety.PrevarietyCtx(tuple(algs(api, args["gens"])))
    ambient = api.algcore.FiniteAlgebra.from_json(args["ambient"])
    subsets = args["subsets"]
    return lambda: api.prevariety.is_independent(ctx, ambient, subsets)


def _independent_check(args, c, env):
    gens, ambient = own(args["gens"]), Alg.parse(args["ambient"])
    if not M.separation(ambient, gens)[0]:
        return "the ambient algebra should be a member"
    expected = own_independent(gens, ambient, args["subsets"])
    return None if c["verdict"] == expected else f"expected {expected}"


KINDS["is_independent"] = (_independent_prepare, _verdict_canon, _independent_check)


def _chain_prepare(args, env):
    api = env.api
    a0 = api.algcore.FiniteAlgebra.from_json(args["a0"])
    chain, comps = args["chain"], args["components"]
    return lambda: api.prevariety.chain_independence(a0, chain, comps)


def _chain_canon(out):
    return {"independent": out.independent, "almost": out.almost_independent,
            "retractions": [list(r.mapping) if r else None for r in out.retractions]}


def _chain_check(args, c, env):
    a0 = Alg.parse(args["a0"])
    chain = [sorted(s) for s in args["chain"]]
    comps = [sorted(s) for s in args["components"]]
    levels = [list(range(a0.size))] + chain
    last = M.restrict(a0, levels[-1])
    if c["independent"] != own_independent([last], a0, comps):
        return "independence verdict is wrong"
    span = sorted(M.closed_set(a0, levels[-1] + [x for s in comps for x in s]))
    span_alg, pos = M.restrict(a0, span), {x: i for i, x in enumerate(span)}
    almost = True
    for family in itertools.product(*(M.homs(M.restrict(a0, s), last) for s in comps)):
        seed = {pos[x]: k for k, x in enumerate(levels[-1])}
        if any(seed.setdefault(pos[x], h[k]) != h[k]
               for s, h in zip(comps, family) for k, x in enumerate(s)):
            almost = False
            break
        if not M.homs(span_alg, last, seed=seed, first=True):
            almost = False
            break
    if c["almost"] != almost:
        return f"almost-independence should be {almost}"
    for i, r in enumerate(c["retractions"], start=1):
        if r is None:
            continue
        amb = levels[i - 1]
        local = {x: j for j, x in enumerate(amb)}
        amb_alg = M.restrict(a0, amb)
        a_loc = [local[x] for x in levels[i]]
        b_loc = [local[x] for x in comps[i - 1]]
        sp = sorted(M.closed_set(amb_alg, a_loc + b_loc))
        sp_pos = {x: j for j, x in enumerate(sp)}
        if not M.is_hom(M.restrict(amb_alg, sp), M.restrict(amb_alg, a_loc), r):
            return f"retraction {i} is not a homomorphism"
        if any(r[sp_pos[x]] != k for k, x in enumerate(a_loc)):
            return f"retraction {i} does not fix A_{i}"
    return None


KINDS["chain_independence"] = (_chain_prepare, _chain_canon, _chain_check)


# -- classify: congruences, irreducibility, canonical forms --------------------------------


def _alg_prepare(call):
    def prepare(args, env):
        api = env.api
        alg = api.algcore.FiniteAlgebra.from_json(args["alg"])
        return lambda: call(api, alg)
    return prepare


def _si_canon(out):
    ok, monolith = out
    return {"si": ok, "monolith": list(monolith.blocks) if monolith else None}


def _si_check(args, c, env):
    alg = Alg.parse(args["alg"])
    nontrivial = [p for p in M.congruences(alg) if len(set(p)) < alg.size]
    m = M.meet(nontrivial, alg.size)
    ok = len(set(m)) < alg.size
    expected = {"si": ok, "monolith": list(m) if ok else None}
    return None if c == expected else f"expected {expected}"


KINDS["subdirectly_irreducible"] = (
    _alg_prepare(lambda api, a: api.algcore.is_subdirectly_irreducible(a)), _si_canon, _si_check)


def _congruences_canon(out):
    return {"blocks": [list(c.blocks) for c in out]}


def _congruences_check(args, c, env):
    expected = sorted(list(p) for p in M.congruences(Alg.parse(args["alg"])))
    return None if sorted(c["blocks"]) == expected else f"expected {len(expected)} congruences"


KINDS["all_congruences"] = (
    _alg_prepare(lambda api, a: api.algcore.all_congruences(a)), _congruences_canon, _congruences_check)


def _rel_si_prepare(args, env):
    api = env.api
    ctx = api.prevariety.PrevarietyCtx(tuple(algs(api, args["gens"])))
    alg = api.algcore.FiniteAlgebra.from_json(args["alg"])
    return lambda: api.prevariety.is_p_subdirectly_irreducible(ctx, alg)


def _rel_si_check(args, c, env):
    alg, gens = Alg.parse(args["alg"]), own(args["gens"])
    relative = [p for p in M.congruences(alg)
                if len(set(p)) < alg.size and M.separation(M.quotient(alg, p), gens)[0]]
    expected = len(set(M.meet(relative, alg.size))) < alg.size
    if args["known"] is not None and args["known"] != expected:
        return f"oracle disagrees with the known answer {args['known']}"
    return None if c["verdict"] == expected else f"expected {expected}"


KINDS["rel_si"] = (_rel_si_prepare, _verdict_canon, _rel_si_check)


def _canonical_canon(out):
    size, key = out
    return {"size": size, "tables": [list(t) for t in key]}


def _canonical_check(args, c, env):
    alg = Alg.parse(args["alg"])
    form = Alg(alg.sig, c["size"], {n: t for (n, _), t in zip(alg.sig, c["tables"])})
    if not M.isomorphic(alg, form):
        return "canonical form is not isomorphic to the input"
    own_key = [list(alg.ops[n]) for n, _ in alg.sig]
    if c["tables"] > own_key:
        return "canonical form is not the least relabelled table"
    plain = env.api.plain
    moved = M.relabel(alg, args["perm"])
    again = plain.algcore.canonical_form(plain.algcore.FiniteAlgebra.from_json(moved.text()))
    if _canonical_canon(again) != c:
        return "canonical form changes under relabelling"
    return None


KINDS["canonical_form"] = (
    _alg_prepare(lambda api, a: api.algcore.canonical_form(a)), _canonical_canon, _canonical_check)


def _members_prepare(args, env):
    api = env.api
    ctx = api.prevariety.PrevarietyCtx(tuple(algs(api, args["gens"])))
    k = args["k"]
    return lambda: api.prevariety.enumerate_members(ctx, k)


def _members_canon(out):
    return {"members": [a.to_json() for a in out]}


def _members_check(args, c, env):
    members, gens = own(c["members"]), own(args["gens"])
    if len(members) != args["known"]:
        return f"{len(members)} isomorphism classes, known count {args['known']}"
    for i, a in enumerate(members):
        if a.size > args["k"] or not M.separation(a, gens)[0]:
            return f"member {i} is not in SP of the generators"
        if any(M.isomorphic(a, b) for b in members[:i]):
            return f"member {i} repeats an isomorphism class"
    return None


KINDS["enumerate_members"] = (_members_prepare, _members_canon, _members_check)


def _qid_prepare(args, env):
    api = env.api
    alg = api.algcore.FiniteAlgebra.from_json(args["alg"])
    q = api.prevariety.parse_quasi_identity(args["text"], alg.signature)
    return lambda: api.prevariety.quasi_identity_holds(alg, q)


def _eval(alg: Alg, term, env):
    if isinstance(term, str):
        return env[term]
    return alg.apply(term[0], [_eval(alg, a, env) for a in term[1]])


def _qid_check(args, c, env):
    alg = Alg.parse(args["alg"])
    names = args["variables"]
    holds = True
    for values in itertools.product(range(alg.size), repeat=len(names)):
        v = dict(zip(names, values))
        if all(_eval(alg, l, v) == _eval(alg, r, v) for l, r in args["premises"]):
            l, r = args["conclusion"]
            if _eval(alg, l, v) != _eval(alg, r, v):
                holds = False
                break
    return None if c["verdict"] == holds else f"expected {holds}"


KINDS["quasi_identity_holds"] = (_qid_prepare, _verdict_canon, _qid_check)


# -- rewrite: string rewriting ----------------------------------------------------------------


def monoid_of(args):
    """The transformation monoid generated by the letters' actions (a faithful
    model of the presented monoid), and the word -> element map."""
    acts = {a: tuple(t) for a, t in zip(args["alphabet"], args["model"])}
    ident = tuple(range(len(args["model"][0])))

    def value(word):
        v = ident
        for letter in word:
            t = acts[letter]
            v = tuple(v[t[x]] for x in range(len(v)))
        return v
    return value


def least_words(args, env):
    """Shortlex-least word of every element of the model monoid."""
    key = ("least", json.dumps(args["model"]), tuple(args["alphabet"]))
    if key not in env.memo:
        value, out = monoid_of(args), {}
        length, frontier = 0, [()]
        while frontier:
            fresh = []
            for w in frontier:
                v = value(w)
                if v not in out:
                    out[v] = w
                    fresh.append(w)
            frontier = [w + (a,) for w in fresh for a in args["alphabet"]]
            length += 1
        env.memo[key] = out
    return env.memo[key]


def _kb_prepare(args, env):
    api = env.api
    pres = api.srs.parse_presentation(args["text"])

    def run():
        result = api.srs.knuth_bendix(pres)
        env.systems[args["system"]] = result.system
        return result
    return run


def _kb_canon(out):
    if not out.completed:
        raise NoVerdict(f"completion incomplete: {out.reason}")
    return {"rules": [[list(l), list(r)] for l, r in out.system.rules]}


def _irreducible_count(rules, alphabet, cap):
    count, frontier = 0, [()]
    while frontier and count <= cap:
        count += len(frontier)
        frontier = [w + (a,) for w in frontier for a in alphabet
                    if not any((w + (a,))[-len(l):] == l for l, _ in rules)]
    return count


def _kb_check(args, c, env):
    rules = [(tuple(l), tuple(r)) for l, r in c["rules"]]
    relations = [(tuple(l), tuple(r)) for l, r in args["relations"]]
    if not M.confluent(rules):
        return "the completed system is not confluent"
    if any(M.rewrite_nf(rules, l) != M.rewrite_nf(rules, r) for l, r in relations):
        return "a defining relation does not hold in the completed system"
    if args.get("model"):
        value = monoid_of(args)
        if any(value(l) != value(r) for l, r in rules):
            return "a rule does not hold in the presented monoid"
        order = len(least_words(args, env))
        if _irreducible_count(rules, args["alphabet"], order) != order:
            return f"irreducible words do not match the {order} monoid elements"
    else:
        if not all(M.derivable(relations, l, r) for l, r in rules):
            return "a rule is not derivable from the relations"
    for verdict, u, v in args.get("facts", []):
        if (M.rewrite_nf(rules, u) == M.rewrite_nf(rules, v)) != (verdict == "equal"):
            return f"known fact {verdict} {u} {v} fails"
    return None


KINDS["knuth_bendix"] = (_kb_prepare, _kb_canon, _kb_check)


def _reduce_prepare(args, env):
    api = env.api
    word = tuple(args["word"])
    return lambda: api.srs.reduce(env.systems[args["system"]], word)


def _reduce_check(args, c, env):
    expected = list(least_words(args, env)[monoid_of(args)(args["word"])])
    return None if c["word"] == expected else f"expected {expected}"


KINDS["reduce"] = (_reduce_prepare, lambda out: {"word": list(out)}, _reduce_check)


def _words_equal_prepare(args, env):
    api = env.api
    u, v = tuple(args["u"]), tuple(args["v"])
    return lambda: api.srs.words_equal(env.systems[args["system"]], u, v)


def _words_equal_check(args, c, env):
    value = monoid_of(args)
    expected = value(args["u"]) == value(args["v"])
    return None if c["verdict"] == expected else f"expected {expected}"


KINDS["words_equal"] = (_words_equal_prepare, _verdict_canon, _words_equal_check)


# -- rewrite: amalgamated free products of symmetric groups -----------------------------------


def _compose(a, b):
    """(a*b)(x) = a(b(x)), prevar's composition of permutations."""
    return tuple(a[x] for x in b)


@functools.lru_cache(maxsize=None)
def _sym_tables(n):
    """Sym(n) as prevar numbers it (sorted permutation tuples), the least
    permutation of each left coset of H, the stabiliser of the last point
    (the coset of p is fixed by p(n-1)), and H's members in that order."""
    perms = sorted(itertools.permutations(range(n)))
    least = {}
    for p in perms:
        least.setdefault(p[n - 1], p)
    stab = [p for p in perms if p[n - 1] == n - 1]
    return (perms, {p: i for i, p in enumerate(perms)}, least,
            {p: i for i, p in enumerate(stab)})


def own_amalgam_normal_form(n, word):
    """Normal form of a word of (factor, element) letters in sym_stab_amalgam(n),
    reduced left to right: alternating non-identity least coset
    representatives r1 ... rm, then a tail h in H, with the word equal to
    r1 ... rm h.  prevar folds right to left; both must reach the one normal
    form of the transversals."""
    perms, index, least, stab_index = _sym_tables(n)
    reps, tail = [], perms[0]
    for k, g in word:
        x = _compose(tail, perms[g])
        if reps and reps[-1][0] == k:
            x = _compose(reps.pop()[1], x)
        r = least[x[n - 1]]
        inverse = [0] * n
        for i, v in enumerate(r):
            inverse[v] = i
        tail = _compose(tuple(inverse), x)
        if r != perms[0]:
            reps.append((k, r))
    return {"reps": [[k, index[r]] for k, r in reps], "tail": stab_index[tail]}


def _element_canon(out):
    return {"reps": [list(r) for r in out.reps], "tail": out.tail}


def _am_nf_prepare(args, env):
    api = env.api
    ctx, word = env.amalgam(args["n"]), [tuple(x) for x in args["word"]]
    return lambda: api.amalgam.normal_form(ctx, word)


def _am_nf_check(args, c, env):
    return None if c == own_amalgam_normal_form(args["n"], args["word"]) else "wrong normal form"


KINDS["amalgam_normal_form"] = (_am_nf_prepare, _element_canon, _am_nf_check)


def _am_mul_prepare(args, env):
    api = env.api
    ctx = env.amalgam(args["n"])
    a = api.amalgam.normal_form(ctx, [tuple(x) for x in args["word"]])
    b = api.amalgam.normal_form(ctx, [tuple(x) for x in args["other"]])
    return lambda: api.amalgam.multiply(ctx, a, b)


def _am_mul_check(args, c, env):
    expected = own_amalgam_normal_form(args["n"], args["word"] + args["other"])
    return None if c == expected else "product has the wrong normal form"


KINDS["amalgam_multiply"] = (_am_mul_prepare, _element_canon, _am_mul_check)


def _am_torsion_prepare(args, env):
    api = env.api
    ctx = env.amalgam(args["n"])
    el = api.amalgam.normal_form(ctx, [tuple(x) for x in args["word"]])
    return lambda: api.amalgam.is_torsion(ctx, el)


def _am_torsion_check(args, c, env):
    """Powers check: a torsion element has a power equal to the identity; an
    element of infinite order has powers of strictly growing length."""
    lengths, order = [], None
    for k in range(1, 25):
        el = own_amalgam_normal_form(args["n"], args["word"] * k)
        if el == {"reps": [], "tail": 0}:
            order = k
            break
        lengths.append(len(el["reps"]))
    if c["verdict"] != (order is not None):
        return f"powers check says torsion={order is not None}"
    if order is None and not all(a < b for a, b in zip(lengths[3:], lengths[4:])):
        return "powers of an element of infinite order should grow"
    return None


KINDS["is_torsion"] = (_am_torsion_prepare, _verdict_canon, _am_torsion_check)


def _am_scan_prepare(args, env):
    api = env.api
    ctx, string = env.amalgam(args["n"]), [tuple(x) for x in args["string"]]
    return lambda: api.amalgam.coset_torsion_scan(ctx, string)


def _am_scan_check(args, c, env):
    length = len(args["string"])
    expected = length == 0 or length % 2 == 1
    return None if c["verdict"] == expected else f"parity rule says {expected}"


KINDS["coset_torsion_scan"] = (_am_scan_prepare, _verdict_canon, _am_scan_check)


# -- rewrite: normal forms of the two tag varieties ------------------------------------------


def own_survives(rule, u, v, w):
    """Survival of t(u, v, w) on pure words straight from the identity schema."""
    def extends(x, y):
        return x[1] == y[1] and x[0].endswith(y[0])

    if rule == "two-generated":
        stems = {(x[0][i:], x[1]) for x in (u, v, w) for i in range(len(x[0]) + 1)}
        return not any(all(extends(x, e) or extends(x, f) for x in (u, v, w))
                       for e in stems for f in stems)
    split = v[1] == w[1] and v[0][:1] == "p" and w[0][:1] == "q" and v[0][1:] == w[0][1:]
    return not (split or extends(u, v) or extends(u, w))


def own_normal_form(rule, term):
    if term[0] == "0":
        return ["0"]
    if term[0] == "w":
        return ["w", term[1], term[2]]
    args = [own_normal_form(rule, a) for a in term[1:]]
    if all(a[0] == "w" for a in args) and own_survives(rule, *[(a[1], a[2]) for a in args]):
        return ["t", *args]
    return ["0"]


def free_element(el):
    name = type(el).__name__
    if name == "Zero":
        return ["0"]
    if name == "Word":
        return ["w", el.letters, el.gen]
    return ["t", free_element(el.u), free_element(el.v), free_element(el.w)]


def _rule(api, name):
    return api.freeness.CollapseRule(name)


def _fr_nf_prepare(args, env):
    api = env.api
    ctx = api.freeness.FreeTermContext(_rule(api, args["rule"]), args["gens"])
    term = api.freeness.parse_free_term(args["text"])
    return lambda: api.freeness.normal_form(ctx, term)


def _fr_nf_check(args, c, env):
    expected = own_normal_form(args["rule"], args["term"])
    return None if c["element"] == expected else f"expected {expected}"


KINDS["free_normal_form"] = (_fr_nf_prepare, lambda out: {"element": free_element(out)}, _fr_nf_check)


def _fr_tag_prepare(args, env):
    api = env.api
    rule = _rule(api, args["rule"])
    words = [api.freeness.Word(l, g) for l, g in args["words"]]
    return lambda: api.freeness.tag_survives(rule, *words)


def _fr_tag_check(args, c, env):
    expected = own_survives(args["rule"], *[tuple(x) for x in args["words"]])
    return None if c["verdict"] == expected else f"expected {expected}"


KINDS["tag_survives"] = (_fr_tag_prepare, _verdict_canon, _fr_tag_check)


def _fr_pair_prepare(args, env):
    api = env.api
    rule = _rule(api, args["rule"])
    return lambda: api.freeness.verify_free_pair(rule, args["depth"])


def _fr_pair_check(args, c, env):
    words = 2 * (2 ** (args["depth"] + 1) - 1)
    expected = {"checked": words ** 3, "collisions": 0, "failures": 0}
    return None if c == expected else f"expected {expected}"


KINDS["verify_free_pair"] = (
    _fr_pair_prepare,
    lambda out: {"checked": out.word_triples_checked, "collisions": out.collisions,
                 "failures": len(out.failures)},
    _fr_pair_check)


def _fr_witness_prepare(args, env):
    api = env.api
    a, b, c = args["words"]
    return lambda: api.freeness.witness_triple_hom(a, b, c)


def _fr_witness_check(args, c, env):
    expected = [["w", w, 0] for w in args["words"]]
    return None if c["images"] == expected else f"expected {expected}"


KINDS["witness_triple_hom"] = (
    _fr_witness_prepare, lambda out: {"images": [free_element(e) for e in out.images]},
    _fr_witness_check)


def _fr_agree_prepare(args, env):
    api = env.api
    rule = _rule(api, args["rule"])
    return lambda: api.freeness.survival_oracle_agreement(rule, args["length"], args["gens"])


def _fr_agree_check(args, c, env):
    words = args["gens"] * (2 ** (args["length"] + 1) - 1)
    expected = {"checked": words ** 3, "disagreements": 0}
    return None if c == expected else f"expected {expected}"


KINDS["survival_oracle_agreement"] = (
    _fr_agree_prepare, lambda out: {"checked": out[0], "disagreements": len(out[1])},
    _fr_agree_check)
