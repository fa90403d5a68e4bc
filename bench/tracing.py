"""Per-layer tracing from outside prevar.

Every public function of a layer module is replaced, in every prevar
module that holds a reference to it (prevar modules import names
directly), by a wrapper that records one span: name, start, end, parent
span and query id.  The validating constructors of ``Homomorphism`` and
``Congruence`` are wrapped through ``__post_init__``.  Spans stay in
memory as columns and are written out when the run ends.

Self time is a span's duration minus the time covered by its child spans.
"""

from __future__ import annotations

import inspect
import json
import time
from array import array
from collections import defaultdict

LAYERS = ("algcore", "homsearch", "prevariety", "freeness", "srs", "amalgam", "cli")

# Helpers called thousands of times inside one call of their own layer.  A
# span each would cost more than the work it measures, so they are traced
# only where another layer (or the benchmark) calls them.
LEAF_HELPERS = {
    "algcore": {"eval_term", "term_variables", "apply_relabeling"},
    "srs": {"reduce", "shortlex_key", "critical_pairs"},
    "amalgam": {"identity_element", "to_word", "multiply", "inverse", "power", "normal_form"},
    "freeness": {"tag_survives", "make_tag", "apply_letter", "apply_word", "normal_form",
                 "collapses_by_schema_instances", "pair_hom", "subst_hom", "embed"},
    "prevariety": {"format_term"},
}

PER_QUERY = ("homsearch.homs_returned", "algcore.hom_checks",
             "prevariety.carrier_elems", "algcore.congruence_checks")

ISO = {"algcore.canonical_form", "algcore.find_isomorphism", "algcore.are_isomorphic"}


class Tracer:
    def __init__(self, api):
        self.api = api
        self.names: list[str] = []
        self.cols = {c: array("i" if c in ("name", "parent", "query") else "d")
                     for c in ("name", "start", "end", "parent", "query")}
        self.stack: list[list] = []
        self.query = -1
        self.counts = defaultdict(float)
        self.patches: list[tuple] = []
        self.per_query: list[dict] = []
        self._mark = {}
        self._iso_open = 0

    # -- installing -------------------------------------------------------------------

    def install(self):
        """Wrap every public function of every layer.

        The benchmark's own call table (``api.<layer>``) is always patched;
        inside prevar, a leaf helper is left alone in its own module.
        """
        api = self.api
        wrappers = {}
        for layer in LAYERS:
            mod = api.modules[layer]
            for name, fn in vars(mod).items():
                if (not name.startswith("_") and inspect.isfunction(fn)
                        and fn.__module__ == mod.__name__):
                    wrappers[fn] = (layer, name, self._wrap(fn, layer, f"{layer}.{name}"))
        owners = list(api.modules.values()) + [getattr(api, layer) for layer in LAYERS]
        for owner in owners:
            for attr, value in list(vars(owner).items()):
                if inspect.isfunction(value) and value in wrappers:
                    layer, name, wrapper = wrappers[value]
                    if owner is api.modules[layer] and name in LEAF_HELPERS.get(layer, ()):
                        continue
                    self._patch(owner, attr, wrapper)
        for cls in (api.algcore.Homomorphism, api.algcore.Congruence):
            self._patch(cls, "__post_init__",
                        self._wrap(cls.__post_init__, "algcore", f"algcore.{cls.__name__}"))

    def _patch(self, owner, attr, value):
        self.patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, original in reversed(self.patches):
            setattr(owner, attr, original)
        self.patches.clear()

    # -- recording ---------------------------------------------------------------------

    def _wrap(self, fn, layer, name):
        nid = len(self.names)
        self.names.append(name)
        cols, stack, counts = self.cols, self.stack, self.counts
        c_name, c_start, c_end = cols["name"], cols["start"], cols["end"]
        c_parent, c_query = cols["parent"], cols["query"]
        budget_error = self.api.algcore.BudgetExceededError
        hook = HOOKS.get(name)
        checked = CHECKS.get(name)
        clock = time.perf_counter
        self_key, calls_key = f"{layer}.self_s", f"{layer}.calls"
        tracer = self

        def wrapper(*args, **kwargs):
            sid = len(c_name)
            c_name.append(nid)
            c_parent.append(stack[-1][0] if stack else -1)
            c_query.append(tracer.query)
            c_start.append(0.0)
            c_end.append(0.0)
            frame = [sid, 0.0, 0]
            stack.append(frame)
            if name in ISO:
                tracer._iso_open += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except budget_error as exc:
                if not getattr(exc, "bench_layer", None):
                    exc.bench_layer = layer
                    counts[f"{layer}.budget_errors"] += 1
                raise
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                c_start[sid] = t0
                c_end[sid] = t1
                if stack:
                    stack[-1][1] += dur
                counts[self_key] += dur - frame[1]
                counts[calls_key] += 1
                if checked:
                    counts[checked + "s"] += 1
                    counts[checked + "_s"] += dur
                if name in ISO:
                    tracer._iso_open -= 1
                    if not tracer._iso_open:
                        counts["algcore.iso_s"] += dur
            if hook:
                hook(tracer, result, args, kwargs, dur, frame)
            return result

        wrapper.__wrapped__ = fn
        wrapper.bench_wrapper = True
        return wrapper

    def begin_query(self, index):
        self.query = index
        self._mark = {k: self.counts[k] for k in PER_QUERY}

    def end_query(self, answered: bool):
        counts = {k: self.counts[k] - self._mark[k] for k in PER_QUERY}
        self.per_query.append({"ok": answered, **counts})
        self.query = -1

    # -- reporting ---------------------------------------------------------------------

    def metrics(self) -> dict:
        c = self.counts
        out = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = (c[f"{layer}.self_s"], "s")
            out[f"{layer}.calls"] = (c[f"{layer}.calls"], "count")
            out[f"{layer}.budget_errors"] = (c[f"{layer}.budget_errors"], "count")
        for key, unit in (("prevariety.carrier_elems", "count"),
                          ("prevariety.index_entries", "count"),
                          ("homsearch.homs_returned", "count"),
                          ("homsearch.enum_s", "s"), ("homsearch.first_s", "s"),
                          ("algcore.hom_checks", "count"), ("algcore.hom_check_s", "s"),
                          ("algcore.congruences_s", "s"),
                          ("algcore.congruence_checks", "count"),
                          ("algcore.congruence_check_s", "s"),
                          ("algcore.iso_s", "s"), ("srs.rules", "count")):
            out[key] = (c[key], unit)
        enumerated = c["homsearch.sep_enumerated"]
        out["homsearch.sep_useful_ratio"] = (
            c["homsearch.sep_chosen"] / enumerated if enumerated else 0.0, "ratio")
        return out

    def table(self) -> list[str]:
        total = sum(self.counts[f"{layer}.self_s"] for layer in LAYERS) or 1.0
        lines = [f"{'layer':<12}{'calls':>10}{'self_s':>12}{'share':>8}"]
        for layer in LAYERS:
            s = self.counts[f"{layer}.self_s"]
            lines.append(f"{layer:<12}{int(self.counts[f'{layer}.calls']):>10}"
                         f"{s:>12.4f}{100 * s / total:>7.1f}%")
        return lines

    def write(self, base: str):
        """Spans as raw columns in ``base.bin``, described by ``base.json``."""
        order = ("name", "start", "end", "parent", "query")
        with open(base + ".bin", "wb") as fh:
            for col in order:
                self.cols[col].tofile(fh)
        with open(base + ".json", "w") as fh:
            json.dump({"count": len(self.cols["name"]), "names": self.names,
                       "columns": [[c, self.cols[c].typecode, self.cols[c].itemsize]
                                   for c in order]}, fh)


# -- counts taken from results at the layer boundary ---------------------------------------


def _find_homs(tracer, result, args, kwargs, dur, frame):
    budget = args[3] if len(args) > 3 else kwargs.get("budget")
    cap = getattr(budget, "max_solutions", None)
    tracer.counts["homsearch.homs_returned"] += len(result)
    tracer.counts["homsearch.enum_s" if cap is None else "homsearch.first_s"] += dur
    if tracer.stack:
        tracer.stack[-1][2] += len(result)


def _separating(tracer, result, args, kwargs, dur, frame):
    tracer.counts["homsearch.sep_chosen"] += len({id(h) for h in result[2]})
    tracer.counts["homsearch.sep_enumerated"] += frame[2]


def _free(tracer, result, args, kwargs, dur, frame):
    ctx = args[0] if args else kwargs["ctx"]
    n = args[1] if len(args) > 1 else kwargs["n"]
    tracer.counts["prevariety.carrier_elems"] += result[0].size
    tracer.counts["prevariety.index_entries"] += sum(g.size ** n for g in ctx.generators)


def _coproduct(tracer, result, args, kwargs, dur, frame):
    tracer.counts["prevariety.carrier_elems"] += result.algebra.size
    tracer.counts["prevariety.index_entries"] += len(result.index_metadata)


def _timed(key):
    def hook(tracer, result, args, kwargs, dur, frame):
        tracer.counts[key] += dur
    return hook


def _rules(tracer, result, args, kwargs, dur, frame):
    tracer.counts["srs.rules"] += len(result.system.rules)


# validations counted whether they accept or reject
CHECKS = {"algcore.Homomorphism": "algcore.hom_check",
          "algcore.Congruence": "algcore.congruence_check"}

HOOKS = {
    "homsearch.find_homomorphisms": _find_homs,
    "homsearch.separating_family": _separating,
    "prevariety.free_algebra": _free,
    "prevariety.coproduct": _coproduct,
    "prevariety.amalgamated_coproduct": _coproduct,
    "algcore.all_congruences": _timed("algcore.congruences_s"),
    "srs.knuth_bendix": _rules,
}
