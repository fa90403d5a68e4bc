#!/usr/bin/env python3
"""Verdict-latency benchmark for prevar.

    python3 bench/run.py --workload construct --seed 1 --seconds 20 --trace 0

One process runs one workload as a closed loop: a single client sends
seeded queries one after another, each one call into prevar's public API
or into ``prevar.cli.main([..., "--json"])``, the next starting when the
previous returns.  Each query runs under an in-process deadline
(``signal.setitimer``); a query that passes it is stopped, counted as
failed and timed at the deadline.  Every verdict is checked by an oracle
in the benchmark's own code (``model``, ``kinds``) outside the timed
region.

With ``--trace 0`` the last line of standard output holds the end-to-end
metrics, with ``--trace 1`` the per-layer metrics of a traced run (see
``tracing``).  A result file with provenance, failures and output digests
goes to ``bench/out``.  A wrong verdict fails the run: the process prints
what was wrong, no metrics, and exits with code 1.  prevar is imported from ``src`` next to this
directory; without it the benchmark stops with an error before any run.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import types

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

import kinds  # noqa: E402  (the benchmark's own modules sit next to this file)
import streams  # noqa: E402
from tracing import LAYERS, Tracer  # noqa: E402

# Deadline per query, in seconds.  No query of the streams fails today: at
# the parent commit on a 2-core x86 box the slowest answers took 0.22 s
# (construct), 0.14 s (separate), 1.23 s (classify, a canonical form of
# size 8) and 0.09 s (rewrite), so the deadline leaves a margin of four and
# more.  A query that passes it counts as failed.
DEADLINE_S = 5.0
# Tracing slows calls down (by 1.03 to 1.22 on the workloads' mixes); the
# traced run stretches deadlines by this much so that traced calls do not
# reach them either.
TRACE_STRETCH = 1.5
# Rounds generated at set-up; the stream cycles through them, and a repeated
# input must give the same output digest.  A run passes through its pool
# several times, so the point where it stops moves its mix little; classify's
# rounds are slow, so it has five, one per census slice.
POOL_ROUNDS = {"construct": 16, "separate": 48, "classify": 5, "rewrite": 64}
# Set-up is timed once in the run's own process and once in each of
# SETUP_PROBES - 1 fresh processes, each time scaled by reference-loop
# timings taken around it (see REFERENCE_S); setup_s is the median.
SETUP_PROBES = 9
OUT = os.path.join(HERE, "out")
# Times are reported in seconds of a nominal machine on which
# ``reference_loop`` takes REFERENCE_S.  The loop is timed every
# REFERENCE_EVERY_S of query time, and each query's time is scaled by
# REFERENCE_S over the mean of the REFERENCE_WINDOW samples nearest to it.
# On a shared 2-core box the speed of the same code swings by 30% and more,
# within seconds; the scaled figures follow prevar, not the neighbours.  Raw
# figures go to the result file.  Deadlines stay in real seconds.
REFERENCE_S = 0.002
REFERENCE_EVERY_S = 0.025
REFERENCE_WINDOW = 5

END_TO_END = {
    "setup_s": "s", "verdict_s.p50": "s", "verdict_s.p90": "s",
    "queries_per_s": "1/s", "verdict_ratio": "fraction", "peak_rss_mb": "MB",
}


class Deadline(BaseException):
    """Raised by SIGALRM inside a query; not an Exception, so prevar's own
    handlers cannot swallow it."""


def _alarm(signum, frame):
    raise Deadline()


def reference_loop():
    """Fixed pure-Python work of the kind prevar does: tuples, dict lookups,
    list appends."""
    table, out = {}, []
    for i in range(6000):
        t = (i & 63, i >> 6)
        table[t] = table.get((t[1], t[0]), 0) + len(out) % 7
        out.append(t)
    return len(table)


def reference_time() -> float:
    gc.disable()
    try:
        t0 = time.perf_counter()
        reference_loop()
        return time.perf_counter() - t0
    finally:
        gc.enable()


# -- set-up ------------------------------------------------------------------------------


def import_prevar():
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "prevar", "__init__.py")):
        sys.exit(f"error: no prevar sources under {src}")
    sys.path.insert(0, src)
    package = importlib.import_module("prevar")
    if os.path.dirname(os.path.dirname(os.path.abspath(package.__file__))) != src:
        sys.exit(f"error: imported prevar from {package.__file__}, not from {src}")
    modules = {"package": package}
    for layer in LAYERS:
        modules[layer] = importlib.import_module(f"prevar.{layer}")
    api = types.SimpleNamespace(modules=modules)
    # the benchmark calls through copies of the module namespaces, so the
    # tracer can wrap its calls apart from calls inside prevar
    for layer in LAYERS:
        setattr(api, layer, types.SimpleNamespace(**vars(modules[layer])))
    # oracles call prevar through another copy that tracing leaves alone
    api.plain = types.SimpleNamespace(
        **{layer: types.SimpleNamespace(**vars(modules[layer])) for layer in LAYERS})
    return api


class Env:
    """What query preparation and oracles share: the API, input files for the
    CLI, rewrite systems produced by earlier queries, oracle memos."""

    def __init__(self, api, work_dir):
        self.api = api
        self.work_dir = work_dir
        self.systems = {}
        self.memo = {}
        self._amalgams = {}

    def file_for(self, text: str) -> str:
        path = os.path.join(self.work_dir, hashlib.sha256(text.encode()).hexdigest()[:16] + ".alg")
        if not os.path.exists(path):
            with open(path, "w") as fh:
                fh.write(text + "\n")
        return path

    def amalgam(self, n):
        if n not in self._amalgams:
            self._amalgams[n] = self.api.amalgam.sym_stab_amalgam(n)
        return self._amalgams[n]


class Query:
    __slots__ = ("qid", "kind", "args", "key", "thunk")

    def __init__(self, qid, kind, args, key, env):
        self.qid, self.kind, self.args, self.key = qid, kind, args, key
        self.thunk = kinds.KINDS[kind][0](args, env)


def query_specs(workload, seed):
    """(qid, kind, args, key) of every query in the pool, made by the
    benchmark's own generators before set-up is timed."""
    return [(f"r{r}.{s}", kind, args, digest([kind, args]))
            for r in range(POOL_ROUNDS[workload])
            for s, (kind, args) in enumerate(streams.round_specs(workload, seed, r))]


def setup(specs, work_dir):
    """Import prevar and prepare every query, parsing its inputs with prevar:
    the set-up that setup_s times."""
    api = import_prevar()
    os.makedirs(work_dir, exist_ok=True)
    env = Env(api, work_dir)
    return env, [Query(qid, kind, args, key, env) for qid, kind, args, key in specs]


def timed_setup(specs, work_dir):
    """setup(), its time, and the median of reference-loop timings taken just
    before and after it, which scales that time to the nominal machine."""
    reference = [reference_time() for _ in range(5)]
    t0 = time.perf_counter()
    env, pool = setup(specs, work_dir)
    elapsed = time.perf_counter() - t0
    reference += [reference_time() for _ in range(5)]
    return env, pool, [elapsed, statistics.median(reference)]


def probe_setup(workload, seed, count):
    """timed_setup() samples of fresh processes, as each reports it."""
    samples = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload,
             "--seed", str(seed), "--setup-probe"],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=120)
        if proc.returncode != 0:
            sys.exit("error: set-up probe failed")
        samples.append(json.loads(proc.stdout.splitlines()[-1]))
    return samples


# -- the query stream ----------------------------------------------------------------------


def timed_call(thunk, deadline, budget_error):
    """(output, failure reason or None, latency)."""
    t0 = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, deadline)
        try:
            out = thunk()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        return out, None, time.perf_counter() - t0
    except Deadline:
        return None, "deadline", deadline
    except budget_error as exc:
        return None, f"budget: {exc}", time.perf_counter() - t0
    except Exception as exc:  # any other exception is a query with no verdict
        return None, f"exception: {type(exc).__name__}: {exc}", time.perf_counter() - t0


def digest(data) -> str:
    return hashlib.sha256(json.dumps(data, sort_keys=True).encode()).hexdigest()[:16]


def run_stream(pool, env, deadline, seconds, limit, tracer=None):
    """Closed loop over the pool until ``seconds`` of query time (or ``limit``
    queries) have passed; verdicts are checked after each query."""
    budget_error = env.api.algcore.BudgetExceededError
    latencies, outcomes, overruns, failures, wrong, digests = [], [], [], {}, [], {}
    reference, nearest, next_reference = [], [], 0.0
    measured, i = 0.0, 0
    wall_cap = time.perf_counter() + 4 * seconds + 60
    while (i < limit) if limit else (measured < seconds and time.perf_counter() < wall_cap):
        if measured >= next_reference:
            reference.append(reference_time())
            next_reference += REFERENCE_EVERY_S
        query = pool[i % len(pool)]
        if tracer:
            tracer.begin_query(i)
        out, reason, latency = timed_call(query.thunk, deadline, budget_error)
        if tracer:
            tracer.end_query(reason is None)
        measured += latency
        latencies.append(latency)
        overruns.append(reason == "deadline")
        nearest.append(len(reference) - 1)
        if reason is None:
            _, canon, check = kinds.KINDS[query.kind]
            try:
                data = canon(out)
            except kinds.NoVerdict as exc:
                reason = str(exc)
        if reason is not None:
            failure = failures.setdefault(query.key, {
                "qid": query.qid, "kind": query.kind, "reason": reason.splitlines()[0][:200],
                "count": 0})
            failure["count"] += 1
        else:
            d = digest(data)
            known = digests.get(query.key)
            if known is None:
                problem = check(query.args, data, env)
                digests[query.key] = {"qid": query.qid, "kind": query.kind, "digest": d}
                if problem:
                    wrong.append({"qid": query.qid, "kind": query.kind, "problem": problem})
            elif known["digest"] != d:
                wrong.append({"qid": query.qid, "kind": query.kind,
                              "problem": "output differs from an earlier run of the same input"})
        outcomes.append(reason is None)
        i += 1
    return {"latencies": latencies, "ok": outcomes, "overruns": overruns, "measured": measured,
            "failures": failures, "wrong": wrong, "digests": digests, "reference": reference,
            "nearest": nearest}


def local_scales(reference):
    """Per reference sample, REFERENCE_S over the mean of the samples nearest to it."""
    half = REFERENCE_WINDOW // 2
    return [REFERENCE_S / statistics.mean(reference[max(0, j - half):j + half + 1])
            for j in range(len(reference))]


def overhead_ratio(pool, stream, deadline, budget_error):
    """Run the traced stream's queries again without tracing: traced time over
    untraced time, both scaled to the nominal machine, over the queries that
    answered both times."""
    traced = untraced = measured = 0.0
    reference = []
    for i, (latency, ok) in enumerate(zip(stream["latencies"], stream["ok"])):
        if measured >= len(reference) * REFERENCE_EVERY_S:
            reference.append(reference_time())
        _, reason, again = timed_call(pool[i % len(pool)].thunk, deadline, budget_error)
        measured += again
        if ok and reason is None:
            traced += latency
            untraced += again
    if not untraced:
        return 0.0
    return (traced / statistics.mean(stream["reference"])) / (untraced / statistics.mean(reference))


# -- reporting -------------------------------------------------------------------------------


def wrappers_installed(api) -> int:
    owners = list(api.modules.values()) + [getattr(api, layer) for layer in LAYERS]
    found = sum(1 for owner in owners for v in vars(owner).values()
                if getattr(v, "bench_wrapper", False))
    for cls in (api.algcore.Homomorphism, api.algcore.Congruence):
        found += bool(getattr(cls.__post_init__, "bench_wrapper", False))
    return found


def provenance(args):
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or None
    except OSError:
        commit = None
    src = os.path.join(ROOT, "src", "prevar")
    h = hashlib.sha256()
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return {"python": platform.python_version(), "implementation": platform.python_implementation(),
            "nproc": os.cpu_count(), "machine": platform.machine(), "git_commit": commit,
            "source_sha256": h.hexdigest(), "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace}


def latency_metrics(lat, verdicts, pool_size):
    """Percentiles are taken over the inputs of the pool, each at the median
    of its runs, so that every input counts once wherever the run stops."""
    per_input = [statistics.median(lat[k::pool_size]) for k in range(min(pool_size, len(lat)))]
    return {
        "verdict_s.p50": statistics.median(per_input),
        "verdict_s.p90": (statistics.quantiles(per_input, n=10)[-1] if len(per_input) > 1
                          else per_input[0]),
        "queries_per_s": verdicts / sum(lat),
    }


def end_to_end(stream, setup_samples, pool_size):
    """Metric values, raw and scaled to the nominal machine, and sample counts.

    A query stopped at the deadline keeps the deadline as its time, unscaled.
    """
    lat = stream["latencies"]
    verdicts = sum(stream["ok"])
    scales = local_scales(stream["reference"])
    scaled = [t if over else t * scales[j]
              for t, over, j in zip(lat, stream["overruns"], stream["nearest"])]
    common = {"verdict_ratio": verdicts / len(lat),
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    raw = {"setup_s": statistics.median(t for t, _ in setup_samples),
           **latency_metrics(lat, verdicts, pool_size), **common}
    values = {"setup_s": statistics.median(t * REFERENCE_S / ref for t, ref in setup_samples),
              **latency_metrics(scaled, verdicts, pool_size), **common}
    inputs = min(pool_size, len(lat))
    samples = {"setup_s": len(setup_samples), "verdict_s.p50": inputs, "verdict_s.p90": inputs,
               "queries_per_s": verdicts, "verdict_ratio": len(lat), "peak_rss_mb": 1}
    return {k: (v, END_TO_END[k]) for k, v in values.items()}, raw, samples


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(streams.ROUNDS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--queries", type=int, default=0,
                        help="run exactly this many queries instead of --seconds")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    work_dir = os.path.join(OUT, f"work-{os.getpid()}")
    specs = query_specs(args.workload, args.seed)
    try:
        env, pool, sample = timed_setup(specs, work_dir)
        if args.setup_probe:
            print(json.dumps(sample))
            return 0
        setup_samples = [sample]
        if not (args.queries or args.trace):  # only untraced timed runs report setup_s
            setup_samples += probe_setup(args.workload, args.seed, SETUP_PROBES - 1)
        tracer = Tracer(env.api) if args.trace else None
        if tracer:
            tracer.install()
        installed = wrappers_installed(env.api)
        deadline = DEADLINE_S * (TRACE_STRETCH if tracer else 1.0)
        signal.signal(signal.SIGALRM, _alarm)
        gc.collect()
        gc.freeze()
        stream = run_stream(pool, env, deadline, args.seconds, args.queries, tracer)
        if tracer:
            tracer.uninstall()
            ratio = overhead_ratio(pool, stream, DEADLINE_S,
                                   env.api.algcore.BudgetExceededError)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    attempted = len(stream["latencies"])
    failed = attempted - sum(stream["ok"])
    scale = REFERENCE_S / statistics.mean(stream["reference"])
    if tracer:
        metrics = tracer.metrics()
        metrics["trace.overhead_ratio"] = (ratio, "ratio")
        raw, samples = {}, {k: attempted for k in metrics}
    else:
        metrics, raw, samples = end_to_end(stream, setup_samples, len(pool))
    os.makedirs(OUT, exist_ok=True)
    base = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    record = {
        "provenance": provenance(args),
        "deadline_s": deadline,
        "pool_queries": len(pool),
        "attempted": attempted, "failed": failed, "correct": not stream["wrong"],
        "wrappers_installed": installed,
        "slowest_answer_s": max((t for t, ok in zip(stream["latencies"], stream["ok"]) if ok),
                                default=0.0),
        "metrics": {k: {"value": v, "unit": u, "samples": samples[k]} for k, (v, u) in metrics.items()},
        "raw_metrics": raw,
        "speed_scale": {"stream": scale,
                        "reference_samples": len(stream["reference"])},
        "setup_samples": [{"s": t, "reference_s": ref} for t, ref in setup_samples],
        "wrong": stream["wrong"],
        "failures": sorted(stream["failures"].values(), key=lambda f: f["qid"]),
        "digests": stream["digests"],
    }
    if tracer:
        record["per_query_counts"] = tracer.per_query
        record["self_time_table"] = tracer.table()
        tracer.write(base + "-spans")
    with open(base + ".json", "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)

    if tracer:
        print(f"self time by layer, workload {args.workload}:")
        print("\n".join(tracer.table()))
    for f in record["failures"]:
        print(f"failed {f['qid']} {f['kind']}: {f['reason']}")
    for w in stream["wrong"]:
        print(f"WRONG {w['qid']} {w['kind']}: {w['problem']}")
    if stream["wrong"]:
        return 1
    for k, (v, u) in metrics.items():
        print(f"{k} = {v:.6g} {u} (n={samples[k]})")
    print(json.dumps({"correct": True, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
