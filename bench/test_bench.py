"""Tests of the benchmark itself, on short runs of every workload.

    python3 -m pytest bench/test_bench.py
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("construct", "separate", "classify", "rewrite")
QUERIES = 40

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def run(workload, seed, trace):
    """One short run; its summary line and its result file in bench/out."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--queries", str(QUERIES), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    with open(os.path.join(HERE, "out", f"{workload}-seed{seed}-trace{trace}.json")) as fh:
        return summary, json.load(fh)


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_runs_repeat_and_install_no_wrappers(workload, seed):
    first, rec1 = run(workload, seed, 0)
    second, rec2 = run(workload, seed, 0)
    assert first["correct"] and second["correct"], rec1["wrong"] + rec2["wrong"]
    assert first["attempted"] == second["attempted"] == QUERIES
    assert set(first["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert rec1["digests"] == rec2["digests"]
    assert rec1["failures"] == rec2["failures"] == []
    assert rec1["wrappers_installed"] == rec2["wrappers_installed"] == 0
    assert rec1["provenance"]["seed"] == seed and rec1["provenance"]["nproc"]


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat(workload, seed):
    first, rec1 = run(workload, seed, 1)
    second, rec2 = run(workload, seed, 1)
    assert first["correct"] and second["correct"]
    assert set(first["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    assert rec1["wrappers_installed"] > 0
    answered = [(a, b) for a, b in zip(rec1["per_query_counts"], rec2["per_query_counts"])
                if a["ok"] and b["ok"]]
    assert answered
    assert all(a == b for a, b in answered)
    assert rec1["failures"] == rec2["failures"] == []
    assert rec1["digests"] == rec2["digests"]


def test_outputs_differ_between_seeds():
    _, one = run("rewrite", 1, 0)
    _, two = run("rewrite", 2, 0)
    assert set(one["digests"]) != set(two["digests"])


def test_fails_without_the_program(tmp_path):
    """A checkout holding only the benchmark exits non-zero, printing no result."""
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "construct", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
