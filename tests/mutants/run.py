"""Recorded mutants: each is a one-place break of the package that the tests
named with it must catch.

    python tests/mutants/run.py

For each mutant, ``src/`` is copied to a temporary directory, the mutant's
old text (which must occur exactly once in its file) is replaced by its new
text, and the named tests run against the copy with ``pytest -x``.  Each
mutant is reported "killed" (a named test failed), "survived" (they all
passed) or "stale" (the old text no longer occurs exactly once, or pytest
could not run the named tests).  The exit code is 1 on any survivor or
stale entry.  A change that makes an entry stale re-expresses it against
the new code or deletes it.
"""

import pathlib
import shutil
import subprocess
import sys
import tempfile
import time

ROOT = pathlib.Path(__file__).resolve().parents[2]

# (name, file under src/prevar, old text, new text, test node ids that must fail)
MUTANTS = [
    ("almost-independent form leaves A_n free", "prevariety.py",
     "identity = ([[tuple(range(len(last_pos)))]], last_pos)",
     "identity = ([listing(levels[n])], last_pos)",
     ["tests/test_extension_oracle.py::"
      "test_the_almost_independent_form_holds_the_last_level_fixed"]),
    ("a chain step lists a part before it builds the next", "prevariety.py",
     "        list(map(subalgebra, subsets))\n",
     "",
     ["tests/test_extension_oracle.py::"
      "test_chain_refuses_an_unclosed_component_before_listing_a_part"]),
    ("every leaf of the choice walk answers True", "homsearch.py",
     "            if None not in assignment:\n                return True",
     "            if True:\n                return True",
     ["tests/test_homsearch.py::test_every_choice_extends_matches_one_search_per_choice"]),
    ("a stream restarts its walked search", "prevariety.py",
     "if k < len(walked) else",
     "if False else",
     ["tests/test_extension_oracle.py::test_is_coproduct_starts_each_listing_once"]),
    ("> for >= in the carrier test", "algcore.py",
     "max(carrier) >= alg.size",
     "max(carrier) > alg.size",
     ["tests/test_algcore.py::TestGeneratedSubalgebra::test_subset_off_the_carrier_rejected"]),
    ("a closure cut retaken every round", "algcore.py",
     "                    vals = made[at](new)",
     "                    vals = row(name, map(known.__getitem__, at))(new)",
     ["tests/test_golden.py::test_closure_cuts_each_prefix_once"]),
    ("no unary fixed-point case in the candidates", "homsearch.py",
     "            if result == x:\n                values = [v for v in values if table[v] == v]\n"
     "            elif res is not None:",
     "            if res is not None:",
     ["tests/test_homsearch.py::test_unary_cells_match_the_generic_constraints"]),
    ("no translation rows pushed by a merge", "algcore.py",
     "                push(zip(rows[x], rows[y]))",
     "                pass",
     ["tests/test_algcore.py::TestCongruenceGenerated::test_principal_pair_on_four_cycle"]),
    ("an amalgam step never merges with the last representative", "amalgam.py",
     "        if reps and reps[-1][0] == k:\n",
     "        if False:\n",
     ["tests/test_amalgam.py::TestNormalForm::test_cancellation_through_the_fold"]),
    ("an amalgam step keeps an identity representative", "amalgam.py",
     "        if rep != factor.identity:\n            reps.append((k, rep))",
     "        reps.append((k, rep))",
     ["tests/test_amalgam.py::TestNormalForm::test_subgroup_letter_has_empty_string"]),
    ("no count check before a coset scan", "cli.py",
     "    if strings * ctx.base.size > limit:\n        raise",
     "    if False:\n        raise",
     ["tests/test_cli.py::TestAmalgamVerbs::test_scan_budget_is_exact"]),
    ("a canonical form never counts its nodes", "algcore.py",
     "        nodes += 1\n",
     "",
     ["tests/test_algcore.py::TestCanonicalForm::test_node_budget_is_exact"]),
]


def run(path: str, old: str, new: str, tests: list) -> str:
    text = (ROOT / "src" / "prevar" / path).read_text()
    if text.count(old) != 1:
        return "stale"
    with tempfile.TemporaryDirectory() as tmp:
        src = pathlib.Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        (src / "prevar" / path).write_text(text.replace(old, new))
        # the ini's pythonpath would put the checkout's src first; point it at the copy
        code = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
             "-o", f"pythonpath={src}", *tests],
            cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode
    return {0: "survived", 1: "killed"}.get(code, "stale")


def main() -> int:
    bad = 0
    for name, path, old, new, tests in MUTANTS:
        start = time.perf_counter()
        verdict = run(path, old, new, tests)
        bad += verdict != "killed"
        print(f"{verdict:8} {time.perf_counter() - start:6.1f} s  {path}: {name}", flush=True)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
