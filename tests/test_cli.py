import ast
import contextlib
import io
import json
import os
import pathlib
import subprocess
import sys
import tempfile

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import prevar
from prevar.algcore import FiniteAlgebra, Signature, cyclic_unary, disjoint_union
from prevar import cli
from prevar.cli import SUITES, main


@pytest.fixture
def algebra_files(tmp_path):
    paths = {}
    for name, alg in (
        ("c2", cyclic_unary(2)),
        ("c3", cyclic_unary(3)),
        ("c6", cyclic_unary(6)),
        ("u23", disjoint_union([cyclic_unary(2), cyclic_unary(3)])),
        ("l2", FiniteAlgebra(Signature((("j", 2), ("m", 2))), 2,
                             {"j": [0, 1, 1, 1], "m": [0, 0, 0, 1]})),
    ):
        path = tmp_path / f"{name}.alg"
        alg.save(path)
        paths[name] = str(path)
    return paths


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestFree:
    def test_rank_one_reports_six_cycle(self, capsys, algebra_files):
        code, out, _ = run(
            capsys, "free", "--gen", algebra_files["c2"], "--gen",
            algebra_files["c3"], "-n", "1",
        )
        assert code == 0
        assert "6 elements" in out
        assert "isomorphic to the 6-element cycle: true" in out

    def test_json_report(self, capsys, algebra_files):
        code, out, _ = run(
            capsys, "--json", "free", "--gen", algebra_files["c2"], "--gen",
            algebra_files["c3"], "-n", "1",
        )
        assert code == 0
        report = json.loads(out)
        assert report["size"] == 6 and report["cyclic_order"] == 6

    def test_rank_two_answers_promptly(self, algebra_files):
        # two disjoint 6-cycles: the cyclic-order check must refute
        # "12-cycle" without walking the 12! bijections
        env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(prevar.__file__))}
        proc = subprocess.run(
            [sys.executable, "-m", "prevar.cli", "--json", "free", "--gen",
             algebra_files["c2"], "--gen", algebra_files["c3"], "-n", "2"],
            capture_output=True, text=True, env=env, timeout=5,
        )
        assert proc.returncode == 0
        report = json.loads(proc.stdout)
        assert report["size"] == 12 and report["cyclic_order"] is None

    def test_oversized_index_refused_promptly(self, algebra_files):
        # 2**40 index entries: the budget must be checked before they are listed
        env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(prevar.__file__))}
        proc = subprocess.run(
            [sys.executable, "-m", "prevar.cli", "--json", "free", "--gen",
             algebra_files["c2"], "-n", "40"],
            capture_output=True, text=True, env=env, timeout=5,
        )
        assert proc.returncode == 3
        assert "product index of 1099511627776 exceeds budget 1000000" in proc.stderr

    def test_json_budget_error_is_one_object_on_stdout(self, capsys, algebra_files):
        code, out, err = run(capsys, "--json", "free", "--gen", algebra_files["c2"], "-n", "40")
        assert code == 3
        assert json.loads(out) == {
            "error": "budget", "message": "product index of 1099511627776 exceeds budget 1000000"}
        assert out.count("\n") == 1
        assert err == "budget exhausted: product index of 1099511627776 exceeds budget 1000000\n"

    @pytest.mark.parametrize("gens, n, expected", [
        (["c6"], 1, '{"cyclic_order": 6, "generators": [0], "size": 6}'),
        (["c6"], 2, '{"cyclic_order": null, "generators": [0, 1], "size": 12}'),
        (["c2", "c3"], 1, '{"cyclic_order": 6, "generators": [0], "size": 6}'),
        (["c2", "c3"], 2, '{"cyclic_order": null, "generators": [0, 1], "size": 12}'),
        (["l2"], 1, '{"cyclic_order": null, "generators": [0], "size": 1}'),
        (["l2"], 2, '{"cyclic_order": null, "generators": [0, 1], "size": 4}'),
    ])
    def test_json_output_is_pinned(self, capsys, algebra_files, gens, n, expected):
        # taken with the isomorphism search that preceded the orbit walk
        argv = [arg for g in gens for arg in ("--gen", algebra_files[g])]
        code, out, _ = run(capsys, "--json", "free", *argv, "-n", str(n))
        assert code == 0 and out == expected + "\n"


class TestCoproduct:
    def test_five_element_union(self, capsys, algebra_files):
        code, out, _ = run(
            capsys, "--json", "coproduct", "--gen", algebra_files["u23"],
            algebra_files["c2"], algebra_files["c3"],
        )
        assert code == 0
        report = json.loads(out)
        assert report["size"] == 5
        assert report["coprojections_injective"] == [True, True]


class TestPropertyVerbs:
    def test_compatible_refuted(self, capsys, algebra_files):
        code, _, _ = run(
            capsys, "compatible", "--gen", algebra_files["c2"], "--gen",
            algebra_files["c3"], algebra_files["c2"], algebra_files["c3"],
        )
        assert code == 1

    def test_compatible_verified(self, capsys, algebra_files):
        code, _, _ = run(
            capsys, "compatible", "--gen", algebra_files["u23"],
            algebra_files["c2"], algebra_files["c3"],
        )
        assert code == 0

    def test_compatible_answers_past_the_coproduct_table_budget(self, capsys, tmp_path):
        # the coproduct of two copies is too large to build under the
        # default budget; compatibility is decided without it
        y = FiniteAlgebra(Signature((("j", 2),)), 3, {"j": [0, 1, 1, 2, 0, 2, 2, 0, 2]})
        path = str(tmp_path / "y.alg")
        y.save(path)
        code, out, _ = run(capsys, "--json", "compatible", "--gen", path, path, path)
        assert code == 0 and json.loads(out) == {"compatible": True}

    def test_member_with_witness(self, capsys, algebra_files):
        code, out, _ = run(
            capsys, "--json", "member", "--gen", algebra_files["c2"], "--gen",
            algebra_files["c3"], algebra_files["u23"],
        )
        assert code == 1
        assert json.loads(out)["unseparated_pair"] == [0, 1]

    def test_member_verified(self, capsys, algebra_files):
        code, _, _ = run(
            capsys, "member", "--gen", algebra_files["c2"], "--gen",
            algebra_files["c3"], algebra_files["c6"],
        )
        assert code == 0

    def test_si_with_monolith(self, capsys, algebra_files, tmp_path):
        c4 = tmp_path / "c4.alg"
        cyclic_unary(4).save(c4)
        code, out, _ = run(capsys, "--json", "si", str(c4))
        assert code == 0
        assert json.loads(out)["monolith"] == [0, 1, 0, 1]
        code, _, _ = run(capsys, "si", algebra_files["c6"])
        assert code == 1

    def test_si_outputs_pinned(self, capsys, algebra_files, tmp_path):
        c4 = tmp_path / "c4.alg"
        cyclic_unary(4).save(c4)
        cases = [
            (["si", str(c4)], 0,
             "subdirectly irreducible: True\nmonolith blocks: [0, 1, 0, 1]\n"),
            (["--json", "si", str(c4)], 0,
             '{"congruences": 3, "monolith": [0, 1, 0, 1], "subdirectly_irreducible": true}\n'),
            (["si", algebra_files["c6"]], 1, "subdirectly irreducible: False\n"),
            (["--json", "si", algebra_files["c6"]], 1,
             '{"congruences": 4, "monolith": null, "subdirectly_irreducible": false}\n'),
        ]
        for argv, code, expected in cases:
            assert run(capsys, *argv) == (code, expected, "")

    def test_si_on_a_large_lattice_exits_with_the_budget(self, tmp_path):
        # the identity on 10 elements has Bell(10) = 115,975 congruences: the
        # report's count stops at max_congruences instead of walking them all
        path = tmp_path / "id10.alg"
        FiniteAlgebra(Signature((("a", 1),)), 10, {"a": list(range(10))}).save(path)
        env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(prevar.__file__))}
        proc = subprocess.run([sys.executable, "-m", "prevar.cli", "--json", "si", str(path)],
                              capture_output=True, text=True, env=env, timeout=10)
        assert proc.returncode == 3
        assert proc.stdout.count("\n") == 1
        assert json.loads(proc.stdout) == {
            "error": "budget", "message": "congruence lattice exceeds max_congruences 50000"}

    def test_si_trivial_algebra_is_a_usage_error(self, capsys, tmp_path):
        c1 = tmp_path / "c1.alg"
        cyclic_unary(1).save(c1)
        assert run(capsys, "si", str(c1)) == (
            2, "", "error: subdirect irreducibility needs a nontrivial algebra\n")

    def test_rel_si(self, capsys, algebra_files):
        code, _, _ = run(
            capsys, "rel-si", "--gen", algebra_files["c2"], "--gen",
            algebra_files["c3"], algebra_files["c2"],
        )
        assert code == 0
        code, _, _ = run(
            capsys, "rel-si", "--gen", algebra_files["c2"], "--gen",
            algebra_files["c3"], algebra_files["c6"],
        )
        assert code == 1

    def test_cover(self, capsys, algebra_files):
        code, out, _ = run(
            capsys, "--json", "cover", "--gen", algebra_files["c2"], "--gen",
            algebra_files["c3"], algebra_files["c2"], algebra_files["c3"],
        )
        assert code == 0
        assert json.loads(out)["count"] == 2

    def test_independent(self, capsys, algebra_files):
        code, _, _ = run(
            capsys, "independent", "--gen", algebra_files["u23"],
            algebra_files["u23"], "--subset", "0,1", "--subset", "2,3,4",
        )
        assert code == 0

    def test_comfortable_asymmetry(self, capsys, algebra_files, tmp_path):
        triv = tmp_path / "triv.alg"
        cyclic_unary(1).save(triv)
        code, _, _ = run(
            capsys, "comfortable", "--gen", algebra_files["c2"], str(triv),
            algebra_files["c2"],
        )
        assert code == 0
        code, _, _ = run(
            capsys, "comfortable", "--gen", algebra_files["c2"],
            algebra_files["c2"], str(triv),
        )
        assert code == 1

    def test_qid(self, capsys, algebra_files):
        code, _, _ = run(
            capsys, "qid", algebra_files["c6"],
            "=> a(a(a(a(a(a(x)))))) = x",
        )
        assert code == 0
        code, _, _ = run(
            capsys, "qid", algebra_files["u23"], "a(a(x)) = x => a(a(y)) = y",
        )
        assert code == 1

    def test_amalg_check(self, capsys, algebra_files):
        code, out, _ = run(
            capsys, "--json", "amalg-check", "--gen", algebra_files["c2"],
            "-k", "3",
        )
        assert code == 0
        assert json.loads(out)["amalgamation"] is True


class TestRewriting:
    def test_kb_and_reduce(self, capsys, tmp_path):
        pres = tmp_path / "inv.txt"
        pres.write_text("x y z\nx y = 1\nz x = 1\n")
        code, out, _ = run(capsys, "--json", "kb", str(pres))
        assert code == 0
        report = json.loads(out)
        assert report["completed"] is True
        assert ["z", "y"] in report["rules"]
        code, out, _ = run(capsys, "--json", "reduce", str(pres), "z x")
        assert code == 0
        assert json.loads(out)["normal_form"] == "1"

    def test_json_usage_error_for_a_missing_file(self, capsys, tmp_path):
        missing = str(tmp_path / "missing.alg")
        code, out, err = run(capsys, "--json", "si", missing)
        assert code == 2
        report = json.loads(out)
        assert report["error"] == "usage" and missing in report["message"]
        assert err.startswith("error: ") and missing in err

    def test_json_membership_error(self, capsys, algebra_files):
        code, out, err = run(capsys, "--json", "rel-si", "--gen", algebra_files["c2"],
                             algebra_files["c3"])
        assert code == 1
        assert json.loads(out)["error"] == "membership"
        assert err.startswith("membership failure: ")

    def test_errors_without_json_leave_stdout_empty(self, capsys, algebra_files):
        code, out, err = run(capsys, "free", "--gen", algebra_files["c2"], "-n", "40")
        assert code == 3 and out == "" and err.startswith("budget exhausted: ")

    @pytest.mark.parametrize("flag", ["--max-rules", "--max-word-len"])
    def test_kb_rejects_a_limit_below_one(self, capsys, tmp_path, flag):
        pres = tmp_path / "inv.txt"
        pres.write_text("x y z\nx y = 1\n")
        code, out, err = run(capsys, "--json", "kb", str(pres), flag, "0")
        assert code == 2
        assert json.loads(out)["error"] == "usage"
        field = flag[2:].replace("-", "_")
        assert err.startswith(f"error: budget field {field} must be a positive int")

    def test_kb_budget_exhaustion_exit_code(self, capsys, tmp_path):
        pres = tmp_path / "inv.txt"
        pres.write_text("x y z\nx y = 1\nz x = 1\n")
        code, _, _ = run(capsys, "kb", str(pres), "--max-rules", "1")
        assert code == 3


class TestAmalgamVerbs:
    def test_normal_form_verb(self, capsys):
        code, out, _ = run(capsys, "--json", "amalgam-nf", "--sym", "3", "1:3 0:2")
        assert code == 0
        report = json.loads(out)
        assert isinstance(report["reps"], list)

    def test_scan_matches_parity(self, capsys):
        code, out, _ = run(
            capsys, "--json", "amalgam-scan", "--sym", "3", "--max-len", "3"
        )
        assert code == 0
        assert json.loads(out)["matches_parity_rule"] is True


class TestPaperlab:
    @pytest.mark.parametrize("suite", sorted(SUITES))
    def test_every_suite_passes(self, capsys, suite):
        code, out, _ = run(capsys, "paperlab", suite)
        assert code == 0
        assert "FAIL" not in out
        assert out.count("PASS") >= 2

    def test_unknown_suite_is_usage_error(self, capsys):
        code, _, err = run(capsys, "paperlab", "no-such-suite")
        assert code == 2

    def test_unknown_suite_under_json_is_one_usage_object(self):
        proc = _prevar("--json", "paperlab", "bogus")
        message = f"unknown suite 'bogus'; known: {', '.join(sorted(SUITES))}"
        assert proc.returncode == 2 and proc.stderr == f"error: {message}\n"
        assert proc.stdout == json.dumps({"error": "usage", "message": message},
                                         sort_keys=True) + "\n"

    def test_reports_are_byte_stable(self, capsys):
        _, first, _ = run(capsys, "--json", "paperlab", "cd-family")
        _, second, _ = run(capsys, "--json", "paperlab", "cd-family")
        assert first == second


@pytest.fixture
def verb_files(algebra_files, tmp_path):
    """``algebra_files`` with the trivial algebra, Sym(3) and its last-point
    stabilizer with the inclusion as an ``--emb`` argument, a presentation of
    one-sided inverses, and the directory they sit in."""
    from prevar.amalgam import point_stabilizer, symmetric_group

    files = {**algebra_files, "dir": str(tmp_path), "c1": str(tmp_path / "c1.alg"),
             "inv": str(tmp_path / "inv.txt")}
    cyclic_unary(1).save(files["c1"])
    (tmp_path / "inv.txt").write_text("x y z\nx y = 1\nz x = 1\n")
    group, perms = symmetric_group(3)
    stab, inclusion = point_stabilizer(group, perms, 2)
    files["emb"] = ",".join(map(str, inclusion))
    for name, g in (("g", group), ("base", stab)):
        files[name] = str(tmp_path / f"{name}.alg")
        g.alg.save(files[name])
    return files


# Each row: the argv (its ``{name}`` fields filled from ``verb_files``, then
# split at spaces), arguments appended as they are, the exit code, and the
# exact stdout in text and under --json; stderr is empty on every row.
PINNED_VERBS = [
    pytest.param(
        "free --gen {c2} --gen {c3} -n 1 --out {dir}/free.alg", [], 0,
        "free algebra on 1 generators: 6 elements\nisomorphic to the 6-element cycle: true\n"
        "written to {dir}/free.alg\n",
        '{"cyclic_order": 6, "generators": [0], "size": 6}\n', id="free-out"),
    pytest.param(
        "coproduct --gen {u23} {c2} {c3} --out {dir}/coproduct.alg", [], 0,
        "coproduct of 2 factors: 5 elements\ncoprojections injective: [True, True]\n"
        "written to {dir}/coproduct.alg\n",
        '{"coprojections_injective": [true, true], "index_entries": 6, "size": 5}\n',
        id="coproduct-out"),
    pytest.param("compatible --gen {u23} {c2} {c3}", [], 0,
                 "compatible: True\n", '{"compatible": true}\n', id="compatible"),
    pytest.param("compatible --gen {c2} --gen {c3} {c2} {c3}", [], 1,
                 "compatible: False\n", '{"compatible": false}\n', id="incompatible"),
    pytest.param("comfortable --gen {c2} {c1} {c2}", [], 0,
                 "comfortable: True\n", '{"comfortable": true}\n', id="comfortable"),
    pytest.param("comfortable --gen {c2} {c2} {c1}", [], 1,
                 "comfortable: False\n", '{"comfortable": false}\n', id="uncomfortable"),
    pytest.param("independent --gen {u23} {u23} --subset 0,1 --subset 2,3,4", [], 0,
                 "independent: True\n", '{"independent": true}\n', id="independent"),
    pytest.param("rel-si --gen {c2} --gen {c3} {c2}", [], 0,
                 "relatively subdirectly irreducible: True\n",
                 '{"relatively_subdirectly_irreducible": true}\n', id="rel-si"),
    pytest.param("rel-si --gen {c2} --gen {c3} {c6}", [], 1,
                 "relatively subdirectly irreducible: False\n",
                 '{"relatively_subdirectly_irreducible": false}\n', id="rel-si-refuted"),
    pytest.param("qid {c6}", ["=> a(a(a(a(a(a(x)))))) = x"], 0, "holds: True\n",
                 '{"holds": true, "quasi_identity": "=> a(a(a(a(a(a(x)))))) = x"}\n',
                 id="qid"),
    pytest.param("qid {u23}", ["a(a(x)) = x => a(a(y)) = y"], 1, "holds: False\n",
                 '{"holds": false, "quasi_identity": "a(a(x)) = x => a(a(y)) = y"}\n',
                 id="qid-refuted"),
    pytest.param("member --gen {c2} --gen {c3} {u23}", [], 1,
                 "member of the generated prevariety: False\nunseparated pair: (0, 1)\n",
                 '{"member": false, "unseparated_pair": [0, 1]}\n', id="member-unseparated"),
    pytest.param("cover --gen {c2} --gen {c3} {c2} {c3}", [], 0,
                 "minimum compatible cover: 2 blocks [[0], [1]]\n",
                 '{"blocks": [[0], [1]], "count": 2}\n', id="cover"),
    pytest.param("amalg-check --gen {c2} -k 3", [], 0,
                 "amalgamation up to size 3: True\n", '{"amalgamation": true}\n',
                 id="amalg-check"),
    pytest.param("kb {inv}", [], 0, "completed: True\n  x y -> 1\n  z -> y\n  y x -> 1\n",
                 '{"completed": true, "reason": null, '
                 '"rules": [["x y", "1"], ["z", "y"], ["y x", "1"]]}\n', id="kb"),
    pytest.param("kb {inv} --max-rules 1", [], 3,
                 "completed: False\n  x y -> 1\n  z x -> 1\nreason: rule budget exhausted\n",
                 '{"completed": false, "reason": "rule budget exhausted", '
                 '"rules": [["x y", "1"], ["z x", "1"]]}\n', id="kb-rule-budget"),
    pytest.param("reduce {inv}", ["z x"], 0, "normal form: 1\n",
                 '{"input": "z x", "normal_form": "1"}\n', id="reduce"),
    pytest.param("reduce {inv} --max-rules 1", ["z x"], 3,
                 "completion failed: rule budget exhausted\n",
                 '{"completed": false, "reason": "rule budget exhausted"}\n',
                 id="reduce-completion-failed"),
    pytest.param("amalgam-nf --sym 3", ["1:3 0:2"], 0, "normal form: reps=[(1, 3)] tail=1\n",
                 '{"reps": [[1, 3]], "tail": 1}\n', id="amalgam-nf-sym"),
    pytest.param("amalgam-nf --g1 {g} --g2 {g} --base {base} --emb1 {emb} --emb2 {emb}",
                 ["1:3 0:2"], 0, "normal form: reps=[(1, 3)] tail=1\n",
                 '{"reps": [[1, 3]], "tail": 1}\n', id="amalgam-nf-files"),
    pytest.param(
        "amalgam-scan --sym 3 --max-len 1", [], 0,
        "len=0 torsion=True string=[]\nlen=1 torsion=True string=[[0, 1]]\n"
        "len=1 torsion=True string=[[0, 3]]\nlen=1 torsion=True string=[[1, 1]]\n"
        "len=1 torsion=True string=[[1, 3]]\n"
        "even cosets torsion-free, odd and empty cosets torsion: True\n",
        '{"cosets": [{"has_torsion": true, "length": 0, "string": []}, '
        '{"has_torsion": true, "length": 1, "string": [[0, 1]]}, '
        '{"has_torsion": true, "length": 1, "string": [[0, 3]]}, '
        '{"has_torsion": true, "length": 1, "string": [[1, 1]]}, '
        '{"has_torsion": true, "length": 1, "string": [[1, 3]]}], '
        '"matches_parity_rule": true}\n', id="amalgam-scan"),
    pytest.param(
        "paperlab constants-census", [], 0,
        "PASS [constants:census-count-is-4]\nPASS [constants:distinct-partitions-incompatible]\n",
        '{"checks": [{"anchor": "constants:census-count-is-4", "ok": true}, '
        '{"anchor": "constants:distinct-partitions-incompatible", "ok": true}], '
        '"suite": "constants-census"}\n', id="paperlab"),
]


@pytest.mark.parametrize("head, tail, code, text, report", PINNED_VERBS)
def test_verb_outputs_pinned(capsys, verb_files, head, tail, code, text, report):
    argv = [*head.format(**verb_files).split(), *tail]
    assert run(capsys, *argv) == (code, text.format(**verb_files), "")
    assert run(capsys, "--json", *argv) == (code, report, "")


def test_out_files_hold_the_built_algebra(capsys, verb_files):
    # --out writes the algebra's to_json() and a newline, which loads back
    from prevar.prevariety import PrevarietyCtx, coproduct, free_algebra

    f = verb_files
    c2, c3, u23 = (FiniteAlgebra.load(f[name]) for name in ("c2", "c3", "u23"))
    free = free_algebra(PrevarietyCtx((c2, c3)), 1)[0]
    built = coproduct(PrevarietyCtx((u23,)), [c2, c3]).algebra
    for argv, alg in ((["free", "--gen", f["c2"], "--gen", f["c3"], "-n", "1"], free),
                      (["coproduct", "--gen", f["u23"], f["c2"], f["c3"]], built)):
        out = os.path.join(f["dir"], "out.alg")
        assert run(capsys, "--json", *argv, "--out", out)[0] == 0
        with open(out) as fh:
            assert fh.read() == alg.to_json() + "\n"
        assert FiniteAlgebra.load(out) == alg


def test_only_main_and_fail_print():
    # each verb returns its report and main prints it; _fail prints errors
    tree = ast.parse(pathlib.Path(cli.__file__).read_text())

    def prints(node):
        return any(isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
                   and n.func.id == "print" for n in ast.walk(node))

    assert {getattr(node, "name", None) for node in tree.body if prints(node)} == {"main", "_fail"}


class TestUsage:
    def test_unknown_verb(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_missing_file_reported(self, capsys):
        code, _, err = run(capsys, "si", "/nonexistent/path.alg")
        assert code == 2

    def test_one_parser_serves_every_call(self, capsys, algebra_files, monkeypatch):
        # a parser shared by every main() call answers as a fresh one does:
        # repeatable options do not carry over and usage errors still exit 2
        c2, c3, c6 = algebra_files["c2"], algebra_files["c3"], algebra_files["c6"]
        calls = [
            ["--json", "rel-si", "--gen", c2, "--gen", c3, c6],
            ["member", "--gen", c2, c6],
            ["si", c2],
            ["--json", "si", c6],
            ["si"],
            ["--help"],
            ["si", "--help"],
            ["--json", "free", "--gen", c3, "-n", "1"],
            ["frobnicate"],
            ["member", "--gen", c2, "--gen", c3, c6],
        ]
        assert cli.build_parser() is cli.build_parser()
        shared = [run(capsys, *argv) for argv in calls]
        monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
        fresh = [run(capsys, *argv) for argv in calls]
        assert shared == fresh
        assert [code for code, _, _ in shared] == [1, 1, 0, 1, 2, 0, 0, 0, 2, 0]


def _prevar(*argv):
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(prevar.__file__))}
    return subprocess.run([sys.executable, "-m", "prevar.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=30)


class TestMalformedInput:
    """Malformed files and arguments are usage errors (exit 2), never a
    traceback read as "refuted"; under ``--json`` stdout is one error object."""

    @pytest.mark.parametrize("text, message", [
        ("not json", "JSONDecodeError"),
        ('{"signature": [{"name": "a", "arity": 1}], "size": 2}', "KeyError: 'ops'"),
        ('{"signature": [{"name": "a", "arity": "1"}], "size": 2, "ops": {"a": [1, 0]}}',
         "arity for 'a' must be a natural number, not '1'"),
    ], ids=["not-json", "missing-ops", "string-arity"])
    def test_malformed_algebra_file(self, tmp_path, text, message):
        path = tmp_path / "bad.alg"
        path.write_text(text)
        proc = _prevar("--json", "si", str(path))
        assert proc.returncode == 2
        report = json.loads(proc.stdout)
        assert report["error"] == "usage" and message in report["message"]
        assert proc.stdout.count("\n") == 1 and "Traceback" not in proc.stderr

    @pytest.mark.parametrize("text", [
        '{"signature":[{"name":"a","arity":1}],"size":2,"ops":{"a":[1.0,0]}}',
        '{"signature":[{"name":"a","arity":1}],"size":2,"ops":{"a":[true,false]}}',
        '{"signature":[{"name":"a","arity":1}],"size":true,"ops":{"a":[0]}}',
        '{"signature":[{"name":"a","arity":1}],"size":2.0,"ops":{"a":[1,0]}}',
    ], ids=["float-entry", "bool-entries", "bool-size", "float-size"])
    def test_non_integer_algebra_file(self, tmp_path, algebra_files, text):
        path = tmp_path / "bad.alg"
        path.write_text(text)
        for argv in (["member", "--gen", algebra_files["c2"], str(path)], ["si", str(path)]):
            proc = _prevar("--json", *argv)
            assert proc.returncode == 2 and "Traceback" not in proc.stderr
            assert proc.stdout.count("\n") == 1
            assert json.loads(proc.stdout) == {
                "error": "usage", "message": "malformed algebra document: TypeError: "
                                             "the size and every table entry must be integers"}

    def test_argv_argparse_refuses(self, algebra_files):
        # argparse's usage text stays on stderr; under --json stdout also
        # carries its message as one usage object, and --help still exits 0
        proc = _prevar("--json", "si", "--bogus", algebra_files["c2"])
        assert proc.returncode == 2 and proc.stderr.startswith("usage: prevar")
        assert proc.stderr.endswith("\nprevar: error: unrecognized arguments: --bogus\n")
        assert proc.stdout == json.dumps(
            {"error": "usage", "message": "unrecognized arguments: --bogus"}, sort_keys=True) + "\n"
        plain = _prevar("si", "--bogus", algebra_files["c2"])
        assert (plain.returncode, plain.stdout, plain.stderr) == (2, "", proc.stderr)
        # argparse takes --json abbreviated, and so does the refusal
        assert _prevar("--js", "si", "--bogus", algebra_files["c2"]).stdout == proc.stdout
        proc = _prevar("--json", "--help")
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout.startswith("usage: prevar")

    def test_unclosed_term_in_a_quasi_identity(self, algebra_files):
        proc = _prevar("--json", "qid", algebra_files["c2"], "=> a(x = x")
        assert proc.returncode == 2
        assert json.loads(proc.stdout)["error"] == "usage"

    def test_unknown_symbol_is_refused_where_no_assignment_reaches_it(self, capsys,
                                                                       algebra_files):
        # the 2-cycle has no fixed point: the conclusion is never evaluated,
        # but its terms are compiled before the walk
        code, out, _ = run(capsys, "--json", "qid", algebra_files["c2"], "a(x) = x => b(x) = x")
        assert code == 2
        assert json.loads(out) == {"error": "usage", "message": "unknown operation symbol 'b'"}

    @pytest.mark.parametrize("text, char", [
        ("=> a(a(x)) = x + 1", "+"), ("=> a(x) = 3x", "3"), ("=> a(x)$ = x", "$"),
    ], ids=["plus", "digit", "dollar"])
    def test_character_outside_the_term_grammar(self, capsys, algebra_files, text, char):
        code, out, _ = run(capsys, "--json", "qid", algebra_files["c2"], text)
        assert code == 2
        assert json.loads(out) == {"error": "usage", "message": f"unexpected character "
                                   f"{char!r} in {text.split('=>')[1]!r}"}

    def test_subset_that_is_not_indices(self, algebra_files):
        proc = _prevar("independent", "--gen", algebra_files["u23"], algebra_files["u23"],
                       "--subset", "x")
        assert proc.returncode == 2
        assert "--subset takes comma-separated carrier indices" in proc.stderr

    def test_negative_member_size_bound(self, algebra_files):
        proc = _prevar("--json", "amalg-check", "--gen", algebra_files["c2"], "-k", "-1")
        assert proc.returncode == 2
        assert json.loads(proc.stdout) == {
            "error": "usage", "message": "the size bound must be a natural number"}

    @pytest.fixture
    def group_files(self, tmp_path):
        """Sym(3) and the stabilizer of its last point, saved, with the
        inclusion as an ``--emb`` argument."""
        from prevar.amalgam import point_stabilizer, symmetric_group

        group, perms = symmetric_group(3)
        stab, inclusion = point_stabilizer(group, perms, 2)
        files = {"emb": ",".join(map(str, inclusion))}
        for name, g in (("g", group), ("base", stab)):
            files[name] = str(tmp_path / f"{name}.alg")
            g.alg.save(files[name])
        return files

    @pytest.mark.parametrize("emb2, message", [
        ("0,0", "embedding is not one-to-one on the subgroup"),
        ("0,3", "map does not commute with 'mul' at (1, 1)"),
        ("0", "mapping length differs from the source carrier"),
    ], ids=["non-injective", "non-multiplicative", "wrong-length"])
    def test_bad_amalgam_embedding(self, group_files, emb2, message):
        f = group_files
        argv = ["--json", "amalgam-nf", "--g1", f["g"], "--g2", f["g"],
                "--base", f["base"], "--emb1", f["emb"], "--emb2"]
        assert _prevar(*argv, f["emb"], "1:3 0:2").returncode == 0
        proc = _prevar(*argv, emb2, "1:3 0:2")
        assert proc.returncode == 2
        assert json.loads(proc.stdout) == {"error": "usage", "message": message}

    @pytest.mark.parametrize("argv, message", [
        (["--sym", "3", "1:x"],
         "amalgam letters are factor:element: invalid literal for int() with base 10: 'x'"),
        (["--sym", "3", "1"], "amalgam letters are factor:element: '1'"),
        (["--g1", "{g}", "--g2", "{g}", "--base", "{base}", "--emb1", "0,x", "--emb2", "{emb}",
          "1:3"], "--emb1 takes comma-separated subgroup images: "
                  "invalid literal for int() with base 10: 'x'"),
    ], ids=["letter-not-int", "letter-without-colon", "embedding-not-int"])
    def test_unparsable_amalgam_argument(self, group_files, argv, message):
        proc = _prevar("--json", "amalgam-nf", *(a.format(**group_files) for a in argv))
        assert proc.returncode == 2 and "Traceback" not in proc.stderr
        assert proc.stdout.count("\n") == 1
        assert json.loads(proc.stdout) == {"error": "usage", "message": message}

    def test_negative_scan_length(self):
        proc = _prevar("--json", "amalgam-scan", "--sym", "3", "--max-len", "-1")
        assert proc.returncode == 2
        assert json.loads(proc.stdout) == {
            "error": "usage", "message": "--max-len must be a natural number"}


class TestStackExhaustion:
    """A recursion that runs out of stack has no answer yet: like a budget,
    it exits 3 with one stderr line and, under ``--json``, one object."""

    def _assert_budget(self, proc):
        assert proc.returncode == 3 and "Traceback" not in proc.stderr
        assert proc.stderr.startswith("budget exhausted: maximum recursion depth exceeded")
        assert proc.stderr.count("\n") == 1 and proc.stdout.count("\n") == 1
        report = json.loads(proc.stdout)
        assert report["error"] == "budget"
        assert report["message"].startswith("maximum recursion depth exceeded")

    def test_deep_homomorphism_search(self, tmp_path):
        # identity ops propagate nothing: the search recurses once per element
        paths = []
        for n in (2, 1100):
            paths.append(str(tmp_path / f"id{n}.alg"))
            FiniteAlgebra(Signature((("a", 1),)), n, {"a": list(range(n))}).save(paths[-1])
        self._assert_budget(_prevar("--json", "member", "--gen", *paths))

    def test_deep_quasi_identity_term(self, algebra_files):
        term = "a(" * 500 + "x" + ")" * 500
        self._assert_budget(_prevar("--json", "qid", algebra_files["c2"], f"=> {term} = x"))


class TestSymmetricAmalgam:
    def test_sym_six_answers_and_sym_seven_is_refused(self):
        # Sym(6) is built once, unchecked; Sym(7)'s 25.4M-cell table is
        # refused before it is built
        proc = _prevar("--json", "amalgam-nf", "--sym", "6", "0:1")
        assert proc.returncode == 0
        assert json.loads(proc.stdout) == {"reps": [[0, 1]], "tail": 0}
        proc = _prevar("--json", "amalgam-nf", "--sym", "7", "0:1")
        assert proc.returncode == 3 and proc.stdout.count("\n") == 1
        assert json.loads(proc.stdout) == {
            "error": "budget", "message": "Sym(7) has 25401600 table cells, over the budget 4000000"}


# -- the exit and JSON contract under generated argv ---------------------------

SIGNATURES = [(("a", 1),), (("m", 2),), (("a", 1), ("c", 0)), (("a", 1), ("m", 2))]
FLAWS = ["float", "array", "negative-arity", "off-carrier", "short-table"]


@st.composite
def algebra_documents(draw, ops):
    """An algebra file's text over ``ops``: size <= 3, and valid but for at
    most one flaw."""
    size = draw(st.integers(0, 3))
    entry = st.integers(0, max(size - 1, 0))
    tables = {n: draw(st.lists(entry, min_size=size**a, max_size=size**a)) for n, a in ops}
    doc = {"signature": [{"name": n, "arity": a} for n, a in ops], "size": size, "ops": tables}
    flaw, first = draw(st.sampled_from([None] * 10 + FLAWS)), ops[0][0]
    if flaw == "float":
        tables[first] = [float(v) for v in tables[first]]
    elif flaw == "array":
        tables[first] = [[v] for v in tables[first]]
    elif flaw == "negative-arity":
        doc["signature"][0]["arity"] = -1
    elif flaw == "off-carrier":
        tables[first] = [size] * len(tables[first])
    elif flaw == "short-table":
        tables[first] = tables[first][1:]
    return json.dumps(doc)


def terms(ops):
    """Terms over the variables x, y and the symbols ``ops``."""
    leaves = ["x", "y", *(n for n, a in ops if a == 0)]
    return st.recursive(st.sampled_from(leaves), lambda t: st.one_of(
        [st.builds(f"{n}({', '.join(['{}'] * a)})".format, *[t] * a) for n, a in ops if a]),
        max_leaves=4)


def quasi_identities(ops):
    t = terms(ops)
    return st.one_of(st.builds("{} = {} => {} = {}".format, t, t, t, t),
                     st.builds("=> {} = {}".format, t, t),
                     st.text(alphabet="axym(),=>& $3", max_size=14))


WORDS = st.one_of(st.just("1"), st.lists(st.sampled_from("xyz"), min_size=1, max_size=4).map(
    " ".join), st.lists(st.sampled_from("xy"), min_size=1, max_size=4).map("".join),
    st.text(alphabet="xyzw =1", max_size=6))
PRESENTATIONS = st.one_of(
    st.builds(lambda letters, rels: "\n".join([letters, *(f"{l} = {r}" for l, r in rels)]),
              st.sampled_from(["x y", "x y z"]), st.lists(st.tuples(WORDS, WORDS), max_size=3)),
    st.text(alphabet="xy=1 \n#", max_size=16))
AMALGAM_WORDS = st.lists(st.builds("{}:{}".format, st.sampled_from(["0", "1", "1", "2", "x"]),
                                   st.sampled_from(["0", "1", "3", "5", "30", "-1", "y"])),
                         max_size=4).map(" ".join)
VERBS = ["free", "coproduct", "compatible", "comfortable", "independent", "si", "rel-si",
         "member", "cover", "qid", "amalg-check", "kb", "reduce", "amalgam-nf", "amalgam-scan",
         "paperlab"]


@st.composite
def cli_calls(draw):
    """``(argv, files)``: an argv whose paths start with ``DIR/``, and the
    text of each file it names; the algebras mostly share one signature."""
    files, ops = {}, draw(st.sampled_from(SIGNATURES))

    def path(text):
        files[f"f{len(files)}"] = text
        return f"DIR/f{len(files) - 1}"

    def alg():
        mixed = draw(st.integers(0, 9)) == 0
        return path(draw(algebra_documents(draw(st.sampled_from(SIGNATURES)) if mixed else ops)))

    def algs(low, high):
        return [alg() for _ in range(draw(st.integers(low, high)))]

    def gens():
        return [arg for g in algs(1, 2) for arg in ("--gen", g)]

    def num(low, high):
        return str(draw(st.integers(low, high)))

    verb = draw(st.sampled_from(VERBS))
    if verb == "free":
        args = [*gens(), "-n", num(-1, 2)]
    elif verb in ("coproduct", "compatible", "cover"):
        args = [*gens(), *algs(1, 2 if verb == "coproduct" else 3)]
    elif verb == "comfortable":
        args = [*gens(), *algs(2, 2)]
    elif verb == "independent":
        subsets = draw(st.lists(st.sampled_from(["0", "1", "0,1", "1,2", "0,1,2", "3", "-1",
                                                 "x", ""]), min_size=1, max_size=3))
        args = [*gens(), alg(), *(arg for s in subsets for arg in ("--subset", s))]
    elif verb == "si":
        args = [alg()]
    elif verb in ("rel-si", "member"):
        args = [*gens(), alg()]
    elif verb == "qid":
        args = [alg(), draw(quasi_identities(ops))]
    elif verb == "amalg-check":
        args = [*gens(), "-k", num(-1, 2)]
    elif verb in ("kb", "reduce"):
        args = [path(draw(PRESENTATIONS)), *([draw(WORDS)] if verb == "reduce" else []),
                "--max-rules", num(1, 20), "--max-word-len", num(1, 8)]
    elif verb in ("amalgam-nf", "amalgam-scan"):
        if draw(st.integers(0, 3)):
            args = ["--sym", num(-1, 4)]
        else:  # algebra files standing for the groups, none of them a group
            args = ["--g1", alg(), "--g2", alg(), "--base", alg(), "--emb1",
                    draw(st.sampled_from(["0", "0,1", "x"])), "--emb2", "0"]
        args += [draw(AMALGAM_WORDS)] if verb == "amalgam-nf" else ["--max-len", num(-1, 3)]
    else:
        args = [draw(st.sampled_from([*SUITES, "bogus"]))]
    argv = [verb, *args]
    if draw(st.integers(0, 9)) == 0:  # an argv argparse may refuse
        argv = draw(st.sampled_from([argv[:-1], [*argv, "--bogus"], [*argv, "extra"]]))
    return ["--json", *argv] if draw(st.booleans()) else argv, files


def _quietly(fn, argv):
    """``fn(argv)``'s result, or the code argparse exits with, and the
    text written to stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            result = fn(argv)
        except SystemExit as exc:
            result = exc.code
    return result, out.getvalue()


@settings(max_examples=120, deadline=None)
@given(cli_calls())
@example((["--json", "paperlab", "bogus"], {}))
@example((["--json", "si", "--bogus", "DIR/f0"], {"f0": cyclic_unary(2).to_json()}))
def test_main_keeps_the_exit_and_json_contract(call):
    # every exit code is one of the four documented; no exception escapes;
    # under --json stdout is exactly one object, also when argparse itself
    # refuses argv (a usage error object then)
    template, files = call
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in files.items():
            with open(os.path.join(tmp, name), "w") as fh:
                fh.write(text)
        argv = [a.replace("DIR", tmp, 1) if a.startswith("DIR/") else a for a in template]
        parsed, _ = _quietly(cli.build_parser().parse_args, argv)
        code, out = _quietly(main, argv)
    assert code in (0, 1, 2, 3)
    if isinstance(parsed, int):
        assert code == 2
    if "--json" in argv:
        lines = out.splitlines()
        assert len(lines) == 1 and isinstance(json.loads(lines[0]), dict), out
        if isinstance(parsed, int):
            assert json.loads(lines[0])["error"] == "usage"
    elif isinstance(parsed, int):
        assert out == ""
