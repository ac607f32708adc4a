import argparse
import hashlib
import json
import math
import os
import re
import subprocess
import sys

import pytest

from bnpoly import cli, dags, scoreeq, supermod
from bnpoly.cli import main
from bnpoly.verify import VerificationReport


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_encode_empty_graph(capsys):
    code, out, _ = run_cli(
        capsys, "encode", "--dag", '{"a":"","b":"","c":""}', "--as", "char"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["vector"] == {}
    assert payload["schema"] == "bnpoly/cli/1"


def test_encode_fam_and_standard(capsys):
    code, out, _ = run_cli(
        capsys, "encode", "--dag", '{"a":"","b":"a","c":"ab"}', "--as", "fam"
    )
    assert code == 0
    assert json.loads(out)["vector"] == {"b|a": "1", "c|ab": "1"}
    code, out, _ = run_cli(
        capsys, "encode", "--dag", '{"a":"","b":"","c":""}', "--as", "standard"
    )
    assert json.loads(out)["vector"] == {"": "2", "a": "-1", "b": "-1", "c": "-1", "abc": "1"}


def test_cluster_subcommand(capsys):
    code, out, _ = run_cli(
        capsys, "ineq", "cluster", "--C", "ab", "--k", "1", "--mode", "char", "--n", "3"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["objective"] == {"ab": "1"} and payload["bound"] == "1"


def test_dags_subcommand(capsys):
    code, out, _ = run_cli(capsys, "dags", "--n", "3")
    assert code == 0 and json.loads(out)["count"] == 25
    code, out, _ = run_cli(capsys, "dags", "--n", "3", "--classes")
    assert json.loads(out)["count"] == 11
    code, out, _ = run_cli(capsys, "dags", "--n", "2", "--list")
    assert code == 0
    assert json.loads(out)["dags"] == [{"a": "", "b": ""}, {"a": "", "b": "a"}, {"a": "b", "b": ""}]


def test_se_subcommands(capsys):
    code, out, _ = run_cli(
        capsys, "se", "check", "--n", "3",
        "--objective", '{"a|b":"1","a|bc":"1","b|a":"1","b|ac":"1"}',
    )
    assert code == 0 and json.loads(out)["score_equivalent"] is True
    code, out, _ = run_cli(
        capsys, "se", "to-char", "--n", "3",
        "--objective", '{"a|b":"1","a|bc":"1","b|a":"1","b|ac":"1"}',
    )
    assert json.loads(out)["vector"] == {"ab": "1"}
    code, out, _ = run_cli(
        capsys, "se", "from-setfn", "--n", "3", "--setfn", '{"ab":"1","abc":"1"}'
    )
    assert json.loads(out)["vector"] == {
        "a|b": "1", "a|bc": "1", "b|a": "1", "b|ac": "1"
    }
    code, out, _ = run_cli(
        capsys, "se", "to-setfn", "--n", "3",
        "--objective", '{"a|b":"1","a|bc":"1","b|a":"1","b|ac":"1"}',
    )
    assert code == 0 and json.loads(out)["vector"] == {"ab": "1", "abc": "1"}


def test_json_options_read_at_path(tmp_path, capsys):
    objective = tmp_path / "objective.json"
    objective.write_text('{"a|b":"1","a|bc":"1","b|a":"1","b|ac":"1"}')
    code, out, _ = run_cli(capsys, "se", "to-char", "--n", "3", "--objective", f"@{objective}")
    assert code == 0 and json.loads(out)["vector"] == {"ab": "1"}
    code, out, err = run_cli(
        capsys, "se", "to-char", "--n", "3", "--objective", f"@{tmp_path / 'missing.json'}"
    )
    assert code == 2 and out == "" and err.startswith("error: ")


def _run_in_c_locale(*argv):
    """``python -m bnpoly.cli *argv`` in a subprocess whose locale encoding
    is ASCII: the C locale, neither coerced to C.UTF-8 nor in UTF-8 mode."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONIOENCODING"}
    env.update(LC_ALL="C", PYTHONCOERCECLOCALE="0", PYTHONUTF8="0", PYTHONPATH=src)
    return subprocess.run(
        [sys.executable, "-m", "bnpoly.cli", *argv], capture_output=True, text=True, env=env
    )


def test_files_are_read_as_utf8_in_the_c_locale(tmp_path, capsys):
    dag = '{"\u00e9":"","b":"\u00e9"}'  # a node named by one non-ASCII letter
    path = tmp_path / "dag.json"
    path.write_bytes(dag.encode("utf-8"))
    code, inline, _ = run_cli(capsys, "encode", "--dag", dag, "--as", "fam")
    assert code == 0 and json.loads(inline)["vector"] == {"b|\u00e9": "1"}
    run = _run_in_c_locale("encode", "--dag", f"@{path}", "--as", "fam")
    assert (run.returncode, run.stdout, run.stderr) == (0, inline, "")

    hull = tmp_path / "hull.txt"
    argv = ("polytope", "hull", "--n", "3", "--polytope", "fvp", "--matrix-out", str(hull))
    assert run_cli(capsys, *argv)[0] == 0
    matrix = tmp_path / "matrix.txt"
    matrix.write_bytes("# r\u00e9sum\u00e9\n".encode("utf-8") + hull.read_bytes())
    code, expected, _ = run_cli(capsys, "polytope", "vertices", "--n", "3", "--matrix", str(hull))
    run = _run_in_c_locale("polytope", "vertices", "--n", "3", "--matrix", str(matrix))
    assert code == 0 and (run.returncode, run.stdout, run.stderr) == (0, expected, "")


def test_supermod_subcommands(capsys):
    code, out, _ = run_cli(
        capsys, "supermod", "extreme", "--n", "3", "--setfn", '{"abc":"1"}'
    )
    assert code == 0 and json.loads(out)["extreme"] is True
    code, out, _ = run_cli(
        capsys, "supermod", "core", "--n", "3", "--setfn", '{"ab":"1","abc":"1"}'
    )
    assert json.loads(out)["vertices"] == [
        {"a": "0", "b": "1", "c": "0"},
        {"a": "1", "b": "0", "c": "0"},
    ]
    code, out, _ = run_cli(
        capsys, "supermod", "check", "--n", "3", "--setfn", '{"ab":"1","abc":"1"}'
    )
    assert code == 0 and json.loads(out)["supermodular"] is True
    code, out, _ = run_cli(capsys, "supermod", "check", "--n", "3", "--setfn", '{"ab":"-1"}')
    assert code == 0 and json.loads(out)["supermodular"] is False
    # r(T) = m(abc) - m(abc - T): 1 wherever T meets c or is all of ab
    code, out, _ = run_cli(
        capsys, "supermod", "dual", "--n", "3", "--setfn", '{"ab":"1","abc":"1"}'
    )
    assert code == 0 and json.loads(out)["vector"] == {
        "a": "1", "b": "1", "ab": "1", "ac": "1", "bc": "1", "abc": "1"
    }


def test_catalog_subcommand(capsys):
    code, out, _ = run_cli(capsys, "ineq", "catalog", "--which", "se4")
    assert code == 0
    payload = json.loads(out)
    assert payload["total"] == 37 and len(payload["types"]) == 10


def test_polytope_hull_subcommand(capsys):
    code, out, _ = run_cli(capsys, "polytope", "hull", "--n", "3", "--polytope", "cip")
    assert code == 0
    assert len(json.loads(out)["facets"]) == 13


def test_polytope_budget_exit_code(capsys):
    code, _, err = run_cli(
        capsys, "polytope", "hull", "--n", "4", "--polytope", "fvp", "--budget", "0"
    )
    assert code == 3
    assert "budget" in err


def test_verify_conjecture_budget_exit_code(capsys):
    code, out, err = run_cli(capsys, "verify", "conjecture", "--budget", "0")
    assert code == 3
    assert out == "" and "budget exhausted" in err


def test_verify_n3_exit_zero(capsys):
    code, out, _ = run_cli(capsys, "verify", "n3")
    assert code == 0
    assert "n3: PASSED" in out


def test_verify_timings_are_opt_in(capsys):
    code, out, _ = run_cli(capsys, "verify", "n3", "--timings")
    assert code == 0
    assert re.fullmatch(r"== n3: PASSED in \d+\.\ds ==", out.splitlines()[-1])
    code, out, _ = run_cli(capsys, "verify", "n3", "--json", "--timings")
    assert code == 0 and json.loads(out)["elapsed_seconds"] >= 0


def test_verify_json_deterministic(capsys):
    code1, out1, _ = run_cli(capsys, "verify", "n3", "--json")
    code2, out2, _ = run_cli(capsys, "verify", "n3", "--json")
    assert code1 == code2 == 0
    assert out1 == out2
    assert "elapsed" not in out1


@pytest.mark.parametrize(
    "argv",
    [
        ("nonsense",),
        ("se", "check", "--n", "3", "--objective", "not json"),
        ("se", "check", "--n", "3"),
        ("polytope", "hull", "--n", "3"),
        ("polytope", "hull", "--n", "3", "--points", "{}"),
        ("ineq", "cluster", "--n", "3"),
        ("supermod", "check", "--n", "3", "--setfn", "[1]"),
        ("verify", "conjecture", "--n", "4"),
        ("se", "check", "--n", "3", "--objective", '{"a|b":1.5}'),
        ("se", "check", "--n", "3", "--objective", '{"a|b": true}'),
        ("polytope", "hull", "--n", "3", "--points", '{"space":"fam","points":[[1]]}'),
        ("polytope", "vertices", "--n", "3", "--hrep", '{"space":"fam","inequalities":[1]}'),
        ("se", "is-face", "--n", "3", "--dags", "[1]"),
        ("ineq", "catalog"),
        ("polytope", "hull", "--n", "3", "--points", '{"space":"fam","points":[]}'),
        ("verify", "theorem3", "--n", "3", "--trials", "0"),
        ("verify", "theorem3", "--n", "3", "--trials", "-2"),
        ("verify", "theorem3", "--n", "5", "--trials", "0"),
        ("verify", "theorem3", "--n", "2"),
        ("verify", "theorem3", "--n", "6"),
        ("polytope", "hull", "--n", "3", "--polytope", "cip", "--budget", "nan"),
        ("verify", "n3", "--budget", "-1"),
        ("polytope", "hull", "--n", "3", "--polytope", "cip", "--max-rays", "-5"),
        ("verify", "theorem3", "--n", "3", "--trials", "1", "--budget", "0"),
        ("verify", "counterexample", "--budget", "0"),
        ("export-lp", "--n", "3", "--clusters", "ab"),
        ("export-lp", "--n", "3", "--clusters", "ab:x"),
        ("export-lp", "--n", "3", "--clusters", ","),
        ("se", "check", "--n", "3", "--objective", "@no-such-file.json"),
        ("se", "check", "--n", "3", "--objective", '{"a|bb":"1"}'),
        ("encode", "--dag", '{"a":"","b":"aa","c":""}', "--as", "fam"),
        ("ineq", "cluster", "--n", "4", "--C", "abb"),
        ("supermod", "check", "--n", "3", "--setfn", '{"aab":"1"}'),
    ],
    ids=[
        "unknown-command",
        "bad-json",
        "missing-objective",
        "missing-points",
        "points-without-space",
        "missing-cluster",
        "setfn-not-object",
        "conjecture-n4",
        "float-coordinate",
        "bool-coordinate",
        "point-not-object",
        "row-not-object",
        "dag-not-object",
        "catalog-without-which",
        "empty-points",
        "zero-trials",
        "negative-trials",
        "zero-trials-n5",
        "theorem3-n2",
        "theorem3-n6",
        "nan-budget",
        "negative-budget",
        "negative-max-rays",
        "theorem3-budget",
        "counterexample-budget",
        "cluster-without-level",
        "cluster-level-not-integer",
        "cluster-empty-entries",
        "missing-at-file",
        "repeated-parent-label",
        "repeated-dag-parent",
        "repeated-cluster-label",
        "repeated-setfn-label",
    ],
)
def test_usage_error_exit_two(capsys, argv):
    code, _, err = run_cli(capsys, *argv)
    assert code == 2
    assert "Traceback" not in err
    assert argv == ("nonsense",) or err.startswith("error: ")


# sha256 of the `dags` stdout: the enumeration order and the class
# representatives are part of the printed bytes.
@pytest.mark.parametrize(
    "argv, digest",
    [
        (("dags", "--n", "5", "--list"), "cd0e04ed7978b618c5c9b08d1ebb94995e711cdb025bf56eb4b0c6a9df2e2806"),
        (("dags", "--n", "4", "--classes"), "a67b2828cd79a42456c521a2c0744b19ac88484b35ae3e9f273bf4adac5d81f5"),
    ],
    ids=["n5-list", "n4-classes"],
)
def test_dags_stdout_bytes_are_pinned(capsys, argv, digest):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# sha256 of the `polytope hull` stdout for the four built-in hulls.  They
# are full-dimensional, so their facets are the unique primitive extreme
# rays and the bytes do not depend on the coordinate order of the lift.
@pytest.mark.parametrize(
    "n, polytope, digest",
    [
        (3, "fvp", "fe46d67eec455bc7765c5434451eda3c7abfa4c445e4096391a94294434b0e8e"),
        (3, "cip", "16312901ee532b67fd78633f97ee85eec651c6dd2dd157179fc47cc193423801"),
        (4, "fvp", "d70d7d48390176f06d9c7ec08850f33d6e5c00535fd3ecc3ecced970647177a9"),
        (4, "cip", "85456cdb3f469edecf91334937e88ed3f12938e0677302ca7780064585a561ea"),
    ],
    ids=["fvp3", "cip3", "fvp4", "cip4"],
)
def test_built_in_hull_stdout_bytes_are_pinned(capsys, n, polytope, digest):
    code, out, err = run_cli(capsys, "polytope", "hull", "--n", str(n), "--polytope", polytope)
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# sha256 of the catalog and encode stdout: the catalogs' imset objectives
# and their family translations, and a DAG's characteristic and standard
# imsets, are all computed through mask-indexed set functions.  The
# `verify counterexample --json` report rides along: its counts and
# dimensions come from the exact rank routine.  So do `verify n4 --json`,
# whose stdout less its newline is the `n4_report` blob of test_verify, and
# `verify conjecture --json`, whose face LPs read one row list.
_ENCODE_DAG = '{"a":"","b":"a","c":"ab","d":"bc"}'


@pytest.mark.parametrize(
    "argv, digest",
    [
        (("ineq", "catalog", "--which", "se4"), "aa2628c3ac53021aa52ddbac3958524e4720c76358e21701871f24066af8847b"),
        (("ineq", "catalog", "--which", "specific4"), "8d177a0ad54e5c581501731aacf16233e869bf8e8ffe96db6df5325fd8e30b46"),
        (("encode", "--dag", _ENCODE_DAG, "--as", "char"), "4670028760894269394e587210373aab53a7058909ec5866acfd591d146a34e2"),
        (("encode", "--dag", _ENCODE_DAG, "--as", "standard"), "c5a2a4eec6419cc76cd5bf29051943ef68754607686cb9ee74f33426db71ae01"),
        (("verify", "counterexample", "--json"), "cbf446192d672d6765e86ea1f1ffc14aed4f07481acfeb0b274b4829f4a43992"),
        (("verify", "n4", "--json"), "e7d6af21f86c480915569967a22b6f82ceb9d9dac85269725fbdb58b91999dad"),
        (("verify", "conjecture", "--json"), "1a3a1d0790d504aed325d90677bd5e18c6c63bd2a26be36a7f932b1a692540b8"),
        (("export-lp", "--n", "4", "--integer"), "49d0376f835364b050f7c1ca5ddf495237357efe070714f4077aaa83ddd384c8"),
    ],
    ids=[
        "catalog-se4",
        "catalog-specific4",
        "encode-char",
        "encode-standard",
        "verify-counterexample",
        "verify-n4",
        "verify-conjecture",
        "export-lp-n4-integer",
    ],
)
def test_catalog_and_encode_stdout_bytes_are_pinned(capsys, argv, digest):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# sha256 of the `verify` text tables, with their exit codes.  The first three
# are the benchmark's references; a check whose values are tuples prints them
# in list brackets, as its JSON form does.  The stretch table exits 1 on its
# known third-witness FAIL.
@pytest.mark.parametrize(
    "argv, exit_code, digest",
    [
        (("verify", "n4"), 0, "89c134814d497b9b5321b552b3f804b9edd2ddb5183fb68bdb61e5f7286bcc46"),
        (("verify", "counterexample"), 0, "42148f78d5ea83c7fc07eec7d66cd8c5c81ffa04d22fd1f0f36a4a1c000aa775"),
        (("verify", "conjecture"), 0, "a96493aac27893bf2f3e371ca38f7fb12d801465d1d545d3ce31c7db0950664a"),
        (("verify", "n4", "--stretch"), 1, "cc56507531cfd5fd7a7898c3f0b3d6c0c4b8d843ab70926b7755569f2fc56b9c"),
    ],
    ids=["n4", "counterexample", "conjecture", "n4-stretch"],
)
def test_verify_table_stdout_bytes_are_pinned(capsys, argv, exit_code, digest):
    code, out, err = run_cli(capsys, *argv)
    assert code == exit_code and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# sha256 of the `se is-face` stdout for the class of a - b at n = 3 and
# n = 4: the witness is the face LP's optimal vertex, so these bytes pin
# the LP's rows and their order as well as the verdict.
@pytest.mark.parametrize(
    "n, dags, digest",
    [
        (3, '[{"a":"","b":"a","c":""},{"a":"b","b":"","c":""}]', "e160d3002878d3b5308fc4c64336935cbf8ba078a50a2305c2cd426ca5e7ffd0"),
        (4, '[{"a":"","b":"a","c":"","d":""},{"a":"b","b":"","c":"","d":""}]', "95c7f03f7bd4d4ca323aa048dd905288b2d256f7bf170e680cac07f13ecf7d0b"),
    ],
    ids=["n3", "n4"],
)
def test_se_is_face_stdout_bytes_are_pinned(capsys, n, dags, digest):
    code, out, err = run_cli(capsys, "se", "is-face", "--n", str(n), "--dags", dags)
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_export_lp_names_a_malformed_cluster_entry(capsys):
    code, out, err = run_cli(capsys, "export-lp", "--n", "3", "--clusters", "ab")
    assert code == 2 and out == ""
    assert err == "error: --clusters entry 'ab' must be letters:level, e.g. ab:1\n"


@pytest.mark.parametrize("clusters", ["ab:1,ab:1", "ba:1,ab:1"])
def test_export_lp_refuses_a_cluster_row_named_twice(tmp_path, capsys, clusters):
    out_file = tmp_path / "model.lp"
    code, out, err = run_cli(
        capsys, "export-lp", "--n", "3", "--clusters", clusters, "--out", str(out_file)
    )
    assert code == 2 and out == ""
    assert err == "error: cluster ab:1 is given twice\n"
    assert not out_file.exists()


@pytest.mark.parametrize(
    "argv, option",
    [
        (("verify", "counterexample", "--n", "4", "--stretch", "--trials", "0"), "--n"),
        (("verify", "n3", "--n", "5"), "--n"),
        (("verify", "conjecture", "--trials", "0", "--seed", "9"), "--trials"),
        (("verify", "conjecture", "--seed", "0"), "--seed"),
        (("verify", "theorem3", "--stretch"), "--stretch"),
        (("verify", "n4", "--n", "4"), "--n"),
        (("verify", "theorem3", "--n", "5", "--seed", "3", "--trials", "77"), "--trials"),
        (("verify", "theorem3", "--n", "5", "--trials", "0"), "--trials"),
        (("verify", "theorem3", "--n", "5", "--seed", "0"), "--seed"),
        (("verify", "conjecture", "--n", "3"), "--n"),
    ],
)
def test_verify_refuses_options_the_pipeline_ignores(capsys, argv, option):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith(f"error: {option} does not apply to verify {argv[1]}")


def test_theorem3_n5_runs_without_trials_and_seed(capsys, monkeypatch):
    calls = []

    def record(n, trials, seed):
        calls.append(n)
        return VerificationReport(f"theorem3-n{n}")

    monkeypatch.setattr(cli, "verify_theorem3", record)
    code, out, _ = run_cli(capsys, "verify", "theorem3", "--n", "5")
    assert code == 0 and calls == [5]
    assert "theorem3-n5: PASSED" in out


@pytest.mark.parametrize(
    "argv, message",
    [
        (("ineq", "catalog", "--n", "3", "--which", "se4"), "--n does not apply to ineq catalog"),
        (("ineq", "catalog", "--which", "se4", "--C", "ab"), "--C does not apply to ineq catalog"),
        (("ineq", "catalog", "--which", "se4", "--k", "2"), "--k does not apply to ineq catalog"),
        (("ineq", "catalog", "--which", "se4", "--mode", "char"), "--mode does not apply to ineq catalog"),
        (("ineq", "cluster", "--C", "ab", "--which", "se4"), "--which does not apply to ineq cluster"),
        (
            ("polytope", "hull", "--n", "3", "--polytope", "fvp", "--points", '{"space":"fam","points":[]}'),
            "give --polytope or --points, not both",
        ),
        (
            ("polytope", "vertices", "--n", "3", "--hrep", "{}", "--matrix", "m.txt"),
            "give --hrep or --matrix, not both",
        ),
        (("polytope", "hull", "--n", "3", "--polytope", "cip", "--ineq", "{}"), "--ineq does not apply to polytope hull"),
        (("polytope", "vertices", "--n", "3", "--polytope", "cip"), "--polytope does not apply to polytope vertices"),
        (("polytope", "vertices", "--n", "3", "--hrep", "{}", "--space", "char"), "--space applies only to --matrix input"),
        (
            ("polytope", "face-dim", "--n", "3", "--polytope", "fvp", "--ineq", "{}", "--budget", "1"),
            "--budget does not apply to polytope face-dim",
        ),
        (("dags", "--n", "3", "--classes", "--list"), "--list does not apply to dags --classes"),
        (("se", "check", "--n", "3", "--objective", "{}", "--setfn", "{}"), "--setfn does not apply to se check"),
        (("se", "from-setfn", "--n", "3", "--setfn", "{}", "--dags", "[]"), "--dags does not apply to se from-setfn"),
    ],
    ids=[
        "catalog-n3",
        "catalog-C",
        "catalog-k",
        "catalog-mode",
        "cluster-which",
        "hull-polytope-and-points",
        "vertices-hrep-and-matrix",
        "hull-ineq",
        "vertices-polytope",
        "space-without-matrix",
        "face-dim-budget",
        "dags-classes-list",
        "se-check-setfn",
        "se-from-setfn-dags",
    ],
)
def test_subcommands_refuse_options_they_do_not_read(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


def _subparsers() -> dict[str, argparse.ArgumentParser]:
    (sub,) = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return sub.choices


_READS_TABLES = {
    "se": cli._SE_OPTIONS,
    "ineq": cli._INEQ_OPTIONS,
    "polytope": cli._POLYTOPE_OPTIONS,
    "verify": cli._VERIFY_OPTIONS,
}
_REQUIRED = {"se": ["--n", "3"], "polytope": ["--n", "3"]}


def _given(action: argparse.Action) -> list[str]:
    """The option with a value its parser accepts."""
    option = action.option_strings[0]
    if action.nargs == 0:
        return [option]
    return [option, action.choices[0] if action.choices else "1"]


@pytest.mark.parametrize("command", sorted(_READS_TABLES))
def test_every_option_an_action_does_not_read_is_refused(capsys, command):
    options = [a for a in _subparsers()[command]._actions if a.option_strings and a.dest != "help"]
    refused = 0
    for key, reads in _READS_TABLES[command].items():
        for action in options:
            option = action.option_strings[0]
            if option in reads:
                continue
            # "theorem3 --n 5" is the pipeline with its --n given.
            argv = [command, *key.split(), *_REQUIRED.get(command, []), *_given(action)]
            reason = ": it has no hull step" if command == "verify" and option == "--budget" else ""
            code, out, err = run_cli(capsys, *argv)
            assert (code, out, err) == (2, "", f"error: {option} does not apply to {command} {key}{reason}\n"), argv
            refused += 1
    assert refused >= len(_READS_TABLES[command])


@pytest.mark.parametrize("command", sorted(_READS_TABLES))
def test_reads_tables_name_only_options_of_their_parser(command):
    declared = {s for a in _subparsers()[command]._actions for s in a.option_strings}
    for key, reads in _READS_TABLES[command].items():
        assert reads <= declared, (key, reads - declared)


@pytest.mark.parametrize("command", ["", *sorted(_subparsers())])
def test_help_renders(capsys, command):
    code, out, err = run_cli(capsys, *command.split(), "--help")
    assert code == 0 and err == ""
    assert out.startswith(f"usage: bnpoly {command}".rstrip())


def test_violated_inequality_is_named_in_key_form(capsys):
    code, _, err = run_cli(
        capsys, "polytope", "face-dim", "--n", "3", "--polytope", "fvp",
        "--ineq", '{"space":"fam","objective":{"a|b":"1","b|a":"1"},"bound":"1/2"}',
    )
    assert code == 2
    assert "a|b + b|a <= 1/2" in err
    assert "LinearInequality(" not in err


def test_theorem3_names_every_supported_n(capsys):
    code, _, err = run_cli(capsys, "verify", "theorem3", "--n", "6")
    assert code == 2
    assert "{3, 4, 5}" in err


def test_dags_refuses_six_nodes_up_front(capsys, monkeypatch):
    def never(*_):
        raise AssertionError("the DAG generator must not be started")

    monkeypatch.setattr(dags, "_acyclic_parent_tuples", never)
    code, out, err = run_cli(capsys, "dags", "--n", "6")
    assert code == 3
    assert out == "" and "budget exhausted" in err
    assert "3781503 DAGs over 6 nodes" in err


def test_supermod_core_refuses_nine_nodes_up_front(capsys, monkeypatch):
    def never(*_):
        raise AssertionError("no work may start before the refusal")

    monkeypatch.setattr(supermod, "permutations", never)
    monkeypatch.setattr(supermod, "is_supermodular", never)
    code, out, err = run_cli(capsys, "supermod", "core", "--n", "9", "--setfn", "{}")
    assert code == 3
    assert out == "" and "budget exhausted" in err
    assert "362880 node orders over 9 nodes" in err


def test_supermod_extreme_refuses_above_ten_nodes_up_front(capsys, monkeypatch):
    def never(*_):
        raise AssertionError("no work may start before the refusal")

    monkeypatch.setattr(supermod, "is_supermodular", never)
    monkeypatch.setattr(supermod, "elementary_triplets", never)
    n = supermod.MAX_EXTREME_NODES + 1
    code, out, err = run_cli(capsys, "supermod", "extreme", "--n", str(n), "--setfn", "{}")
    assert code == 3
    assert out == "" and "budget exhausted" in err
    assert f"{math.comb(n, 2) << (n - 2)} elementary differences over {n} nodes" in err


_NESTED_REPEAT = (
    '{"space":"fam","inequalities":[{"objective":{"a|b":"-1"},"bound":"0"},'
    '{"objective":{"b|a":"-1"},"bound":"0"},'
    '{"objective":{"a|b":"1","b|a":"1","a|b":"2"},"bound":"1"}]}'
)


@pytest.mark.parametrize(
    "argv, key",
    [
        (("supermod", "check", "--n", "3", "--setfn", '{"abc":"1","abc":"-1"}'), "abc"),
        (("encode", "--dag", '{"a":"","a":"b","b":""}', "--as", "fam"), "a"),
        (("polytope", "vertices", "--n", "2", "--hrep", _NESTED_REPEAT), "a|b"),
    ],
    ids=["setfn", "dag", "nested-hrep"],
)
def test_repeated_json_key_is_refused(capsys, argv, key):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err == f"error: JSON key {key!r} is given twice\n"


def test_repeated_json_key_is_refused_in_a_file(tmp_path, capsys):
    setfn = tmp_path / "setfn.json"
    setfn.write_text('{"abc": "1",\n "abc": "-1"}\n')
    code, out, err = run_cli(capsys, "supermod", "check", "--n", "3", "--setfn", f"@{setfn}")
    assert code == 2 and out == ""
    assert err == "error: JSON key 'abc' is given twice\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("polytope", "hull", "--n", "5", "--polytope", "cip"),
        ("polytope", "hull", "--n", "5", "--polytope", "fvp"),
        ("se", "is-face", "--n", "5", "--dags", '[{"a":"","b":"","c":"","d":"","e":""}]'),
    ],
    ids=["hull-cip", "hull-fvp", "is-face"],
)
def test_five_node_hulls_and_face_lps_are_refused_up_front(capsys, monkeypatch, argv):
    def never(*_, **__):
        raise AssertionError("no work may start before the refusal")

    for module, name in [(cli, "cip_vrep"), (cli, "fvp_vrep"), (dags, "_acyclic_parent_tuples"),
                         (scoreeq, "enumerate_dags"), (scoreeq, "solve_lp")]:
        monkeypatch.setattr(module, name, never)
    code, out, err = run_cli(capsys, *argv)
    assert code == 3
    assert out == "" and "budget exhausted" in err


_LP_CONVEXITY = " conv_a: x_a_ + x_a_b = 1\n conv_b: x_b_ + x_b_a = 1\n"


@pytest.mark.parametrize(
    "options, objective, clusters",
    [
        ((), " obj: 0 x_a_\n", " cluster_ab_1: x_a_ + x_b_ >= 1\n"),
        (("--clusters", "all"), " obj: 0 x_a_\n", " cluster_ab_1: x_a_ + x_b_ >= 1\n"),
        (("--clusters", "none"), " obj: 0 x_a_\n", ""),
        (
            ("--clusters", "none", "--objective", '{"a|b":"2","b|a":"-1"}'),
            " obj: + 2 x_a_b - 1 x_b_a\n",
            "",
        ),
    ],
    ids=["default-clusters", "all-clusters", "no-clusters", "objective"],
)
def test_export_lp_to_stdout(capsys, options, objective, clusters):
    code, out, err = run_cli(capsys, "export-lp", "--n", "2", *options)
    assert code == 0 and err == ""
    bounds = "".join(f" 0 <= {v} <= 1\n" for v in ("x_a_", "x_a_b", "x_b_", "x_b_a"))
    assert out == (
        "\\ family-variable relaxation\nMaximize\n" + objective
        + "Subject To\n" + _LP_CONVEXITY + clusters + "Bounds\n" + bounds + "End\n"
    )


@pytest.mark.parametrize("clusters", [(), ("--clusters", "all")], ids=["default", "all"])
def test_export_lp_with_every_cluster_row_is_refused_above_nine_nodes(
    tmp_path, capsys, monkeypatch, clusters
):
    def never(*_, **__):
        raise AssertionError("no work may start before the refusal")

    monkeypatch.setattr(cli, "cluster_pairs", never)
    monkeypatch.setattr(cli, "export_lp", never)
    out_file = tmp_path / "model.lp"
    code, out, err = run_cli(capsys, "export-lp", "--n", "10", *clusters, "--out", str(out_file))
    assert code == 3 and out == ""
    assert err == (
        "budget exhausted: the LP with all cluster inequalities over 10 nodes is out of"
        " reach; --clusters all stops at n = 9\n"
    )
    assert not out_file.exists()


def test_export_lp_without_cluster_rows_stays_allowed_above_nine_nodes(tmp_path, capsys):
    out_file = tmp_path / "model.lp"
    code, _, err = run_cli(
        capsys, "export-lp", "--n", "10", "--clusters", "none", "--out", str(out_file)
    )
    assert code == 0 and err == ""
    assert out_file.read_text().endswith("End\n")


def test_export_lp_roundtrip(tmp_path, capsys):
    out_file = tmp_path / "model.lp"
    code, _, _ = run_cli(
        capsys, "export-lp", "--n", "3", "--clusters", "ab:1,abc:2", "--out", str(out_file)
    )
    assert code == 0
    text = out_file.read_text()
    assert "cluster_ab_1" in text and "cluster_abc_2" in text and text.endswith("End\n")


def test_is_face_subcommand(capsys):
    graphs = json.dumps([
        {"a": "", "b": "", "c": ""},
    ])
    code, out, _ = run_cli(capsys, "se", "is-face", "--n", "3", "--dags", graphs)
    assert code == 0
    payload = json.loads(out)
    assert payload["is_face"] is True and "witness" in payload


def test_polytope_matrix_io(tmp_path, capsys):
    matrix = tmp_path / "cip3.txt"
    code, out, _ = run_cli(
        capsys, "polytope", "hull", "--n", "3", "--polytope", "cip",
        "--matrix-out", str(matrix),
    )
    assert code == 0
    assert len(matrix.read_text().strip().splitlines()) == 13
    code, out, _ = run_cli(
        capsys, "polytope", "vertices", "--n", "3", "--matrix", str(matrix),
        "--space", "char",
    )
    assert code == 0
    assert json.loads(out)["count"] == 11


_SUM_AB = {"a|b": "1", "b|a": "1"}


@pytest.mark.parametrize(
    "cut, equations, vertices",
    [
        ((_SUM_AB, "1"), None, [{}, {"a|b": "1"}, {"b|a": "1"}]),
        ((_SUM_AB, "1"), [{"objective": _SUM_AB, "rhs": "1"}], [{"a|b": "1"}, {"b|a": "1"}]),
        # empty, though its recession cone (the quadrant) is not
        (({"a|b": "1"}, "-1"), None, []),
    ],
    ids=["triangle", "with-equation", "empty"],
)
def test_polytope_vertices_from_hrep(capsys, cut, equations, vertices):
    rows = [{"objective": {key: "-1"}, "bound": "0"} for key in ("a|b", "b|a")]
    rows.append({"objective": cut[0], "bound": cut[1]})
    hrep = {"space": "fam", "inequalities": rows}
    if equations is not None:
        hrep["equations"] = equations
    code, out, err = run_cli(capsys, "polytope", "vertices", "--n", "2", "--hrep", json.dumps(hrep))
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert payload["count"] == len(vertices)
    assert sorted(payload["vertices"], key=json.dumps) == sorted(vertices, key=json.dumps)


def test_polytope_face_dim_and_is_facet(capsys):
    ineq = json.dumps({
        "space": "fam",
        "objective": {"a|b": "1", "a|bc": "1", "b|a": "1", "b|ac": "1"},
        "bound": "1",
    })
    code, out, _ = run_cli(
        capsys, "polytope", "face-dim", "--n", "3", "--polytope", "fvp", "--ineq", ineq
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["dimension"] == 8
    code, out, _ = run_cli(
        capsys, "polytope", "is-facet", "--n", "3", "--polytope", "fvp", "--ineq", ineq
    )
    assert json.loads(out)["is_facet"] is True


def _zero_denominator_argv(tmp_path, source):
    if source == "objective":
        return ("se", "check", "--n", "3", "--objective", '{"a|b": "1/0"}')
    if source == "matrix":
        matrix = tmp_path / "zero.txt"
        matrix.write_text("1/0 0 1\n")
        return ("polytope", "vertices", "--n", "2", "--space", "fam", "--matrix", str(matrix))
    points = {"space": "fam", "points": [{"a|b": "1/0"}]}
    return ("polytope", "hull", "--n", "2", "--points", json.dumps(points))


@pytest.mark.parametrize("source", ["objective", "matrix", "points"])
def test_zero_denominator_is_a_usage_error(tmp_path, capsys, source):
    code, out, err = run_cli(capsys, *_zero_denominator_argv(tmp_path, source))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "zero denominator" in err
    assert "Traceback" not in err
    if source == "matrix":
        assert "matrix line 1" in err


_MALFORMED_RATIONAL = {
    "matrix": (
        ("polytope", "vertices", "--n", "2", "--space", "fam", "--matrix", "MATRIX"),
        "matrix line 1: malformed rational 'x'",
    ),
    "objective": (
        ("se", "check", "--n", "3", "--objective", '{"a|b": "1/x"}'),
        "--objective: malformed rational '1/x'",
    ),
    "points": (
        ("polytope", "hull", "--n", "2", "--points", '{"space": "fam", "points": [{"a|b": "x"}]}'),
        "--points: malformed rational 'x'",
    ),
    "ineq": (
        (
            "polytope", "face-dim", "--n", "2", "--polytope", "fvp",
            "--ineq", '{"space": "fam", "objective": {"a|b": 1}, "bound": "1/x"}',
        ),
        "--ineq: malformed rational '1/x'",
    ),
    "hrep": (
        (
            "polytope", "vertices", "--n", "2", "--hrep",
            '{"space": "fam", "inequalities": [], '
            '"equations": [{"objective": {"b|a": "y"}, "rhs": 0}]}',
        ),
        "--hrep: malformed rational 'y'",
    ),
    "setfn": (
        ("supermod", "check", "--n", "3", "--setfn", '{"ab": "q"}'),
        "--setfn: malformed rational 'q'",
    ),
}


@pytest.mark.parametrize("source", sorted(_MALFORMED_RATIONAL))
def test_malformed_rational_names_its_source(tmp_path, capsys, source):
    argv, message = _MALFORMED_RATIONAL[source]
    matrix = tmp_path / "malformed.txt"
    matrix.write_text("1/2 x 1\n")
    argv = [str(matrix) if arg == "MATRIX" else arg for arg in argv]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ("supermod", "check", "--n", "3", "--setfn", '{"abc": "1", "cba": "-1"}'),
            "--setfn: keys 'abc' and 'cba' name the same coordinate",
        ),
        (
            ("se", "to-char", "--n", "3", "--objective", '{"a|bc": "1", "b|a": "1", "a|cb": "2"}'),
            "--objective: keys 'a|bc' and 'a|cb' name the same coordinate",
        ),
    ],
    ids=["setfn", "objective"],
)
def test_two_texts_for_one_coordinate_are_refused(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("value", ["0", "1"])
@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ("se", "check", "--n", "3", "--objective", '{"a|ab": "VALUE"}'),
            "--objective: node a cannot be its own parent",
        ),
        (
            ("se", "from-setfn", "--n", "3", "--setfn", '{"a": "VALUE"}'),
            "--setfn: coordinates on subsets of size <= 1 are fixed to 0",
        ),
    ],
    ids=["own-parent", "size-one-subset"],
)
def test_a_key_outside_the_space_is_refused_whatever_its_value(capsys, argv, message, value):
    # A zero value would be dropped from the sparse vector; the key is
    # checked first, so a zero at a fixed-to-zero key is refused too.
    argv = [arg.replace("VALUE", value) for arg in argv]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


def test_cli_import_loads_no_heavy_stdlib_module():
    # python -S: no site-packages .pth file can load these first
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    heavy = ["dataclasses", "inspect", "typing", "importlib.resources", "pathlib", "random"]
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import bnpoly.cli; "
        f"print([m for m in {heavy!r} if m in sys.modules])"
    )
    run = subprocess.run(
        [sys.executable, "-I", "-S", "-c", code, src], capture_output=True, text=True, check=True
    )
    assert run.stdout == "[]\n"


@pytest.mark.parametrize("dag", ['{"x1":"","x2":"x1"}', '{"x1":"","x2":""}'])
def test_a_dag_node_name_longer_than_one_character_is_named(capsys, dag):
    code, out, err = run_cli(capsys, "encode", "--dag", dag, "--as", "fam")
    assert code == 2 and out == ""
    assert err == "error: node labels must be single characters, got 'x1'\n"


def test_a_dag_node_named_by_the_family_key_separator_is_refused(capsys):
    code, out, err = run_cli(capsys, "encode", "--dag", '{"|":"a","a":""}', "--as", "fam")
    assert code == 2 and out == ""
    assert err == "error: node labels must not hold '|', the family-key separator\n"


# An inequality row; %s takes its optional label entry.
_ROW = '{"space":"fam","objective":{"a|b":"1"},"bound":"1"%s}'


@pytest.mark.parametrize("label", ["5", '["x"]', "null"])
@pytest.mark.parametrize("option", ["--ineq", "--hrep"])
def test_a_row_label_that_is_not_a_string_is_refused(capsys, option, label):
    row = _ROW % f',"label":{label}'
    if option == "--ineq":
        argv = ("polytope", "face-dim", "--n", "3", "--polytope", "fvp", "--ineq", row)
    else:
        hrep = f'{{"space":"fam","inequalities":[{row}]}}'
        argv = ("polytope", "vertices", "--n", "3", "--hrep", hrep)
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err == f"error: {option}: 'label' must be a JSON str\n"


@pytest.mark.parametrize("label", ["", ',"label":"x"'], ids=["left-out", "text"])
def test_a_row_label_may_be_left_out_or_given_as_text(capsys, label):
    code, out, _ = run_cli(
        capsys, "polytope", "face-dim", "--n", "3", "--polytope", "fvp", "--ineq", _ROW % label
    )
    assert code == 0
    assert json.loads(out)["tight_points"] == 5


@pytest.mark.parametrize("action", ["face-dim", "is-facet"])
def test_malformed_ineq_is_refused_before_the_points_are_built(capsys, monkeypatch, action):
    def never(*_, **__):
        raise AssertionError("the points must not be built before --ineq is read")

    monkeypatch.setattr(cli, "cip_vrep", never)
    monkeypatch.setattr(cli, "fvp_vrep", never)
    code, out, err = run_cli(
        capsys, "polytope", action, "--n", "5", "--polytope", "cip", "--ineq", '{"space": "fam"}'
    )
    assert code == 2 and out == ""
    assert err.startswith("error: --ineq")
