import argparse
import json
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
    ],
)
def test_usage_error_exit_two(capsys, argv):
    code, _, err = run_cli(capsys, *argv)
    assert code == 2
    assert "Traceback" not in err
    assert argv == ("nonsense",) or err.startswith("error: ")


def test_export_lp_names_a_malformed_cluster_entry(capsys):
    code, out, err = run_cli(capsys, "export-lp", "--n", "3", "--clusters", "ab")
    assert code == 2 and out == ""
    assert err == "error: --clusters entry 'ab' must be letters:level, e.g. ab:1\n"


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


def test_cli_import_loads_no_heavy_stdlib_module():
    # python -S: no site-packages .pth file can load these first
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    heavy = ["dataclasses", "inspect", "typing", "importlib.resources", "pathlib"]
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import bnpoly.cli; "
        f"print([m for m in {heavy!r} if m in sys.modules])"
    )
    run = subprocess.run(
        [sys.executable, "-I", "-S", "-c", code, src], capture_output=True, text=True, check=True
    )
    assert run.stdout == "[]\n"


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
