import json

import pytest

from bnpoly import dags
from bnpoly.cli import main


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
    ],
)
def test_usage_error_exit_two(capsys, argv):
    code, _, err = run_cli(capsys, *argv)
    assert code == 2
    assert "Traceback" not in err
    assert argv == ("nonsense",) or err.startswith("error: ")


@pytest.mark.parametrize(
    "argv, option",
    [
        (("verify", "counterexample", "--n", "4", "--stretch", "--trials", "0"), "--n"),
        (("verify", "n3", "--n", "5"), "--n"),
        (("verify", "conjecture", "--trials", "0", "--seed", "9"), "--trials"),
        (("verify", "conjecture", "--seed", "0"), "--seed"),
        (("verify", "theorem3", "--stretch"), "--stretch"),
        (("verify", "n4", "--n", "4"), "--n"),
    ],
)
def test_verify_refuses_options_the_pipeline_ignores(capsys, argv, option):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith(f"error: {option} does not apply to verify {argv[1]}")


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
