"""Tests of the benchmark itself: self-time accounting, the declared
metrics, and a smoke run of every workload against the real CLI."""

import json
import subprocess
import sys

from run import END_TO_END, HERE, ROOT, per_layer_spec
from trace_child import summarize


def test_self_time_subtracts_child_spans():
    spans = [
        ["cli.main", 0.0, 10.0, -1],
        ["simplex.solve_lp", 1.0, 4.0, 0],
        ["linalg.rank", 2.0, 3.0, 1],
        ["simplex.solve_lp", 5.0, 9.0, 0],
    ]
    functions = summarize(spans)["functions"]
    assert functions["cli.main"] == {"calls": 1, "self_s": 3.0}
    assert functions["simplex.solve_lp"] == {"calls": 2, "self_s": 6.0}
    assert functions["linalg.rank"]["self_s"] == 1.0
    assert summarize(spans)["lp_durations"] == [3.0, 4.0]


def test_declared_metrics_match_emitted_names():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in declared["end_to_end"]] == END_TO_END
    assert [(m["name"], m["unit"]) for m in declared["per_layer"]] == per_layer_spec()


def test_smoke_every_workload():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke"],
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[-1] == "smoke ok"
