"""Benchmark for the ``bnpoly`` command line.

Each workload is a fixed list of CLI calls, chosen so that one hot module
dominates it (see README.md next to this file).  Every call runs in a fresh
interpreter through ``bnpoly.cli.main``, because CLI users pay the cold
module caches on every call, and with ``BNPOLY_CACHE`` pointing at a new
empty directory, so no stored artifact can stand in for a computation.
Calls run one after another from this process.  Their stdout and exit code
must match, byte for byte, the reference recorded at the seed commit.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

With ``--trace 0`` a run times the workload repeatedly for S seconds and
reports the end-to-end metrics as medians over its iterations.  The speed
of the machine is sampled with a fixed calibration loop (``calibrate.py``)
before, during and after each timed process, and times are reported at a
reference speed, so that a shared host changing speed does not read as a
change in the program.  With
``--trace 1`` every iteration runs the workload untraced and then traced
(``trace_child.py``), and the run reports the per-layer metrics.  The last
line of stdout is the JSON result.  ``--smoke`` runs every workload once,
untraced and traced, and checks the outputs and that the emitted metric
names and units are exactly those in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import shutil
import signal
import statistics
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import calibrate
from trace_child import traced_names

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TMP_ROOT = ROOT / ".perfbench_tmp"

THEOREM3_TRIALS = 1  # random objectives per theorem3 call; 2K+2 LPs each
SETUP_PROBES_PER_ITERATION = 3
SETUP_PROBES_MAX = 15
# Seconds one calibration unit takes on the reference machine.  A timed
# process that took t seconds while the unit took c seconds on average is
# reported as t * REF_CALIB_S / c: its time at the reference speed.
REF_CALIB_S = 0.020

SETUP_BOOT = (
    "import bnpoly\n"
    "from bnpoly.ineq import catalog_se_n4, catalog_specific_n4, counterexample_constants\n"
    "se, specific = catalog_se_n4(), catalog_specific_n4()\n"
    "counterexample_constants()\n"
    "print(bnpoly.__file__, sum(e.expected_orbit_size for e in se),"
    " sum(e.expected_orbit_size for e in specific))\n"
)


@dataclass(frozen=True)
class Call:
    key: str  # entry in reference.json
    argv: tuple[str, ...]
    expect: tuple[tuple[str, int], ...] = ()  # per-layer counts a traced call must show


def workload_calls(name: str, seed: int, iteration: int) -> list[Call]:
    if name == "theorem3-n4":
        cli_seed = random.Random(f"{seed}/{iteration}").randrange(2**31)
        argv = ("verify", "theorem3", "--n", "4", "--trials", str(THEOREM3_TRIALS), "--seed", str(cli_seed))
        expect = (("simplex.solve_lp.calls", 2 * THEOREM3_TRIALS + 2),)
        return [Call(f"theorem3-n4/trials={THEOREM3_TRIALS}", argv, expect)]
    if name == "se-faces-n3":
        return [Call("se-faces-n3", ("verify", "conjecture"), (("simplex.solve_lp.calls", 93),))]
    if name == "hulls-n4":
        return [
            Call("cip-hull-n4", ("verify", "n4"), (("dd.extreme_rays.rays_out", 154),)),
            Call(
                "fvp-hull-n4",
                ("polytope", "hull", "--n", "4", "--polytope", "fvp"),
                (("dd.extreme_rays.rays_out", 135),),
            ),
        ]
    if name == "counterexample-n5":
        return [
            Call(
                "counterexample-n5",
                ("verify", "counterexample"),
                (("dags.enumerate_dags.dags_out", 29281),),
            )
        ]
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ["theorem3-n4", "se-faces-n3", "hulls-n4", "counterexample-n5"]

END_TO_END = [("wall_ref_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB")]


def per_layer_spec() -> list[tuple[str, str]]:
    spec = []
    for name in traced_names():
        spec += [(f"{name}.calls", "count"), (f"{name}.self_s", "s")]
    return spec + [
        ("simplex.solve_lp.p50_s", "s"),
        ("simplex.solve_lp.p90_s", "s"),
        ("simplex.solve_lp.rows", "count"),
        ("simplex.solve_lp.cols", "count"),
        ("dd.extreme_rays.rows_in", "count"),
        ("dd.extreme_rays.rays_out", "count"),
        ("dags.enumerate_dags.dags_out", "count"),
        ("dags.enumerate_equivalence_classes.classes_out", "count"),
        ("traced_wall_s", "s"),
        ("trace_overhead_ratio", "ratio"),
    ]


def _nearest_rank(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def layer_metrics(summaries: list[dict]) -> dict[str, float]:
    """Per-layer values of one pass over a workload, from the trace
    summaries of its calls."""
    out = {}
    for name in traced_names():
        entries = [s["functions"].get(name, {}) for s in summaries]
        out[f"{name}.calls"] = sum(e.get("calls", 0) for e in entries)
        out[f"{name}.self_s"] = sum(e.get("self_s", 0.0) for e in entries)
    durations = [d for s in summaries for d in s["lp_durations"]]
    sizes = [size for s in summaries for size in s["lp_sizes"]]
    out["simplex.solve_lp.p50_s"] = _nearest_rank(durations, 0.5)
    out["simplex.solve_lp.p90_s"] = _nearest_rank(durations, 0.9)
    out["simplex.solve_lp.rows"] = max((rows for rows, _ in sizes), default=0)
    out["simplex.solve_lp.cols"] = max((cols for _, cols in sizes), default=0)
    for key in (
        "dd.extreme_rays.rows_in",
        "dd.extreme_rays.rays_out",
        "dags.enumerate_dags.dags_out",
        "dags.enumerate_equivalence_classes.classes_out",
    ):
        out[key] = sum(s["counters"].get(key, 0) for s in summaries)
    return out


class SetupError(RuntimeError):
    """The program under test cannot be started from this checkout."""


class Runner:
    """Starts the CLI calls of one run and keeps its tallies."""

    def __init__(self, tmp: Path, reference: dict):
        self.tmp = tmp
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.walls: list[float] = []  # untraced wall time of each iteration
        self.setups: list[tuple[float, float]] = []  # set-up probes, measured and scaled
        self.speed: float | None = None  # calibration seconds, if measured since the last process
        self.speeds: list[float] = []
        self._serial = 0

    def workdir(self) -> Path:
        self._serial += 1
        work = self.tmp / str(self._serial)
        (work / "cache").mkdir(parents=True)
        return work

    def spawn(self, args: list[str], work: Path) -> tuple[int, bytes, int]:
        """Run the interpreter on ``args``; return exit code, stdout and the
        child's own peak resident set in KiB."""
        env = {k: v for k, v in os.environ.items() if not k.startswith(("PYTHON", "BNPOLY_"))}
        env["PYTHONPATH"] = str(SRC)
        env["BNPOLY_CACHE"] = str(work / "cache")
        write = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
        actions = [
            (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
            (os.POSIX_SPAWN_OPEN, 1, str(work / "stdout"), write, 0o600),
            (os.POSIX_SPAWN_OPEN, 2, str(work / "stderr"), write, 0o600),
        ]
        self.speed = None  # the machine may change speed while the child runs
        pid = os.posix_spawn(sys.executable, [sys.executable, *args], env, file_actions=actions)
        try:
            _, status, usage = os.wait4(pid, 0)
        except BaseException:  # interrupted or terminated: leave no child running
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            raise
        return os.waitstatus_to_exitcode(status), (work / "stdout").read_bytes(), usage.ru_maxrss

    def calibrate(self) -> float:
        self.speed = calibrate.seconds()
        self.speeds.append(self.speed)
        return self.speed

    def setup_probe(self) -> tuple[float, float]:
        """Seconds to start an interpreter, import bnpoly and load the
        bundled catalogs, as measured and at the reference speed.  The probe
        is too short to sample inside, so it is bracketed by calibrations."""
        work = self.workdir()
        before = self.speed or self.calibrate()
        start = perf_counter()
        code, out, _ = self.spawn(["-c", SETUP_BOOT], work)
        elapsed = perf_counter() - start
        after = self.calibrate()
        scaled = elapsed * REF_CALIB_S * 2 / (before + after)
        expected = f"{SRC / 'bnpoly' / '__init__.py'} 37 117\n".encode()
        if code != 0 or out != expected:
            err = (work / "stderr").read_text(errors="replace")[-2000:]
            raise SetupError(f"set-up probe failed (exit {code}): {out!r} {err}")
        return elapsed, scaled

    def run_pass(self, calls: list[Call], traced: bool) -> tuple[float, float, int, list[dict]]:
        """Run the calls once; return the summed wall time of the calls, as
        measured and (untraced only) at the reference speed, the largest
        peak RSS in KiB, and the trace summaries when traced."""
        wall, scaled_wall, rss, summaries = 0.0, 0.0, 0, []
        for call in calls:
            work = self.workdir()
            summary_path = work / "trace.json"
            samples_path = work / "samples.json"
            child = "trace_child.py" if traced else "cli_child.py"
            args = [str(HERE / child), str(summary_path if traced else samples_path), *call.argv]
            self.attempted += 1
            start = perf_counter()
            code, out, maxrss = self.spawn(args, work)
            elapsed = perf_counter() - start
            ref = self.reference.get(call.key)
            ok = ref is not None and code == ref["exit_code"] and out == ref["stdout"].encode()
            rss = max(rss, maxrss)
            if not ok:
                self.failed += 1
                err = (work / "stderr").read_text(errors="replace")[-2000:]
                self.problems.append(f"{call.key}: exit {code}, output differs from reference\n{err}")
                continue
            if not traced:
                samples = json.loads(samples_path.read_text())
                self.speeds += samples
                elapsed -= sum(samples)
                scaled_wall += elapsed * REF_CALIB_S / statistics.fmean(samples)
            wall += elapsed
            if traced:
                summary = json.loads(summary_path.read_text())
                summaries.append(summary)
                values = layer_metrics([summary])
                for key, want in call.expect:
                    if values[key] != want:
                        self.problems.append(f"{call.key}: traced {key} = {values[key]}, expected {want}")
        return wall, scaled_wall, rss, summaries


def measure(
    workload: str, seed: int, seconds: float, e2e: bool, layers: bool
) -> tuple[Runner, dict, dict]:
    """One run: returns the runner's tallies and, as asked for, the
    end-to-end metrics (untraced passes and set-up probes) and the per-layer
    metrics (each untraced pass followed by a traced one)."""
    reference = json.loads((HERE / "reference.json").read_text())
    tmp = TMP_ROOT / f"run-{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    runner = Runner(tmp, reference)
    try:
        runner.setup_probe()  # compiles bytecode once, as an install would; not counted
        start = perf_counter()
        deadline = start + seconds
        scaled_walls, rsses, traced_walls, rows = [], [], [], []
        iteration = 0
        while True:
            if e2e:
                # Spread over the run, so the median sees the same machine as the workload.
                while len(runner.setups) < min(SETUP_PROBES_PER_ITERATION * (iteration + 1), SETUP_PROBES_MAX):
                    runner.setups.append(runner.setup_probe())
            calls = workload_calls(workload, seed, iteration)
            wall, scaled_wall, rss, _ = runner.run_pass(calls, traced=False)
            runner.walls.append(wall)
            scaled_walls.append(scaled_wall)
            rsses.append(rss)
            if layers:
                traced_wall, _, _, summaries = runner.run_pass(calls, traced=True)
                traced_walls.append(traced_wall)
                if len(summaries) == len(calls):
                    rows.append(layer_metrics(summaries))
            iteration += 1
            per_iteration = (perf_counter() - start) / iteration
            if perf_counter() + per_iteration > deadline:
                break
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        if TMP_ROOT.is_dir() and not any(TMP_ROOT.iterdir()):
            TMP_ROOT.rmdir()

    end_to_end, per_layer = {}, {}
    if e2e:
        end_to_end = {
            "wall_ref_s": statistics.median(scaled_walls),
            "setup_s": statistics.median(scaled for _, scaled in runner.setups),
            "peak_rss_mb": statistics.median(rsses) / 1024,
        }
    if layers:
        if rows:
            per_layer = {key: statistics.median_low(row[key] for row in rows) for key in rows[0]}
            per_layer["traced_wall_s"] = statistics.median(traced_walls)
            per_layer["trace_overhead_ratio"] = (
                statistics.median(traced_walls) / statistics.median(runner.walls)
            )
        else:
            runner.problems.append("no traced iteration completed")
    return runner, end_to_end, per_layer


def _emit_metrics(metrics: dict, spec: list[tuple[str, str]]) -> dict:
    units = dict(spec)
    return {name: {"value": value, "unit": units[name]} for name, value in metrics.items()}


def _print_report(workload: str, runner: Runner, e2e: dict, per_layer: dict) -> None:
    for name, unit in END_TO_END:
        if name in e2e:
            print(f"{workload:18s} {name:14s} {e2e[name]:12.4f} {unit}")
    if e2e:
        walls, speeds = runner.walls, runner.speeds
        setup_walls = [elapsed for elapsed, _ in runner.setups]
        print(f"{workload:18s} {'wall_s':14s} {statistics.median(walls):12.4f} s as measured,"
              f" median of {len(walls)} iterations, min {min(walls):.4f} s, max {max(walls):.4f} s")
        print(f"{workload:18s} {'setup_wall_s':14s} {statistics.median(setup_walls):12.4f} s"
              f" as measured, median of {len(setup_walls)} probes")
        print(f"{workload:18s} {'calib_s':14s} {statistics.median(speeds):12.4f} s per calibration"
              f" unit, median of {len(speeds)}, min {min(speeds):.4f} s, max {max(speeds):.4f} s;"
              f" wall_ref_s and setup_s are at {REF_CALIB_S} s per unit")
    print(f"{workload:18s} {'fail_ratio':14s} {runner.failed / runner.attempted:12.4f} ratio"
          f" ({runner.failed}/{runner.attempted} calls)")
    if per_layer:
        wall = per_layer["traced_wall_s"]
        ranked = sorted(
            ((per_layer[f"{name}.self_s"], name) for name in traced_names()), reverse=True
        )
        shares = ", ".join(f"{name} {100 * t / wall:.1f}%" for t, name in ranked[:3] if t)
        print(f"{workload:18s} top self time: {shares}")
    for problem in runner.problems:
        print(f"{workload:18s} PROBLEM {problem}", file=sys.stderr)


def smoke() -> int:
    """Every workload once, untraced and traced; checks
    correctness and that metric names and units match BENCHMARK.json."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    want_e2e = {(m["name"], m["unit"]) for m in declared["end_to_end"]}
    want_layer = {(m["name"], m["unit"]) for m in declared["per_layer"]}
    bad = 0
    for workload in WORKLOADS:
        runner, e2e, per_layer = measure(workload, seed=0, seconds=0, e2e=True, layers=True)
        _print_report(workload, runner, e2e, per_layer)
        got_e2e = {(name, m["unit"]) for name, m in _emit_metrics(e2e, END_TO_END).items()}
        got_layer = {(name, m["unit"]) for name, m in _emit_metrics(per_layer, per_layer_spec()).items()}
        if got_e2e != want_e2e or got_layer != want_layer:
            print(f"{workload}: metric names or units differ from BENCHMARK.json:"
                  f" {sorted(got_e2e ^ want_e2e)} {sorted(got_layer ^ want_layer)}", file=sys.stderr)
            bad += 1
        bad += bool(runner.failed or runner.problems)
    print("smoke " + ("FAILED" if bad else "ok"))
    return 1 if bad else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=28)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    if not (SRC / "bnpoly" / "cli.py").is_file():
        print(f"bnpoly sources not found under {SRC}", file=sys.stderr)
        return 2
    try:
        if args.smoke:
            return smoke()
        runner, e2e, per_layer = measure(
            args.workload, args.seed, args.seconds, e2e=not args.trace, layers=bool(args.trace)
        )
    except SetupError as exc:
        print(exc, file=sys.stderr)
        return 2
    _print_report(args.workload, runner, e2e, per_layer)
    metrics = (
        _emit_metrics(per_layer, per_layer_spec()) if args.trace else _emit_metrics(e2e, END_TO_END)
    )
    result = {
        "correct": runner.failed == 0 and not runner.problems,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
