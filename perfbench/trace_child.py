"""Run one ``bnpoly`` CLI call in this interpreter with spans recorded
around the public functions of each layer.

Usage::

    python3 trace_child.py SUMMARY.json ARG...

The CLI output goes to stdout unchanged and the exit code is the CLI's, so
the caller checks the result exactly as for an untraced call.  Spans (name,
start, end, parent) are kept in memory and folded into per-function totals
when the call returns; the totals are written to SUMMARY.json.

Wrappers are bound in every ``bnpoly`` module that holds the original
function, whether it imported the function by name (``polyhedra.solve_lp``)
or reaches it through its module (``linalg.rank``), so no call path escapes
the trace.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
from collections.abc import Sized
from time import perf_counter

# module -> public functions wrapped in a traced run.
TRACED = {
    "cli": ["main"],
    "verify": [
        "verify_n4",
        "verify_theorem3",
        "verify_counterexample",
        "explore_conjecture",
        "all_faces_by_tight_sets",
    ],
    "polyhedra": [
        "facets_from_vertices",
        "vertices_from_inequalities",
        "lp_maximize",
        "max_over_vertices",
        "fvp_vrep",
        "cip_vrep",
    ],
    "simplex": ["solve_lp"],
    "dd": ["extreme_rays"],
    "dags": ["enumerate_dags", "enumerate_equivalence_classes"],
    "linalg": ["rank", "affine_rank", "incremental_rank_reaches"],
    "encodings": ["char_bits"],
    "scoreeq": ["is_se_face"],
    "supermod": ["is_extreme"],
    "ineq": ["catalog_se_n4", "catalog_specific_n4"],
}

# Sites that import a traced function by name.  Binding a wrapper in the
# defining module alone would miss every call made through these; if one is
# not found and rebound, the trace fails loudly instead of losing spans.
REQUIRED_SITES = [
    "polyhedra.extreme_rays",
    "polyhedra.solve_lp",
    "polyhedra.enumerate_dags",
    "scoreeq.solve_lp",
    "verify.lp_maximize",
    "verify.enumerate_dags",
]


def traced_names() -> list[str]:
    return [f"{module}.{fn}" for module, fns in TRACED.items() for fn in fns]


class Tracer:
    """In-memory span recorder.  A span is ``[name, start, end, parent]``,
    where ``parent`` is the index of the enclosing span or -1."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counters: dict[str, int] = {}
        self.lp_sizes: list[tuple[int, int]] = []

    def count(self, key: str, amount: int) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self.stack
        before, after = _BEFORE.get(name), _AFTER.get(name)
        signature = inspect.signature(fn) if before is not None else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                bound = signature.bind(*args, **kwargs)
                before(self, bound.arguments)
                args, kwargs = bound.args, bound.kwargs
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if after is not None:
                after(self, result)
            return result

        return traced


def summarize(spans, counters=None, lp_sizes=()) -> dict:
    """Per-function calls and self time, plus the counters and the duration
    of every ``simplex.solve_lp`` span."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    functions: dict[str, dict] = {}
    lp_durations = []
    for (name, start, end, _), covered in zip(spans, child_time):
        entry = functions.setdefault(name, {"calls": 0, "self_s": 0.0})
        entry["calls"] += 1
        entry["self_s"] += end - start - covered
        if name == "simplex.solve_lp":
            lp_durations.append(end - start)
    return {
        "functions": functions,
        "counters": dict(counters or {}),
        "lp_durations": lp_durations,
        "lp_sizes": list(lp_sizes),
    }


def _lp_size(tracer: Tracer, arguments) -> None:
    rows = len(arguments.get("A_ub") or ()) + len(arguments.get("A_eq") or ())
    tracer.lp_sizes.append((rows, len(arguments["c"])))


def _dd_rows_in(tracer: Tracer, arguments) -> None:
    rows = arguments["rows"]
    if not isinstance(rows, Sized):  # a generator would be spent by len()
        arguments["rows"] = rows = list(rows)
    tracer.count("dd.extreme_rays.rows_in", len(rows))


# Counters read from the arguments before a call and from its result after.
_BEFORE = {"simplex.solve_lp": _lp_size, "dd.extreme_rays": _dd_rows_in}
_AFTER = {
    "dd.extreme_rays": lambda t, r: t.count("dd.extreme_rays.rays_out", len(r[0])),
    "dags.enumerate_dags": lambda t, r: t.count("dags.enumerate_dags.dags_out", len(r)),
    "dags.enumerate_equivalence_classes": lambda t, r: t.count(
        "dags.enumerate_equivalence_classes.classes_out", len(r)
    ),
}


def install(tracer: Tracer) -> None:
    """Wrap every function in ``TRACED`` and bind the wrapper wherever a
    ``bnpoly`` module holds the original."""
    modules = {name: importlib.import_module(f"bnpoly.{name}") for name in TRACED}
    wrappers = {}
    for module, fns in TRACED.items():
        for fn in fns:
            original = getattr(modules[module], fn)
            wrappers[id(original)] = tracer.wrap(f"{module}.{fn}", original)
    bound = set()
    for modname, module in sorted(sys.modules.items()):
        if modname != "bnpoly" and not modname.startswith("bnpoly."):
            continue
        short = modname.removeprefix("bnpoly.") if modname != "bnpoly" else "bnpoly"
        for attr, value in list(vars(module).items()):
            hit = wrappers.get(id(value))
            if hit is not None:
                setattr(module, attr, hit)
                bound.add(f"{short}.{attr}")
    missing = [site for site in REQUIRED_SITES if site not in bound]
    if missing:
        raise RuntimeError(f"traced functions not bound at: {', '.join(missing)}")


def main(argv: list[str]) -> int:
    summary_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    install(tracer)
    cli = sys.modules["bnpoly.cli"]
    try:
        code = cli.main(cli_args)
    finally:
        sys.stdout.flush()
        with open(summary_path, "w") as handle:
            json.dump(summarize(tracer.spans, tracer.counters, tracer.lp_sizes), handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
