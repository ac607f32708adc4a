"""Command-line frontend.

Subcommands map one-to-one onto module operations: encode, dags, se,
supermod, ineq, polytope, export-lp, verify.  All vector I/O is JSON with
rationals as "p/q" strings; outputs are byte-deterministic (sorted keys, no
timestamps unless --timings is given).  Exit codes: 0 success, 1 failed
verification, 2 usage error, 3 budget exhaustion.

The se, ineq, polytope and verify subcommands each have one reads table
(``_SE_OPTIONS`` ...), the one list of their actions and of the options each
reads: the parser takes its choices from it, and any other option given is
refused with exit 2.
"""

from __future__ import annotations

import argparse
import json
import sys

from .dags import Dag, enumerate_dags, enumerate_equivalence_classes
from .dd import Budget
from .encodings import char_from_fam, fam_vector, standard_imset
from .errors import BnPolyError, BudgetExceededError
from .ground import (
    CharVector,
    FamVector,
    GroundSet,
    char_from_json,
    char_to_json,
    fam_from_json,
    fam_to_json,
    rational_from_json,
    setfn_from_json,
    setfn_to_json,
)
from .ineq import (
    catalog_se_n4,
    catalog_specific_n4,
    cluster_char,
    cluster_fam,
    export_lp,
    LinearInequality,
)
from .polyhedra import (
    HRep,
    VRep,
    ambient_index,
    cip_vrep,
    face_of,
    facets_from_vertices,
    fvp_vrep,
    hrep_from_matrix_text,
    hrep_to_matrix_text,
    is_facet,
    vertices_from_inequalities,
)
from .scoreeq import char_objective, is_se_face, is_se_objective, objective_from_setfn, setfn_from_objective
from .supermod import (
    cluster_pairs,
    core_vertices,
    duality_transform,
    is_extreme,
    is_supermodular,
)
from .verify import (
    explore_conjecture,
    verify_counterexample,
    verify_n3,
    verify_n4,
    verify_theorem3,
)

SCHEMA = "bnpoly/cli/1"


def _emit(payload: dict) -> None:
    payload = {"schema": SCHEMA, **payload}
    print(json.dumps(payload, sort_keys=True, indent=2))


def _load_json_arg(text: str | None, option: str, kind: type = dict):
    """Parse an option given as inline JSON or ``@path``; the option must be
    present and hold a JSON object (or a list when ``kind`` is ``list``)."""
    if text is None:
        raise BnPolyError(f"{option} is required")
    if text.startswith("@"):
        with open(text[1:]) as handle:
            data = json.load(handle)
    else:
        data = json.loads(text)
    if not isinstance(data, kind):
        raise BnPolyError(f"{option} must be a JSON {'list' if kind is list else 'object'}")
    return data


def _named(option: str, parse, *args):
    """``parse(*args)`` on what ``option`` holds; a refusal names the option."""
    try:
        return parse(*args)
    except BnPolyError as exc:
        raise BnPolyError(f"{option}: {exc}") from None


def _field(data: dict, key: str, option: str, kind: type = object):
    """``data[key]``, where ``data`` must be a JSON object holding ``key``
    with a value of type ``kind``."""
    if not isinstance(data, dict):
        raise BnPolyError(f"{option}: expected a JSON object, got {data!r}")
    if key not in data:
        raise BnPolyError(f"{option} has no {key!r} entry")
    if not isinstance(data[key], kind):
        raise BnPolyError(f"{option}: {key!r} must be a JSON {kind.__name__}")
    return data[key]


def _space_parser(data: dict, option: str):
    """The coordinate space a JSON document names, with its vector parser."""
    space = _field(data, "space", option)
    if space not in ("fam", "char"):
        raise BnPolyError(f"{option}: space must be 'fam' or 'char', got {space!r}")
    return space, fam_from_json if space == "fam" else char_from_json


def _gs(args) -> GroundSet:
    return GroundSet.alpha(args.n)


def _vector_json(vec) -> dict:
    if isinstance(vec, FamVector):
        return fam_to_json(vec)
    if isinstance(vec, CharVector):
        return char_to_json(vec)
    return setfn_to_json(vec)


def _ineq_json(q: LinearInequality) -> dict:
    return {
        "space": q.space,
        "objective": _vector_json(q.objective),
        "bound": str(q.bound),
        "label": q.label,
    }


# Parsed destinations that name the subcommand, its action or its handler.
_NOT_OPTIONS = {"command", "action", "pipeline", "func"}


def _refuse_unread(args, command: str, reads: set[str], reasons: dict[str, str] | None = None) -> None:
    """Refuse (exit 2) any option given in ``args`` that ``command`` does
    not read; ``reasons`` adds a note per option.  Destination ``d`` is the
    option ``--d`` ("-" for "_"), given unless None or False, so that
    ``--trials 0`` is given."""
    for dest, value in vars(args).items():
        if dest in _NOT_OPTIONS or value is None or value is False:
            continue
        option = "--" + dest.replace("_", "-")
        if option not in reads:
            reason = (reasons or {}).get(option, "")
            raise BnPolyError(f"{option} does not apply to {command}{reason}")


def _budget(args) -> Budget | None:
    if getattr(args, "budget", None) is None and getattr(args, "max_rays", None) is None:
        return None
    return Budget(max_seconds=args.budget, max_rays=getattr(args, "max_rays", None))


# --- subcommand handlers -----------------------------------------------------


def _cmd_encode(args) -> int:
    graph = Dag.from_json(_load_json_arg(args.dag, "--dag"))
    if args.as_ == "fam":
        _emit({"kind": "fam", "vector": fam_to_json(fam_vector(graph))})
    elif args.as_ == "char":
        _emit({"kind": "char", "vector": char_to_json(char_from_fam(fam_vector(graph)))})
    else:
        _emit({"kind": "standard", "vector": setfn_to_json(standard_imset(graph))})
    return 0


def _cmd_dags(args) -> int:
    gs = _gs(args)
    if args.classes:
        _refuse_unread(args, "dags --classes", {"--n", "--classes"})
        classes = enumerate_equivalence_classes(gs)
        payload = {
            "n": gs.n,
            "count": len(classes),
            "classes": [
                {"representative": rep.to_json(), "size": size} for rep, size in classes
            ],
        }
    else:
        graphs = enumerate_dags(gs)
        payload = {"n": gs.n, "count": len(graphs)}
        if args.list:
            payload["dags"] = [g.to_json() for g in graphs]
    _emit(payload)
    return 0


# The se actions and the options each reads; any other one given is refused.
_SE_OPTIONS = {
    "check": {"--n", "--objective"},
    "to-char": {"--n", "--objective"},
    "from-setfn": {"--n", "--setfn"},
    "to-setfn": {"--n", "--objective"},
    "is-face": {"--n", "--dags"},
}


def _cmd_se(args) -> int:
    _refuse_unread(args, f"se {args.action}", _SE_OPTIONS[args.action])
    gs = _gs(args)
    if "--objective" in _SE_OPTIONS[args.action]:
        obj = _named(
            "--objective", fam_from_json, gs, _load_json_arg(args.objective, "--objective")
        )
    if args.action == "check":
        _emit({"score_equivalent": is_se_objective(obj)})
    elif args.action == "to-char":
        _emit({"vector": char_to_json(char_objective(obj))})
    elif args.action == "from-setfn":
        m = _named("--setfn", char_from_json, gs, _load_json_arg(args.setfn, "--setfn"))
        _emit({"vector": fam_to_json(objective_from_setfn(m))})
    elif args.action == "to-setfn":
        _emit({"vector": char_to_json(setfn_from_objective(obj))})
    else:  # is-face
        graphs = [Dag.from_json(obj, gs) for obj in _load_json_arg(args.dags, "--dags", list)]
        ok, witness = is_se_face(graphs)
        payload = {"is_face": ok}
        if witness is not None:
            payload["witness"] = fam_to_json(witness)
        _emit(payload)
    return 0


def _cmd_supermod(args) -> int:
    gs = _gs(args)
    m = _named("--setfn", setfn_from_json, gs, _load_json_arg(args.setfn, "--setfn"))
    if args.action == "check":
        _emit({"supermodular": is_supermodular(m)})
    elif args.action == "extreme":
        _emit({"extreme": is_extreme(m)})
    elif args.action == "core":
        vertices = core_vertices(m)
        _emit({
            "vertices": [
                {gs.labels[i]: str(v) for i, v in enumerate(vertex)} for vertex in vertices
            ]
        })
    else:  # dual
        _emit({"vector": setfn_to_json(duality_transform(m))})
    return 0


# The ineq actions and the options each reads; any other one given is refused.
_INEQ_OPTIONS = {
    "cluster": {"--n", "--C", "--k", "--mode"},
    "catalog": {"--which"},
}


def _cmd_ineq(args) -> int:
    _refuse_unread(args, f"ineq {args.action}", _INEQ_OPTIONS[args.action])
    if args.action == "cluster":
        if args.C is None:
            raise BnPolyError("--C is required")
        gs = GroundSet.alpha(4 if args.n is None else args.n)
        C = gs.mask_of(args.C)
        build = cluster_char if args.mode == "char" else cluster_fam
        q = build(gs, C, 1 if args.k is None else args.k)
        _emit({"objective": _vector_json(q.objective), "bound": str(q.bound)})
    else:  # catalog
        if args.which is None:
            raise BnPolyError("--which is required: se4 or specific4")
        entries = catalog_se_n4() if args.which == "se4" else catalog_specific_n4()
        payload = {
            "which": args.which,
            "total": sum(e.expected_orbit_size for e in entries),
            "types": [
                {
                    "type_id": e.type_id,
                    "count": e.expected_orbit_size,
                    "char": _ineq_json(e.char_ineq),
                    "fam": _ineq_json(e.fam_ineq),
                }
                for e in entries
            ],
        }
        _emit(payload)
    return 0


def _vrep_from_args(args, gs: GroundSet) -> VRep:
    if args.polytope == "fvp":
        return fvp_vrep(gs)
    if args.polytope == "cip":
        return cip_vrep(gs)
    data = _load_json_arg(args.points, "--polytope or --points")
    space, parse = _space_parser(data, "--points")
    index = ambient_index(gs, space)
    points = tuple(
        tuple(_named("--points", parse, gs, obj)[key] for key in index)
        for obj in _field(data, "points", "--points", list)
    )
    return VRep(space, gs, points)


def _ineq_from_json(gs: GroundSet, space: str, parse, item, option: str) -> LinearInequality:
    """One inequality from its JSON object: objective, bound, optional label."""
    return LinearInequality(
        space,
        _named(option, parse, gs, _field(item, "objective", option)),
        _named(option, rational_from_json, _field(item, "bound", option)),
        item.get("label", ""),
    )


def _hrep_from_args(args, gs: GroundSet) -> HRep:
    if args.matrix:
        with open(args.matrix) as handle:
            return hrep_from_matrix_text(gs, args.space or "fam", handle.read())
    data = _load_json_arg(args.hrep, "--matrix or --hrep")
    space, parse = _space_parser(data, "--hrep")
    rows = tuple(
        _ineq_from_json(gs, space, parse, item, "--hrep")
        for item in _field(data, "inequalities", "--hrep", list)
    )
    equations = tuple(
        (
            _named("--hrep", parse, gs, _field(item, "objective", "--hrep")),
            _named("--hrep", rational_from_json, _field(item, "rhs", "--hrep")),
        )
        for item in (_field(data, "equations", "--hrep", list) if "equations" in data else [])
    )
    return HRep(space, gs, rows, equations)


def _parse_ineq_arg(args, gs: GroundSet) -> LinearInequality:
    data = _load_json_arg(args.ineq, "--ineq")
    return _ineq_from_json(gs, *_space_parser(data, "--ineq"), data, "--ineq")


# The polytope actions and the options each reads; any other one given is
# refused, and so is a second source of the same input.
_POLYTOPE_OPTIONS = {
    "hull": {"--n", "--polytope", "--points", "--matrix-out", "--budget", "--max-rays"},
    "vertices": {"--n", "--hrep", "--matrix", "--space", "--budget", "--max-rays"},
    "face-dim": {"--n", "--polytope", "--points", "--ineq"},
    "is-facet": {"--n", "--polytope", "--points", "--ineq"},
}


# Plain DD on the 8782-vertex five-node CIP is short of row 1250 after 600 s.
_MAX_HULL_NODES = 4


def _cmd_polytope(args) -> int:
    _refuse_unread(args, f"polytope {args.action}", _POLYTOPE_OPTIONS[args.action])
    for first, second in (("polytope", "points"), ("hrep", "matrix")):
        if getattr(args, first) is not None and getattr(args, second) is not None:
            raise BnPolyError(f"give --{first} or --{second}, not both")
    if args.space is not None and args.matrix is None:
        raise BnPolyError("--space applies only to --matrix input")
    gs = _gs(args)
    budget = _budget(args)
    if args.action == "hull":
        if args.polytope is not None and gs.n > _MAX_HULL_NODES:
            raise BudgetExceededError(
                f"the {args.polytope} hull over {gs.n} nodes is out of reach;"
                f" built-in hulls stop at n = {_MAX_HULL_NODES}"
            )
        vrep = _vrep_from_args(args, gs)
        hull = facets_from_vertices(vrep, budget=budget)
        if args.matrix_out:
            with open(args.matrix_out, "w") as handle:
                handle.write(hrep_to_matrix_text(hull))
        _emit({
            "space": hull.space,
            "facets": [_ineq_json(q) for q in hull.inequalities],
            "equations": [
                {"objective": _vector_json(vec), "rhs": str(rhs)}
                for vec, rhs in hull.equations
            ],
        })
    elif args.action == "vertices":
        hrep = _hrep_from_args(args, gs)
        vrep = vertices_from_inequalities(hrep, budget=budget)
        _emit({
            "space": vrep.space,
            "count": len(vrep.points),
            "vertices": [_vector_json(vec) for vec in vrep.vectors()],
        })
    else:  # face-dim, is-facet: a malformed --ineq is refused before the points are built
        ineq = _parse_ineq_arg(args, gs)
        vrep = _vrep_from_args(args, gs)
        if args.action == "face-dim":
            info = face_of(ineq, vrep)
            _emit({"tight_points": len(info.tight_indices), "dimension": info.dimension})
        else:
            _emit({"is_facet": is_facet(ineq, vrep)})
    return 0


def _cmd_export_lp(args) -> int:
    gs = _gs(args)
    objective = None
    if args.objective:
        objective = _named(
            "--objective", fam_from_json, gs, _load_json_arg(args.objective, "--objective")
        )
    if args.clusters == "all":
        clusters = cluster_pairs(gs)
    elif args.clusters == "none":
        clusters = []
    else:
        clusters = []
        for piece in args.clusters.split(","):
            letters, _, level = piece.partition(":")
            try:
                k = int(level)
            except ValueError:
                raise BnPolyError(f"--clusters entry {piece!r} must be letters:level, e.g. ab:1") from None
            clusters.append((gs.mask_of(letters), k))
    text = export_lp(gs, objective=objective, clusters=clusters, integer=args.integer)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    return 0


# Every verify pipeline reads how its report is printed.
_REPORT_OPTIONS = {"--json", "--timings"}

# The verify pipelines and the options each reads; any other one given is
# refused.  At n = 5 theorem3 (a key with a space, not a pipeline) solves
# the two fixed counterexample LPs instead of random objectives.
_VERIFY_OPTIONS = {
    "n3": {"--budget"} | _REPORT_OPTIONS,
    "n4": {"--stretch", "--budget"} | _REPORT_OPTIONS,
    "theorem3": {"--n", "--trials", "--seed"} | _REPORT_OPTIONS,
    "theorem3 --n 5": {"--n"} | _REPORT_OPTIONS,
    "counterexample": _REPORT_OPTIONS,
    "conjecture": {"--budget"} | _REPORT_OPTIONS,
}


def _cmd_verify(args) -> int:
    name = "theorem3 --n 5" if args.pipeline == "theorem3" and args.n == 5 else args.pipeline
    _refuse_unread(
        args, f"verify {name}", _VERIFY_OPTIONS[name], {"--budget": ": it has no hull step"}
    )
    budget = _budget(args)
    if args.pipeline == "n3":
        report = verify_n3(budget=budget)
    elif args.pipeline == "n4":
        report = verify_n4(stretch=args.stretch, budget=budget)
    elif args.pipeline == "theorem3":
        trials = 100 if args.trials is None else args.trials
        seed = 0 if args.seed is None else args.seed
        report = verify_theorem3(3 if args.n is None else args.n, trials=trials, seed=seed)
    elif args.pipeline == "counterexample":
        report = verify_counterexample()
    else:  # conjecture
        report = explore_conjecture(budget=budget)
    if args.json:
        print(json.dumps(report.to_json(include_elapsed=args.timings), sort_keys=True, indent=2))
    else:
        print(report.format_table(include_elapsed=args.timings))
    return 0 if report.passed else 1


# --- parser -------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bnpoly",
        description="Exact rational toolkit for the family-variable and "
        "characteristic-imset polytopes of graphical-model structure search",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("encode", help="encode a DAG as a vector")
    p.add_argument("--dag", required=True, help="JSON map node -> parent letters (or @file)")
    p.add_argument("--as", dest="as_", choices=["fam", "char", "standard"], required=True)
    p.set_defaults(func=_cmd_encode)

    p = sub.add_parser("dags", help="enumerate DAGs or their equivalence classes")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--classes", action="store_true")
    p.add_argument("--list", action="store_true")
    p.set_defaults(func=_cmd_dags)

    p = sub.add_parser("se", help="score-equivalence operations")
    p.add_argument("action", choices=list(_SE_OPTIONS))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--objective", help="fam-vector JSON (or @file)")
    p.add_argument("--setfn", help="char-vector JSON (or @file)")
    p.add_argument("--dags", help="JSON list of DAG maps (or @file)")
    p.set_defaults(func=_cmd_se)

    p = sub.add_parser("supermod", help="supermodular set-function operations")
    p.add_argument("action", choices=["check", "extreme", "core", "dual"])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--setfn", required=True, help="set-function JSON (or @file)")
    p.set_defaults(func=_cmd_supermod)

    p = sub.add_parser("ineq", help="inequality families and catalogs")
    p.add_argument("action", choices=list(_INEQ_OPTIONS))
    p.add_argument("--n", type=int)
    p.add_argument("--C", help="cluster letters, e.g. abc")
    p.add_argument("--k", type=int)
    p.add_argument("--mode", choices=["fam", "char"])
    p.add_argument("--which", choices=["se4", "specific4"])
    p.set_defaults(func=_cmd_ineq)

    p = sub.add_parser("polytope", help="exact polyhedral computations")
    p.add_argument("action", choices=list(_POLYTOPE_OPTIONS))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--polytope", choices=["fvp", "cip"], help="built-in vertex set")
    p.add_argument("--points", help="VRep JSON (or @file)")
    p.add_argument("--hrep", help="HRep JSON (or @file)")
    p.add_argument("--matrix", help="H-representation in plain matrix text")
    p.add_argument("--matrix-out", dest="matrix_out", help="also write the hull in plain matrix text")
    p.add_argument("--space", choices=["fam", "char"], help="coordinate space for --matrix input")
    p.add_argument("--ineq", help="inequality JSON (or @file)")
    p.add_argument("--budget", type=float, help="wall-clock seconds")
    p.add_argument("--max-rays", type=int, dest="max_rays")
    p.set_defaults(func=_cmd_polytope)

    p = sub.add_parser("export-lp", help="write the family-variable relaxation in CPLEX LP format")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--clusters", default="all", help='"all", "none", or comma list like ab:1,abc:2')
    p.add_argument("--objective", help="fam-vector JSON (or @file)")
    p.add_argument("--integer", action="store_true", help="mark variables binary")
    p.add_argument("--out", help="output path (stdout when omitted)")
    p.set_defaults(func=_cmd_export_lp)

    p = sub.add_parser("verify", help="run a verification pipeline")
    p.add_argument("pipeline", choices=[name for name in _VERIFY_OPTIONS if " " not in name])
    p.add_argument("--n", type=int, help="ground-set size for theorem3 (default 3)")
    p.add_argument("--trials", type=int, help="random objectives for theorem3 (default 100)")
    p.add_argument("--seed", type=int, help="random seed for theorem3 (default 0)")
    p.add_argument("--stretch", action="store_true", help="include the long-running n4 checks")
    p.add_argument("--budget", type=float, help="wall-clock seconds for hull steps (n3, n4, conjecture)")
    p.add_argument("--json", action="store_true", help="emit the report as JSON instead of a table")
    p.add_argument("--timings", action="store_true", help="include elapsed time (breaks byte determinism)")
    p.set_defaults(func=_cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except BudgetExceededError as exc:
        print(f"budget exhausted: {exc}", file=sys.stderr)
        return 3
    except (BnPolyError, json.JSONDecodeError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
