import json

from bnpoly.dags import Dag, enumerate_dags, equivalence_class
from bnpoly.dd import Budget
from bnpoly.polyhedra import facets_from_vertices, fvp_vrep
from bnpoly.verify import (
    VerificationReport,
    _fvp_star_summary,
    all_faces_by_tight_sets,
    smallest_face_containing,
    verify_n4,
)


def _by_description(report):
    return {c.description: c for c in report.checks}


def test_n3_pipeline_passes(n3_report):
    assert n3_report.passed
    checks = _by_description(n3_report)
    assert checks["family-variable polytope facet count"].observed == 17
    assert checks["characteristic-imset polytope facet count"].observed == 13
    assert checks["imset facets tight at the all-ones vertex"].observed == 5
    assert checks["imset facets tight at the zero vertex"].observed == 8
    assert checks["cluster + non-negativity polytope vertex count"].observed == 28


def test_n4_core_pipeline_passes(n4_report):
    assert n4_report.passed
    checks = _by_description(n4_report)
    assert checks["characteristic-imset polytope vertex count"].observed == 185
    assert checks["characteristic-imset polytope facet count"].observed == 154
    assert checks["facets containing the all-ones vertex"].observed == 37
    assert checks["remaining facet count"].observed == 117
    assert checks["all 37 one-vertex facet set functions extreme"].observed == 37
    skipped = [c for c in n4_report.checks if c.skipped]
    assert len(skipped) == 2  # both stretch checks off by default


def test_counterexample_pipeline_passes(counterexample_report):
    assert counterexample_report.passed
    checks = _by_description(counterexample_report)
    assert checks["tight DAG codes"].observed == 153
    assert checks["family-variable face dimension"].observed == 53
    assert checks["distinct characteristic imsets on the face"].observed == 59
    assert checks["affine rank of those imsets"].observed == 26


def test_se_relaxation_vertices_within_ray_budget():
    # The relaxation behind criterion 3: non-negativity, convexity and the 37
    # one-vertex catalog facets at n = 4.  Colex insertion peaks at 1415
    # intermediate rays; the cap leaves 2x headroom, so an order that blows
    # the cone up fails within seconds.  The printed third witness is not a
    # vertex (criterion 3 reports that), so it is not checked here.
    summary = _fvp_star_summary(Budget(max_rays=2800))
    assert summary["total"] == 1329
    assert summary["fractional"] == 786
    assert summary["witness1"] and summary["witness2"]


def test_theorem3_n3_passes(theorem3_n3_report):
    assert theorem3_n3_report.passed
    checks = _by_description(theorem3_n3_report)
    key = "reduced polyhedron: optima agree on 100 random objectives"
    assert checks[key].observed == 100


def test_theorem3_n4_passes(theorem3_n4_report):
    assert theorem3_n4_report.passed
    checks = _by_description(theorem3_n4_report)
    assert checks["reduced polyhedron: optima agree on 25 random objectives"].observed == 25
    assert checks["one-vertex-facet polyhedron: optima agree on 25 random objectives"].observed == 25


def test_theorem3_n5_passes(theorem3_n5_report):
    assert theorem3_n5_report.passed


def test_conjecture_pipeline_passes(conjecture_report):
    assert conjecture_report.passed
    checks = _by_description(conjecture_report)
    assert checks["equivalence-closed faces that are not SE faces"].observed == 0


def test_report_json_shape(n3_report):
    blob = n3_report.to_json()
    assert blob["schema"] == "bnpoly/report/1"
    assert blob["passed"] is True
    json.dumps(blob)  # serializable
    assert "elapsed_seconds" not in blob
    assert "elapsed_seconds" in n3_report.to_json(include_elapsed=True)


def test_report_failure_and_skip_semantics():
    report = VerificationReport("demo")
    report.check("good", 1, 1)
    report.skip("later", "disabled")
    assert report.passed
    report.check("bad", 1, 2)
    assert not report.passed
    table = report.format_table()
    assert "[SKIP]" in table and "[FAIL]" in table


def test_face_enumeration_and_non_face_rejection(gs3):
    fvp = fvp_vrep(gs3)
    hull = facets_from_vertices(fvp)
    faces = all_faces_by_tight_sets(fvp, hull)
    assert frozenset(range(25)) in faces
    assert all(faces.count(f) == 1 for f in faces[:10])
    # single vertices are faces
    sizes = {len(f) for f in faces}
    assert 1 in sizes and 25 in sizes

    # the empty-graph class together with the full-graph class is closed
    # under equivalence but is not a face: no facet contains both, so the
    # smallest containing face is the whole polytope
    dags = enumerate_dags(gs3)
    empty = Dag.from_json({"a": "", "b": "", "c": ""}, gs3)
    fulls = equivalence_class(Dag.from_json({"a": "", "b": "a", "c": "ab"}, gs3))
    chosen = fulls | {empty}
    picked = frozenset(i for i, g in enumerate(dags) if g in chosen)
    closure = smallest_face_containing(picked, fvp, hull)
    assert picked < closure
    assert closure == frozenset(range(25))
    assert picked not in set(faces)


def test_stretch_checks_are_reported_when_disabled():
    report = verify_n4(fvp_hull=False, fvp_star=False)
    skipped = [c.description for c in report.checks if c.skipped]
    assert "family-variable polytope facet count" in skipped
    assert "relaxation vertex enumeration" in skipped
