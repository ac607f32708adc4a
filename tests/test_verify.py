import hashlib
import json

import pytest

from bnpoly.dags import Dag, enumerate_dags, equivalence_class
from bnpoly.dd import Budget
from bnpoly.polyhedra import facets_from_vertices, fvp_vrep
from bnpoly.verify import (
    VerificationReport,
    _fvp_star_summary,
    all_faces_by_tight_sets,
    smallest_face_containing,
    verify_n4,
    verify_theorem3,
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
    # one-vertex catalog facets at n = 4.  Insertion by the last negative
    # entry, then colex, peaks at 1336 intermediate rays (1415 in plain colex
    # order); the cap leaves about 2x headroom, so an order that blows
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
    report = verify_n4(stretch=False)
    skipped = [c.description for c in report.checks if c.skipped]
    assert "family-variable polytope facet count" in skipped
    assert "relaxation vertex enumeration" in skipped


@pytest.mark.parametrize(
    "n, trials, message",
    [
        (2, 1, "verify theorem3 is supported for n in {3, 4, 5}, got 2"),
        (6, 0, "verify theorem3 is supported for n in {3, 4, 5}, got 6"),
        (5, 0, "trials must be at least 1, got 0"),
    ],
)
def test_theorem3_refuses_unsupported_arguments(n, trials, message):
    with pytest.raises(ValueError) as info:
        verify_theorem3(n, trials)
    assert str(info.value) == message


# sha256 of json.dumps(report.to_json(), sort_keys=True, indent=2), the bytes
# `bnpoly verify ... --json` prints, for each session report.  A refactor must
# leave them alone; a change to a published report updates them on purpose.
_REPORT_SHA256 = {
    "n3_report": "47bdf35b906766ce2507b8d2e783e46cccb1d9c18c4c8dd446d45b61d805fe82",
    "n4_report": "d584dd153943b063e10a4ce477ed1d7edc1c1a371e43adeee69bbd5c6cdf4c68",
    "theorem3_n3_report": "abc206655543ff0057c6a3071c0d43c713a6ce85c24a488794b06e9e9ae0207c",
    "theorem3_n4_report": "238f3c787a1b6b5b49da0601072902eab7ce6339f015f7491dc8f6edef8ea55c",
    "theorem3_n5_report": "76718e8462fe3bba044f15f51b77eb56c95b6fbcb1179d713e6fec94c56fa90e",
    "counterexample_report": "31b48ac3edf327347838ce5d8a337d0a113c63487ff08cc0c35d7d351939fb5b",
    "conjecture_report": "32638f60a750136da60790fcbc2a2347c9feb7cff8a4591a32c3e01c55052a31",
}


@pytest.mark.parametrize("fixture", sorted(_REPORT_SHA256))
def test_report_json_bytes_unchanged(fixture, request):
    report = request.getfixturevalue(fixture)
    blob = json.dumps(report.to_json(), sort_keys=True, indent=2).encode()
    assert hashlib.sha256(blob).hexdigest() == _REPORT_SHA256[fixture]
