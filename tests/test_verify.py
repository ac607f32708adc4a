import hashlib
import inspect
import json
from fractions import Fraction

import pytest

from bnpoly import linalg
from bnpoly.dags import Dag, enumerate_dags, equivalence_class
from bnpoly.dd import Budget
from bnpoly.encodings import char_bits
from bnpoly.errors import BudgetExceededError
from bnpoly.ground import GroundSet, enumerate_cai, iter_bits
from bnpoly.polyhedra import facets_from_vertices, fvp_vrep, incidence
from bnpoly.scoreeq import _class_rows
from bnpoly.verify import (
    Check,
    VerificationReport,
    _dimension_witnesses,
    _fvp_star_summary,
    all_faces_by_tight_sets,
    explore_conjecture,
    verify_counterexample,
    verify_n3,
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


@pytest.mark.parametrize("n", [3, 4, 5])
def test_dimension_witnesses_are_unitriangular(n):
    gs = GroundSet.alpha(n)
    cai = enumerate_cai(gs)
    imsets = [char_bits(g) for g in _dimension_witnesses(gs)]
    assert len(imsets) == 2**n - n
    assert imsets[0] == (0,) * len(cai)
    # row i is 1 on the i-th cai subset and 0 on every later one
    for i, row in enumerate(imsets[1:]):
        assert row[i] == 1 and not any(row[i + 1 :])
    assert linalg.affine_rank(imsets) == 2**n - n


def test_counterexample_dimension_check_reads_only_the_witnesses(monkeypatch):
    # The witnesses reach affine rank 27 after 27 imsets; the DAG stream in
    # lexicographic order would need 1601.
    read = []
    original = linalg.incremental_rank_reaches

    def counting(points, target):
        def tally():
            for point in points:
                read.append(point)
                yield point

        return original(tally(), target)

    monkeypatch.setattr(linalg, "incremental_rank_reaches", counting)
    report = verify_counterexample()
    assert report.passed
    assert 0 < len(read) <= 27
    imsets = [char_bits(g) for g in enumerate_dags(GroundSet.alpha(5))[:1601]]
    assert original(imsets, 27)
    assert not original(imsets[:1600], 27)


def test_se_relaxation_vertices_within_ray_budget():
    # The relaxation behind criterion 3: non-negativity, convexity and the 37
    # one-vertex catalog facets at n = 4.  Insertion by the last negative
    # entry, then colex, peaks at 1336 intermediate rays (1415 in plain colex
    # order); the cap leaves about 2x headroom, so an order that blows
    # the cone up fails within seconds.  The printed third witness is not a
    # vertex (criterion 3 reports that), so it is not checked here.
    total, fractional, found = _fvp_star_summary(Budget(max_rays=2800))
    assert total == 1329
    assert fractional == 786
    assert found[0] and found[1]


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


def test_conjecture_enumerates_the_dags_once(monkeypatch):
    # the polytope's vertices are the codes of the pipeline's own DAG list,
    # so no enumeration runs behind it in fvp_vrep
    import bnpoly.polyhedra as polyhedra_module
    import bnpoly.verify as verify_module

    calls = []

    def counting_enumeration(gs):
        calls.append(gs.n)
        return enumerate_dags(gs)

    for module in (verify_module, polyhedra_module):
        monkeypatch.setattr(module, "enumerate_dags", counting_enumeration)
    assert explore_conjecture().passed
    assert calls == [3]


@pytest.mark.parametrize(
    "pipeline, kwargs, expected",
    [
        (verify_n3, {}, [3, 3, 3]),
        (verify_n4, {}, [4, 4]),
        (verify_n4, {"stretch": True}, [4, 4, 4]),
    ],
    ids=["n3", "n4", "n4-stretch"],
)
def test_small_pipelines_enumerate_only_inside_their_builders(monkeypatch, pipeline, kwargs, expected):
    # the DAG and class counts come from the built polytope or the classes;
    # what is left runs inside enumerate_equivalence_classes, cip_vrep and
    # (at n = 3, or under stretch) fvp_vrep
    import bnpoly.dags as dags_module
    import bnpoly.polyhedra as polyhedra_module
    import bnpoly.verify as verify_module

    calls = []

    def counting_enumeration(gs):
        calls.append(gs.n)
        return enumerate_dags(gs)

    for module in (dags_module, verify_module, polyhedra_module):
        monkeypatch.setattr(module, "enumerate_dags", counting_enumeration)
    pipeline(**kwargs)
    assert calls == expected


def test_report_json_shape(n3_report):
    blob = n3_report.to_json()
    assert blob["schema"] == "bnpoly/report/1"
    assert blob["passed"] is True
    json.dumps(blob)  # serializable
    assert "elapsed_seconds" not in blob
    assert "elapsed_seconds" in n3_report.to_json(include_elapsed=True)


def test_report_failure_and_skip_semantics():
    good = Check("good", 1, 1)
    later = Check("later", None, None, skipped=True, note="disabled", source="")
    assert VerificationReport("demo", (good, later)).passed
    report = VerificationReport("demo", (good, later, Check("bad", 1, 2)))
    assert not report.passed
    table = report.format_table()
    assert "[SKIP] later: disabled" in table and "[FAIL] bad: expected 1, observed 2" in table
    assert table.endswith("\n== demo: FAILED ==")
    assert "source" not in later.to_json() and later.to_json()["passed"] is True


def test_check_verdict_comes_from_its_values():
    with pytest.raises(TypeError, match="unknown field 'passed'"):
        Check("x", 1, 2, passed=True)
    assert not Check("x", 1, 2).passed
    assert Check("x", Fraction(2), 2).passed
    # a skip flag does not excuse values that disagree
    assert not VerificationReport("demo", (Check("x", 1, 2, skipped=True),)).passed
    assert VerificationReport("demo").checks == () and VerificationReport("demo").passed


def test_face_enumeration_and_non_face_rejection(gs3):
    fvp = fvp_vrep(gs3)
    hull = facets_from_vertices(fvp)
    faces = all_faces_by_tight_sets(fvp, hull)
    everything = (1 << 25) - 1
    assert everything in faces
    assert all(faces.count(f) == 1 for f in faces[:10])
    # single vertices are faces
    sizes = {f.bit_count() for f in faces}
    assert 1 in sizes and 25 in sizes

    # the empty-graph class together with the full-graph class is closed
    # under equivalence but is not a face: no facet contains both, so the
    # smallest containing face, the intersection of the facet tight sets
    # containing it, is the whole polytope
    dags = enumerate_dags(gs3)
    empty = Dag.from_json({"a": "", "b": "", "c": ""}, gs3)
    fulls = equivalence_class(Dag.from_json({"a": "", "b": "a", "c": "ab"}, gs3))
    chosen = fulls | {empty}
    picked = sum(1 << i for i, g in enumerate(dags) if g in chosen)
    closure = everything
    for tight in incidence(hull.inequalities, fvp):
        if picked & tight == picked:
            closure &= tight
    assert picked & closure == picked and picked != closure
    assert closure == everything
    assert picked not in set(faces)


def test_face_lattice_masks_match_frozenset_closure(gs3):
    # oracle: the frontier closure over frozensets, from sparse tight tests
    fvp = fvp_vrep(gs3)
    hull = facets_from_vertices(fvp)
    vectors = fvp.vectors()
    tight_sets = [
        frozenset(i for i, v in enumerate(vectors) if q.is_tight_at(v))
        for q in hull.inequalities
    ]
    everything = frozenset(range(len(vectors)))
    expected = {everything}
    frontier = [everything]
    while frontier:
        face = frontier.pop()
        for tight in tight_sets:
            smaller = face & tight
            if smaller and smaller not in expected:
                expected.add(smaller)
                frontier.append(smaller)
    expected = sorted(expected, key=lambda f: (len(f), sum(1 << i for i in f)))

    masks = all_faces_by_tight_sets(fvp, hull)
    decoded = [frozenset(iter_bits(m)) for m in masks]
    assert len(decoded) == 4911
    assert decoded == expected

    # the Markov-closed faces: the old set-comprehension closure
    dags = enumerate_dags(gs3)
    class_of = [char_bits(g) for g in dags]
    closed = []
    for face in expected:
        signatures = {class_of[i] for i in face}
        if {i for i in range(len(dags)) if class_of[i] in signatures} == set(face):
            closed.append(face)
    assert len(closed) == 93
    unions = {0}
    for members in _class_rows(dags).values():
        unions |= {union | members for union in unions}
    assert [frozenset(iter_bits(m)) for m in masks if m in unions] == closed


def test_spent_budget_under_stretch_raises():
    # The CIP and FVP hulls stay under the cap (384 and 324 intermediate
    # rays) and the relaxation passes it: the spent budget reaches the
    # caller instead of turning the relaxation checks into skips.
    with pytest.raises(BudgetExceededError):
        verify_n4(stretch=True, budget=Budget(max_rays=1000))


def test_report_table_notes_and_elapsed_time():
    report = VerificationReport("demo", (Check("count", 3, 3, note="three of them"),), 1.5)
    assert report.format_table() == (
        "== demo ==\n[pass] count: expected 3, observed 3  (three of them)\n== demo: PASSED =="
    )
    assert report.format_table(include_elapsed=True).endswith("\n== demo: PASSED in 1.5s ==")
    assert report.to_json(include_elapsed=True)["elapsed_seconds"] == 1.5


def test_pipelines_time_themselves(counterexample_report):
    assert counterexample_report.elapsed > 0


def test_pipeline_reports_refuse_edits(n4_stretch_report):
    # the stretch report fails, and an empty check list would read as passed
    assert not n4_stretch_report.passed
    assert isinstance(n4_stretch_report.checks, tuple)
    for name, value in (("checks", []), ("elapsed", 0.0), ("name", "n4")):
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(n4_stretch_report, name, value)
    assert not n4_stretch_report.passed


def test_stretch_checks_are_reported_when_disabled():
    report = verify_n4(stretch=False)
    skipped = [c.description for c in report.checks if c.skipped]
    assert "family-variable polytope facet count" in skipped
    assert "relaxation vertex enumeration" in skipped


@pytest.mark.parametrize(
    "pipeline, parameters",
    [
        (verify_n3, ["budget"]),
        (verify_n4, ["stretch", "budget"]),
        (verify_theorem3, ["n", "trials", "seed"]),
        (verify_counterexample, []),
        (explore_conjecture, ["budget"]),
    ],
    ids=["verify_n3", "verify_n4", "verify_theorem3", "verify_counterexample", "explore_conjecture"],
)
def test_pipeline_signatures_return_a_report(pipeline, parameters):
    # the public function states its own signature; it does not take the
    # generator's through __wrapped__
    signature = inspect.signature(pipeline, eval_str=True)
    assert list(signature.parameters) == parameters
    assert signature.return_annotation is VerificationReport
    assert not hasattr(pipeline, "__wrapped__")
    assert pipeline.__doc__


@pytest.mark.parametrize(
    "n, trials, message",
    [
        (2, 1, "verify theorem3 is supported for n in {3, 4, 5}, got 2"),
        (6, 0, "verify theorem3 is supported for n in {3, 4, 5}, got 6"),
    ],
)
def test_theorem3_refuses_unsupported_arguments(n, trials, message):
    with pytest.raises(ValueError) as info:
        verify_theorem3(n, trials)
    assert str(info.value) == message


def test_theorem3_n5_ignores_trials(theorem3_n5_report):
    # n = 5 checks the counterexample LP and reads neither trials nor seed
    assert verify_theorem3(5, 0).to_json() == theorem3_n5_report.to_json()


# sha256 of json.dumps(report.to_json(), sort_keys=True, indent=2), the bytes
# `bnpoly verify ... --json` prints, for each session report.  A refactor must
# leave them alone; a change to a published report updates them on purpose.
_REPORT_SHA256 = {
    "n3_report": "47bdf35b906766ce2507b8d2e783e46cccb1d9c18c4c8dd446d45b61d805fe82",
    "n4_report": "d584dd153943b063e10a4ce477ed1d7edc1c1a371e43adeee69bbd5c6cdf4c68",
    "n4_stretch_report": "0459fa010ecf7307aa5c3abd5882f83da0ff32683b45f23b3250f22f6a225a45",
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


@pytest.mark.parametrize("fixture", sorted(_REPORT_SHA256))
def test_pipeline_reports_hash(fixture, request):
    # every check value is hashable: sequences are tuples, not lists
    report = request.getfixturevalue(fixture)
    assert hash(report) == hash(VerificationReport(report.name, report.checks, report.elapsed))
