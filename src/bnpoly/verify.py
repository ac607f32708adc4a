"""End-to-end verification pipelines for the small-case catalogs, the
optimal-value reductions, and the five-node counterexample.

Each pipeline produces a :class:`VerificationReport` whose expected values
come either from published constants or from independent oracles computed on
the spot (exhaustive enumeration, brute-force maxima, rank computations).
Nothing is cached on disk: every run computes what it reports.
"""

from __future__ import annotations

import functools
import random
import time
from fractions import Fraction
from itertools import chain

from . import linalg
from .dags import Dag, enumerate_dags, enumerate_equivalence_classes
from .dd import Budget
from .encodings import char_bits, char_from_fam
from .ground import (
    CharVector,
    FamVector,
    GroundSet,
    Record,
    bit,
    enumerate_cai,
    enumerate_family_indices,
    iter_bits,
)
from .ineq import (
    LinearInequality,
    catalog_se_n4,
    catalog_specific_n4,
    cluster_fam,
    counterexample_constants,
    fam_from_char_ineq,
    modified_convexity,
    nonneg_constraints,
)
from .polyhedra import (
    HRep,
    VRep,
    cip_vrep,
    dag_codes,
    facets_from_vertices,
    fvp_vrep,
    incidence,
    integer_values,
    lp_maximize,
    max_over_vertices,
    vector_to_dense,
    vertices_from_inequalities,
)
from .scoreeq import char_objective, is_se_face, moebius_up, objective_from_setfn
from .supermod import cluster_pairs, is_extreme


# --- reports -------------------------------------------------------------------


class Check(Record):
    _fields = ("description", "expected", "observed", "passed", "skipped", "note", "source")

    def __init__(
        self,
        description: str,
        expected: object,
        observed: object,
        passed: bool,
        skipped: bool = False,
        note: str = "",
        source: str = "",  # provenance of the expected value: published | derived
    ):
        self.description = description
        self.expected = expected
        self.observed = observed
        self.passed = passed
        self.skipped = skipped
        self.note = note
        self.source = source

    def to_json(self) -> dict:
        out = {
            "description": self.description,
            "expected": _jsonable(self.expected),
            "observed": _jsonable(self.observed),
            "passed": self.passed,
        }
        if self.source:
            out["source"] = self.source
        if self.skipped:
            out["skipped"] = True
        if self.note:
            out["note"] = self.note
        return out


def _jsonable(value):
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


class VerificationReport(Record):
    _fields = ("name", "checks", "elapsed")

    def __init__(self, name: str, checks: list[Check] | None = None, elapsed: float = 0.0):
        self.name = name
        self.checks = [] if checks is None else checks
        self.elapsed = elapsed

    def check(
        self, description: str, expected, observed, note: str = "", source: str = "derived"
    ) -> None:
        self.checks.append(
            Check(description, expected, observed, expected == observed, note=note, source=source)
        )

    def skip(self, description: str, reason: str) -> None:
        self.checks.append(
            Check(description, None, None, passed=True, skipped=True, note=reason)
        )

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks if not c.skipped)

    def to_json(self, include_elapsed: bool = False) -> dict:
        out = {
            "schema": "bnpoly/report/1",
            "pipeline": self.name,
            "passed": self.passed,
            "checks": [c.to_json() for c in self.checks],
        }
        if include_elapsed:
            out["elapsed_seconds"] = round(self.elapsed, 3)
        return out

    def format_table(self, include_elapsed: bool = False) -> str:
        lines = [f"== {self.name} =="]
        for c in self.checks:
            if c.skipped:
                status = "SKIP"
                body = c.note
            else:
                status = "pass" if c.passed else "FAIL"
                body = f"expected {c.expected!r}, observed {c.observed!r}"
                if c.note:
                    body += f"  ({c.note})"
            lines.append(f"[{status}] {c.description}: {body}")
        tail = "PASSED" if self.passed else "FAILED"
        if include_elapsed:
            tail += f" in {self.elapsed:.1f}s"
        lines.append(f"== {self.name}: {tail} ==")
        return "\n".join(lines)


def _timed(pipeline):
    """Set the returned report's ``elapsed`` to the pipeline's wall time."""

    @functools.wraps(pipeline)
    def run(*args, **kwargs) -> VerificationReport:
        start = time.monotonic()
        report = pipeline(*args, **kwargs)
        report.elapsed = time.monotonic() - start
        return report
    return run


# --- shared constructions --------------------------------------------------------


def _cluster_relaxation(gs: GroundSet) -> list[LinearInequality]:
    """Non-negativity + modified convexity + all generalized cluster cuts,
    in that order (it fixes the simplex's Bland path); at n = 3 the full
    facet list of the family-variable polytope."""
    rows = nonneg_constraints(gs) + modified_convexity(gs)
    rows += [cluster_fam(gs, C, k) for C, k in cluster_pairs(gs)]
    return rows


def _facet_keyset(inequalities) -> set:
    return {q.canonical_key() for q in inequalities}


def _n4_catalog_fam_rows(se_only: bool) -> list[LinearInequality]:
    """fam-mode translations of the CIP facets not containing the zero
    vertex: the 37 one-vertex facets and, unless ``se_only``, the four
    bound-1 specific facets (which contain neither distinguished vertex)."""
    rows = []
    for entry in catalog_se_n4():
        rows.extend(entry.fam_orbit())
    if not se_only:
        for entry in catalog_specific_n4():
            if entry.char_ineq.bound != 0:
                rows.extend(entry.fam_orbit())
    return rows


# --- pipeline: three nodes --------------------------------------------------------


@_timed
def verify_n3(budget: Budget | None = None) -> VerificationReport:
    report = VerificationReport("n3")
    gs = GroundSet.alpha(3)

    dags = enumerate_dags(gs)
    report.check("number of DAGs", 25, len(dags), source="published")
    classes = enumerate_equivalence_classes(gs)
    report.check("number of Markov equivalence classes", 11, len(classes), source="published")

    fvp = fvp_vrep(gs)
    hull = facets_from_vertices(fvp, budget=budget)
    report.check("family-variable polytope facet count", 17, len(hull.inequalities), source="published")
    report.check("affine hull equations", 0, len(hull.equations))
    expected = _facet_keyset(_cluster_relaxation(gs))
    report.check(
        "facets = 9 non-negativity + 3 convexity + 5 cluster",
        True,
        _facet_keyset(hull.inequalities) == expected,
    )

    cip = cip_vrep(gs)
    chull = facets_from_vertices(cip, budget=budget)
    report.check("characteristic-imset polytope facet count", 13, len(chull.inequalities), source="published")
    width = len(cip.index)
    one, zero = cip.points.index((1,) * width), cip.points.index((0,) * width)
    tight_sets = incidence(chull.inequalities, cip)
    tight_one = sum(tight >> one & 1 for tight in tight_sets)
    tight_zero = sum(tight >> zero & 1 for tight in tight_sets)
    report.check("imset facets tight at the all-ones vertex", 5, tight_one, source="published")
    report.check("imset facets tight at the zero vertex", 8, tight_zero, source="published")

    cluster_rows = [cluster_fam(gs, C, k) for C, k in cluster_pairs(gs)]
    partial = HRep("fam", gs, tuple(nonneg_constraints(gs) + cluster_rows))
    inter = vertices_from_inequalities(partial, budget=budget)
    report.check("cluster + non-negativity polytope vertex count", 28, len(inter.points), source="published")
    completed = HRep("fam", gs, partial.inequalities + tuple(modified_convexity(gs)))
    full = vertices_from_inequalities(completed, budget=budget)
    report.check(
        "adding convexity recovers the DAG codes",
        True,
        set(full.points) == set(fvp.points),
    )
    return report


# --- pipeline: four nodes ---------------------------------------------------------


@_timed
def verify_n4(stretch: bool = False, budget: Budget | None = None) -> VerificationReport:
    """The four-node counts and catalogs; ``stretch`` adds the fvp hull and
    the relaxation, whose third published witness is known to FAIL.  A spent
    budget raises BudgetExceededError, in the stretch steps too."""
    report = VerificationReport("n4")
    gs = GroundSet.alpha(4)

    dags = enumerate_dags(gs)
    report.check("number of DAGs", 543, len(dags), source="published")
    classes = enumerate_equivalence_classes(gs)
    report.check("number of Markov equivalence classes", 185, len(classes), source="published")

    cip = cip_vrep(gs)
    report.check("characteristic-imset polytope vertex count", 185, len(cip.points), source="published")
    chull = facets_from_vertices(cip, budget=budget)
    report.check("characteristic-imset polytope facet count", 154, len(chull.inequalities), source="published")

    one = cip.points.index((1,) * len(cip.index))
    at_one = [tight >> one & 1 for tight in incidence(chull.inequalities, cip)]
    tight_one = [q for q, flag in zip(chull.inequalities, at_one) if flag]
    rest = [q for q, flag in zip(chull.inequalities, at_one) if not flag]
    report.check("facets containing the all-ones vertex", 37, len(tight_one), source="published")

    se_entries = catalog_se_n4()
    report.check(
        "one-vertex facets match the catalog",
        True,
        _facet_keyset(tight_one)
        == {m.canonical_key() for e in se_entries for m in e.char_orbit},
    )
    report.check(
        "catalog orbit sizes",
        [6, 4, 4, 1, 1, 1, 4, 6, 4, 6],
        [len(e.char_orbit) for e in se_entries],
    )

    spec_entries = catalog_specific_n4()
    report.check("remaining facet count", 117, len(rest), source="published")
    report.check(
        "remaining facets match the specific catalog",
        True,
        _facet_keyset(rest)
        == {m.canonical_key() for e in spec_entries for m in e.char_orbit},
    )
    report.check(
        "specific orbit sizes",
        [6, 4, 1, 4, 6, 4, 1, 4, 6, 1, 12, 6, 12, 3, 4, 12, 12, 12, 3, 4],
        [len(e.char_orbit) for e in spec_entries],
    )

    extreme = sum(is_extreme(moebius_up(m.objective)) for e in se_entries for m in e.char_orbit)
    report.check("all 37 one-vertex facet set functions extreme", 37, extreme)

    if not stretch:
        report.skip("family-variable polytope facet count", "stretch check disabled")
        report.skip("relaxation vertex enumeration", "stretch check disabled")
        return report

    count = len(facets_from_vertices(fvp_vrep(gs), budget=budget).inequalities)
    report.check("family-variable polytope facet count", 135, count, source="published")

    summary = _fvp_star_summary(budget)
    report.check("relaxation vertex count", 1329, summary["total"], source="published")
    report.check("fractional vertices", 786, summary["fractional"], source="published")
    report.check("first published fractional vertex found", True, summary["witness1"])
    report.check("second published fractional vertex found", True, summary["witness2"])
    report.check(
        "third published fractional vertex found",
        True,
        summary["witness3"],
        note=(
            "the printed third witness satisfies all 69 constraints but its tight"
            " rows only reach rank 24 of 28, so it lies inside a 4-face; a true"
            " vertex with identical support and leading coefficient 2/3 exists"
        )
        if not summary["witness3"]
        else "",
    )
    return report


def _published_fractional_witnesses(gs: GroundSet) -> list[FamVector]:
    half, third, sixth = Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)
    a, b, c, d = range(4)
    m = gs.mask_of
    w1 = {(a, m("b")): half, (a, m("d")): half, (b, m("ac")): half,
          (c, m("a")): half, (c, m("bd")): half, (d, m("abc")): half}
    w2 = {(a, m("c")): third, (a, m("d")): third, (a, m("bcd")): third,
          (b, m("a")): third, (b, m("acd")): third, (c, m("b")): third,
          (c, m("d")): third, (c, m("ab")): third, (d, m("abc")): third}
    w3 = {(a, m("b")): sixth, (a, m("d")): third, (b, m("c")): third,
          (b, m("acd")): third, (c, m("a")): third, (c, m("d")): third,
          (c, m("abd")): third, (d, m("bc")): third}
    return [FamVector(gs, w) for w in (w1, w2, w3)]


def _fvp_star_summary(budget: Budget | None) -> dict:
    gs = GroundSet.alpha(4)
    rows = nonneg_constraints(gs) + modified_convexity(gs) + _n4_catalog_fam_rows(se_only=True)
    star = vertices_from_inequalities(HRep("fam", gs, tuple(rows)), budget=budget)
    fractional = sum(
        1 for p in star.points if any(Fraction(x).denominator != 1 for x in p)
    )
    fai = enumerate_family_indices(gs)
    points = set(star.points)
    witnesses = [
        tuple(w[key] for key in fai) in points
        for w in _published_fractional_witnesses(gs)
    ]
    return {
        "total": len(star.points),
        "fractional": fractional,
        "witness1": witnesses[0],
        "witness2": witnesses[1],
        "witness3": witnesses[2],
    }


# --- pipeline: optimal-value reductions ---------------------------------------------


def _random_se_objective(gs: GroundSet, rng: random.Random) -> FamVector:
    cai = enumerate_cai(gs)
    m = CharVector(gs, {S: rng.randint(-5, 5) for S in cai})
    return objective_from_setfn(m)


@_timed
def verify_theorem3(n: int, trials: int, seed: int = 0) -> VerificationReport:
    """Maximizing a score-equivalent objective over the reduced constraint
    polyhedron (imset facets missing the zero vertex, in fam mode, plus
    non-negativity and convexity) matches the brute-force maximum over all
    DAG codes; at n = 4 the variant restricted to the one-vertex facets
    agrees as well.  At n = 5 it checks the LP side of the counterexample
    instead, and ``trials`` and ``seed`` are not used."""
    if n not in (3, 4, 5):
        raise ValueError(f"verify theorem3 is supported for n in {{3, 4, 5}}, got {n}")
    if n != 5 and trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    report = VerificationReport(f"theorem3-n{n}")
    gs = GroundSet.alpha(n)
    if n == 5:
        _counterexample_optimum(report, gs)
        return report
    fvp = fvp_vrep(gs)

    if n == 3:
        variants = {"reduced polyhedron": HRep("fam", gs, tuple(_cluster_relaxation(gs)))}
    else:
        base = nonneg_constraints(gs) + modified_convexity(gs)
        no_zero = base + _n4_catalog_fam_rows(se_only=False)
        se_only = base + _n4_catalog_fam_rows(se_only=True)
        variants = {
            "reduced polyhedron": HRep("fam", gs, tuple(no_zero)),
            "one-vertex-facet polyhedron": HRep("fam", gs, tuple(se_only)),
        }

    rng = random.Random(seed)
    objectives = [_random_se_objective(gs, rng) for _ in range(trials)]
    brute = [max_over_vertices(obj, fvp)[0] for obj in objectives]
    for name, hrep in variants.items():
        agree = sum(
            1 for obj, best in zip(objectives, brute) if lp_maximize(obj, hrep)[0] == best
        )
        report.check(f"{name}: optima agree on {trials} random objectives", trials, agree)

    # Named instances: the zero objective and a two-node cluster objective.
    zero = FamVector(gs, {})
    hrep = next(iter(variants.values()))
    report.check("zero objective optimum", Fraction(0), lp_maximize(zero, hrep)[0])
    cl = cluster_fam(gs, gs.mask_of("ab"), 1)
    report.check(
        "two-node cluster objective optimum",
        Fraction(1),
        lp_maximize(cl.objective, hrep)[0],
    )
    report.check(
        "two-node cluster brute-force maximum",
        Fraction(1),
        max_over_vertices(cl.objective, fvp)[0],
    )
    return report


def _counterexample_optimum(report: VerificationReport, gs: GroundSet) -> None:
    """The operational content of the five-node counterexample: with the
    published facet translation included the LP optimum is exactly 16, and
    dropping it lifts the optimum strictly above 16."""
    cx = counterexample_constants()
    report.check("generalized cluster inequality count", 49, len(cluster_pairs(gs)))
    base = _cluster_relaxation(gs)

    with_facet = HRep("fam", gs, tuple(base + [cx.fam_ineq]))
    optimum, _ = lp_maximize(cx.objective, with_facet)
    report.check("optimum with the imset-facet translation", Fraction(16), optimum, source="published")

    without = HRep("fam", gs, tuple(base))
    relaxed, _ = lp_maximize(cx.objective, without)
    report.check("dropping it lifts the optimum above 16", True, relaxed > 16)


# --- pipeline: five-node counterexample ----------------------------------------------


def _dimension_witnesses(gs: GroundSet) -> list[Dag]:
    """2^n - n DAGs whose characteristic imsets are affinely independent, so
    they certify that the imset polytope spans all 2^n - n - 1 coordinates.

    The first is the empty DAG, whose imset is 0.  Then, for each S in
    :func:`enumerate_cai` order, the DAG in which a = max(S) has the parents
    S \\ {a} and no other node has parents.  An imset coordinate c(T) is 1
    iff some b in T has T \\ {b} among its parents; only a has parents, so
    c(T) = 1 exactly when a is in T and T is a subset of S.  Every such T
    other than S is smaller than S and comes earlier in cai order, which
    sorts by size.  So the imsets minus the zero point are the rows of a
    lower unitriangular matrix, and the 2^n - n points have full affine
    rank."""
    witnesses = [Dag(gs, [0] * gs.n)]
    for S in enumerate_cai(gs):
        parents = [0] * gs.n
        a = S.bit_length() - 1
        parents[a] = S & ~bit(a)
        witnesses.append(Dag(gs, parents))
    return witnesses


@_timed
def verify_counterexample() -> VerificationReport:
    report = VerificationReport("counterexample")
    gs = GroundSet.alpha(5)
    cx = counterexample_constants()
    obj = cx.objective

    # (1) the two published forms of the inequality translate into each other
    translated = fam_from_char_ineq(cx.char_ineq)
    report.check(
        "imset form translates to the published fam form",
        True,
        translated.objective == obj and translated.bound == cx.fam_ineq.bound,
    )
    report.check(
        "fam objective translates back to the imset form",
        True,
        char_objective(obj) == cx.char_ineq.objective,
    )

    dags = enumerate_dags(gs)
    report.check("number of DAGs", 29281, len(dags))

    # (2) validity with exactly 153 tight codes, in integers: the objective's
    # integer row is looked up by (node, parent mask).  The table evaluates
    # over DAG parent maps, not points: on the 29281 DAGs it takes about
    # 0.02 s against 0.27 s for dense codes through integer_values (2-vCPU
    # Xeon, Python 3.11).
    keys, coeffs = zip(*obj.items())
    ints, scale = linalg.integer_row(coeffs)
    weights = [[0] * (1 << gs.n) for _ in range(gs.n)]
    for (a, B), w in zip(keys, ints):
        weights[a][B] = w
    bound = 16 * scale
    values = [sum(map(list.__getitem__, weights, g.parents)) for g in dags]
    report.check("inequality valid over all DAG codes", True, max(values) <= bound)
    tight = [g for g, v in zip(dags, values) if v == bound]
    report.check("tight DAG codes", 153, len(tight), source="published")

    # (3) dimension of the family-variable face
    fam_points = dag_codes(gs, tight)
    report.check("family-variable face dimension", 53, linalg.affine_rank(fam_points) - 1, source="published")

    # (4) the characteristic side is a facet; the polytope's dimension is
    # certified by the unitriangular witnesses, read before any other DAG
    cai = enumerate_cai(gs)
    signatures = [char_bits(g, cai) for g in tight]
    chars = sorted(set(signatures))
    report.check("distinct characteristic imsets on the face", 59, len(chars), source="published")
    report.check("affine rank of those imsets", 26, linalg.affine_rank(chars), source="published")
    stream = chain(_dimension_witnesses(gs), dags)
    report.check(
        "characteristic polytope has dimension 26",
        True,
        linalg.incremental_rank_reaches((char_bits(g, cai) for g in stream), 27),
    )

    # (5) the uniform combination of the tight codes is the published vector.
    # From here on the centroid is integer numerators over ``den``, and the
    # objective, convexity and cluster values are integers on one scale per
    # row; only the reported values and the char_from_fam image are Fractions.
    nums, den = linalg.integer_row(vector_to_dense(cx.centroid, enumerate_family_indices(gs)))
    count = len(tight)
    report.check(
        "centroid of tight codes equals published vector",
        True,
        all(s * den == x * count for s, x in zip(map(sum, zip(*fam_points)), nums)),
    )
    # the bound 1 comes back as the objective's scale, so the value at the
    # centroid is obj_value / (unit * den)
    [obj_value], unit = integer_values(obj, 1, [nums])
    report.check(
        "objective value at the centroid",
        Fraction(16),
        Fraction(obj_value, unit * den),
        source="published",
    )

    # The characteristic image of the centroid is the same average of the 59
    # tight imsets, each weighted by its number of tight codes, so it sits in
    # the relative interior of the imset-side face.
    image = char_from_fam(cx.centroid)
    report.check(
        "characteristic image of the centroid averages the tight imsets",
        True,
        all(image[S] * count == s for S, s in zip(cai, map(sum, zip(*signatures)))),
    )
    report.check(
        "that average has full support over the 59 face vertices",
        True,
        len(chars) == 59,
    )

    # (6) no modified convexity constraint is tight there; (V, B) per row is
    # its value at the numerators and its bound times den on one scale
    convexity = modified_convexity(gs)
    checked = convexity + [cluster_fam(gs, C, k) for C, k in cluster_pairs(gs)]
    scaled = []
    for q in checked:
        [value], bound = integer_values(q.objective, q.bound, [nums])
        scaled.append((value, bound * den))
    report.check(
        "no convexity constraint tight at the centroid",
        True,
        all(v < b for v, b in scaled[: len(convexity)]),
    )

    # (7) the scaled point stays feasible for the other constraint families:
    # eps = p / r is the smallest (b - v) / (2v) over the rows with v > 0
    feasible = all(v < b for v, b in scaled)
    report.check("positive slack at every checked inequality", True, feasible)
    if not feasible:
        return report
    p, r = 1, 0  # 1 / 0 stands for no candidate yet
    for v, b in scaled:
        if v > 0 and (b - v) * r < p * 2 * v:
            p, r = b - v, 2 * v
    report.check("perturbation size is positive", True, p > 0)
    report.check(
        "scaled point satisfies non-negativity",
        True,
        all(x * (r + p) >= 0 for x in nums),
    )
    report.check(
        "scaled point strictly satisfies convexity and all 49 cluster cuts",
        True,
        all((r + p) * v < r * b for v, b in scaled),
    )
    eps = Fraction(p, r)
    star_value = Fraction((r + p) * obj_value, r * unit * den)
    report.check("objective value at the scaled point", (1 + eps) * 16, star_value)
    report.check("scaled value exceeds the true maximum", True, star_value > 16)
    return report


# --- pipeline: equivalence-closed faces ------------------------------------------------


def all_faces_by_tight_sets(vrep: VRep, hull: HRep | None = None) -> list[int]:
    """Every nonempty face of conv(points) as an int bitmask, bit i set when
    point i lies on the face: the whole polytope plus the closure of the
    facet tight sets under ``&``.  Faces come by size, then by sorted index
    list."""
    if hull is None:
        hull = facets_from_vertices(vrep)
    width = len(vrep.points)
    # after the k-th tight set, faces holds the & of every subset of the first k
    faces = {(1 << width) - 1}
    for tight in incidence(hull.inequalities, vrep):
        faces |= {face & tight for face in faces}
    faces.discard(0)
    # Of two equal-sized masks, the one holding the lowest bit of their xor
    # has the larger bit-reversed binary string; a stable sort by size follows.
    by_index = sorted(faces, key=lambda f: f"{f:0{width}b}"[::-1], reverse=True)
    return sorted(by_index, key=int.bit_count)


def _markov_closed(faces: list[int], dags: list[Dag]) -> list[int]:
    """The faces, bitmasks over the DAG indices, that are closed under Markov
    equivalence: each class that meets the face, found by its lowest bit
    left in the face, lies inside it."""
    cai = enumerate_cai(dags[0].gs)
    class_masks: dict[tuple, int] = {}
    for i, g in enumerate(dags):
        signature = char_bits(g, cai)
        class_masks[signature] = class_masks.get(signature, 0) | 1 << i
    class_at = {1 << i: mask for mask in class_masks.values() for i in iter_bits(mask)}
    closed = []
    for face in faces:
        rest = face
        while rest:
            members = class_at[rest & -rest]
            if face & members != members:
                break
            rest ^= members
        else:
            closed.append(face)
    return closed


@_timed
def explore_conjecture(budget: Budget | None = None) -> VerificationReport:
    """Enumerate every face of the three-node family-variable polytope (no
    larger one is feasible), keep those whose DAG sets are closed under Markov
    equivalence, and confirm each admits a score-equivalent defining objective
    (via the exact-LP face test).  Faces and Markov classes are bitmasks over
    the DAG indices, and member lists are built only for the closed faces.
    The budget bounds the facet enumeration."""
    report = VerificationReport("conjecture-n3")
    gs = GroundSet.alpha(3)
    dags = enumerate_dags(gs)
    fvp = fvp_vrep(gs)
    hull = facets_from_vertices(fvp, budget=budget)
    report.check("facet count", 17, len(hull.inequalities))

    faces = all_faces_by_tight_sets(fvp, hull)
    closed_faces = _markov_closed(faces, dags)

    violations = sum(
        not is_se_face([dags[i] for i in iter_bits(face)], all_dags=dags)[0]
        for face in closed_faces
    )
    report.check(
        "equivalence-closed faces that are not SE faces",
        0,
        violations,
        note=f"{len(faces)} faces, {len(closed_faces)} closed under Markov equivalence",
    )

    all_pairs = frozenset({(0, 1), (0, 2), (1, 2)})
    full_class = [g for g in dags if g.adjacency_pairs() == all_pairs]
    ok, witness = is_se_face(full_class, all_dags=dags)
    report.check("the class of complete graphs is an SE face", True, ok and witness is not None)
    return report
