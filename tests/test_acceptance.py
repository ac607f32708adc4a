"""Acceptance gate: one test per top-level criterion, each printing a
machine-greppable pass line.  The long-running relaxation checks (criterion
3) are opt-in via BNPOLY_STRETCH=1; everything else runs by default."""

import os
import random
from fractions import Fraction

import pytest

from bnpoly.dags import enumerate_dags
from bnpoly.ground import GroundSet, enumerate_cai
from bnpoly.ineq import binomial_identity, cluster_char, cluster_fam, fam_from_char_ineq
from bnpoly.scoreeq import (
    char_objective,
    is_se_objective,
    moebius_down,
    moebius_up,
    objective_from_setfn,
    setfn_from_objective,
)
from bnpoly.encodings import char_from_fam, fam_vector
from bnpoly.ground import CharVector, scalar_product
from bnpoly.supermod import cluster_pairs


@pytest.fixture
def announce(capsys):
    def _announce(number, description, passed):
        status = "PASS" if passed else "FAIL"
        with capsys.disabled():
            print(f"\nACCEPTANCE {number} {status}: {description}")
        assert passed, f"criterion {number} failed: {description}"

    return _announce


def test_criterion_1_three_node_pipeline(n3_report, announce):
    checks = {c.description: c for c in n3_report.checks}
    announce(
        1,
        "n3 pipeline: 25 DAGs, 11 classes, 17 = 5+9+3 facets, 13 = 5+8 imset "
        f"facets, 28-vertex intermediate polytope, in {n3_report.elapsed:.1f}s",
        n3_report.passed
        and checks["number of DAGs"].observed == 25
        and checks["number of Markov equivalence classes"].observed == 11
        and checks["family-variable polytope facet count"].observed == 17
        and checks["characteristic-imset polytope facet count"].observed == 13
        and checks["imset facets tight at the all-ones vertex"].observed == 5
        and checks["imset facets tight at the zero vertex"].observed == 8
        and checks["cluster + non-negativity polytope vertex count"].observed == 28
        and n3_report.elapsed < 10,
    )


def test_criterion_2_four_node_core(n4_report, announce):
    checks = {c.description: c for c in n4_report.checks}
    announce(
        2,
        "n4 core: 543 DAGs, 185 classes, 185 vertices / 154 facets, 37 "
        "catalog facets in orbits 6,4,4,1,1,1,4,6,4,6 + 117 specific, all 37 "
        f"set functions extreme, in {n4_report.elapsed:.1f}s",
        n4_report.passed
        and checks["number of DAGs"].observed == 543
        and checks["number of Markov equivalence classes"].observed == 185
        and checks["characteristic-imset polytope vertex count"].observed == 185
        and checks["characteristic-imset polytope facet count"].observed == 154
        and checks["facets containing the all-ones vertex"].observed == 37
        and checks["catalog orbit sizes"].passed
        and checks["remaining facet count"].observed == 117
        and checks["remaining facets match the specific catalog"].passed
        and checks["all 37 one-vertex facet set functions extreme"].observed == 37
        and n4_report.elapsed < 1800,
    )


@pytest.mark.skipif(
    os.environ.get("BNPOLY_STRETCH") != "1",
    reason="stretch checks are budgeted and opt-in (BNPOLY_STRETCH=1)",
)
def test_criterion_3_stretch_hull_and_relaxation(announce):
    from bnpoly.verify import verify_n4

    report = verify_n4(stretch=True)
    checks = {c.description: c for c in report.checks}
    announce(
        3,
        "stretch: 135 family-variable facets; relaxation has 1329 vertices "
        f"(786 fractional) incl. the three published witnesses, in {report.elapsed:.1f}s",
        checks["family-variable polytope facet count"].observed == 135
        and checks["relaxation vertex count"].observed == 1329
        and checks["fractional vertices"].observed == 786
        and checks["first published fractional vertex found"].passed
        and checks["second published fractional vertex found"].passed
        and checks["third published fractional vertex found"].passed,
    )


def test_criterion_4_counterexample(counterexample_report, announce):
    report = counterexample_report
    checks = {c.description: c for c in report.checks}
    announce(
        4,
        "five-node counterexample: translation consistency, 153 tight codes, "
        "face dims 53/25, centroid identity with value 16, no tight "
        f"convexity, strict scaled feasibility beyond 16, in {report.elapsed:.1f}s",
        report.passed
        and checks["tight DAG codes"].observed == 153
        and checks["family-variable face dimension"].observed == 53
        and checks["distinct characteristic imsets on the face"].observed == 59
        and checks["affine rank of those imsets"].observed == 26
        and checks["centroid of tight codes equals published vector"].passed
        and checks["objective value at the centroid"].observed == Fraction(16)
        and checks["scaled value exceeds the true maximum"].passed
        and report.elapsed < 3600,
    )


def test_criterion_5_binomial_identities(announce):
    ok = True
    for k in range(0, 11):
        for K in range(0, k + 1):
            for s in range(0, 11):
                lhs, rhs = binomial_identity(s, k, K)
                ok = ok and lhs == rhs
    for s in range(0, 11):
        for k in range(1, 11):
            ok = ok and binomial_identity(s, k, 1) == (1, 1)
    announce(5, "combinatorial identity exact on the full grid", ok)


def test_criterion_6_property_suites(announce):
    ok = True

    # (a) parametrization round trip, 100 random cases at n=3 and n=4
    for n in (3, 4):
        gs = GroundSet.alpha(n)
        rng = random.Random(100 + n)
        cai = enumerate_cai(gs)
        for _ in range(100 if n == 3 else 50):
            m = CharVector(gs, {S: rng.randint(-5, 5) for S in cai})
            obj = objective_from_setfn(m)
            ok = ok and is_se_objective(obj) and setfn_from_objective(obj) == m

    # (b) transform identity, exhaustive over DAGs for n <= 4
    for n in (2, 3, 4):
        gs = GroundSet.alpha(n)
        rng = random.Random(200 + n)
        cai = enumerate_cai(gs)
        dags = enumerate_dags(gs)
        for _ in range(5):
            m = CharVector(gs, {S: rng.randint(-5, 5) for S in cai})
            obj = objective_from_setfn(m)
            z = char_objective(obj)
            for g in dags:
                fam = fam_vector(g)
                ok = ok and scalar_product(obj, fam) == scalar_product(z, char_from_fam(fam))

    # (c) cluster fam/char agreement for every cluster and level, n <= 5
    for n in (3, 4, 5):
        gs = GroundSet.alpha(n)
        for C, k in cluster_pairs(gs):
            fam_q = cluster_fam(gs, C, k)
            char_q = cluster_char(gs, C, k)
            ok = ok and char_objective(fam_q.objective) == char_q.objective
            ok = ok and fam_from_char_ineq(char_q).objective == fam_q.objective

    # (d) supermodular-function inequalities: validity and class-closed tightness
    from bnpoly.dags import is_closed_under_equivalence
    from bnpoly.supermod import cluster_supermodular, is_supermodular

    for n in (3, 4):
        gs = GroundSet.alpha(n)
        rng = random.Random(300 + n)
        dags = enumerate_dags(gs)
        complete = [g for g in dags if len(g.adjacency_pairs()) == n * (n - 1) // 2]
        pairs = cluster_pairs(gs)
        for _ in range(100 if n == 3 else 25):
            m = None
            for C, k in pairs:
                coef = rng.randint(0, 2)
                if coef:
                    part = coef * cluster_supermodular(gs, C, k)
                    m = part if m is None else m + part
            if m is None:
                continue
            ok = ok and is_supermodular(m)
            obj = objective_from_setfn(m)
            bound = scalar_product(obj, fam_vector(complete[0]))
            values = [scalar_product(obj, fam_vector(g)) for g in dags]
            ok = ok and max(values) == bound
            tight = [g for g, v in zip(dags, values) if v == bound]
            ok = ok and set(complete) <= set(tight)
            ok = ok and is_closed_under_equivalence(tight)

    # (e) Moebius pair inverse, 100 random cases
    gs = GroundSet.alpha(4)
    rng = random.Random(400)
    cai = enumerate_cai(gs)
    for _ in range(100):
        m = CharVector(gs, {S: Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for S in cai})
        ok = ok and moebius_up(moebius_down(m)) == m and moebius_down(moebius_up(m)) == m

    # (f) objective constancy on Markov classes, exhaustive at n <= 4
    from bnpoly.dags import enumerate_equivalence_classes, equivalence_class

    for n in (3, 4):
        gs = GroundSet.alpha(n)
        rng = random.Random(500 + n)
        cai = enumerate_cai(gs)
        classes = enumerate_equivalence_classes(gs)
        for _ in range(5):
            obj = objective_from_setfn(CharVector(gs, {S: rng.randint(-5, 5) for S in cai}))
            for rep, _ in classes:
                value = scalar_product(obj, fam_vector(rep))
                ok = ok and all(
                    scalar_product(obj, fam_vector(h)) == value
                    for h in equivalence_class(rep)
                )

    announce(6, "property suites: round trip, transform identity, cluster "
                 "agreement, supermodular tightness, Moebius pair, class constancy", ok)


def test_criterion_7_optimal_value_reductions(
    theorem3_n3_report, theorem3_n4_report, theorem3_n5_report, announce
):
    ok = (
        theorem3_n3_report.passed
        and theorem3_n4_report.passed
        and theorem3_n5_report.passed
    )
    announce(
        7,
        "optimal-value reductions: 100 agreements at n=3, 25 at n=4 (both "
        "variants), and the n=5 LP pins 16 exactly iff the published facet "
        "translation is present",
        ok,
    )


def test_criterion_8_conjecture_n3(conjecture_report, announce):
    checks = {c.description: c for c in conjecture_report.checks}
    announce(
        8,
        "every equivalence-closed face of the three-node polytope is an SE face "
        f"({checks['equivalence-closed faces that are not SE faces'].note})",
        conjecture_report.passed
        and checks["equivalence-closed faces that are not SE faces"].observed == 0,
    )
