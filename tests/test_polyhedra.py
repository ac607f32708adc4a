import random
from fractions import Fraction

import pytest

from bnpoly.dags import enumerate_equivalence_classes
from bnpoly.dd import Budget
from bnpoly.encodings import char_bits
from bnpoly.errors import InfeasibleError, InvalidInequalityError, UnboundedError
from bnpoly.ground import FamVector, GroundSet, enumerate_cai
from bnpoly.ineq import (
    LinearInequality,
    catalog_specific_n4,
    cluster_fam,
    modified_convexity,
    nonneg_constraints,
)
from bnpoly.polyhedra import (
    HRep,
    VRep,
    affine_rank,
    cip_vrep,
    dense_to_vector,
    face_of,
    facets_from_vertices,
    fvp_vrep,
    incidence,
    is_facet,
    lp_maximize,
    max_over_vertices,
    vertices_from_inequalities,
)
from bnpoly.supermod import cluster_pairs


def test_affine_rank_examples(gs3):
    fvp = fvp_vrep(gs3)
    assert affine_rank(fvp.points) == 10
    cip = cip_vrep(gs3)
    assert affine_rank(cip.points) == 5
    assert affine_rank([fvp.points[0]]) == 1


def test_face_of_cluster(gs3):
    fvp = fvp_vrep(gs3)
    q = cluster_fam(gs3, gs3.mask_of("ab"), 1)
    info = face_of(q, fvp)
    assert info.dimension == 8
    assert is_facet(q, fvp)


def test_face_of_rejects_invalid(gs3):
    fvp = fvp_vrep(gs3)
    bogus = LinearInequality("fam", FamVector(gs3, {(0, 0b010): 1}), Fraction(1, 2))
    with pytest.raises(InvalidInequalityError):
        face_of(bogus, fvp)
    with pytest.raises(InvalidInequalityError):
        incidence(nonneg_constraints(gs3) + [bogus], fvp)


def _scaled(q, factor):
    return LinearInequality(q.space, q.objective * factor, q.bound * factor, q.label)


def _two_node_relaxation(gs):
    """Non-negativity, convexity and the two-node cluster cuts: 31 vertices
    at n = 3, four of them fractional."""
    rows = nonneg_constraints(gs) + modified_convexity(gs)
    rows += [cluster_fam(gs, C, k) for C, k in cluster_pairs(gs) if C.bit_count() == 2]
    return rows, vertices_from_inequalities(HRep("fam", gs, tuple(rows)))


def _sparse_incidence(inequalities, vrep):
    vectors = vrep.vectors()
    return [
        sum(1 << i for i, v in enumerate(vectors) if q.is_tight_at(v))
        for q in inequalities
    ]


def test_incidence_matches_sparse_evaluation(gs3):
    fvp = fvp_vrep(gs3)
    hull = facets_from_vertices(fvp)
    assert incidence(hull.inequalities, fvp) == _sparse_incidence(hull.inequalities, fvp)

    # Non-integral objectives: the integer row is scaled, and so is the bound.
    thirds = [_scaled(q, Fraction(1, 3)) for q in hull.inequalities]
    assert incidence(thirds, fvp) == _sparse_incidence(hull.inequalities, fvp)
    rows, polytope = _two_node_relaxation(gs3)
    assert len(polytope.points) == 31
    assert sum(any(x.denominator != 1 for x in p) for p in polytope.points) == 4
    sevenths = [_scaled(q, Fraction(2, 7)) for q in rows]
    expected = _sparse_incidence(rows, polytope)
    assert incidence(sevenths, polytope) == incidence(rows, polytope) == expected
    assert all(expected)


def test_max_over_vertices_is_exact(gs3):
    fvp = fvp_vrep(gs3)
    rows, polytope = _two_node_relaxation(gs3)
    objectives = [
        cluster_fam(gs3, gs3.mask_of("ab"), 1).objective * Fraction(2, 7),
        modified_convexity(gs3)[0].objective * Fraction(-1, 3),
        rows[-1].objective * Fraction(5, 6),
        FamVector(gs3, {}),
    ]
    for obj in objectives:
        for vrep in (fvp, polytope):
            sparse = [LinearInequality("fam", obj, 0).value_at(v) for v in vrep.vectors()]
            best = max(sparse)
            value, index = max_over_vertices(obj, vrep)
            assert type(value) is Fraction
            assert (value, index) == (best, sparse.index(best))
    assert max_over_vertices(objectives[0], fvp)[0] == Fraction(2, 7)


def test_empty_face(gs3):
    fvp = fvp_vrep(gs3)
    # 0 <= 1 is never tight
    slack = LinearInequality("fam", FamVector(gs3, {}), Fraction(1))
    info = face_of(slack, fvp)
    assert info.tight_indices == () and info.dimension == -1


@pytest.mark.parametrize("n, classes", [(3, 11), (4, 185)])
def test_cip_vertices_are_the_class_representatives_imsets(n, classes):
    # cip_vrep keys classes by their imset; the covered-arc classes agree.
    gs = GroundSet.alpha(n)
    cai = enumerate_cai(gs)
    expected = [char_bits(rep, cai) for rep, _ in enumerate_equivalence_classes(gs)]
    assert len(expected) == classes
    assert list(cip_vrep(gs).points) == expected


def test_c20_is_facet_of_cip4(gs4):
    cip = cip_vrep(gs4)
    entry = catalog_specific_n4()[-1]
    assert entry.char_ineq.bound == 1
    assert is_facet(entry.char_ineq, cip)


def test_hull_counts(gs3):
    assert len(facets_from_vertices(fvp_vrep(gs3)).inequalities) == 17
    assert len(facets_from_vertices(cip_vrep(gs3)).inequalities) == 13


def test_fvp_n4_hull_has_135_facets(gs4):
    hull = facets_from_vertices(fvp_vrep(gs4))
    assert len(hull.inequalities) == 135
    assert hull.equations == ()  # full-dimensional in the 28 family variables


def test_hull_low_dimensional_reports_equations(gs3):
    # two points: a segment with one equation short of full space
    fvp = fvp_vrep(gs3)
    seg = VRep("fam", gs3, (fvp.points[0], fvp.points[1]))
    hull = facets_from_vertices(seg)
    assert len(hull.equations) == 8  # dim 9 ambient, affine hull is a line
    for vec, rhs in hull.equations:
        for p in seg.points:
            value = sum((vec[k] * x for k, x in zip(seg.index, p)), Fraction(0))
            assert value == rhs
    A_ub, b_ub, A_eq, b_eq = hull.matrix()
    assert len(A_ub) == len(b_ub) == len(hull.inequalities)
    assert len(A_eq) == len(b_eq) == 8
    for row, rhs, (vec, expected_rhs) in zip(A_eq, b_eq, hull.equations):
        assert dense_to_vector(gs3, "fam", hull.index, row) == vec and rhs == expected_rhs
    for row, rhs, q in zip(A_ub, b_ub, hull.inequalities):
        assert dense_to_vector(gs3, "fam", hull.index, row) == q.objective and rhs == q.bound


def test_vertex_enumeration_examples(gs3):
    clusters = [cluster_fam(gs3, C, k) for C, k in cluster_pairs(gs3)]
    partial = HRep("fam", gs3, tuple(nonneg_constraints(gs3) + clusters))
    inter = vertices_from_inequalities(partial)
    assert len(inter.points) == 28
    full = HRep("fam", gs3, partial.inequalities + tuple(modified_convexity(gs3)))
    recovered = vertices_from_inequalities(full)
    assert set(recovered.points) == set(fvp_vrep(gs3).points)


def test_vertex_enumeration_unbounded(gs3):
    only_lower = HRep("fam", gs3, tuple(nonneg_constraints(gs3)))
    with pytest.raises(UnboundedError):
        vertices_from_inequalities(only_lower)


def _empty_orthant_cut(gs):
    """Non-negativity plus a|b <= -1: empty, though its recession cone (the
    orthant) is not."""
    cut = LinearInequality("fam", FamVector(gs, {(0, gs.mask_of("b")): 1}), Fraction(-1))
    return HRep("fam", gs, tuple(nonneg_constraints(gs)) + (cut,))


def test_vertex_enumeration_empty(gs3):
    hrep = _empty_orthant_cut(gs3)
    assert vertices_from_inequalities(hrep).points == ()
    # bounded by convexity it is empty all the same
    bounded = HRep("fam", gs3, hrep.inequalities + tuple(modified_convexity(gs3)))
    assert vertices_from_inequalities(bounded).points == ()


def test_roundtrip_fvp3(gs3):
    fvp = fvp_vrep(gs3)
    hull = facets_from_vertices(fvp)
    back = vertices_from_inequalities(hull)
    assert set(back.points) == set(fvp.points)


@pytest.mark.parametrize("n", [3, 4])
def test_roundtrip_cip(n):
    gs = GroundSet.alpha(n)
    cip = cip_vrep(gs)
    hull = facets_from_vertices(cip)
    # The n=4 vertex enumeration from the 154 facets peaks at 1188
    # intermediate rays, against 1783 in plain colex insertion order.
    budget = Budget(max_rays=1500) if n == 4 else None
    back = vertices_from_inequalities(hull, budget=budget)
    assert set(back.points) == set(cip.points)


def test_facets_tight_on_enough_points(gs3):
    fvp = fvp_vrep(gs3)
    dim = affine_rank(fvp.points) - 1
    hull = facets_from_vertices(fvp)
    for q in hull.inequalities:
        info = face_of(q, fvp)
        assert info.dimension == dim - 1


def test_lp_examples(gs3):
    fvp = fvp_vrep(gs3)
    hull = facets_from_vertices(fvp)
    q = cluster_fam(gs3, gs3.mask_of("ab"), 1)
    optimum, point = lp_maximize(q.objective, hull)
    assert optimum == 1
    assert q.value_at(point) == 1
    zero = FamVector(gs3, {})
    assert lp_maximize(zero, hull)[0] == 0


def test_lp_infeasible_and_unbounded(gs3):
    some = FamVector(gs3, {(0, gs3.mask_of("b")): 1})
    with pytest.raises(InfeasibleError, match="polyhedron is empty"):
        lp_maximize(some, _empty_orthant_cut(gs3))
    only_lower = HRep("fam", gs3, tuple(nonneg_constraints(gs3)))
    with pytest.raises(UnboundedError, match="objective is unbounded"):
        lp_maximize(some, only_lower)
    assert lp_maximize(-some, only_lower)[0] == 0


def test_lp_matches_vertex_maximum_random(gs3):
    fvp = fvp_vrep(gs3)
    hull = facets_from_vertices(fvp)
    rng = random.Random(19)
    fai = list(fvp.index)
    for _ in range(100):
        obj = FamVector(gs3, {k: Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                              for k in rng.sample(fai, 5)})
        brute, _ = max_over_vertices(obj, fvp)
        optimum, _ = lp_maximize(obj, hull)
        assert optimum == brute


def test_combining_non_facets_never_gives_facets(gs3):
    # two valid inequalities, each slack somewhere the other is tight, can
    # never combine (with positive weights) into a facet
    fvp = fvp_vrep(gs3)
    rows = nonneg_constraints(gs3)
    q1, q2 = rows[0], rows[1]
    for alpha, beta in [(1, 1), (2, 1), (1, 3)]:
        combo = LinearInequality(
            "fam",
            alpha * q1.objective + beta * q2.objective,
            alpha * q1.bound + beta * q2.bound,
        )
        assert not is_facet(combo, fvp)


def test_matrix_text_roundtrip(gs3):
    from bnpoly.polyhedra import hrep_from_matrix_text, hrep_to_matrix_text

    hull = facets_from_vertices(cip_vrep(gs3))
    text = hrep_to_matrix_text(hull)
    assert len(text.strip().splitlines()) == 13
    parsed = hrep_from_matrix_text(gs3, "char", text)
    assert {q.canonical_key() for q in parsed.inequalities} == {
        q.canonical_key() for q in hull.inequalities
    }
    back = vertices_from_inequalities(parsed)
    assert set(back.points) == set(cip_vrep(gs3).points)


def test_matrix_text_equations_and_comments(gs3):
    from bnpoly.polyhedra import hrep_from_matrix_text, hrep_to_matrix_text

    fvp = fvp_vrep(gs3)
    hull = facets_from_vertices(VRep("fam", gs3, (fvp.points[0], fvp.points[1])))
    text = hrep_to_matrix_text(hull)
    lines = text.splitlines()
    assert lines.count("=") == 1
    assert len(lines) == len(hull.inequalities) + 1 + len(hull.equations)
    commented = "# a segment\n\n" + text.replace("=\n", "=\n  # its affine hull\n")
    parsed = hrep_from_matrix_text(gs3, "fam", commented)
    assert [q.objective for q in parsed.inequalities] == [q.objective for q in hull.inequalities]
    assert [q.bound for q in parsed.inequalities] == [q.bound for q in hull.inequalities]
    assert parsed.equations == hull.equations
    assert hrep_to_matrix_text(parsed) == text


def _value_cases():
    """(instance, an equal one, an unequal one, field names) per frozen
    value class."""
    gs = GroundSet(["x1", "y"])
    fam = FamVector(gs, {(0, 0b10): 1})
    q = LinearInequality("fam", fam, Fraction(1, 2), "cut")
    points = ((0, 0), (1, 0))
    return {
        "LinearInequality": (
            q,
            LinearInequality("fam", FamVector(gs, {(0, 0b10): 1}), "1/2", "cut"),
            LinearInequality("fam", fam, Fraction(1, 2)),
            ("space", "objective", "bound", "label"),
        ),
        "VRep": (
            VRep("fam", gs, points),
            VRep("fam", GroundSet(["y", "x1"]), ((0, 0), (1, 0))),
            VRep("fam", gs, points[:1]),
            ("space", "gs", "points"),
        ),
        "HRep": (
            HRep("fam", gs, (q,)),
            HRep("fam", gs, (LinearInequality("fam", fam, Fraction(1, 2), "cut"),), ()),
            HRep("fam", gs, (q,), ((fam, 1),)),
            ("space", "gs", "inequalities", "equations"),
        ),
    }


@pytest.mark.parametrize("name", ["LinearInequality", "VRep", "HRep"])
def test_value_classes_compare_hash_and_refuse_assignment(name):
    value, same, other, fields = _value_cases()[name]
    assert value == same and not value != same
    assert value != other
    # equal values hash alike, and the hash is that of the field tuple
    assert hash(value) == hash(same)
    assert hash(value) == hash(tuple(getattr(value, f) for f in fields))
    assert {value, same, other} == {value, other}
    # only an instance of the same class compares equal
    assert value != tuple(getattr(value, f) for f in fields)
    for f in fields:
        with pytest.raises(AttributeError, match=f"cannot assign to field '{f}'"):
            setattr(value, f, None)
        with pytest.raises(AttributeError, match=f"cannot delete field '{f}'"):
            delattr(value, f)
    assert value == same
