import hashlib
import math
import random
from fractions import Fraction

import pytest

from bnpoly.cli import main
from bnpoly.dags import enumerate_dags, enumerate_equivalence_classes
from bnpoly.dd import Budget, extreme_rays
from bnpoly.encodings import char_bits
from bnpoly.errors import (
    BnPolyError,
    IndexFamilyMismatchError,
    InfeasibleError,
    InvalidInequalityError,
    UnboundedError,
)
from bnpoly.ground import CharVector, FamVector, GroundSet
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
    _reduced_echelon,
    affine_rank,
    cip_vrep,
    dag_codes,
    face_of,
    facets_from_vertices,
    fvp_vrep,
    hrep_from_matrix_text,
    incidence,
    integer_values,
    is_facet,
    lp_maximize,
    max_over_vertices,
    vertices_from_inequalities,
)
from bnpoly.simplex import solve_lp
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
    bogus = LinearInequality(FamVector(gs3, {(0, 0b010): 1}), Fraction(1, 2))
    with pytest.raises(InvalidInequalityError):
        face_of(bogus, fvp)
    with pytest.raises(InvalidInequalityError):
        incidence(nonneg_constraints(gs3) + [bogus], fvp)


def _scaled(q, factor):
    return LinearInequality(q.objective * factor, q.bound * factor, q.label)


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


@pytest.mark.parametrize("cls", [FamVector, CharVector], ids=["fam", "char"])
def test_integer_values_match_fraction_evaluation(gs3, cls):
    # Against <objective, p> and the bound in Fractions, times the lcm of
    # the denominators of the coefficients and the bound.
    rng = random.Random(f"integer-values-{cls.space}")
    index = cls.index(gs3)

    def rational():
        return Fraction(rng.randint(-9, 9), rng.choice((1, 1, 2, 3, 7)))

    for trial in range(25):
        objective = cls(gs3, [(key, rational()) for key in index if rng.random() < 0.6])
        bound = Fraction(1) if trial % 5 == 0 else rational()
        points = [tuple(rational() for _ in index) for _ in range(rng.randint(1, 6))]
        scale = math.lcm(bound.denominator, *(c.denominator for _, c in objective.items()))
        values, scaled_bound = integer_values(objective, bound, points)
        assert values == [
            scale * sum((objective[key] * x for key, x in zip(index, p)), Fraction(0))
            for p in points
        ]
        assert scaled_bound == scale * bound

    # Violated at a known point: incidence names the first one.
    objective = cls(gs3, [(key, rational()) for key in index])
    points = tuple(dict.fromkeys(tuple(rational() for _ in index) for _ in range(8)))
    exact = [sum((objective[key] * x for key, x in zip(index, p)), Fraction(0)) for p in points]
    bound = sorted(set(exact))[-2]
    first = next(i for i, v in enumerate(exact) if v > bound)
    with pytest.raises(InvalidInequalityError, match=rf"^inequality probe violated at point {first}$"):
        incidence([LinearInequality(objective, bound, "probe")], VRep(cls.space, gs3, points))


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
            sparse = [LinearInequality(obj, 0).value_at(v) for v in vrep.vectors()]
            best = max(sparse)
            value, index = max_over_vertices(obj, vrep)
            assert type(value) is Fraction
            assert (value, index) == (best, sparse.index(best))
    assert max_over_vertices(objectives[0], fvp)[0] == Fraction(2, 7)


def test_empty_face(gs3):
    fvp = fvp_vrep(gs3)
    # 0 <= 1 is never tight
    slack = LinearInequality(FamVector(gs3, {}), Fraction(1))
    info = face_of(slack, fvp)
    assert info.tight_indices == () and info.dimension == -1


@pytest.mark.parametrize("n, classes", [(3, 11), (4, 185)])
def test_cip_vertices_are_the_class_representatives_imsets(n, classes):
    # cip_vrep keys classes by their imset; the covered-arc classes agree.
    gs = GroundSet.alpha(n)
    expected = [char_bits(rep) for rep, _ in enumerate_equivalence_classes(gs)]
    assert len(expected) == classes
    assert list(cip_vrep(gs).points) == expected


def test_dag_codes_refuse_dags_of_another_ground_set(gs3, gs4):
    # three-node DAGs used to come back as 28-wide four-node codes
    dags3, dags4 = enumerate_dags(gs3), enumerate_dags(gs4)
    assert len(dag_codes(gs4, dags4)[0]) == 28
    for graphs in (dags3, dags4[:5] + dags3[:1]):
        with pytest.raises(IndexFamilyMismatchError, match="a DAG over .'a', 'b', 'c'. among codes over"):
            dag_codes(gs4, graphs)


def test_c20_is_facet_of_cip4(gs4):
    cip = cip_vrep(gs4)
    entry = catalog_specific_n4()[-1]
    assert entry.char_ineq.bound == 1
    assert is_facet(entry.char_ineq, cip)


def test_hull_counts(gs3):
    assert len(facets_from_vertices(fvp_vrep(gs3)).inequalities) == 17
    assert len(facets_from_vertices(cip_vrep(gs3)).inequalities) == 13


@pytest.fixture(scope="module")
def n4_hulls(gs4):
    """The n = 4 vertex lists and hulls, each hull built once for this module.
    Lifted densest first, the FVP hull peaks at 422 intermediate rays (505
    in index order); the cap leaves about 1.5x headroom."""
    cip, fvp = cip_vrep(gs4), fvp_vrep(gs4)
    return {
        "cip": (cip, facets_from_vertices(cip)),
        "fvp": (fvp, facets_from_vertices(fvp, budget=Budget(max_rays=640))),
    }


def test_fvp_n4_hull_has_135_facets(n4_hulls):
    _, hull = n4_hulls["fvp"]
    assert len(hull.inequalities) == 135
    assert hull.equations == ()  # full-dimensional in the 28 family variables


@pytest.mark.parametrize("polytope", ["cip", "fvp"])
def test_n4_hull_facets_hold_at_every_vertex(n4_hulls, polytope):
    # verify n4 evaluates the CIP facets at the all-ones vertex alone, so the
    # validity of every facet at every vertex is checked here
    vrep, hull = n4_hulls[polytope]
    tight_sets = incidence(hull.inequalities, vrep)  # raises at a violation
    assert all(tight_sets)
    keys = [q.canonical_key() for q in hull.inequalities]
    assert keys == sorted(keys)
    if polytope == "cip":
        one = vrep.points.index((1,) * len(vrep.index))
        assert sum(tight >> one & 1 for tight in tight_sets) == 37


def test_hull_facets_keep_their_primitive_integer_rows(gs2):
    # conv{(0, 0), (1/2, 0), (0, 1/2)} over the family coordinates a|b, b|a:
    # the slanted facet's primitive ray is 2x + 2y <= 1, coefficients with
    # gcd 2, which its canonical key divides out
    half = Fraction(1, 2)
    ab, ba = FamVector.index(gs2)
    hull = facets_from_vertices(VRep("fam", gs2, ((0, 0), (half, 0), (0, half))))
    assert hull.equations == ()
    listed = [(dict(q.objective.items()), q.bound, q.label) for q in hull.inequalities]
    assert listed == [
        ({ab: -1}, 0, "facet"),
        ({ab: 2, ba: 2}, 1, "facet"),
        ({ba: -1}, 0, "facet"),
    ]
    slanted = hull.inequalities[1]
    assert slanted.canonical_key() == ("fam", ((ab, 1), (ba, 1)), half)
    keys = [q.canonical_key() for q in hull.inequalities]
    assert keys == sorted(keys)
    assert all(type(v) is Fraction for q in hull.inequalities for _, v in q.objective.items())
    assert slanted.objective == FamVector(gs2, {ab: 2, ba: 2})


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
        assert FamVector(gs3, zip(hull.index, row)) == vec and rhs == expected_rhs
    for row, rhs, q in zip(A_ub, b_ub, hull.inequalities):
        assert FamVector(gs3, zip(hull.index, row)) == q.objective and rhs == q.bound


def _hull_subsets(count):
    """Seeded random subsets of the n = 2, 3, 4 FVP and CIP points, most of
    them lower-dimensional."""
    rng = random.Random("hull-subsets")
    bases = [vrep(GroundSet.alpha(n)) for n in (2, 3, 4) for vrep in (fvp_vrep, cip_vrep)]
    for _ in range(count):
        base = rng.choice(bases)
        size = rng.randint(1, min(len(base.points), 14))
        yield VRep(base.space, base.gs, tuple(rng.sample(base.points, size)))


def _dense_hull(hull):
    """The hull as (facet rows, equation rows), each row (bound, *coefficients)
    in index order, facets sorted."""
    facets = sorted((q.bound, *q.objective.dense(hull.index)) for q in hull.inequalities)
    equations = [(rhs, *vec.dense(hull.index)) for vec, rhs in hull.equations]
    return facets, equations


def test_hull_equals_the_reduced_form_of_the_index_order_cone():
    # The cone with the points lifted in index order.  Its rays and
    # lineality come out in reduced echelon form already, so reducing them
    # changes nothing, and the hull lifted densest first must give the same
    # rows.
    lower_dimensional = 0
    for vrep in _hull_subsets(100):
        rays, lineality = extreme_rays([(1, *(-x for x in p)) for p in vrep.points], len(vrep.index) + 1)
        if lineality:
            lower_dimensional += 1
            reduced, lines = _reduced_echelon(rays, lineality)
            assert (sorted(reduced), lines) == (rays, lineality)
        facets = [ray for ray in rays if any(ray[1:])]
        assert _dense_hull(facets_from_vertices(vrep)) == (facets, lineality)
    assert lower_dimensional >= 60


def test_facets_vanish_at_the_equation_pivots():
    for vrep in _hull_subsets(100):
        facets, equations = _dense_hull(facets_from_vertices(vrep))
        # each equation pivots on its last nonzero coefficient, never on the bound
        pivots = [max(c for c in range(1, len(line)) if line[c]) for line in equations]
        assert len(set(pivots)) == len(pivots)
        for c in pivots:
            assert sum(1 for line in equations if line[c]) == 1
            assert all(row[c] == 0 for row in facets)
        assert equations == sorted(equations)
        assert all(next(x for x in line if x) > 0 for line in equations)


def test_segment_hull_stdout_bytes_are_pinned(capsys):
    points = '{"space": "fam", "points": [{"a|b": "1"}, {"b|a": "1"}]}'
    assert main(["polytope", "hull", "--n", "2", "--points", points]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "39c7567318a96c08ab606381564deaa53ae0abd0c9513cf9170f3c1210dca892"
    )


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
    cut = LinearInequality(FamVector(gs, {(0, gs.mask_of("b")): 1}), Fraction(-1))
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
def test_roundtrip_cip(n, request):
    if n == 4:
        cip, hull = request.getfixturevalue("n4_hulls")["cip"]
    else:
        cip = cip_vrep(GroundSet.alpha(n))
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


def test_unknown_space_tag_is_refused(gs3):
    from bnpoly.polyhedra import hrep_from_matrix_text

    for build in (
        lambda: VRep("set", gs3, ()),
        lambda: HRep("set", gs3, ()),
        lambda: hrep_from_matrix_text(gs3, "set", "0 0 0 0 0 0 0 0 0 0\n"),
    ):
        with pytest.raises(BnPolyError, match="space must be 'fam' or 'char', got 'set'"):
            build()


def test_hrep_refuses_an_equation_outside_its_space(gs3):
    rows = tuple(nonneg_constraints(gs3) + modified_convexity(gs3))
    wrong_ground_set = FamVector(GroundSet.alpha(4), {(0, 0b1000): 1})
    wrong_class = CharVector(gs3, {gs3.mask_of("ab"): 1})
    for vec in (wrong_ground_set, wrong_class):
        with pytest.raises(BnPolyError, match="equation does not match the H-representation space"):
            HRep("fam", gs3, rows, ((vec, 1),))
    with pytest.raises(BnPolyError, match="equation does not match"):
        HRep("char", gs3, (), ((FamVector(gs3, {(0, 0b010): 1}), 0),))
    # the same equation over the right space is kept and read as its row
    ok = HRep("fam", gs3, rows, ((FamVector(gs3, {(0, 0b010): 1}), 1),))
    assert ok.matrix()[2] == [FamVector(gs3, {(0, 0b010): 1}).dense(ok.index)]


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
    """(instance, an equal one, an unequal one, field names) per value class."""
    gs = GroundSet(["x", "y"])
    fam = FamVector(gs, {(0, 0b10): 1})
    q = LinearInequality(fam, Fraction(1, 2), "cut")
    points = ((0, 0), (1, 0))
    lp = dict(c=[1, 1], A_ub=[[1, 1], [-1, 0]], b_ub=[2, 0])
    return {
        "GroundSet": (gs, GroundSet("yx"), GroundSet(["x", "z"]), ("labels",)),
        "LpResult": (
            solve_lp(**lp),
            solve_lp(**lp),
            solve_lp(**{**lp, "b_ub": [3, 0]}),
            ("status", "objective", "x", "dual_ub", "dual_eq", "pivots"),
        ),
        "LinearInequality": (
            q,
            LinearInequality(FamVector(gs, {(0, 0b10): 1}), "1/2", "cut"),
            LinearInequality(fam, Fraction(1, 2)),
            ("space", "objective", "bound", "label"),
        ),
        "VRep": (
            VRep("fam", gs, points),
            VRep("fam", GroundSet(["y", "x"]), ((0, 0), (1, 0))),
            VRep("fam", gs, points[:1]),
            ("space", "gs", "points"),
        ),
        "HRep": (
            HRep("fam", gs, (q,)),
            HRep("fam", gs, (LinearInequality(fam, Fraction(1, 2), "cut"),), ()),
            HRep("fam", gs, (q,), ((fam, 1),)),
            ("space", "gs", "inequalities", "equations"),
        ),
    }


@pytest.mark.parametrize("name", ["LinearInequality", "VRep", "HRep", "GroundSet", "LpResult"])
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


def _segment_ineq(gs2):
    return LinearInequality(FamVector(gs2, {(0, 0b10): 1}), 1)


@pytest.mark.parametrize(
    "call, error, message",
    [
        (
            lambda gs2: VRep("fam", gs2, ((0, 0), (0, 0))),
            BnPolyError,
            "V-representation points must be distinct",
        ),
        (
            lambda gs2: VRep("fam", gs2, ((0, 0, 0),)),
            BnPolyError,
            "point width does not match the ambient index family",
        ),
        (
            lambda gs2: HRep("char", gs2, (_segment_ineq(gs2),)),
            BnPolyError,
            "inequality does not match the H-representation space",
        ),
        (
            lambda gs2: face_of(_segment_ineq(gs2), cip_vrep(gs2)),
            BnPolyError,
            "objective and V-representation spaces differ",
        ),
        (
            lambda gs2: lp_maximize(CharVector(gs2, {0b11: 1}), HRep("fam", gs2, (_segment_ineq(gs2),))),
            BnPolyError,
            "objective and polyhedron spaces differ",
        ),
        (
            lambda gs2: vertices_from_inequalities(HRep("fam", gs2, (_segment_ineq(gs2),))),
            UnboundedError,
            "polyhedron contains lines",
        ),
        (
            lambda gs2: hrep_from_matrix_text(gs2, "fam", "1 0 1\n0 1\n"),
            BnPolyError,
            "matrix line 2: expected 3 entries, got 2",
        ),
    ],
    ids=[
        "duplicate-points",
        "wrong-point-width",
        "inequality-from-the-other-space",
        "face-of-across-spaces",
        "lp-maximize-across-spaces",
        "vertices-of-a-polyhedron-with-lines",
        "matrix-line-of-the-wrong-width",
    ],
)
def test_polyhedra_refusals(gs2, call, error, message):
    with pytest.raises(error) as info:
        call(gs2)
    assert str(info.value) == message
