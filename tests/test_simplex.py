import dataclasses
import random
from fractions import Fraction

import pytest

from bnpoly.errors import BnPolyError
from bnpoly.ground import FamVector, GroundSet
from bnpoly.ineq import LinearInequality, modified_convexity, nonneg_constraints
from bnpoly.polyhedra import HRep, max_over_vertices, vertices_from_inequalities
from bnpoly.simplex import _check_certificate, solve_lp
from bnpoly.verify import _n4_catalog_fam_rows, _random_se_objective


def assert_certified(r, c, A_ub=(), b_ub=(), A_eq=(), b_eq=()):
    """Re-check an optimal result against the caller's rows: one multiplier
    per input row, primal and dual feasibility, and strong duality."""
    assert r.status == "optimal"
    assert len(r.dual_ub) == len(A_ub) and len(r.dual_eq) == len(A_eq)
    assert all(y >= 0 for y in r.dual_ub)
    for row, b in zip(A_ub, b_ub):
        assert sum(a * x for a, x in zip(row, r.x)) <= b
    for row, b in zip(A_eq, b_eq):
        assert sum(a * x for a, x in zip(row, r.x)) == b
    assert r.objective == sum(cj * x for cj, x in zip(c, r.x))
    assert r.objective == sum(y * b for y, b in zip(r.dual_ub, b_ub)) + sum(
        y * b for y, b in zip(r.dual_eq, b_eq)
    )
    for j, cj in enumerate(c):
        combo = sum(y * row[j] for y, row in zip(r.dual_ub, A_ub)) + sum(
            y * row[j] for y, row in zip(r.dual_eq, A_eq)
        )
        assert combo == cj


def test_basic_maximization():
    # max x + y subject to x <= 2, y <= 3, x + y <= 4, x, y >= 0
    A_ub = [[1, 0], [0, 1], [1, 1], [-1, 0], [0, -1]]
    r = solve_lp([1, 1], A_ub=A_ub, b_ub=[2, 3, 4, 0, 0])
    assert r.status == "optimal"
    assert r.objective == 4
    assert sum(r.x) == 4


def test_free_variables_and_equalities():
    # max x - y subject to x + y = 10, x - y <= 4 (x, y free)
    r = solve_lp([1, -1], A_ub=[[1, -1]], b_ub=[4], A_eq=[[1, 1]], b_eq=[10])
    assert r.status == "optimal" and r.objective == 4
    assert r.x[0] + r.x[1] == 10


def test_fractional_data():
    r = solve_lp(
        [Fraction(1, 3)],
        A_ub=[[Fraction(2, 7)], [-1]],
        b_ub=[Fraction(3, 5), 0],
    )
    assert r.status == "optimal"
    assert r.objective == Fraction(1, 3) * Fraction(3, 5) / Fraction(2, 7)


def test_infeasible():
    r = solve_lp([1], A_ub=[[1], [-1], [-1]], b_ub=[1, -2, 0])
    assert r.status == "infeasible"


def test_unbounded():
    assert solve_lp([1], A_ub=[[-1]], b_ub=[0]).status == "unbounded"
    assert solve_lp([1], A_ub=[[0], [-1]], b_ub=[1, 0]).status == "unbounded"


def test_negative_rhs_rows():
    # x >= 2 written as -x <= -2; max -x gives -2
    r = solve_lp([-1], A_ub=[[-1], [-1]], b_ub=[-2, 0])
    assert r.status == "optimal" and r.objective == -2 and r.x == (2,)


def test_degenerate_cube_with_redundant_rows_terminates():
    # heavy degeneracy: many redundant constraints through one optimal vertex
    A = [[1, 0], [0, 1], [1, 1], [1, 1], [2, 2], [1, 0], [0, 1], [-1, 0], [0, -1]]
    b = [1, 1, 2, 2, 4, 1, 1, 0, 0]
    r = solve_lp([1, 1], A_ub=A, b_ub=b)
    assert r.status == "optimal" and r.objective == 2


def test_redundant_equalities_are_dropped():
    r = solve_lp([1], A_eq=[[1], [2]], b_eq=[3, 6])
    assert r.status == "optimal" and r.x == (3,)


def test_duals_certify_optimality():
    A_ub = [[3, 2, 1], [2, 5, 3], [-1, 0, 0], [0, -1, 0], [0, 0, -1]]
    b_ub = [10, 15, 0, 0, 0]
    c = [2, 3, 4]
    r = solve_lp(c, A_ub=A_ub, b_ub=b_ub)
    assert r.status == "optimal"
    y = r.dual_ub
    assert all(v >= 0 for v in y)
    # weak duality holds with equality
    assert sum(yi * bi for yi, bi in zip(y, b_ub)) == r.objective
    for j in range(3):
        assert y[0] * A_ub[0][j] + y[1] * A_ub[1][j] >= c[j]
    assert_certified(r, c, A_ub, b_ub)


def test_size_mismatch_raises():
    with pytest.raises(BnPolyError):
        solve_lp([1, 2], A_ub=[[1]], b_ub=[1])
    with pytest.raises(BnPolyError):
        solve_lp([1], A_ub=[[1]], b_ub=[1, 2])


def test_mixed_free_and_bounded_variables():
    # max x + z with y >= 0 as a sign row, x and z free; z ends negative
    c = [1, 0, 1]
    A_ub = [[1, -1, 0], [0, 1, 0], [0, -1, 0], [-1, 0, 1]]
    b_ub = [1, 2, 0, -5]
    r = solve_lp(c, A_ub=A_ub, b_ub=b_ub)
    assert r.objective == 1 and r.x == (3, 2, -2)
    assert_certified(r, c, A_ub, b_ub)


def test_sign_row_with_coefficient_two():
    # -2x <= 0 bounds x; -y <= -1 has a negative rhs and stays a row
    c = [-1, -1]
    A_ub = [[-2, 0], [0, -1], [1, 1]]
    b_ub = [0, -1, 5]
    r = solve_lp(c, A_ub=A_ub, b_ub=b_ub)
    assert r.objective == -1 and r.x == (0, 1)
    assert r.dual_ub == (Fraction(1, 2), 1, 0)
    assert r.pivots[0] > 0  # the negative-rhs row starts on an artificial
    assert_certified(r, c, A_ub, b_ub)


def test_duplicate_sign_rows_share_one_multiplier():
    c = [-1]
    A_ub = [[-1], [-3], [1]]
    b_ub = [0, 0, 2]
    r = solve_lp(c, A_ub=A_ub, b_ub=b_ub)
    assert r.objective == 0 and r.dual_ub == (1, 0, 0)
    assert_certified(r, c, A_ub, b_ub)


def test_row_with_nonzero_rhs_is_not_a_sign_row():
    # -x <= 1 allows x = -1; read as x >= 0 it would give 0
    r = solve_lp([-1], A_ub=[[-1]], b_ub=[1])
    assert r.objective == 1 and r.x == (-1,)
    assert_certified(r, [-1], [[-1]], [1])


def test_infeasible_and_unbounded_with_sign_rows():
    assert solve_lp([1], A_ub=[[-1], [1]], b_ub=[0, -1]).status == "infeasible"
    both_bounded = solve_lp([0, 1], A_ub=[[-1, 0], [0, -2]], b_ub=[0, 0], A_eq=[[1, 1]], b_eq=[-1])
    assert both_bounded.status == "infeasible"
    assert solve_lp([1], A_ub=[[-1]], b_ub=[0]).status == "unbounded"
    assert solve_lp([1, 1], A_ub=[[-1, 0], [1, -1]], b_ub=[0, 2]).status == "unbounded"


@pytest.mark.parametrize("seed", range(12))
def test_random_lps_match_vertex_maximum(seed):
    """Three live coordinates of the n = 3 family space, each with a sign
    row, a scaled sign row or an ordinary lower bound, boxed above and cut by
    random rows; the other six are pinned by equations."""
    rng = random.Random(seed)
    gs = GroundSet.alpha(3)
    index = HRep("fam", gs, ()).index
    live, pinned = index[:3], index[3:]

    def row(coords, bound):
        return LinearInequality("fam", FamVector(gs, coords), Fraction(bound))

    rows = []
    for key in live:
        rows.append(row({key: 1}, 3))
        kind = rng.randrange(3)
        rows.append(row({key: -1 if kind == 0 else -2}, 0) if kind < 2 else row({key: -1}, 2))
    for _ in range(3):
        rows.append(row({key: rng.randint(-3, 3) for key in live}, rng.randint(-6, 6)))
    equations = tuple((FamVector(gs, {key: 1}), Fraction(0)) for key in pinned)
    hrep = HRep("fam", gs, tuple(rows), equations)
    objective = FamVector(gs, {key: rng.randint(-4, 4) for key in live})

    A_ub, b_ub, A_eq, b_eq = hrep.matrix()
    c = [objective[key] for key in index]
    r = solve_lp(c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq)
    vrep = vertices_from_inequalities(hrep)
    if not vrep.points:
        assert r.status == "infeasible"
        return
    assert r.objective == max_over_vertices(objective, vrep)[0]
    assert_certified(r, c, A_ub, b_ub, A_eq, b_eq)


def test_n4_reduced_polyhedron_starts_feasible():
    # the origin satisfies every row, so the slack basis is feasible
    gs = GroundSet.alpha(4)
    rows = nonneg_constraints(gs) + modified_convexity(gs) + _n4_catalog_fam_rows(se_only=False)
    hrep = HRep("fam", gs, tuple(rows))
    objective = _random_se_objective(gs, random.Random(0))
    A_ub, b_ub, _, _ = hrep.matrix()
    c = [objective[key] for key in hrep.index]
    r = solve_lp(c, A_ub=A_ub, b_ub=b_ub)
    assert len(A_ub) == 73
    assert r.pivots[0] == 0 and sum(r.pivots) <= 50
    assert_certified(r, c, A_ub, b_ub)


# Each case: an LP, and a tampering of its optimal result that exactly one
# refusal of the certificate check must catch.
_TAMPERED = {
    "primal-infeasible": (
        dict(c=[1, 1], A_ub=[[1, 1], [-1, 0], [0, -1]], b_ub=[2, 0, 0]),
        dict(x=(Fraction(3), Fraction(0))),
        "primal-infeasible",
    ),
    "equation-violated": (
        dict(c=[1, 0], A_ub=[[1, 0]], b_ub=[1], A_eq=[[1, 1]], b_eq=[1]),
        dict(x=(Fraction(1), Fraction(1))),
        "primal-infeasible",
    ),
    "violated-sign-row": (
        dict(c=[1, 1], A_ub=[[1, 1], [-1, 0], [0, -1]], b_ub=[2, 0, 0]),
        dict(x=(Fraction(-1), Fraction(0))),
        "primal-infeasible",
    ),
    "negative-multiplier": (
        dict(c=[1, 0], A_ub=[[1, 0], [0, 1], [-1, 0], [0, -1]], b_ub=[1, 0, 0, 0]),
        dict(dual_ub=(Fraction(1), Fraction(-1), Fraction(0), Fraction(0))),
        "negative multiplier",
    ),
    "duality-gap": (
        dict(c=[1, 1], A_ub=[[1, 1], [-1, 0], [0, -1]], b_ub=[2, 0, 0]),
        dict(objective=Fraction(3)),
        "strong duality",
    ),
    # y = (1, 1): strong duality holds (the second rhs is 0), but A^T y = (1, 1)
    # differs from c = (1, 0) on a free variable.
    "dual-infeasible-free": (
        dict(c=[1, 0], A_ub=[[1, 0], [0, 1]], b_ub=[1, 0]),
        dict(dual_ub=(Fraction(1), Fraction(1))),
        "dual certificate infeasible",
    ),
    # y = (0, 1, 0, 0): strong duality holds, but A^T y = (1, -1) differs from
    # c = (1, 0) on variables that sign rows bound.
    "dual-infeasible-bounded": (
        dict(c=[1, 0], A_ub=[[1, 0], [1, -1], [-1, 0], [0, -1]], b_ub=[1, 1, 0, 0]),
        dict(dual_ub=(Fraction(0), Fraction(1), Fraction(0), Fraction(0))),
        "dual certificate infeasible",
    ),
}


@pytest.mark.parametrize("name", sorted(_TAMPERED))
def test_certificate_check_refuses_tampered_results(name):
    lp, tampering, message = _TAMPERED[name]
    lp = {"A_ub": [], "b_ub": [], "A_eq": [], "b_eq": [], **lp}
    args = [lp[key] for key in ("c", "A_ub", "b_ub", "A_eq", "b_eq")]
    result = solve_lp(**lp)
    _check_certificate(*args, result)  # the untouched result passes
    with pytest.raises(BnPolyError, match=message):
        _check_certificate(*args, dataclasses.replace(result, **tampering))
