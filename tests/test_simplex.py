import random
from fractions import Fraction

import pytest

from bnpoly import polyhedra, scoreeq, simplex, verify
from bnpoly.dags import enumerate_dags
from bnpoly.errors import BnPolyError
from bnpoly.ground import CharVector, FamVector, GroundSet, enumerate_cai, iter_bits
from bnpoly.ineq import LinearInequality, catalog_specific_n4
from bnpoly.polyhedra import (
    HRep,
    facets_from_vertices,
    fvp_vrep,
    max_over_vertices,
    vertices_from_inequalities,
)
from bnpoly.simplex import LpResult, _check_certificate, solve_lp
from bnpoly.verify import (
    _se_relaxation,
    explore_conjecture,
    verify_theorem3,
)


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


@pytest.mark.parametrize("value", [0.1, True, 1.0])
def test_inexact_numbers_are_refused(value):
    with pytest.raises(TypeError, match="not an exact rational"):
        solve_lp([value], A_ub=[[1]], b_ub=[1])
    with pytest.raises(TypeError, match="not an exact rational"):
        solve_lp([1], A_ub=[[value]], b_ub=[1])


def test_exact_numbers_are_accepted():
    r = solve_lp(["1/2"], A_ub=[[Fraction(2)]], b_ub=[3])
    assert r.objective == Fraction(3, 4) and r.x == (Fraction(3, 2),)


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
        return LinearInequality(FamVector(gs, coords), Fraction(bound))

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
    rows = _se_relaxation(gs) + [
        q for e in catalog_specific_n4() if e.char_ineq.bound != 0 for q in e.fam_orbit()
    ]
    hrep = HRep("fam", gs, tuple(rows))
    rng = random.Random(0)
    objective = scoreeq.objective_from_setfn(
        CharVector(gs, {S: rng.randint(-5, 5) for S in enumerate_cai(gs)})
    )
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
    # Fraction rows and rhs: 3x + 2y <= 5 scaled by 1/6, so the optimum is
    # x = (0, 5/2); moving x_0 up to 1/100 breaks the row by 1/200.
    "rational-primal-infeasible": (
        dict(
            c=[1, 1],
            A_ub=[[Fraction(1, 2), Fraction(1, 3)], [-1, 0], [0, -1]],
            b_ub=[Fraction(5, 6), 0, 0],
        ),
        dict(x=(Fraction(1, 100), Fraction(5, 2))),
        "primal-infeasible",
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
        _check_certificate(*args, LpResult(**{**vars(result), **tampering}))


def _lp_results(monkeypatch, run):
    """Every ``LpResult`` that the pipeline ``run()`` gets, in call order."""
    results = []

    def recording(*args, **kwargs):
        result = solve_lp(*args, **kwargs)
        results.append(result)
        return result

    monkeypatch.setattr(polyhedra, "solve_lp", recording)
    monkeypatch.setattr(scoreeq, "solve_lp", recording)
    run()
    return results


# Pivot counts, optimum and certificate of the pipelines' LPs, recorded with
# the earlier Fraction tableau: the integer tableau takes the same Bland path.
def test_theorem3_n4_pivot_path(monkeypatch):
    results = _lp_results(monkeypatch, lambda: verify_theorem3(4, trials=1, seed=0))
    assert [r.pivots for r in results] == [(0, 12), (0, 12), (0, 0), (0, 2)]
    first = results[0]
    assert {j: v for j, v in enumerate(first.x) if v} == {2: 1, 10: 1, 17: 1}
    assert len(first.dual_ub) == 73 and first.dual_eq == ()
    assert {i: y for i, y in enumerate(first.dual_ub) if y} == {
        0: 2, 1: 4, 3: 3, 4: 7, 5: 5, 6: 2, 8: 5, 9: 1, 11: 4, 12: 5, 13: 2,
        14: 2, 15: 5, 16: 3, 18: 2, 19: 5, 21: 1, 23: 5, 25: 1, 27: 2, 28: 2,
        32: 1, 33: 3, 36: 3, 37: 2,
    }


def test_theorem3_n5_pivot_path(monkeypatch):
    results = _lp_results(monkeypatch, lambda: verify_theorem3(5, trials=1))
    assert [r.pivots for r in results] == [(0, 112), (0, 156)]
    assert [r.objective for r in results] == [16, Fraction(35, 2)]


def test_se_face_lps_pivot_totals(gs3, se_face_per_dag, monkeypatch):
    # The conjecture pipeline's face LPs built with one row per DAG: one per
    # closed face (the whole polytope needs none) and one for the class of
    # complete graphs.
    dags = enumerate_dags(gs3)
    fvp = fvp_vrep(gs3)
    faces = verify.all_faces_by_tight_sets(fvp, facets_from_vertices(fvp))
    unions = {0}
    for members in scoreeq._class_rows(dags).values():
        unions |= {union | members for union in unions}
    closed = [face for face in faces if face in unions]
    full_class = [g for g in dags if len(g.adjacency_pairs()) == 3]
    sets = [[dags[i] for i in iter_bits(face)] for face in closed] + [full_class]
    results = _lp_results(monkeypatch, lambda: [se_face_per_dag(g, all_dags=dags) for g in sets])
    assert len(results) == 93
    assert sum(r.pivots[0] for r in results) == 617
    assert sum(r.pivots[1] for r in results) == 153


def test_se_face_lps_pivot_totals_with_one_row_per_class(monkeypatch):
    results = _lp_results(monkeypatch, explore_conjecture)
    assert len(results) == 93
    assert sum(r.pivots[0] for r in results) == 586
    assert sum(r.pivots[1] for r in results) == 154


def _tableau_widths(monkeypatch, run):
    """The column count of every tableau that ``_bland_min`` pivots on."""
    widths = []
    bland_min = simplex._bland_min

    def spying(tableau, cost, *args):
        widths.append(len(cost))
        assert all(len(row) == len(cost) for row in tableau)
        return bland_min(tableau, cost, *args)

    monkeypatch.setattr(simplex, "_bland_min", spying)
    is_face, _ = run()
    assert is_face
    return widths


def test_se_face_lp_tableau_has_artificials_only_where_needed(
    gs3, se_face_per_dag, monkeypatch
):
    # The face of one DAG with one row per DAG: 33 kept <= rows (t >= 0 is
    # a sign row) and one equation over 5 free variables and t.  Only the
    # equation needs an artificial, so the tableau is 11 + 32 + 1 + 1
    # columns wide; one artificial per row would make it 77.
    widths = _tableau_widths(monkeypatch, lambda: se_face_per_dag([enumerate_dags(gs3)[0]]))
    assert widths == [45, 45]


def test_se_face_lp_tableau_has_one_row_per_class(gs3, monkeypatch):
    # The empty graph is a class of its own: one equation, ten <= rows for
    # the other classes and eight box rows, so 11 + 18 + 1 + 1 columns.
    widths = _tableau_widths(monkeypatch, lambda: scoreeq.is_se_face([enumerate_dags(gs3)[0]]))
    assert widths == [31, 31]


def _random_small_lp(rng):
    """A small integer LP with free and sign-row-bounded variables, boxes,
    negative right-hand sides, equations that are sometimes repeated with a
    factor of 2, -1 or -3, and sometimes one row divided by 2..5."""
    n = rng.randint(1, 4)
    c = [rng.randint(-3, 3) for _ in range(n)]
    A_ub, b_ub, A_eq, b_eq = [], [], [], []

    def unit(j, a):
        row = [0] * n
        row[j] = a
        return row

    for j in range(n):
        kind = rng.randrange(3)
        if kind == 0:
            A_ub.append(unit(j, -rng.randint(1, 2)))
            b_ub.append(0)
        elif kind == 1:
            A_ub += [unit(j, 1), unit(j, -1)]
            b_ub += [rng.randint(0, 4), rng.randint(0, 4)]
    for _ in range(rng.randint(0, 3)):
        A_ub.append([rng.randint(-3, 3) for _ in range(n)])
        b_ub.append(rng.randint(-4, 6))
    for _ in range(rng.randint(0, 2)):
        row, rhs = [rng.randint(-2, 2) for _ in range(n)], rng.randint(-3, 3)
        A_eq.append(row)
        b_eq.append(rhs)
        if rng.random() < 0.5:
            k = rng.choice([2, -1, -3])
            A_eq.append([k * v for v in row])
            b_eq.append(k * rhs)
    if rng.random() < 0.3:
        rows, rhs = (A_ub, b_ub) if A_ub and rng.random() < 0.5 else (A_eq, b_eq)
        if rows:
            i, q = rng.randrange(len(rows)), rng.randint(2, 5)
            rows[i] = [Fraction(v, q) for v in rows[i]]
            rhs[i] = Fraction(rhs[i], q)
    return c, A_ub, b_ub, A_eq, b_eq


def test_statuses_and_optima_match_highs(monkeypatch):
    """Infeasible and unbounded results carry no certificate, so compare
    every status, and every optimum both report, with HiGHS.  HiGHS presolve
    reports some unbounded LPs here as infeasible, so it runs without."""
    np = pytest.importorskip("numpy")
    linprog = pytest.importorskip("scipy.optimize").linprog
    drive_outs, unit_pivots = [], []
    pivot = simplex._pivot

    def spying(tableau, cost, basis, r, s, D):
        if cost is None:  # phase 1 is over: an artificial is driven out
            drive_outs.append(tableau[r][s])
        unit_pivots.append(tableau[r][s] == D)  # sparse step, else dense
        return pivot(tableau, cost, basis, r, s, D)

    monkeypatch.setattr(simplex, "_pivot", spying)
    highs_status = {0: "optimal", 2: "infeasible", 3: "unbounded"}
    statuses, fractional_duals = set(), 0
    for seed in range(200):
        c, A_ub, b_ub, A_eq, b_eq = _random_small_lp(random.Random(seed))
        ours = solve_lp(c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq)
        floats = lambda rows: np.array(rows, dtype=float) if rows else None
        highs = linprog(
            [-v for v in c],
            A_ub=floats(A_ub), b_ub=floats(b_ub), A_eq=floats(A_eq), b_eq=floats(b_eq),
            bounds=(None, None), method="highs", options={"presolve": False},
        )
        assert ours.status == highs_status.get(highs.status), (seed, highs.message)
        statuses.add(ours.status)
        if ours.status == "optimal":
            assert float(ours.objective) == pytest.approx(-highs.fun, abs=1e-9), seed
            fractional_duals += any(y.denominator > 1 for y in ours.dual_ub + ours.dual_eq)
    assert statuses == {"optimal", "infeasible", "unbounded"}
    assert any(p < 0 for p in drive_outs) and fractional_duals > 0
    assert set(unit_pivots) == {True, False}
