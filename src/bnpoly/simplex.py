"""Exact two-phase primal simplex over rationals with Bland's rule.

Solves   maximize c.x   subject to   A_ub x <= b_ub,  A_eq x = b_eq,
with x either free (default, split internally into differences of
nonnegative variables) or constrained to x >= 0.

Bland's smallest-index pivoting guarantees termination on the heavily
degenerate 0/1 polytopes this package works with.  Every pivot is exact, so
the returned dual vector is a genuine optimality certificate; it is checked
against the primal before returning.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import BnPolyError

_ZERO = Fraction(0)
_ONE = Fraction(1)


@dataclass
class LpResult:
    status: str  # "optimal" | "infeasible" | "unbounded"
    objective: Fraction | None = None
    x: tuple[Fraction, ...] | None = None
    dual_ub: tuple[Fraction, ...] | None = None
    dual_eq: tuple[Fraction, ...] | None = None


def solve_lp(
    c: Sequence,
    A_ub: Sequence[Sequence] | None = None,
    b_ub: Sequence | None = None,
    A_eq: Sequence[Sequence] | None = None,
    b_eq: Sequence | None = None,
    nonneg: bool = False,
) -> LpResult:
    c = [Fraction(v) for v in c]
    nvars = len(c)
    A_ub = [list(map(Fraction, row)) for row in (A_ub or [])]
    b_ub = [Fraction(v) for v in (b_ub or [])]
    A_eq = [list(map(Fraction, row)) for row in (A_eq or [])]
    b_eq = [Fraction(v) for v in (b_eq or [])]
    if len(A_ub) != len(b_ub) or len(A_eq) != len(b_eq):
        raise BnPolyError("constraint matrix / rhs size mismatch")
    for row in A_ub + A_eq:
        if len(row) != nvars:
            raise BnPolyError("constraint row has wrong width")

    result = _solve_standard(c, A_ub, b_ub, A_eq, b_eq, nonneg)
    if result.status == "optimal":
        _check_certificate(c, A_ub, b_ub, A_eq, b_eq, nonneg, result)
    return result


def _solve_standard(c, A_ub, b_ub, A_eq, b_eq, nonneg) -> LpResult:
    nvars = len(c)
    n_struct = nvars if nonneg else 2 * nvars
    m_ub, m_eq = len(A_ub), len(A_eq)
    m = m_ub + m_eq
    n_slack = m_ub
    n_total = n_struct + n_slack + m  # artificials come last

    def expand(row):
        if nonneg:
            return list(row)
        out = []
        for v in row:
            out.append(v)
            out.append(-v)
        return out

    # Tableau rows: [structural | slack | artificial | rhs], rhs kept >= 0.
    tableau: list[list[Fraction]] = []
    rhs_sign = []
    for i in range(m):
        if i < m_ub:
            body = expand(A_ub[i])
            rhs = b_ub[i]
            slack = [_ZERO] * n_slack
            slack[i] = _ONE
        else:
            body = expand(A_eq[i - m_ub])
            rhs = b_eq[i - m_ub]
            slack = [_ZERO] * n_slack
        sign = 1
        if rhs < 0:
            sign = -1
            body = [-v for v in body]
            slack = [-v for v in slack]
            rhs = -rhs
        art = [_ZERO] * m
        art[i] = _ONE
        tableau.append(body + slack + art + [rhs])
        rhs_sign.append(sign)

    basis = [n_struct + n_slack + i for i in range(m)]
    art_start = n_struct + n_slack

    # Phase 1: minimize the sum of artificials.  Cost row holds reduced costs.
    cost1 = [_ZERO] * (n_total + 1)
    for row in tableau:
        for j in range(n_total + 1):
            if row[j]:
                cost1[j] -= row[j]
    for j in range(art_start, n_total):
        cost1[j] = _ZERO  # artificials are basic with zero reduced cost

    status = _bland_min(tableau, cost1, basis, entering_limit=art_start)
    if status == "unbounded":  # cannot happen for a phase-1 objective
        raise BnPolyError("phase 1 reported unbounded")
    if -cost1[n_total] != 0:
        return LpResult(status="infeasible")

    # Drive any remaining artificial out of the basis; a row with no
    # structural/slack pivot is a redundant constraint and is dropped.
    drop_rows = []
    for i, bv in enumerate(basis):
        if bv >= art_start:
            pivot_col = next(
                (j for j in range(art_start) if tableau[i][j] != 0), None
            )
            if pivot_col is None:
                drop_rows.append(i)
            else:
                _pivot(tableau, [cost1], basis, i, pivot_col)
    dropped = set(drop_rows)
    if dropped:
        tableau = [row for i, row in enumerate(tableau) if i not in dropped]
        basis = [bv for i, bv in enumerate(basis) if i not in dropped]

    # Phase 2: minimize -c.x over the feasible basis.
    cost2 = [_ZERO] * (n_total + 1)
    if nonneg:
        for j, v in enumerate(c):
            cost2[j] = -v
    else:
        for j, v in enumerate(c):
            cost2[2 * j] = -v
            cost2[2 * j + 1] = v
    # Price out the current basis.
    for i, bv in enumerate(basis):
        coef = cost2[bv]
        if coef:
            row = tableau[i]
            for j in range(n_total + 1):
                if row[j]:
                    cost2[j] -= coef * row[j]

    status = _bland_min(tableau, cost2, basis, entering_limit=art_start)
    if status == "unbounded":
        return LpResult(status="unbounded")

    x_internal = [_ZERO] * n_total
    for i, bv in enumerate(basis):
        x_internal[bv] = tableau[i][n_total]
    if nonneg:
        x = tuple(x_internal[:nvars])
    else:
        x = tuple(x_internal[2 * j] - x_internal[2 * j + 1] for j in range(nvars))
    objective = sum((cv * xv for cv, xv in zip(c, x)), _ZERO)

    # The reduced cost of artificial column i is -y_i for the standard-form
    # dual y = c_B B^{-1}; mapping back to the original maximization problem
    # flips the sign once more and undoes the rhs sign normalization.
    dual = []
    for i in range(m):
        if i in dropped:
            dual.append(_ZERO)
        else:
            dual.append(cost2[art_start + i] * rhs_sign[i])
    dual_ub = tuple(dual[:m_ub])
    dual_eq = tuple(dual[m_ub:])
    return LpResult("optimal", objective, x, dual_ub, dual_eq)


def _bland_min(tableau, cost, basis, entering_limit) -> str:
    """Run Bland-rule pivots until the cost row is optimal.

    Entering variable: smallest column index with negative reduced cost;
    leaving variable: smallest ratio, ties broken by smallest basic index.
    Columns >= entering_limit (the artificials) never enter.
    """
    cost_rows = [cost]
    m = len(tableau)
    rhs_col = len(cost) - 1
    while True:
        entering = None
        for j in range(entering_limit):
            if cost[j] < 0:
                entering = j
                break
        if entering is None:
            return "optimal"
        leaving = None
        best_ratio = None
        for i in range(m):
            a = tableau[i][entering]
            if a > 0:
                ratio = tableau[i][rhs_col] / a
                if (
                    best_ratio is None
                    or ratio < best_ratio
                    or (ratio == best_ratio and basis[i] < basis[leaving])
                ):
                    best_ratio = ratio
                    leaving = i
        if leaving is None:
            return "unbounded"
        _pivot(tableau, cost_rows, basis, leaving, entering)


def _pivot(tableau, cost_rows, basis, r, s) -> None:
    prow = tableau[r]
    pivot = prow[s]
    if pivot != 1:
        inv = _ONE / pivot
        tableau[r] = prow = [v * inv for v in prow]
    for i, row in enumerate(tableau):
        if i != r and row[s]:
            f = row[s]
            tableau[i] = [v - f * w if w else v for v, w in zip(row, prow)]
    for k, crow in enumerate(cost_rows):
        if crow[s]:
            f = crow[s]
            cost_rows[k][:] = [v - f * w if w else v for v, w in zip(crow, prow)]
    basis[r] = s


def _check_certificate(c, A_ub, b_ub, A_eq, b_eq, nonneg, result: LpResult) -> None:
    x = result.x
    for row, rhs in zip(A_ub, b_ub):
        if sum((a * v for a, v in zip(row, x)), _ZERO) > rhs:
            raise BnPolyError("simplex returned a primal-infeasible point")
    for row, rhs in zip(A_eq, b_eq):
        if sum((a * v for a, v in zip(row, x)), _ZERO) != rhs:
            raise BnPolyError("simplex returned a primal-infeasible point")
    if nonneg and any(v < 0 for v in x):
        raise BnPolyError("simplex returned a primal-infeasible point")
    y_ub, y_eq = result.dual_ub, result.dual_eq
    if any(y < 0 for y in y_ub):
        raise BnPolyError("dual certificate has a negative multiplier")
    strong = sum((y * b for y, b in zip(y_ub, b_ub)), _ZERO) + sum(
        (y * b for y, b in zip(y_eq, b_eq)), _ZERO
    )
    if strong != result.objective:
        raise BnPolyError("strong duality failed; certificate invalid")
    nvars = len(c)
    for j in range(nvars):
        combo = sum((y_ub[i] * A_ub[i][j] for i in range(len(A_ub))), _ZERO) + sum(
            (y_eq[i] * A_eq[i][j] for i in range(len(A_eq))), _ZERO
        )
        if nonneg:
            if combo < c[j]:
                raise BnPolyError("dual certificate infeasible")
        else:
            if combo != c[j]:
                raise BnPolyError("dual certificate infeasible")
