"""Exact two-phase primal simplex with Bland's rule on an integer tableau.

Solves   maximize c.x   subject to   A_ub x <= b_ub,  A_eq x = b_eq.

Each variable is either bounded (x_j >= 0) or free; a free variable is split
internally into the difference of two nonnegative columns.  A variable is
bounded exactly when it has a *sign row* -- an ``A_ub`` row whose only
nonzero coefficient is some ``-a < 0`` with right-hand side 0, which says
x_j >= 0 -- so that row bounds its variable instead of entering the tableau;
its dual multiplier is recovered after phase 2 as ((A^T y)_j - c_j) / a.

Every ``<=`` row with a nonnegative right-hand side starts with its slack in
the basis.  Only the rows whose slack cannot start basic -- equality rows
and rows with a negative right-hand side -- get an artificial column, and
phase 1 minimizes the sum of those; when the origin is feasible phase 1
makes no pivot.  The artificial columns stay in the tableau, where they
track the basis inverse, so the duals are read off their reduced costs; a
row without one reads its dual off its slack, whose column starts as the
same unit vector at the same price 0.

The tableau is fraction-free: integers over one common denominator D, the
determinant of the current basis, which starts at 1 on the unit slack and
artificial columns.  Each input row is scaled to integers once together
with its right-hand side (:func:`linalg.integer_row`), and so is the
objective; phase 1 weights each artificial by the inverse of its row's
scale, so the pivots are those of the rational tableau.  A pivot on entry p
is a Bareiss step, row <- (p * row - row[s] * pivot_row) // D and then
D <- p, and the division is exact because every entry is a minor of the
scaled input (Edmonds 1967, Bareiss 1968; Azulay & Pique 1998).  Most pivots
are unit pivots, p == D; their step is row <- row - row[s] * pivot_row // D,
which touches only the pivot row's nonzero columns of the rows with
row[s] != 0.  A negative pivot, possible only while artificials are driven
out, negates every row so that D stays positive.  The primal values are
rhs / D, and each dual is the integer reduced cost unscaled by D, its row's
scale and the objective's.

Bland's smallest-index pivoting guarantees termination on the heavily
degenerate 0/1 polytopes this package works with.  Every pivot is exact, so
the returned dual vector is a genuine optimality certificate; it is checked
against the caller's original rows, sign rows included, before returning.
The check scales x and the duals to integers by their common denominators,
so on integer input it creates no ``Fraction``.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction
from math import lcm

from .errors import BnPolyError
from .ground import Record, as_fraction
from .linalg import integer_row

_ZERO = Fraction(0)


class LpResult(Record):
    _fields = ("status", "objective", "x", "dual_ub", "dual_eq", "pivots")

    def __init__(
        self,
        status: str,  # "optimal" | "infeasible" | "unbounded"
        objective: Fraction | None = None,
        x: tuple[Fraction, ...] | None = None,
        dual_ub: tuple[Fraction, ...] | None = None,
        dual_eq: tuple[Fraction, ...] | None = None,
        pivots: tuple[int, int] = (0, 0),  # (phase 1, phase 2)
    ):
        self.status = status
        self.objective = objective
        self.x = x
        self.dual_ub = dual_ub
        self.dual_eq = dual_eq
        self.pivots = pivots


def solve_lp(
    c: Sequence,
    A_ub: Sequence[Sequence] | None = None,
    b_ub: Sequence | None = None,
    A_eq: Sequence[Sequence] | None = None,
    b_eq: Sequence | None = None,
) -> LpResult:
    c = _exact(c)
    nvars = len(c)
    A_ub = [_exact(row) for row in (A_ub or [])]
    b_ub = _exact(b_ub or [])
    A_eq = [_exact(row) for row in (A_eq or [])]
    b_eq = _exact(b_eq or [])
    if len(A_ub) != len(b_ub) or len(A_eq) != len(b_eq):
        raise BnPolyError("constraint matrix / rhs size mismatch")
    for row in A_ub + A_eq:
        if len(row) != nvars:
            raise BnPolyError("constraint row has wrong width")

    sign_rows = set()
    first_sign_row = {}  # variable j -> (row, a) of its first row -a x_j <= 0
    for i, (row, rhs) in enumerate(zip(A_ub, b_ub)):
        if rhs == 0:
            nonzero = [(j, v) for j, v in enumerate(row) if v]
            if len(nonzero) == 1 and nonzero[0][1] < 0:
                j, v = nonzero[0]
                sign_rows.add(i)
                first_sign_row.setdefault(j, (i, -v))
    bounded = [j in first_sign_row for j in range(nvars)]
    kept = [i for i in range(len(A_ub)) if i not in sign_rows]

    result = _solve_standard(
        c, [A_ub[i] for i in kept], [b_ub[i] for i in kept], A_eq, b_eq, bounded
    )
    if result.status == "optimal":
        result.dual_ub = _sign_row_duals(c, A_ub, A_eq, kept, first_sign_row, result)
        _check_certificate(c, A_ub, b_ub, A_eq, b_eq, result)
    return result


def _exact(values) -> list:
    """The values as exact numbers: ints (not bools) and Fractions as they
    are, anything else through ``as_fraction``, which refuses floats."""
    return [v if type(v) is int or isinstance(v, Fraction) else as_fraction(v) for v in values]


def _sign_row_duals(c, A_ub, A_eq, kept, first_sign_row, result: LpResult):
    """Full-length ``dual_ub``: the kept rows' multipliers in place, and the
    first sign row of each variable takes the multiplier that closes the
    dual equation of its column (further sign rows of it get 0)."""
    dual = [_ZERO] * len(A_ub)
    for i, y in zip(kept, result.dual_ub):
        dual[i] = y
    # The kept rows' and the equations' multipliers over one denominator Y.
    y, Y = integer_row((*result.dual_ub, *result.dual_eq))
    rows = [(v, A_ub[k]) for v, k in zip(y, kept) if v]
    rows += [(v, row) for v, row in zip(y[len(kept):], A_eq) if v]
    for j, (i, a) in first_sign_row.items():
        combo = sum(v * row[j] for v, row in rows)
        dual[i] = Fraction(combo - c[j] * Y, a * Y)
    return tuple(dual)


def _solve_standard(c, A_ub, b_ub, A_eq, b_eq, bounded) -> LpResult:
    # Column layout: each variable's own column, followed by a negated copy
    # when the variable is free.
    split = []  # variable -> (column, negated column or None)
    n_struct = 0
    for j in range(len(c)):
        split.append((n_struct, None if bounded[j] else n_struct + 1))
        n_struct += 1 if bounded[j] else 2
    m_ub, m_eq = len(A_ub), len(A_eq)
    m = m_ub + m_eq
    art_start = n_struct + m_ub

    def expand(row):
        out = [0] * n_struct
        for v, (col, neg) in zip(row, split):
            if v:
                out[col] = v
                if neg is not None:
                    out[neg] = -v
        return out

    # Row i gets an artificial column only where its slack cannot start
    # basic: in equality rows and in rows whose rhs has to be negated.
    art_col = {}
    for i, rhs in enumerate(b_ub + b_eq):
        if i >= m_ub or rhs < 0:
            art_col[i] = art_start + len(art_col)
    n_total = art_start + len(art_col)  # artificials come last

    # Tableau rows: [structural | slack | artificial | rhs], integers over
    # the common denominator D, rhs kept >= 0.  Each input row is scaled to
    # integers with its rhs and negated where the rhs is negative; its slack
    # entry is then the sign and its artificial entry 1.
    tableau: list[list[int]] = []
    row_scale = []
    rhs_sign = []
    basis = []
    for i, (row, rhs) in enumerate(zip(A_ub + A_eq, b_ub + b_eq)):
        ints, scale = integer_row([*row, rhs])
        sign = -1 if rhs < 0 else 1
        out = expand([sign * v for v in ints[:-1]])
        out += [0] * (n_total - n_struct) + [sign * ints[-1]]
        if i < m_ub:
            out[n_struct + i] = sign
        if i in art_col:
            out[art_col[i]] = 1
        tableau.append(out)
        row_scale.append(scale)
        rhs_sign.append(sign)
        basis.append(art_col.get(i, n_struct + i))
    D = 1  # the unit starting basis has determinant 1

    # Phase 1: minimize the sum of the basic artificials, each in the units
    # of its unscaled row, so weight row i by lcm / scale_i.  Cost row holds
    # reduced costs, so it is minus the weighted sum of their rows, zero on
    # their own columns.
    common = lcm(*(row_scale[i] for i, bv in enumerate(basis) if bv >= art_start))
    cost1 = [0] * (n_total + 1)
    for row, bv, scale in zip(tableau, basis, row_scale):
        if bv >= art_start:
            w = common // scale
            for j in range(art_start):
                if row[j]:
                    cost1[j] -= w * row[j]
            cost1[n_total] -= w * row[n_total]

    status, pivots1, D = _bland_min(tableau, cost1, basis, art_start, D)
    if status == "unbounded":  # cannot happen for a phase-1 objective
        raise BnPolyError("phase 1 reported unbounded")
    if cost1[n_total] != 0:
        return LpResult(status="infeasible", pivots=(pivots1, 0))

    # Drive any remaining artificial out of the basis; a row with no
    # structural/slack pivot is a redundant constraint and is dropped.
    drop_rows = []
    for i, bv in enumerate(basis):
        if bv >= art_start:
            pivot_col = next((j for j in range(art_start) if tableau[i][j]), None)
            if pivot_col is None:
                drop_rows.append(i)
            else:
                D = _pivot(tableau, None, basis, i, pivot_col, D)
                pivots1 += 1
    dropped = set(drop_rows)
    if dropped:
        tableau = [row for i, row in enumerate(tableau) if i not in dropped]
        basis = [bv for i, bv in enumerate(basis) if i not in dropped]

    # Phase 2: minimize -c.x over the feasible basis, with c scaled to
    # integers and the cost row over the same denominator D.
    c_ints, c_scale = integer_row(c)
    price = [0] * n_total
    for v, (col, neg) in zip(c_ints, split):
        price[col] = -v
        if neg is not None:
            price[neg] = v
    cost2 = [D * v for v in price] + [0]
    # Price out the current basis.
    for i, bv in enumerate(basis):
        coef = price[bv]
        if coef:
            row = tableau[i]
            for j in range(n_total + 1):
                if row[j]:
                    cost2[j] -= coef * row[j]

    status, pivots2, D = _bland_min(tableau, cost2, basis, art_start, D)
    if status == "unbounded":
        return LpResult(status="unbounded", pivots=(pivots1, pivots2))

    x_internal = [0] * n_total
    for i, bv in enumerate(basis):
        x_internal[bv] = tableau[i][n_total]
    x = tuple(
        Fraction(x_internal[col] - (x_internal[neg] if neg is not None else 0), D)
        for col, neg in split
    )
    objective = sum((cv * xv for cv, xv in zip(c, x)), _ZERO)

    # The reduced cost of row i's artificial column is -y_i for the
    # standard-form dual y = c_B B^{-1} of the scaled rows; mapping back to
    # the original maximization problem flips the sign once more, undoes the
    # rhs sign normalization and the row and objective scales, and divides
    # by D.  A row without an artificial has its slack there instead: both
    # columns start as e_i with price 0, so their reduced costs agree.
    dual = []
    for i in range(m):
        if i in dropped:
            dual.append(_ZERO)
        else:
            y = cost2[art_col.get(i, n_struct + i)] * rhs_sign[i] * row_scale[i]
            dual.append(Fraction(y, c_scale * D))
    dual_ub = tuple(dual[:m_ub])
    dual_eq = tuple(dual[m_ub:])
    return LpResult("optimal", objective, x, dual_ub, dual_eq, (pivots1, pivots2))


def _bland_min(tableau, cost, basis, entering_limit, D) -> tuple[str, int, int]:
    """Run Bland-rule pivots until the cost row is optimal; return the final
    status, the number of pivots made and the final denominator.

    Entering variable: smallest column index with negative reduced cost;
    leaving variable: smallest ratio, ties broken by smallest basic index.
    Columns >= entering_limit (the artificials) never enter.  D > 0, so the
    signs of the integer entries are those of the tableau, and the ratio
    rhs_i / a_i beats rhs_l / a_l exactly when rhs_i * a_l < rhs_l * a_i.
    """
    rhs_col = len(cost) - 1
    pivots = 0
    while True:
        entering = None
        for j in range(entering_limit):
            if cost[j] < 0:
                entering = j
                break
        if entering is None:
            return "optimal", pivots, D
        leaving = None
        for i, row in enumerate(tableau):
            a = row[entering]
            if a > 0:
                if leaving is not None:
                    lhs, rhs = row[rhs_col] * best_a, best_rhs * a
                    if lhs > rhs or (lhs == rhs and basis[i] > basis[leaving]):
                        continue
                leaving, best_rhs, best_a = i, row[rhs_col], a
        if leaving is None:
            return "unbounded", pivots, D
        D = _pivot(tableau, cost, basis, leaving, entering, D)
        pivots += 1


def _pivot(tableau, cost, basis, r, s, D) -> int:
    """One Bareiss step on pivot (r, s) of the integer tableau over the
    denominator D, the cost row (if any) included; returns the new
    denominator.  Every division is exact: the entries are minors of the
    scaled input, and the pivot p is the new basis determinant up to sign.
    A negative pivot negates every row so the denominator stays positive."""
    prow = tableau[r]
    p = prow[s]
    rows = tableau if cost is None else [*tableau, cost]
    if p == D:
        # (D * v - f * w) // D == v - f * w // D, exact: only the pivot
        # row's support changes, and rows with f == 0 not at all.
        support = [(j, w) for j, w in enumerate(prow) if w]
        for row in rows:
            f = row[s]
            if f and row is not prow:
                for j, w in support:
                    row[j] -= f * w // D
    else:
        for i, row in enumerate(rows):
            if i == r:
                continue
            f = row[s]
            if f:
                row[:] = [(p * v - f * w) // D for v, w in zip(row, prow)]
            else:
                row[:] = [p * v // D for v in row]
        if p < 0:
            for row in rows:
                row[:] = [-v for v in row]
            p = -p
    basis[r] = s
    return p


def _check_certificate(c, A_ub, b_ub, A_eq, b_eq, result: LpResult) -> None:
    """Refuse the result unless x is feasible and the duals certify it.  The
    check runs on x * X and y * Y, scaled to integers by their common
    denominators X and Y, so integer input creates no Fraction."""
    x, X = integer_row(result.x)
    support = [(j, v) for j, v in enumerate(x) if v]
    for row, rhs in zip(A_ub, b_ub):
        if sum(row[j] * v for j, v in support if row[j]) > rhs * X:
            raise BnPolyError("simplex returned a primal-infeasible point")
    for row, rhs in zip(A_eq, b_eq):
        if sum(row[j] * v for j, v in support if row[j]) != rhs * X:
            raise BnPolyError("simplex returned a primal-infeasible point")
    y, Y = integer_row((*result.dual_ub, *result.dual_eq))
    if any(v < 0 for v in y[: len(A_ub)]):
        raise BnPolyError("dual certificate has a negative multiplier")
    objective = result.objective
    strong = sum(v * b for v, b in zip(y, (*b_ub, *b_eq)) if v)
    if strong * objective.denominator != objective.numerator * Y:
        raise BnPolyError("strong duality failed; certificate invalid")
    # A^T y, accumulated row by row over the nonzero multipliers and entries.
    combo = [0] * len(c)
    for v, row in zip(y, (*A_ub, *A_eq)):
        if v:
            for j, a in enumerate(row):
                if a:
                    combo[j] += v * a
    if any(s != cj * Y for s, cj in zip(combo, c)):
        raise BnPolyError("dual certificate infeasible")
