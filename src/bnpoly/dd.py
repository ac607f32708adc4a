"""Exact double description: extreme rays of a rational polyhedral cone.

Given rows a_1, ..., a_m, computes the lineality space and the extreme rays
of {x : <a_i, x> >= 0 for all i}.  Constraints are inserted one at a time,
ordered first by the position of the row's last negative entry (rows with no
negative entry last), then colex: rows compared from their last entry
backwards.  The order depends only on the set of rows and decides the size
of the intermediate cones.  For a hull, each row is (1, -v) for a point v,
so on 0/1 points the rule inserts the points grouped by their last nonzero
coordinate.  After each group, the points inserted so far are the nonzero
points of a coordinate face (zero past that coordinate), so the
intermediate cones describe the hulls of faces, which stay small.  The
n = 4 characteristic-imset hull (185 rows) peaks at 362 intermediate rays
(656 in plain colex order) and the 69-constraint score-equivalence
relaxation at n = 4 at 1336, where lexicographic order peaks at about
30 000.  While the intermediate cone still contains lines, each new
constraint cuts the lineality space down by one, after which the classical
ray-splitting step applies.  Each step evaluates its row from the row's
nonzero entries only.

Everything is integer arithmetic: input rows are scaled to primitive integer
vectors and every ray is kept primitive, so there is no rounding and no
floating-point prefiltering anywhere.  Tight-row sets are bitsets (Python
ints); two rays are combined only when adjacent.  Adjacency is decided by
the standard zero-set test (no third extreme ray is tight on the common
tight set).

The zero-set test looks for a cover: a third ray whose zero set contains
the pair's common set.  Each step lists the rays by decreasing zero-set
size, and the scan stops, answering "adjacent", at the first zero set
smaller than the common set, since no smaller set can contain it.  Before
the scan, the last covers found for the pair's plus ray and for its minus ray
are tried, unless that cover is the pair's other ray, whose zero set always
contains the common set.  These shortcuts only skip probes that cannot find
a cover, so every pair gets the same answer as a scan over all rays.
"""

from __future__ import annotations

import time
from collections.abc import Iterable, Sequence

from .errors import BudgetExceededError
from .linalg import integer_row, primitive


class Budget:
    """Wall-clock / intermediate-size budget with typed overflow errors;
    a negative or NaN limit raises ValueError."""

    def __init__(self, max_seconds: float | None = None, max_rays: int | None = None):
        if max_seconds is not None and not max_seconds >= 0:
            raise ValueError(f"time budget must be a nonnegative number, got {max_seconds}")
        if max_rays is not None and max_rays < 0:
            raise ValueError(f"ray budget must be nonnegative, got {max_rays}")
        self.max_seconds = max_seconds
        self.max_rays = max_rays
        self._start = time.monotonic()

    def check(self, ray_count: int = 0) -> None:
        if self.max_seconds is not None and time.monotonic() - self._start > self.max_seconds:
            raise BudgetExceededError(
                f"time budget of {self.max_seconds} s exhausted"
            )
        if self.max_rays is not None and ray_count > self.max_rays:
            raise BudgetExceededError(
                f"intermediate ray budget of {self.max_rays} exceeded ({ray_count})"
            )


def _insertion_order(rows: Iterable[Sequence]) -> list[tuple[int, ...]]:
    """The constraints as distinct primitive integer rows, in insertion order.

    Positive multiples coincide after primitive scaling, and a repeated row
    would only burn a zero-set bit, so each constraint is kept once.  The
    order depends only on the set of constraints: first by the position of
    the row's last negative entry, rows with no negative entry last, then
    colex (rows compared from their last entry backwards).
    """
    int_rows = {primitive(integer_row(row)[0]) for row in rows if any(row)}
    return sorted(int_rows, key=_insertion_key)


def _insertion_key(row: tuple[int, ...]) -> tuple:
    last_negative = max((c for c, a in enumerate(row) if a < 0), default=len(row))
    return last_negative, row[::-1]


def _dot(support: Sequence[tuple[int, int]], vec: Sequence[int]) -> int:
    """<row, vec> from the row's nonzero (position, entry) pairs."""
    return sum(a * vec[c] for c, a in support)


def extreme_rays(
    rows: Iterable[Sequence],
    dim: int,
    budget: Budget | None = None,
) -> tuple[list[tuple[int, ...]], list[tuple[int, ...]]]:
    """Return (rays, lineality_basis) of the cone {x : rows . x >= 0}.

    Rays are primitive integer tuples, sorted; the lineality basis vectors
    are primitive with positive leading entry.
    """
    int_rows = _insertion_order(rows)

    lineality: list[tuple[int, ...]] = [
        tuple(1 if j == i else 0 for j in range(dim)) for i in range(dim)
    ]
    rays: list[list] = []  # [vector, zeroset]; bit k of a zero set is row k

    for k, row in enumerate(int_rows):
        if budget is not None:
            budget.check(len(rays))
        step_bit = 1 << k
        support = [(c, a) for c, a in enumerate(row) if a]

        pivot_idx = None
        for idx, v in enumerate(lineality):
            if _dot(support, v):
                pivot_idx = idx
                break

        if pivot_idx is not None:
            v = lineality.pop(pivot_idx)
            dv = _dot(support, v)
            if dv < 0:
                v = tuple(-x for x in v)
                dv = -dv
            new_lin = []
            for w in lineality:
                dw = _dot(support, w)
                if dw:
                    w = primitive([dv * wx - dw * vx for wx, vx in zip(w, v)])
                new_lin.append(w)
            lineality = new_lin
            new_rays = []
            for vec, zeros in rays:
                dr = _dot(support, vec)
                if dr:
                    vec = primitive([dv * x - dr * y for x, y in zip(vec, v)])
                new_rays.append([vec, zeros | step_bit])
            new_rays.append([v, step_bit - 1])
            rays = new_rays
            continue

        plus, zero, minus = [], [], []
        for i, entry in enumerate(rays):
            d = _dot(support, entry[0])
            if d > 0:
                plus.append((i, entry, d))
            elif d < 0:
                minus.append((i, entry, d))
            else:
                zero.append(entry)

        if not minus:
            for entry in zero:
                entry[1] |= step_bit
            continue
        if not plus:
            rays = [[vec, zeros | step_bit] for vec, zeros in zero]
            continue

        needed = dim - len(lineality) - 2  # tight-row count needed for an edge
        by_size = sorted(
            ((zeros.bit_count(), i, zeros) for i, (_, zeros) in enumerate(rays)),
            key=lambda t: (-t[0], t[1]),
        )
        combos = []
        minus_cover = {}  # j -> (index, zero set) of the last cover found for j
        for i, pentry, dp in plus:
            if budget is not None:
                budget.check(len(rays) + len(combos))
            pvec, pzeros = pentry
            last_cover = None  # (index, zero set) of the last cover found for i
            for j, qentry, dq in minus:
                common = pzeros & qentry[1]
                size = common.bit_count()
                if size < needed:
                    continue
                # Neighbouring pairs often share a cover, so try the last
                # covers found for i and for j first.
                if _still_covers(last_cover, j, common):
                    continue
                cover = minus_cover.get(j)
                if not _still_covers(cover, i, common):
                    cover = _cover_zeroset(by_size, i, j, common, size)
                if cover is not None:
                    last_cover = minus_cover[j] = cover
                    continue
                qvec = qentry[0]
                vec = primitive([dp * qx - dq * px for px, qx in zip(pvec, qvec)])
                combos.append([vec, common | step_bit])
        rays = (
            [[entry[0], entry[1]] for _, entry, _ in plus]
            + [[vec, zeros | step_bit] for vec, zeros in zero]
            + combos
        )

    ray_vecs = sorted(tuple(vec) for vec, _ in rays)
    lin = [_sign_normalize(v) for v in lineality]
    return ray_vecs, sorted(lin)


def _still_covers(cover: tuple[int, int] | None, other: int, common: int) -> bool:
    """Whether a cover found for an earlier pair sharing one ray with this
    pair covers it too.  The pair's other ray always contains ``common``, so
    it cannot be the cover."""
    return cover is not None and cover[0] != other and cover[1] & common == common


def _cover_zeroset(
    by_size, i: int, j: int, common: int, size: int
) -> tuple[int, int] | None:
    """Return (index, zero set) of a ray other than i and j whose zero set
    contains ``common`` (so i and j are not adjacent), or None if there is
    none.  ``by_size`` lists (zero-set size, index, zero set) by decreasing
    size; a zero set smaller than ``common`` cannot contain it, so the scan
    stops at the first one."""
    for zsize, idx, zeros in by_size:
        if zsize < size:
            return None
        if zeros & common == common and idx != i and idx != j:
            return idx, zeros
    return None


def _sign_normalize(vec: Sequence[int]) -> tuple[int, ...]:
    for v in vec:
        if v > 0:
            return tuple(vec)
        if v < 0:
            return tuple(-x for x in vec)
    return tuple(vec)
