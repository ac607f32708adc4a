"""Small exact linear algebra helpers: integer rows, rank and affine rank.

:func:`integer_row` is the one place where a rational row becomes integers
(times the lcm of its denominators), and :func:`primitive` divides an integer
row by the gcd of its entries; the double description, the inequality
normal form and the exact evaluations over vertex lists all go through them.

Every rank function runs on one fraction-free echelon routine: each row is
scaled to integers once and then reduced against the basis with integer
steps ``p*v - f*b``.  As in Bareiss (1968) no
fraction is formed; unlike Bareiss, entries are kept small by dividing each
new basis row by the gcd of its entries, not by the previous pivot, and
negating it so its pivot is positive.  On the 0/+-1 rows of DAG codes and
imsets almost every pivot is then 1, and the step is ``v - f*b`` taken only
over the basis row's nonzero entries.  Integer input never creates a
``Fraction``; rows of unequal length raise ``ValueError``.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from math import gcd, lcm


def integer_row(row: Sequence) -> tuple[list[int], int]:
    """``(ints, scale)``: the row (int or Fraction entries) times ``scale``,
    the lcm of its denominators, as a new list.  A row of ints is copied as
    it is, with scale 1."""
    if set(map(type, row)) <= {int}:
        return list(row), 1
    scale = lcm(*(x.denominator for x in row))
    return [x.numerator * (scale // x.denominator) for x in row], scale


def primitive(ints: Sequence[int]) -> tuple[int, ...]:
    """The integer row divided by the gcd of its entries (a zero row stays
    zero); the signs are kept."""
    g = gcd(*ints)
    if g <= 1:
        return tuple(ints)
    return tuple(x // g for x in ints)


def _echelon_rank(rows: Iterable[Sequence], stop_at: int | None = None) -> int:
    """Rank of the rows (int or Fraction entries), read one at a time and
    kept in row-echelon form keyed by leading column; stops reading once the
    rank reaches ``stop_at``.

    Each basis row is primitive with a positive pivot and is stored with its
    nonzero ``(column, entry)`` pairs.  A row is reduced against a pivot 1 by
    ``v[c] -= f*b[c]`` over those pairs, which is ``1*v - f*b`` with no gcd
    and no full-width list; any other pivot takes the gcd-scaled step
    ``p*v - f*b`` over the whole width."""
    basis: dict[int, tuple[tuple[int, ...], list[tuple[int, int]]]] = {}
    width = None
    for row in rows:
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise ValueError(f"rows of unequal length: {len(row)} and {width}")
        # integer_row returns a fresh list, so the unit step may write into it
        vec = integer_row(row)[0]
        for j in range(width):
            f = vec[j]
            if not f:
                continue
            entry = basis.get(j)
            if entry is None:
                brow = primitive(vec)
                if f < 0:
                    brow = tuple(-x for x in brow)
                basis[j] = brow, [(c, x) for c, x in enumerate(brow) if x]
                break
            brow, support = entry
            p = brow[j]
            if p == 1:
                for c, x in support:
                    vec[c] -= f * x
            else:
                g = gcd(p, f)
                p, f = p // g, f // g
                vec = [p * x - f * y for x, y in zip(vec, brow)]
        if stop_at is not None and len(basis) >= stop_at:
            break
    return len(basis)


def _differences(points: Iterable[Sequence], base: Sequence) -> Iterable[list]:
    for p in points:
        if len(p) != len(base):
            raise ValueError(f"points of unequal length: {len(p)} and {len(base)}")
        yield [x - y for x, y in zip(p, base)]


def rank(rows: Sequence[Sequence]) -> int:
    """Rank of a matrix of exact numbers (int or Fraction)."""
    return _echelon_rank(rows)


def affine_rank(points: Sequence[Sequence]) -> int:
    """Maximum number of affinely independent vectors among the points:
    rank of the differences to the first point, plus one."""
    points = list(points)
    if not points:
        raise ValueError("affine rank of an empty point list is undefined")
    return _echelon_rank(_differences(points[1:], points[0])) + 1


def incremental_rank_reaches(points: Iterable[Sequence], target: int) -> bool:
    """Whether the affine rank of the point stream reaches ``target``;
    stops reading as soon as it does."""
    points = iter(points)
    base = next(points, None)
    if base is None:
        return target <= 0
    if target <= 1:
        return True
    return _echelon_rank(_differences(points, base), stop_at=target - 1) + 1 >= target
