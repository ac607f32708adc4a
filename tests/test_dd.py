import itertools
import random
from fractions import Fraction

import pytest

from bnpoly.dd import Budget, extreme_rays
from bnpoly.errors import BudgetExceededError
from bnpoly.ground import GroundSet
from bnpoly.polyhedra import cip_vrep, fvp_vrep


def test_orthant():
    rays, lin = extreme_rays([(1, 0, 0), (0, 1, 0), (0, 0, 1)], 3)
    assert lin == []
    assert rays == [(0, 0, 1), (0, 1, 0), (1, 0, 0)]


def test_halfspace_keeps_lineality():
    rays, lin = extreme_rays([(1, 0)], 2)
    assert rays == [(1, 0)]
    assert lin == [(0, 1)]


def test_hyperplane_is_pure_lineality():
    rays, lin = extreme_rays([(1, 1), (-1, -1)], 2)
    assert rays == []
    assert lin == [(1, -1)]


def test_pointed_2d_cone():
    # x >= 0 and y >= x
    rays, lin = extreme_rays([(1, 0), (-1, 1)], 2)
    assert lin == []
    assert set(rays) == {(0, 1), (1, 1)}


def test_empty_pointed_part():
    # x >= 0, -x >= 0, y >= 1x? use 3 rows forcing only the origin in 2D
    rays, lin = extreme_rays([(1, 0), (-1, 0), (0, 1), (0, -1)], 2)
    assert rays == [] and lin == []


def test_fractional_rows_are_scaled():
    rays, _ = extreme_rays([(Fraction(1, 2), 0), (0, Fraction(3, 7))], 2)
    assert rays == [(0, 1), (1, 0)]


def _cube_inequality_rows(d):
    # homogenized cube [0,1]^d: rows over (t, x): x_i >= 0 and t - x_i >= 0
    rows = []
    for i in range(d):
        row = [0] * (d + 1)
        row[i + 1] = 1
        rows.append(tuple(row))
        row = [0] * (d + 1)
        row[0] = 1
        row[i + 1] = -1
        rows.append(tuple(row))
    rows.append((1,) + (0,) * d)
    return rows


@pytest.mark.parametrize("d", [2, 3, 4])
def test_cube_vertices(d):
    rays, lin = extreme_rays(_cube_inequality_rows(d), d + 1)
    assert lin == []
    vertices = {r[1:] for r in rays if r[0] == 1}
    assert vertices == set(itertools.product((0, 1), repeat=d))
    assert len(rays) == 2**d


def test_zeroset_and_rank_adjacency_agree():
    rng = random.Random(4)
    for trial in range(20):
        d = rng.randint(3, 5)
        rows = [
            tuple(rng.randint(-3, 3) for _ in range(d))
            for _ in range(rng.randint(d, d + 5))
        ]
        r1, l1 = extreme_rays(rows, d, adjacency="zeroset")
        r2, l2 = extreme_rays(rows, d, adjacency="rank")
        assert r1 == r2 and l1 == l2


def _lifted(points):
    # The cone of valid inequalities u - <c, p> >= 0, as facets_from_vertices builds it.
    return [(1,) + tuple(-x for x in p) for p in points]


# Nine points of {0, 1, 2}^4, found by search: for one plus ray, the cover
# found for an earlier pair is a later minus ray, and that pair is an edge.
# Reusing the cover there without skipping the minus ray loses the facet
# (2, 0, 0, 1, 1).
_COVER_IS_MINUS_RAY = [
    (0, 1, 1, 1), (0, 2, 1, 0), (2, 1, 0, 1), (0, 0, 2, 0), (1, 2, 1, 0),
    (0, 2, 0, 2), (0, 0, 0, 2), (2, 1, 0, 2), (2, 1, 0, 0),
]

# Vertex sets of 0/1 polytopes give degenerate cones: many plus/minus pairs
# share enough tight rows without being adjacent, so the cover scan, its stop
# rule and the reuse of the last cover all decide pairs.
DEGENERATE_CONES = {
    **{
        f"cube{d}-rows": (lambda d=d: (_cube_inequality_rows(d), d + 1))
        for d in (3, 4, 5)
    },
    **{
        f"cube{d}-vertices": (
            lambda d=d: (_lifted(itertools.product((0, 1), repeat=d)), d + 1)
        )
        for d in (3, 4, 5)
    },
    "fvp3": lambda: (_lifted(fvp_vrep(GroundSet.alpha(3)).points), 10),
    "cip3": lambda: (_lifted(cip_vrep(GroundSet.alpha(3)).points), 5),
    "cover-is-minus-ray": lambda: (_lifted(_COVER_IS_MINUS_RAY), 5),
}


@pytest.mark.parametrize("name", sorted(DEGENERATE_CONES))
def test_zeroset_and_rank_adjacency_agree_on_degenerate_cones(name):
    rows, dim = DEGENERATE_CONES[name]()
    r1, l1 = extreme_rays(rows, dim, adjacency="zeroset")
    r2, l2 = extreme_rays(rows, dim, adjacency="rank")
    assert r1 == r2 and l1 == l2


def test_cover_is_minus_ray_keeps_the_edge():
    rays, lin = extreme_rays(_lifted(_COVER_IS_MINUS_RAY), 5)
    assert len(rays) == 12 and lin == []
    assert (2, 0, 0, 1, 1) in rays


def test_split_with_lineality_and_empty_common_set():
    # Two free coordinates keep the pointed part two-dimensional, so the
    # last row splits a pair that needs no common tight row and has none.
    rows = [(1, 0, 0, 0), (0, 1, 0, 0), (-1, 2, 0, 0)]
    for adjacency in ("zeroset", "rank"):
        rays, lin = extreme_rays(rows, 4, adjacency=adjacency)
        assert rays == [(0, 1, 0, 0), (2, 1, 0, 0)]
        assert lin == [(0, 0, 0, 1), (0, 0, 1, 0)]


def test_rays_are_primitive_and_distinct():
    rows = [(2, 0, 0), (0, 4, 0), (0, 0, 6), (3, 3, 3)]
    rays, _ = extreme_rays(rows, 3)
    from math import gcd
    for ray in rays:
        assert gcd(gcd(abs(ray[0]), abs(ray[1])), abs(ray[2])) == 1
    assert len(set(rays)) == len(rays)


def test_budget_time_exhaustion():
    rows = _cube_inequality_rows(6)
    with pytest.raises(BudgetExceededError):
        extreme_rays(rows, 7, budget=Budget(max_seconds=0))


def test_budget_ray_cap():
    rows = _cube_inequality_rows(6)
    with pytest.raises(BudgetExceededError):
        extreme_rays(rows, 7, budget=Budget(max_rays=5))


def test_deterministic_output():
    rng = random.Random(8)
    rows = [tuple(rng.randint(-2, 2) for _ in range(4)) for _ in range(9)]
    first = extreme_rays(rows, 4)
    second = extreme_rays(list(reversed(rows)), 4)
    assert first == second  # rows are sorted, so insertion order is canonical
