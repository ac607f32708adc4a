import itertools
import math
import random
from fractions import Fraction

import pytest

from bnpoly.dd import Budget, _insertion_order, extreme_rays
from bnpoly.errors import BudgetExceededError
from bnpoly.ground import GroundSet
from bnpoly.ineq import cluster_fam, nonneg_constraints
from bnpoly.linalg import rank
from bnpoly.polyhedra import HRep, cip_vrep, fvp_vrep
from bnpoly.supermod import cluster_pairs


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


def _det(matrix):
    """Integer determinant by fraction-free (Bareiss) elimination."""
    m = [list(row) for row in matrix]
    size = len(m)
    sign, prev = 1, 1
    for k in range(size - 1):
        if not m[k][k]:
            swap = next((i for i in range(k + 1, size) if m[i][k]), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, size):
            for j in range(k + 1, size):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[-1][-1] if size else 1


def _dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def oracle_rays(rows, dim):
    """Extreme rays of the pointed cone {x : rows . x >= 0}, without the DD
    loop: each (dim-1)-subset of rows of rank dim-1 has a one-dimensional
    kernel, spanned by its signed cofactors; a kernel direction with a valid
    sign, made primitive, is an extreme ray, and every extreme ray arises so."""
    rays = set()
    for subset in itertools.combinations(rows, dim - 1):
        kernel = [
            (-1) ** j * _det([row[:j] + row[j + 1:] for row in subset])
            for j in range(dim)
        ]
        if not any(kernel):
            continue  # rank below dim - 1
        g = math.gcd(*kernel)
        kernel = tuple(x // g for x in kernel)
        values = [_dot(row, kernel) for row in rows]
        if all(v >= 0 for v in values):
            rays.add(kernel)
        elif all(v <= 0 for v in values):
            rays.add(tuple(-x for x in kernel))
    return sorted(rays)


def test_zeroset_and_rank_adjacency_agree():
    # The zero-set adjacency of the DD against the rank characterization of
    # extreme rays (oracle_rays), on seeded random cones.
    rng = random.Random(4)
    for trial in range(20):
        d = rng.randint(3, 5)
        rows = [
            tuple(rng.randint(-3, 3) for _ in range(d))
            for _ in range(rng.randint(d, d + 5))
        ]
        assert rank(rows) == d  # pointed, so the oracle applies
        assert extreme_rays(rows, d) == (oracle_rays(rows, d), [])


def _lifted(points):
    # The cone of valid inequalities u - <c, p> >= 0, as facets_from_vertices builds it.
    return [(1,) + tuple(-x for x in p) for p in points]


# Eight points of {0, 1, 2}^4, found by search: for one plus ray, the cover
# found for an earlier pair is a later minus ray, and that pair is an edge.
# Reusing the cover there without skipping the minus ray loses the facet
# (2, 3, 2, 0, -4).
_COVER_IS_MINUS_RAY = [
    (0, 1, 0, 0), (0, 1, 1, 0), (0, 1, 2, 0), (0, 2, 0, 1),
    (1, 0, 0, 2), (2, 0, 0, 1), (2, 1, 2, 2), (2, 2, 2, 2),
]

# Eight points of {0, 1, 2}^4, found by search: the cover found for a minus
# ray on an earlier pair is a later plus ray, and that pair is an edge.
# Reusing the cover there without skipping the plus ray loses the facet
# (2, -1, 0, -1, 2).
_COVER_IS_PLUS_RAY = [
    (0, 0, 2, 2), (0, 1, 0, 1), (0, 1, 2, 2), (0, 2, 2, 1),
    (0, 2, 2, 2), (1, 2, 1, 2), (1, 2, 2, 1), (2, 1, 1, 2),
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
    "cover-is-plus-ray": lambda: (_lifted(_COVER_IS_PLUS_RAY), 5),
}


# Too many (dim-1)-subsets for the oracle (201 376 and about 2 M): each ray
# is checked against the rank characterization instead, with the known count.
LARGE_CONES = {"cube5-vertices": 10, "fvp3": 17}


@pytest.mark.parametrize("name", sorted(DEGENERATE_CONES))
def test_zeroset_and_rank_adjacency_agree_on_degenerate_cones(name):
    rows, dim = DEGENERATE_CONES[name]()
    rows = [tuple(row) for row in rows]
    assert rank(rows) == dim  # pointed
    rays, lin = extreme_rays(rows, dim)
    assert lin == []
    if name not in LARGE_CONES:
        assert math.comb(len(rows), dim - 1) <= 2000
        assert rays == oracle_rays(rows, dim)
        return
    assert len(rays) == len(set(rays)) == LARGE_CONES[name]
    for ray in rays:
        values = [_dot(row, ray) for row in rows]
        assert all(v >= 0 for v in values)
        assert rank([row for row, v in zip(rows, values) if v == 0]) == dim - 1


def test_cover_is_minus_ray_keeps_the_edge():
    rays, lin = extreme_rays(_lifted(_COVER_IS_MINUS_RAY), 5)
    assert len(rays) == 11 and lin == []
    assert (2, 3, 2, 0, -4) in rays


def test_cover_is_plus_ray_keeps_the_edge():
    rays, lin = extreme_rays(_lifted(_COVER_IS_PLUS_RAY), 5)
    assert len(rays) == 13 and lin == []
    assert (2, -1, 0, -1, 2) in rays


def test_split_with_lineality_and_empty_common_set():
    # Two free coordinates keep the pointed part two-dimensional, so the
    # last row splits a pair that needs no common tight row and has none.
    rows = [(1, 0, 0, 0), (0, 1, 0, 0), (-1, 2, 0, 0)]
    rays, lin = extreme_rays(rows, 4)
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


def test_insertion_order():
    # By the last negative entry; rows without one come last; ties colex.
    rows = [(0, 0, 1), (1, -1, 0), (-1, 1, 1), (0, 1, -1), (-1, 0, 0),
            (1, 0, 0), (-1, 0, 1), (0, -1, 0), (2, -1, -1), (0, 1, 0)]
    expected = [(-1, 0, 0), (-1, 0, 1), (-1, 1, 1), (0, -1, 0), (1, -1, 0),
                (2, -1, -1), (0, 1, -1), (1, 0, 0), (0, 1, 0), (0, 0, 1)]
    assert _insertion_order(rows) == expected
    # Scaled, shuffled and repeated rows, and zero rows, are the same set of
    # constraints, so they give the same order.
    rng = random.Random(3)
    for _ in range(5):
        factors = [rng.choice((1, 2, Fraction(1, 3))) for _ in rows]
        scaled = [tuple(c * x for x in row) for c, row in zip(factors, rows)]
        scaled += rng.sample(rows, 3) + [(0, 0, 0)]
        rng.shuffle(scaled)
        assert _insertion_order(scaled) == expected


def test_deterministic_output():
    rng = random.Random(8)
    rows = [tuple(rng.randint(-2, 2) for _ in range(4)) for _ in range(9)]
    first = extreme_rays(rows, 4)
    second = extreme_rays(list(reversed(rows)), 4)
    # Rows are deduplicated and inserted by their last negative entry, then
    # colex, so the input order changes neither the insertion order nor the
    # output.
    assert first == second


def _homogenized(hrep):
    # The rows vertices_from_inequalities builds: b - <a, x> >= 0 and t >= 0.
    A_ub, b_ub, _, _ = hrep.matrix()
    rows = [(b,) + tuple(-c for c in a) for a, b in zip(A_ub, b_ub)]
    return rows + [(1,) + (0,) * len(hrep.index)]


def _n3_cluster_system():
    # The 28-vertex system of verify n3: non-negativity and all cluster cuts.
    gs = GroundSet.alpha(3)
    rows = nonneg_constraints(gs) + [cluster_fam(gs, C, k) for C, k in cluster_pairs(gs)]
    return _homogenized(HRep("fam", gs, tuple(rows))), 10


PERMUTED_SYSTEMS = {
    "fvp3-hull": DEGENERATE_CONES["fvp3"],
    "cip3-hull": DEGENERATE_CONES["cip3"],
    "n3-cluster-vertices": _n3_cluster_system,
}


@pytest.mark.parametrize("name", sorted(PERMUTED_SYSTEMS))
def test_row_permutation_invariance(name):
    rows, dim = PERMUTED_SYSTEMS[name]()
    expected = extreme_rays(rows, dim)
    rng = random.Random(name)
    for _ in range(5):
        shuffled = list(rows)
        rng.shuffle(shuffled)
        # Positive multiples and repeats of a row are the same constraint.
        shuffled[0] = tuple(Fraction(3, 2) * x for x in shuffled[0])
        shuffled.append(shuffled[-1])
        assert extreme_rays(shuffled, dim) == expected


# Peak intermediate rays (Budget.check's count) when rows are inserted by
# their last negative entry, then colex: 362 for the n=4 CIP hull and 505 for
# the n=4 FVP hull, against 656 and 633 in plain colex order and 590 and 1768
# in lexicographic order.  The caps leave about 1.5x headroom, so an
# insertion order that lets the intermediate cone grow fails here within
# seconds instead of running on.
@pytest.mark.parametrize(
    "vrep, facets, max_rays",
    [(cip_vrep, 154, 550), (fvp_vrep, 135, 760)],
    ids=["cip4", "fvp4"],
)
def test_n4_hulls_stay_within_ray_budget(vrep, facets, max_rays):
    points = vrep(GroundSet.alpha(4)).points
    budget = Budget(max_rays=max_rays)
    rays, lin = extreme_rays(_lifted(points), len(points[0]) + 1, budget=budget)
    assert lin == []
    assert len(rays) == facets
