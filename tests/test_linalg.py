import fractions
import itertools
import math
import random
import sys
from fractions import Fraction

import pytest

import bnpoly
from bnpoly import linalg


def fraction_rank(rows):
    """Independent oracle: Gaussian elimination over Fraction, column by column."""
    work = [[Fraction(x) for x in row] for row in rows]
    r = 0
    ncols = len(work[0]) if work else 0
    for col in range(ncols):
        pivot = next((i for i in range(r, len(work)) if work[i][col]), None)
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        for i in range(r + 1, len(work)):
            factor = work[i][col] / work[r][col]
            work[i] = [x - factor * y for x, y in zip(work[i], work[r])]
        r += 1
    return r


def fraction_affine_rank(points):
    return fraction_rank([[Fraction(x) - y for x, y in zip(p, points[0])] for p in points[1:]]) + 1


def random_matrix(rng, nrows, ncols, true_rank, mixed):
    """A product of an nrows x k and a k x ncols factor, so its rank is at most
    k = true_rank; duplicate and zero rows are mixed in."""
    def entry():
        if mixed and rng.random() < 0.4:
            return Fraction(rng.randint(-6, 6), rng.randint(1, 5))
        return rng.randint(-4, 4)

    left = [[entry() for _ in range(true_rank)] for _ in range(nrows)]
    right = [[entry() for _ in range(ncols)] for _ in range(true_rank)]
    rows = [
        [sum(lrow[t] * right[t][c] for t in range(true_rank)) for c in range(ncols)]
        for lrow in left
    ]
    if rows and rng.random() < 0.5:
        rows.append(list(rows[rng.randrange(len(rows))]))
    if rng.random() < 0.5:
        rows.insert(rng.randrange(len(rows) + 1), [0] * ncols)
    return rows


def unit_matrix(rng, nrows, ncols, true_rank):
    """Differences of random 0/1 points, like the rows the rank of DAG codes
    and imsets reduces: entries 0/+-1, about half of the rows leading with
    -1.  The points come from a pool of true_rank + 1, so the rank is at most
    true_rank; a duplicate row and a zero row are mixed in."""
    pool = [[rng.randint(0, 1) for _ in range(ncols)] for _ in range(true_rank + 1)]
    rows = []
    for _ in range(nrows):
        p, q = rng.choice(pool), rng.choice(pool)
        rows.append([x - y for x, y in zip(p, q)])
    rows.append(list(rows[rng.randrange(len(rows))]))
    rows.insert(rng.randrange(len(rows) + 1), [0] * ncols)
    return rows


def make_matrix(rng, kind, nrows, ncols, true_rank):
    """A unit_matrix when kind is "unit", else a random_matrix with
    mixed=kind."""
    if kind == "unit":
        return unit_matrix(rng, nrows, ncols, true_rank)
    return random_matrix(rng, nrows, ncols, true_rank, kind)


SHAPES = [(1, 1), (3, 3), (4, 9), (9, 4), (12, 12), (2, 15), (15, 2), (20, 7)]
KINDS = dict(argvalues=[False, True, "unit"], ids=["int", "mixed", "unit"])


@pytest.mark.parametrize("kind", **KINDS)
@pytest.mark.parametrize("shape", SHAPES, ids=[f"{r}x{c}" for r, c in SHAPES])
def test_rank_matches_fraction_oracle(shape, kind):
    rng = random.Random(f"{shape}-{kind}")
    nrows, ncols = shape
    for _ in range(8):
        k = rng.randint(0, min(nrows, ncols))
        rows = make_matrix(rng, kind, nrows, ncols, k)
        expected = fraction_rank(rows)
        assert expected <= k
        assert linalg.rank(rows) == expected
        assert linalg.rank([tuple(r) for r in rows]) == expected
        assert linalg.affine_rank(rows) == fraction_affine_rank(rows)
        if kind is not True:
            assert fraction_calls(lambda: linalg.rank(rows)) == []


def test_rank_small_cases():
    assert linalg.rank([]) == 0
    assert linalg.rank([[0, 0, 0], [0, 0, 0]]) == 0
    assert linalg.rank([[2, 4], [1, 2]]) == 1
    assert linalg.rank([[Fraction(1, 3), Fraction(2, 3)], [1, 2]]) == 1
    assert linalg.rank([[Fraction(1, 3), 1], [1, Fraction(1, 3)]]) == 2
    assert linalg.rank([[0, 1], [1, 0], [1, 1]]) == 2
    assert linalg.affine_rank([(5, 5)]) == 1
    assert linalg.affine_rank([(1, 0), (1, 0), (1, 0)]) == 1
    with pytest.raises(ValueError):
        linalg.affine_rank([])


def fraction_calls(call):
    """Names of the functions of the fractions module that ``call`` runs."""
    seen = []

    def profile(frame, event, _):
        if event == "call" and frame.f_code.co_filename == fractions.__file__:
            seen.append(frame.f_code.co_name)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        call()
    finally:
        sys.setprofile(previous)
    return seen


def test_integer_input_makes_no_fraction():
    rows = [[1, 0, 2], [0, 3, 1], [1, 3, 3], [2, 0, 4]]
    assert fraction_calls(lambda: linalg.rank(rows)) == []
    assert fraction_calls(lambda: linalg.affine_rank(rows)) == []
    assert fraction_calls(lambda: linalg.incremental_rank_reaches(rows, 3)) == []
    # the probe sees Fraction work when there is some
    assert fraction_calls(lambda: linalg.rank([[Fraction(1, 2), 1], [1, 2]])) != []


def test_unit_pivots_step_along_the_support(monkeypatch):
    # The first row leads with -1 and is stored negated, so each later
    # reduction meets pivot 1 and steps along the support: the only gcd calls
    # are primitive's, one per basis row.  Pivot 2 takes the gcd-scaled step.
    calls = []

    def counting_gcd(*args):
        calls.append(args)
        return math.gcd(*args)

    monkeypatch.setattr(linalg, "gcd", counting_gcd)
    assert linalg.rank([[-1, 1, 0], [1, 0, -1], [0, 1, -1], [0, -1, 1], [0, 0, 0]]) == 2
    assert len(calls) == 2
    calls.clear()
    assert linalg.rank([[2, 1], [1, 1]]) == 2
    assert len(calls) == 3


def test_integer_row_scales_by_lcm_of_denominators():
    assert linalg.integer_row([Fraction(1, 2), Fraction(-2, 3), 0, 5]) == ([3, -4, 0, 30], 6)
    assert linalg.integer_row([Fraction(-3, 4), Fraction(5, 4)]) == ([-3, 5], 4)
    assert linalg.integer_row([0, 0, 0]) == ([0, 0, 0], 1)
    assert linalg.integer_row([Fraction(0), Fraction(0)]) == ([0, 0], 1)
    assert linalg.integer_row([]) == ([], 1)
    ints, scale = linalg.integer_row([-4, 6, 0])
    assert (ints, scale) == ([-4, 6, 0], 1)
    assert all(type(x) is int for x in ints)


def test_integer_row_copies_a_row_of_ints():
    # _echelon_rank writes into the list it gets back, so a row of ints must
    # come back as a new list, whatever the input's type
    for row in ([-4, 6, 0], (-4, 6, 0)):
        ints, scale = linalg.integer_row(row)
        assert (ints, scale) == ([-4, 6, 0], 1)
        assert type(ints) is list and ints is not row
        ints[0] = 99
        assert list(row) == [-4, 6, 0]
    rows = [[1, -1, 0], [0, 1, -1], [1, 0, -1]]
    assert linalg.rank(rows) == 2
    assert rows == [[1, -1, 0], [0, 1, -1], [1, 0, -1]]
    # booleans and mixed rows take the scaled path and come back as ints
    ints, scale = linalg.integer_row([True, 2, Fraction(1, 2)])
    assert (ints, scale) == ([2, 4, 1], 2)
    assert all(type(x) is int for x in linalg.integer_row([True, False])[0])


def test_primitive_divides_by_gcd_and_keeps_signs():
    assert linalg.primitive([-4, 6, 0, -10]) == (-2, 3, 0, -5)
    assert linalg.primitive([0, -7, 0]) == (0, -1, 0)
    assert linalg.primitive([3, 5]) == (3, 5)
    assert linalg.primitive([0, 0]) == (0, 0)
    assert linalg.primitive([]) == ()


def test_integer_row_on_integers_makes_no_fraction():
    row = [3, -6, 0, 9]
    assert fraction_calls(lambda: linalg.primitive(linalg.integer_row(row)[0])) == []
    half = [Fraction(1, 2)]
    assert fraction_calls(lambda: linalg.integer_row(half)) != []


def test_large_entries_stay_exact():
    big = 10 ** 40
    rows = [[big, 1], [big + 1, 1], [2 * big + 1, 2]]
    assert linalg.rank(rows) == fraction_rank(rows) == 2
    assert linalg.rank([[big, big + 1], [Fraction(big, 3), Fraction(big + 1, 3)]]) == 1


@pytest.mark.parametrize(
    "call",
    [
        lambda: linalg.rank([[1, 0], [0, 0, 1]]),
        lambda: linalg.rank([[0, 0, 1], [1, 0]]),
        lambda: linalg.affine_rank([(0, 0), (1, 0, 0), (0, 1, 5)]),
        lambda: linalg.affine_rank([(0, 0, 0), (1, 0)]),
        lambda: linalg.incremental_rank_reaches([(0, 0), (1, 0, 0), (0, 1, 5)], 3),
        lambda: bnpoly.affine_rank([(0, 0), (1, 0, 0), (0, 1, 5)]),
    ],
    ids=["rank-longer", "rank-shorter", "affine-longer", "affine-shorter", "incremental", "public"],
)
def test_ragged_rows_raise(call):
    with pytest.raises(ValueError, match="unequal length"):
        call()


def test_incremental_stops_on_infinite_stream():
    read = []

    def stream():
        for i in itertools.count():
            read.append(i)
            yield tuple(1 if j == i % 6 else 0 for j in range(6))

    assert linalg.incremental_rank_reaches(stream(), 6)
    assert len(read) == 6


def test_incremental_first_point_meets_target_one():
    def stream():
        yield (1, 2)
        raise AssertionError("read past the target")

    assert linalg.incremental_rank_reaches(stream(), 1)
    assert linalg.incremental_rank_reaches([], 0)
    assert not linalg.incremental_rank_reaches([], 1)


@pytest.mark.parametrize("kind", **KINDS)
def test_incremental_agrees_with_affine_rank(kind):
    rng = random.Random(f"incremental-{kind}")
    for _ in range(30):
        nrows, ncols = rng.randint(1, 12), rng.randint(1, 8)
        points = make_matrix(rng, kind, nrows, ncols, rng.randint(0, min(nrows, ncols)))
        r = linalg.affine_rank(points)
        assert linalg.incremental_rank_reaches(iter(points), r)
        assert not linalg.incremental_rank_reaches(iter(points), r + 1)
