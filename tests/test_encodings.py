import itertools
import random
from fractions import Fraction

import pytest

from bnpoly.dags import Dag, enumerate_dags, markov_equivalent
from bnpoly.encodings import (
    char_bits,
    char_from_fam,
    char_from_standard,
    fam_vector,
    standard_imset,
)
from bnpoly.ground import (
    CharVector,
    FamVector,
    GroundSet,
    SetFunction,
    enumerate_cai,
    enumerate_family_indices,
)


def dag(gs, **parents):
    return Dag.from_json({lab: parents.get(lab, "") for lab in gs.labels}, gs)


def test_fam_vector_examples(gs3):
    assert fam_vector(dag(gs3)) == FamVector(gs3, {})
    g = dag(gs3, c="ab")
    assert fam_vector(g) == FamVector(gs3, {(2, 0b011): 1})
    full = dag(gs3, b="a", c="ab")
    assert fam_vector(full) == FamVector(gs3, {(1, 0b001): 1, (2, 0b011): 1})


def test_char_from_fam_examples(gs3):
    m = gs3.mask_of
    assert char_from_fam(FamVector(gs3, {})) == CharVector(gs3, {})
    collider = char_from_fam(fam_vector(dag(gs3, c="ab")))
    assert collider == CharVector(gs3, {m("ac"): 1, m("bc"): 1, m("abc"): 1})
    for order in itertools.permutations(gs3.labels):
        parents = {node: "".join(sorted(order[:i])) for i, node in enumerate(order)}
        full = Dag.from_json(parents, gs3)
        ones = CharVector(gs3, {S: 1 for S in enumerate_cai(gs3)})
        assert char_from_fam(fam_vector(full)) == ones


def test_standard_imset_examples(gs2, gs3):
    full = dag(gs3, b="a", c="ab")
    assert standard_imset(full) == SetFunction(gs3, {})
    empty = standard_imset(dag(gs3))
    expected = SetFunction(gs3, {0b111: 1, 0: 2, 0b001: -1, 0b010: -1, 0b100: -1})
    assert empty == expected
    assert standard_imset(dag(gs2, b="a")) == SetFunction(gs2, {})


def test_char_from_standard_examples(gs3):
    ones = CharVector(gs3, {S: 1 for S in enumerate_cai(gs3)})
    assert char_from_standard(SetFunction(gs3, {})) == ones
    assert char_from_standard(standard_imset(dag(gs3))) == CharVector(gs3, {})
    g = dag(gs3, c="ab")
    assert char_from_standard(standard_imset(g)) == char_from_fam(fam_vector(g))


def _char_from_standard_by_double_loop(u):
    """c(T) = 1 - sum of u over supersets of T, as a loop over the support."""
    coords = {}
    for T in enumerate_cai(u.gs):
        coords[T] = 1 - sum((value for S, value in u.items() if S & T == T), Fraction(0))
    return CharVector(u.gs, coords)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_char_from_standard_matches_the_double_loop(n):
    gs = GroundSet.alpha(n)
    rng = random.Random(40 + n)
    masks = list(range(1 << n))
    for _ in range(40):
        support = rng.sample(masks, rng.randint(0, len(masks)))
        u = SetFunction(
            gs, {S: Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for S in support}
        )
        assert char_from_standard(u) == _char_from_standard_by_double_loop(u)
    dags = enumerate_dags(gs)
    for g in rng.sample(dags, min(40, len(dags))):
        u = standard_imset(g)
        assert char_from_standard(u) == _char_from_standard_by_double_loop(u)


def _char_from_fam_by_double_loop(fam):
    """c(S) = sum over a in S of the fam mass on (a, B) with B >= S \\ {a}."""
    coords = {}
    for S in enumerate_cai(fam.gs):
        coords[S] = sum(
            (value for (a, B), value in fam.items() if S >> a & 1 and B & S == S & ~(1 << a)),
            Fraction(0),
        )
    return CharVector(fam.gs, coords)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_char_from_fam_matches_the_double_loop(n):
    gs = GroundSet.alpha(n)
    rng = random.Random(60 + n)
    fai = enumerate_family_indices(gs)
    for _ in range(40):
        support = rng.sample(fai, rng.randint(0, len(fai)))
        fam = FamVector(
            gs, {k: Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for k in support}
        )
        assert char_from_fam(fam) == _char_from_fam_by_double_loop(fam)


@pytest.mark.parametrize("n, sample", [(3, None), (4, None), (5, 300)])
def test_char_bits_equal_the_dense_image_of_the_family_code(n, sample):
    gs = GroundSet.alpha(n)
    dags = enumerate_dags(gs)
    if sample is not None:
        dags = random.Random(11).sample(dags, sample)
    for g in dags:
        assert char_bits(g) == char_from_fam(fam_vector(g)).dense(enumerate_cai(gs))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_two_routes_agree_exhaustively(n):
    gs = GroundSet.alpha(n)
    cai = enumerate_cai(gs)
    for g in enumerate_dags(gs):
        via_fam = char_from_fam(fam_vector(g))
        via_standard = char_from_standard(standard_imset(g))
        assert via_fam == via_standard
        dense = tuple(int(via_fam[S]) for S in cai)
        assert dense == char_bits(g)


@pytest.mark.parametrize("n", [2, 3])
def test_char_separates_exactly_equivalence_classes(n):
    gs = GroundSet.alpha(n)
    dags = enumerate_dags(gs)
    for g, h in itertools.combinations(dags, 2):
        same_char = char_from_fam(fam_vector(g)) == char_from_fam(fam_vector(h))
        assert same_char == markov_equivalent(g, h)
        assert fam_vector(g) != fam_vector(h)


def test_char_separation_n4(gs4):
    dags = enumerate_dags(gs4)
    fams = {fam_vector(g) for g in dags}
    assert len(fams) == len(dags)
    classes = {}
    for g in dags:
        classes.setdefault(char_bits(g), []).append(g)
    assert len(classes) == 185
    rng = random.Random(3)
    for sig, members in rng.sample(sorted(classes.items()), 20):
        rep = members[0]
        assert all(markov_equivalent(rep, m) for m in members[1:])


def test_char_from_fam_is_linear(gs4):
    rng = random.Random(5)
    fai = enumerate_family_indices(gs4)
    for _ in range(25):
        x = FamVector(gs4, {k: Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                            for k in rng.sample(fai, 8)})
        y = FamVector(gs4, {k: Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                            for k in rng.sample(fai, 8)})
        alpha = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        beta = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        lhs = char_from_fam(alpha * x + beta * y)
        rhs = alpha * char_from_fam(x) + beta * char_from_fam(y)
        assert lhs == rhs


def test_dag_chars_are_binary_with_adjacent_pairs(gs4):
    cai = enumerate_cai(gs4)
    rng = random.Random(9)
    for g in rng.sample(enumerate_dags(gs4), 40):
        cv = char_from_fam(fam_vector(g))
        assert all(v in (0, 1) for _, v in cv.items())
        adjacent = g.adjacency_pairs()
        for i, j in itertools.combinations(range(4), 2):
            pair = (1 << i) | (1 << j)
            assert cv[pair] == (1 if (i, j) in adjacent else 0)
