import itertools
import math
import random
from fractions import Fraction

import pytest

from bnpoly import linalg
from bnpoly.dags import enumerate_dags, is_closed_under_equivalence
from bnpoly.encodings import fam_vector
from bnpoly.errors import BnPolyError, BudgetExceededError, NotSupermodularError
from bnpoly.ground import GroundSet, SetFunction, enumerate_cai, scalar_product
from bnpoly.ineq import catalog_se_n4
from bnpoly.scoreeq import moebius_up, objective_from_setfn
from bnpoly.supermod import (
    MAX_EXTREME_NODES,
    cluster_pairs,
    cluster_supermodular,
    core_vertices,
    delta,
    duality_transform,
    elementary_triplets,
    is_connected_matroid,
    is_extreme,
    is_matroid_rank,
    is_supermodular,
)


def test_delta_examples(gs3):
    m = gs3.mask_of
    pair = SetFunction(gs3, {m("ab"): 1, m("abc"): 1})
    assert delta(pair, 0, 1, 0) == 1
    assert delta(SetFunction(gs3, {}), 0, 2, 0b010) == 0
    with pytest.raises(BnPolyError):
        delta(pair, 0, 0, 0)
    with pytest.raises(BnPolyError):
        delta(pair, 0, 1, 0b001)


def test_delta_cluster_formula():
    # The cluster function ignores nodes outside C, so the difference is 1
    # exactly when both nodes lie in C and the C-part of {a,b} u Z has k+1
    # elements; in particular it is 1 on every (k+1)-subset of C.
    for n in (3, 4):
        gs = GroundSet.alpha(n)
        for C, k in cluster_pairs(gs):
            m = cluster_supermodular(gs, C, k)
            for a, b, Z in elementary_triplets(gs):
                pair = (1 << a) | (1 << b)
                inside = (pair | Z) & C
                expected = 1 if pair & C == pair and inside.bit_count() == k + 1 else 0
                assert delta(m, a, b, Z) == expected
                assert delta(m, a, b, Z) == delta(m, a, b, Z & C)


def test_is_supermodular_examples(gs3):
    m = gs3.mask_of
    assert is_supermodular(SetFunction(gs3, {m("abc"): 1}))
    assert not is_supermodular(SetFunction(gs3, {m("ab"): 1}))
    big = SetFunction(gs3, {m("abc"): 2, m("ab"): 1, m("ac"): 1, m("bc"): 1})
    assert is_supermodular(big)


def test_is_extreme_examples(gs3):
    m = gs3.mask_of
    for C, k in cluster_pairs(gs3):
        assert is_extreme(cluster_supermodular(gs3, C, k))
    two = cluster_supermodular(gs3, m("ab"), 1) + cluster_supermodular(gs3, m("ac"), 1)
    assert not is_extreme(two)
    with pytest.raises(NotSupermodularError):
        is_extreme(SetFunction(gs3, {}))
    with pytest.raises(NotSupermodularError):
        is_extreme(SetFunction(gs3, {m("ab"): 1}))


def test_is_extreme_refuses_above_max_nodes_before_reading_m():
    class Unread:
        gs = GroundSet.alpha(MAX_EXTREME_NODES + 1)

        def __bool__(self):
            raise AssertionError("m must not be read before the refusal")

        def __getitem__(self, mask):
            raise AssertionError("m must not be read before the refusal")

    with pytest.raises(BudgetExceededError, match=f"it stops at n = {MAX_EXTREME_NODES}$"):
        is_extreme(Unread())
    # the limit itself is allowed: this function fails the supermodularity check
    gs = GroundSet.alpha(MAX_EXTREME_NODES)
    with pytest.raises(NotSupermodularError):
        is_extreme(SetFunction(gs, {gs.mask_of("ab"): 1}))


@pytest.mark.parametrize("n", [3, 4])
def test_cluster_functions_extreme(n):
    gs = GroundSet.alpha(n)
    for C, k in cluster_pairs(gs):
        assert is_extreme(cluster_supermodular(gs, C, k))


def test_cluster_functions_extreme_n5(gs5):
    pairs = cluster_pairs(gs5)
    assert len(pairs) == 49
    for C, k in pairs:
        assert is_extreme(cluster_supermodular(gs5, C, k))


def test_catalog_set_functions_extreme():
    for entry in catalog_se_n4():
        assert is_extreme(moebius_up(entry.char_ineq.objective))


def test_core_vertices_examples(gs3):
    m = gs3.mask_of
    assert core_vertices(SetFunction(gs3, {})) == [(0, 0, 0)]
    tri = core_vertices(cluster_supermodular(gs3, m("abc"), 1))
    assert tri == [
        (Fraction(0), Fraction(1), Fraction(1)),
        (Fraction(1), Fraction(0), Fraction(1)),
        (Fraction(1), Fraction(1), Fraction(0)),
    ]
    pair = core_vertices(cluster_supermodular(gs3, m("ab"), 1))
    assert pair == [
        (Fraction(0), Fraction(1), Fraction(0)),
        (Fraction(1), Fraction(0), Fraction(0)),
    ]


def test_core_vertices_n6_match_a_fraction_check():
    # m(S) = C(|S|, 2) / 2 is strictly supermodular, so the 6! node orders
    # give 720 distinct greedy vectors; the halving makes the integer check
    # scale m by 2.  Oracle: the greedy walk and every core constraint in
    # plain Fraction sums.
    n = 6
    gs = GroundSet.alpha(n)
    full = gs.full_mask
    m = SetFunction(
        gs, {S: Fraction(math.comb(S.bit_count(), 2), 2) for S in range(full + 1)}
    )
    expected = set()
    for order in itertools.permutations(range(n)):
        v, acc = [Fraction(0)] * n, 0
        for a in order:
            v[a] = m[acc | 1 << a] - m[acc]
            acc |= 1 << a
        expected.add(tuple(v))
    for v in expected:
        assert sum(v) == m[full]
        for S in range(1, full + 1):
            assert sum(v[i] for i in range(n) if S >> i & 1) >= m[S]
    vertices = core_vertices(m)
    assert len(vertices) == 720
    assert vertices == sorted(expected)


def test_core_vertices_are_vertices(gs4):
    # Cross-check with an LP: no greedy vector is a convex combination of the
    # others, and every core constraint holds.
    from bnpoly.simplex import solve_lp

    rng = random.Random(6)
    samples = [cluster_supermodular(gs4, C, k) for C, k in cluster_pairs(gs4)]
    for m in rng.sample(samples, 6):
        vertices = core_vertices(m)
        for i, v in enumerate(vertices):
            others = [w for j, w in enumerate(vertices) if j != i]
            if not others:
                continue
            # feasibility LP: sum lambda_j w_j = v, sum lambda = 1, lambda >= 0
            A_eq = [[w[t] for w in others] for t in range(gs4.n)]
            A_eq.append([1] * len(others))
            b_eq = list(v) + [1]
            signs = [[-int(i == j) for j in range(len(others))] for i in range(len(others))]
            result = solve_lp(
                [0] * len(others), A_ub=signs, b_ub=[0] * len(others), A_eq=A_eq, b_eq=b_eq
            )
            assert result.status == "infeasible"


def test_cluster_matroid_rank_formula():
    for n in (3, 4):
        gs = GroundSet.alpha(n)
        for C, k in cluster_pairs(gs):
            rank_fn = duality_transform(cluster_supermodular(gs, C, k))
            top = C.bit_count() - k
            for T in range(gs.full_mask + 1):
                assert rank_fn[T] == min((T & C).bit_count(), top)


def test_duality_transform_examples(gs3):
    assert duality_transform(SetFunction(gs3, {})) == SetFunction(gs3, {})
    for C, k in cluster_pairs(gs3):
        m = cluster_supermodular(gs3, C, k)
        assert duality_transform(duality_transform(m)) == m
    r = duality_transform(cluster_supermodular(gs3, gs3.mask_of("abc"), 1))
    assert r[0] == 0
    assert all(r[gs3.full_mask] == r[gs3.full_mask & ~(1 << a)] for a in range(3))


def test_is_matroid_rank_examples(gs3):
    free = SetFunction(gs3, {S: S.bit_count() for S in range(8) if S})
    assert is_matroid_rank(free, gs3.full_mask)
    doubled = SetFunction(gs3, {S: 2 * S.bit_count() for S in range(8) if S})
    assert not is_matroid_rank(doubled, gs3.full_mask)
    for C, k in cluster_pairs(gs3):
        r = duality_transform(cluster_supermodular(gs3, C, k))
        assert is_matroid_rank(r, C)
    with pytest.raises(BnPolyError):
        is_matroid_rank(SetFunction(gs3, {0b011: Fraction(1, 2)}), gs3.full_mask)


def test_connected_matroids(gs4):
    C = gs4.mask_of("abc")
    for k in (1, 2):
        r = duality_transform(cluster_supermodular(gs4, C, k))
        assert is_connected_matroid(r, C)
    # rank zero on C: not connected
    zero = SetFunction(gs4, {})
    assert not is_connected_matroid(zero, C)
    # full rank |C| (free matroid): not connected
    free = SetFunction(gs4, {S: S.bit_count() for S in range(16) if S})
    assert not is_connected_matroid(free, C)


def random_supermodular(gs, rng):
    total = SetFunction(gs, {})
    for C, k in cluster_pairs(gs):
        coef = rng.randint(0, 3)
        if coef:
            total = total + coef * cluster_supermodular(gs, C, k)
    return total


@pytest.mark.parametrize("n", [3, 4])
def test_supermodular_inequalities_tight_on_closed_sets(n):
    # The objective built from a supermodular function, with the shared value
    # at complete graphs as bound, is valid over all DAG codes and tight on a
    # class-closed set containing every complete graph.
    gs = GroundSet.alpha(n)
    rng = random.Random(77 + n)
    dags = enumerate_dags(gs)
    complete = [g for g in dags
                if len(g.adjacency_pairs()) == n * (n - 1) // 2]
    trials = 50 if n == 3 else 15
    for _ in range(trials):
        m = random_supermodular(gs, rng)
        assert is_supermodular(m)
        obj = objective_from_setfn(m)
        bound = scalar_product(obj, fam_vector(complete[0]))
        values = [scalar_product(obj, fam_vector(g)) for g in dags]
        assert all(v <= bound for v in values)
        tight = [g for g, v in zip(dags, values) if v == bound]
        assert set(complete) <= set(tight)
        assert is_closed_under_equivalence(tight)


def test_distinct_extreme_generators_incomparable_tight_sets(gs3):
    # Tight DAG-code sets of distinct extreme generators never nest.
    dags = enumerate_dags(gs3)
    tight_sets = []
    for C, k in cluster_pairs(gs3):
        m = cluster_supermodular(gs3, C, k)
        obj = objective_from_setfn(m)
        values = [scalar_product(obj, fam_vector(g)) for g in dags]
        bound = max(values)
        tight_sets.append({g.parents for g, v in zip(dags, values) if v == bound})
    for s1, s2 in itertools.combinations(tight_sets, 2):
        assert not (s1 <= s2 or s2 <= s1)


def test_distinct_extreme_generators_incomparable_n4(gs4):
    dags = enumerate_dags(gs4)
    tight_sets = []
    for entry in catalog_se_n4():
        m = moebius_up(entry.char_ineq.objective)
        obj = objective_from_setfn(m)
        values = [scalar_product(obj, fam_vector(g)) for g in dags]
        tight_sets.append({g.parents for g, v in zip(dags, values) if v == entry.char_ineq.bound})
    for s1, s2 in itertools.combinations(tight_sets, 2):
        assert not (s1 <= s2 or s2 <= s1)


def test_cluster_supermodular_validation(gs3):
    with pytest.raises(BnPolyError):
        cluster_supermodular(gs3, gs3.mask_of("a"), 1)
    with pytest.raises(BnPolyError):
        cluster_supermodular(gs3, gs3.mask_of("ab"), 2)


def test_is_supermodular_matches_pairwise_set_definition():
    # elementary differences >= 0 iff m(U) + m(V) <= m(U u V) + m(U n V)
    # for every pair of subsets
    def pairwise(m, gs):
        for U in range(gs.full_mask + 1):
            for V in range(gs.full_mask + 1):
                if m[U] + m[V] > m[U | V] + m[U & V]:
                    return False
        return True

    for n in (3, 4):
        gs = GroundSet.alpha(n)
        rng = random.Random(600 + n)
        candidates = [cluster_supermodular(gs, C, k) for C, k in cluster_pairs(gs)]
        candidates.append(SetFunction(gs, {}))
        candidates.append(SetFunction(gs, {gs.mask_of("ab"): 1}))  # not supermodular
        for _ in range(5):
            mix = SetFunction(gs, {S: rng.randint(-2, 2)
                                   for S in enumerate_cai(gs)})
            candidates.append(mix)
        for m in candidates:
            assert is_supermodular(m) == pairwise(m, gs)


@pytest.mark.parametrize(
    "call, error, message",
    [
        (
            lambda gs3: is_extreme(SetFunction(gs3, {0b001: 1, 0b011: 1})),
            NotSupermodularError,
            "set function is not standardized",
        ),
        (
            lambda gs3: core_vertices(SetFunction(gs3, {0b001: 1})),
            NotSupermodularError,
            "set function is not standardized",
        ),
        (
            lambda gs3: core_vertices(SetFunction(gs3, {0b011: -1})),
            NotSupermodularError,
            "set function is not supermodular",
        ),
        # is_matroid_rank is False on r(empty) = 1 and on r({a}) = 2
        (
            lambda gs3: is_connected_matroid(SetFunction(gs3, {0: 1, 0b001: 1}), 0b001),
            BnPolyError,
            "not a matroid rank function on the given ground set",
        ),
        (
            lambda gs3: is_connected_matroid(SetFunction(gs3, {0b001: 2}), 0b001),
            BnPolyError,
            "not a matroid rank function on the given ground set",
        ),
    ],
    ids=[
        "extreme-not-standardized",
        "core-not-standardized",
        "core-not-supermodular",
        "connected-matroid-with-a-nonzero-empty-rank",
        "connected-matroid-with-a-step-of-two",
    ],
)
def test_supermod_refusals(gs3, call, error, message):
    with pytest.raises(error) as info:
        call(gs3)
    assert str(info.value) == message


def _two_pass_is_extreme(m):
    """The Fraction form of the extremality test: every elementary difference
    read through ``delta`` and checked nonnegative, then a second pass for
    the tight rows and their rank."""
    gs = m.gs
    if not m:
        raise NotSupermodularError("the zero function spans no ray")
    if not all(mask.bit_count() >= 2 for mask in m.support()):
        raise NotSupermodularError("set function is not standardized")
    if not all(delta(m, a, b, Z) >= 0 for a, b, Z in elementary_triplets(gs)):
        raise NotSupermodularError("set function is not supermodular")
    rows = []
    for a, b, Z in elementary_triplets(gs):
        if delta(m, a, b, Z) == 0:
            row = [0] * (1 << gs.n)
            row[(1 << a) | (1 << b) | Z] = 1
            if Z.bit_count() >= 2:
                row[Z] = 1
            if Z:
                row[(1 << a) | Z] = -1
                row[(1 << b) | Z] = -1
            rows.append(row)
    return len(enumerate_cai(gs)) - linalg.rank(rows) == 1


def _rays(gs):
    return [cluster_supermodular(gs, C, k) for C, k in cluster_pairs(gs)]


def _se_catalog_functions():
    return [moebius_up(m.objective) for e in catalog_se_n4() for m in e.char_orbit]


def test_is_extreme_matches_the_two_pass_form_on_rays(gs3):
    rays = _rays(gs3)
    assert len(rays) == 5
    catalog = _se_catalog_functions()
    assert len(catalog) == 37
    for m in rays + catalog:
        assert is_extreme(m) is _two_pass_is_extreme(m) is True


def test_is_extreme_matches_the_two_pass_form_on_sums_of_two_rays(gs3):
    for rays in (_rays(gs3), _se_catalog_functions()):
        for x, y in itertools.combinations(rays, 2):
            assert is_extreme(x + y) is _two_pass_is_extreme(x + y) is False


def test_is_extreme_reads_non_integer_values(gs3):
    m = gs3.mask_of
    third = Fraction(1, 3) * cluster_supermodular(gs3, m("abc"), 1)
    assert is_extreme(third) is _two_pass_is_extreme(third) is True
    mixed = third + Fraction(1, 2) * cluster_supermodular(gs3, m("ab"), 1)
    assert is_extreme(mixed) is _two_pass_is_extreme(mixed) is False
    # the halves below scale to the cluster function of {a, b}
    half = SetFunction(gs3, {m("ab"): Fraction(1, 2), m("abc"): Fraction(1, 2)})
    assert is_extreme(half) is _two_pass_is_extreme(half) is True


@pytest.mark.parametrize(
    "values, message",
    [
        ({}, "the zero function spans no ray"),
        # not standardized and not supermodular: standardization is read first
        ({0b001: 1, 0b011: -1}, "set function is not standardized"),
        ({0b011: 1, 0b111: Fraction(-1, 2)}, "set function is not supermodular"),
    ],
    ids=["zero", "not-standardized", "not-supermodular"],
)
def test_is_extreme_refusals_match_the_two_pass_form(gs3, values, message):
    m = SetFunction(gs3, values)
    for test in (is_extreme, _two_pass_is_extreme):
        with pytest.raises(NotSupermodularError) as info:
            test(m)
        assert str(info.value) == message
