import hashlib
import random
from fractions import Fraction
from itertools import permutations
from math import gcd, lcm

import pytest

from bnpoly.dags import enumerate_dags
from bnpoly.encodings import char_bits, char_from_fam, fam_vector
from bnpoly.errors import BnPolyError
from bnpoly.ground import (
    CharVector,
    FamVector,
    GroundSet,
    enumerate_cai,
    enumerate_family_indices,
    fam_from_json,
    scalar_product,
)
from bnpoly.ineq import (
    LinearInequality,
    binomial_identity,
    catalog_se_n4,
    catalog_specific_n4,
    cluster_char,
    cluster_fam,
    counterexample_constants,
    export_lp,
    fam_from_char_ineq,
    modified_convexity,
    nonneg_constraints,
    orbit,
    paper_binom,
)
from bnpoly.scoreeq import char_objective, is_se_objective
from bnpoly.supermod import cluster_pairs, cluster_supermodular
from bnpoly.scoreeq import objective_from_setfn
from bnpoly.verify import _n4_catalog_fam_rows, verify_n4, verify_theorem3


def test_nonneg_constraints(gs3, gs4):
    rows = nonneg_constraints(gs3)
    assert len(rows) == 9
    assert len(nonneg_constraints(gs4)) == 28
    zero = FamVector(gs3, {})
    assert all(q.is_valid_at(zero) and q.is_tight_at(zero) for q in rows)


def test_modified_convexity(gs3, gs4):
    rows = modified_convexity(gs3)
    assert len(rows) == 3 and len(modified_convexity(gs4)) == 4
    a_row = rows[0]
    m = gs3.mask_of
    assert a_row.objective == FamVector(
        gs3, {(0, m("b")): 1, (0, m("c")): 1, (0, m("bc")): 1}
    )
    assert a_row.bound == 1
    # tight exactly at graphs where node a has parents
    for g in enumerate_dags(gs3):
        fam = fam_vector(g)
        assert a_row.is_valid_at(fam)
        assert a_row.is_tight_at(fam) == (g.parents[0] != 0)


def test_cluster_fam_examples(gs3):
    m = gs3.mask_of
    small = cluster_fam(gs3, m("ab"), 1)
    assert len(small.objective) == 4 and small.bound == 1
    mid = cluster_fam(gs3, m("abc"), 2)
    assert mid.objective == FamVector(
        gs3, {(0, m("bc")): 1, (1, m("ac")): 1, (2, m("ab")): 1}
    )
    assert mid.bound == 1
    big = cluster_fam(gs3, m("abc"), 1)
    assert len(big.objective) == 9 and big.bound == 2
    with pytest.raises(BnPolyError):
        cluster_fam(gs3, m("ab"), 2)


@pytest.mark.parametrize("build", [
    cluster_fam,
    cluster_char,
    cluster_supermodular,
    lambda gs, C, k: export_lp(gs, clusters=[(C, k)]),
])
def test_cluster_arguments_are_refused_alike(gs3, build):
    m = gs3.mask_of
    with pytest.raises(BnPolyError, match="^cluster needs at least two nodes$"):
        build(gs3, m("a"), 1)
    with pytest.raises(BnPolyError, match=r"^level k=2 out of range for a cluster of size 2$"):
        build(gs3, m("ab"), 2)
    with pytest.raises(BnPolyError, match=r"^level k=0 out of range for a cluster of size 3$"):
        build(gs3, m("abc"), 0)
    with pytest.raises(BnPolyError, match="out of range for n=3"):
        build(gs3, 0b1000, 1)


def test_cluster_fam_matches_supermodular_parametrization(gs4):
    for C, k in cluster_pairs(gs4):
        ineq = cluster_fam(gs4, C, k)
        m = cluster_supermodular(gs4, C, k).restrict_char()
        assert ineq.objective == objective_from_setfn(m)


def test_cluster_char_examples(gs4, gs3):
    m4 = gs4.mask_of
    q = cluster_char(gs4, m4("abcd"), 2)
    assert q.objective == CharVector(
        gs4, {m4("abc"): 1, m4("abd"): 1, m4("acd"): 1, m4("bcd"): 1, m4("abcd"): -2}
    )
    assert q.bound == 2
    m3 = gs3.mask_of
    tri = cluster_char(gs3, m3("abc"), 1)
    assert tri.objective == CharVector(
        gs3, {m3("ab"): 1, m3("ac"): 1, m3("bc"): 1, m3("abc"): -1}
    )
    assert tri.bound == 2
    pairq = cluster_char(gs3, m3("ab"), 1)
    assert pairq.objective == CharVector(gs3, {m3("ab"): 1}) and pairq.bound == 1


@pytest.mark.parametrize("n", [3, 4, 5])
def test_cluster_fam_char_agreement(n):
    # The char-mode coefficients are the transform of the fam-mode objective.
    gs = GroundSet.alpha(n)
    for C, k in cluster_pairs(gs):
        fam_q = cluster_fam(gs, C, k)
        char_q = cluster_char(gs, C, k)
        assert char_objective(fam_q.objective) == char_q.objective
        assert fam_q.bound == char_q.bound
        back = fam_from_char_ineq(char_q)
        assert back.objective == fam_q.objective


def test_cluster_inequalities_valid_and_tight_counts(gs3):
    dags = enumerate_dags(gs3)
    for C, k in cluster_pairs(gs3):
        q = cluster_fam(gs3, C, k)
        values = [q.value_at(fam_vector(g)) for g in dags]
        assert max(values) == q.bound
        assert all(v <= q.bound for v in values)


def test_paper_binom_conventions():
    assert paper_binom(5, 0) == paper_binom(5, 5) == 1
    assert paper_binom(-1, -1) == 1  # r == n rule for negative n
    assert paper_binom(4, -1) == 0 and paper_binom(4, 5) == 0
    assert paper_binom(6, 2) == 15
    with pytest.raises(BnPolyError):
        paper_binom(-2, 1)


def test_binomial_identity_examples():
    assert binomial_identity(0, 1, 1) == (1, 1)
    assert binomial_identity(2, 2, 1) == (1, 1)
    assert binomial_identity(3, 3, 2) == (4, 4)


def test_binomial_identity_grid():
    for k in range(0, 11):
        for K in range(0, k + 1):
            for s in range(0, 11):
                lhs, rhs = binomial_identity(s, k, K)
                assert lhs == rhs
    for s in range(0, 11):
        for k in range(1, 11):
            assert binomial_identity(s, k, 1) == (1, 1)


def test_se_catalog_structure():
    entries = catalog_se_n4()
    assert [e.expected_orbit_size for e in entries] == [6, 4, 4, 1, 1, 1, 4, 6, 4, 6]
    assert sum(e.expected_orbit_size for e in entries) == 37
    gs = GroundSet.alpha(4)
    for e in entries:
        assert e.fam_ineq.objective == fam_from_char_ineq(e.char_ineq).objective
        assert char_objective(e.fam_ineq.objective) == e.char_ineq.objective
        if e.kind == "cluster":
            C, k = e.cluster
            assert e.char_ineq.canonical_key() == cluster_char(gs, C, k).canonical_key()
            assert e.fam_ineq.objective == cluster_fam(gs, C, k).objective


def test_se_catalog_fam_forms_match_published_text():
    gs = GroundSet.alpha(4)
    by_id = {e.type_id: e for e in catalog_se_n4()}
    thirteen = fam_from_json(gs, {
        "a|bc": "1", "a|bd": "1", "a|cd": "1", "a|bcd": "2",
        "b|ac": "1", "b|ad": "1", "b|acd": "1",
        "c|ab": "1", "c|ad": "1", "c|abd": "1",
        "d|ab": "1", "d|ac": "1", "d|abc": "1",
    })
    assert by_id["se-noncluster-13"].fam_ineq.objective == thirteen
    assert by_id["se-noncluster-13"].fam_ineq.bound == 2
    sixteen = fam_from_json(gs, {
        "a|b": "1", "a|bc": "1", "a|bd": "1", "a|cd": "1", "a|bcd": "1",
        "b|a": "1", "b|ac": "1", "b|ad": "1", "b|cd": "1", "b|acd": "1",
        "c|ad": "1", "c|bd": "1", "c|abd": "1",
        "d|ac": "1", "d|bc": "1", "d|abc": "1",
    })
    assert by_id["se-noncluster-16"].fam_ineq.objective == sixteen
    twentytwo = fam_from_json(gs, {
        "a|b": "1", "a|c": "1", "a|d": "1",
        "a|bc": "2", "a|bd": "2", "a|cd": "2", "a|bcd": "2",
        "b|a": "1", "b|ac": "1", "b|ad": "1", "b|cd": "1", "b|acd": "1",
        "c|a": "1", "c|ab": "1", "c|ad": "1", "c|bd": "1", "c|abd": "1",
        "d|a": "1", "d|ab": "1", "d|ac": "1", "d|bc": "1", "d|abc": "1",
    })
    assert by_id["se-noncluster-22"].fam_ineq.objective == twentytwo
    assert by_id["se-noncluster-22"].fam_ineq.bound == 3
    twentysix = fam_from_json(gs, {
        "a|b": "1", "a|c": "1", "a|d": "1",
        "a|bc": "1", "a|bd": "1", "a|cd": "2", "a|bcd": "2",
        "b|a": "1", "b|c": "1", "b|d": "1",
        "b|ac": "1", "b|ad": "1", "b|cd": "2", "b|acd": "2",
        "c|a": "1", "c|b": "1",
        "c|ab": "1", "c|ad": "1", "c|bd": "1", "c|abd": "2",
        "d|a": "1", "d|b": "1",
        "d|ab": "1", "d|ac": "1", "d|bc": "1", "d|abc": "2",
    })
    assert by_id["se-noncluster-26"].fam_ineq.objective == twentysix
    assert by_id["se-noncluster-26"].fam_ineq.bound == 4


def test_se_catalog_valid_tight_at_complete_graphs(gs4):
    dags = enumerate_dags(gs4)
    codes = [fam_vector(g) for g in dags]
    complete = [fam_vector(g) for g in dags if len(g.adjacency_pairs()) == 6]
    for e in catalog_se_n4():
        for member in e.char_orbit:
            fam_member = fam_from_char_ineq(member)
            assert all(fam_member.is_valid_at(c) for c in codes)
            assert all(fam_member.is_tight_at(c) for c in complete)


def test_specific_catalog_structure():
    entries = catalog_specific_n4()
    assert [e.expected_orbit_size for e in entries] == [
        6, 4, 1, 4, 6, 4, 1, 4, 6, 1, 12, 6, 12, 3, 4, 12, 12, 12, 3, 4
    ]
    assert sum(e.expected_orbit_size for e in entries) == 117
    nonzero_bound = [e for e in entries if e.char_ineq.bound != 0]
    assert len(nonzero_bound) == 1
    assert nonzero_bound[0].expected_orbit_size == 4
    assert nonzero_bound[0].char_ineq.bound == 1


def test_specific_catalog_valid_over_imsets(gs4):
    cai = enumerate_cai(gs4)
    imsets = {char_bits(g, cai) for g in enumerate_dags(gs4)}
    vectors = [CharVector(gs4, dict(zip(cai, p))) for p in imsets]
    zero = CharVector(gs4, {})
    for e in catalog_specific_n4():
        for member in e.char_orbit:
            assert all(member.is_valid_at(v) for v in vectors)
            if member.bound == 0:
                assert member.is_tight_at(zero)


def test_specific_bound_zero_fam_versions_are_conic_in_nonnegativity(gs4):
    # In fam mode a bound-0 valid inequality has nonpositive coefficients, so
    # it is literally a nonnegative combination of the -x(a:B) <= 0 rows.
    for e in catalog_specific_n4():
        if e.char_ineq.bound != 0:
            continue
        fam_form = e.fam_ineq
        assert fam_form.bound == 0
        assert all(v < 0 or v == 0 for _, v in fam_form.objective.items())
        assert all(v <= 0 for _, v in fam_form.objective.items())


def test_c20_certificate(gs4):
    entry = catalog_specific_n4()[-1]
    assert entry.certificate is not None
    convexity = {q.label: q for q in modified_convexity(gs4)}
    nonneg = {q.label: q for q in nonneg_constraints(gs4)}
    total_obj = FamVector(gs4, {})
    total_bound = Fraction(0)
    for label in entry.certificate["convexity"]:
        q = convexity[f"convexity[{label}]"]
        total_obj = total_obj + q.objective
        total_bound += q.bound
    for key in entry.certificate["nonneg"]:
        q = nonneg[f"nonneg[{key}]"]
        total_obj = total_obj + q.objective
        total_bound += q.bound
    assert total_obj == entry.fam_ineq.objective
    assert total_bound == entry.fam_ineq.bound == 1


def test_orbit_generation(gs4):
    m = gs4.mask_of
    q = LinearInequality("char", CharVector(gs4, {m("ab"): 1}), Fraction(1))
    images = orbit(q)
    assert len(images) == 6
    assert {tuple(i.objective.support()) for i in images} == {
        (m(p),) for p in ("ab", "ac", "ad", "bc", "bd", "cd")
    }


def _relabel_mask(mask, perm):
    return sum(1 << perm[i] for i in range(len(perm)) if mask >> i & 1)


def _oracle_orbit(q):
    """Every relabeling applied to the keys directly, deduplicated by
    canonical key and sorted by it."""
    gs = q.gs
    seen = {}
    for perm in permutations(range(gs.n)):
        if q.space == "char":
            obj = CharVector(gs, {_relabel_mask(S, perm): v for S, v in q.objective.items()})
        else:
            obj = FamVector(
                gs,
                {(perm[a], _relabel_mask(B, perm)): v for (a, B), v in q.objective.items()},
            )
        image = LinearInequality(q.space, obj, q.bound, q.label)
        seen.setdefault(image.canonical_key(), image)
    return [seen[key] for key in sorted(seen)]


def _random_inequalities(gs, rng):
    values = [-3, -1, 1, 2, Fraction(1, 2), Fraction(-2, 3), Fraction(5, 4)]
    cai, fai = enumerate_cai(gs), enumerate_family_indices(gs)
    out = []
    for size in (1, 2, 3, 5):
        for _ in range(3):
            z = CharVector(
                gs, {S: rng.choice(values) for S in rng.sample(cai, min(size, len(cai)))}
            )
            x = FamVector(gs, {k: rng.choice(values) for k in rng.sample(fai, size)})
            out.append(LinearInequality("char", z, rng.choice(values), label="z"))
            out.append(LinearInequality("fam", x, rng.choice(values), label="x"))
    out.append(LinearInequality("char", CharVector(gs, {}), Fraction(1, 3)))
    out.append(LinearInequality("fam", FamVector(gs, {}), 0))
    out.append(cluster_fam(gs, gs.mask_of("ab"), 1))
    return out


@pytest.mark.parametrize("n", [3, 4])
def test_orbit_matches_brute_force_relabeling(n):
    gs = GroundSet.alpha(n)
    rng = random.Random(20 + n)
    for q in _random_inequalities(gs, rng):
        assert orbit(q) == _oracle_orbit(q), str(q)


def test_canonical_key_is_the_primitive_multiple(gs4):
    rng = random.Random(5)
    for q in _random_inequalities(gs4, rng):
        values = [v for _, v in q.objective.items()]
        if not values:
            assert q.canonical_key() == (q.space, (), q.bound)
            continue
        # the gcd of reduced fractions is gcd(numerators) / lcm(denominators)
        factor = Fraction(
            lcm(*(v.denominator for v in values)), gcd(*(v.numerator for v in values))
        )
        scaled = q.objective * factor
        key = (q.space, tuple(scaled.sorted_items()), q.bound * factor)
        assert q.canonical_key() == key
        assert hash(q.canonical_key()) == hash(key)


# sha256 of the newline-joined str() of the 154 char members (SE catalog then
# specific catalog, orbit order) and of the fam rows the theorem3 LPs read;
# the LP row order, and with it the pivot path, follows these lists.
_CATALOG_SHA256 = {
    "char members": "01c0157ae8cdc1a969d4a2d2abad8cd25c6a7a2dd5f40735cdfb58178bae6856",
    "fam rows, reduced": "a84ee8a2b0d0f8aae5f8a984c2f61fd5bc3cdcb3a7789f8f15fa83e36465a884",
    "fam rows, one-vertex": "778df66b4444b3baeab54725ad64bb366663694758de08e30e8e04ca1d36f398",
}


def _text_sha256(rows):
    return hashlib.sha256("\n".join(str(q) for q in rows).encode()).hexdigest()


def test_catalog_orbits_and_translations_pinned():
    entries = catalog_se_n4() + catalog_specific_n4()
    members = [m for e in entries for m in e.char_orbit]
    assert len(members) == 154
    for e in entries:
        assert e.fam_orbit() == [fam_from_char_ineq(m) for m in e.char_orbit]
    reduced, one_vertex = _n4_catalog_fam_rows(False), _n4_catalog_fam_rows(True)
    assert (len(reduced), len(one_vertex)) == (41, 37)
    assert {
        "char members": _text_sha256(members),
        "fam rows, reduced": _text_sha256(reduced),
        "fam rows, one-vertex": _text_sha256(one_vertex),
    } == _CATALOG_SHA256


def _cold_translations(monkeypatch, run) -> int:
    """The number of ``fam_from_char_ineq`` calls ``run()`` makes with both
    four-node catalogs built afresh."""
    import bnpoly.ineq as ineq_module
    import bnpoly.verify as verify_module

    counts = {"fam_from_char_ineq": 0}

    def counting_translation(q):
        counts["fam_from_char_ineq"] += 1
        return fam_from_char_ineq(q)

    for module in (ineq_module, verify_module):
        monkeypatch.setattr(module, "fam_from_char_ineq", counting_translation)
    catalog_se_n4.cache_clear()
    catalog_specific_n4.cache_clear()
    try:
        run()
    finally:
        catalog_se_n4.cache_clear()
        catalog_specific_n4.cache_clear()
    return counts["fam_from_char_ineq"]


def test_cold_theorem3_n4_translates_each_type_once(monkeypatch):
    reports = []
    count = _cold_translations(monkeypatch, lambda: reports.append(verify_theorem3(4, trials=1)))
    assert reports[0].passed
    # 10 + 20 catalog types, one translation each; no orbit member is
    # translated on its own
    assert count <= 30


@pytest.mark.parametrize(
    "run, translations",
    [
        (lambda: (catalog_se_n4(), catalog_specific_n4()), 0),
        (verify_n4, 0),
        # the 10 SE types and the bound-1 specific type
        (lambda: verify_theorem3(4, trials=1), 11),
    ],
    ids=["catalogs", "verify-n4", "theorem3-n4"],
)
def test_catalog_types_are_translated_on_first_read(monkeypatch, run, translations):
    assert _cold_translations(monkeypatch, run) == translations


def test_counterexample_constants():
    cx = counterexample_constants()
    gs = cx.objective.gs
    assert cx.char_ineq.bound == 16 and cx.fam_ineq.bound == 16
    assert cx.objective[(gs.index("e"), gs.mask_of("abcd"))] == 8
    assert cx.centroid[(gs.index("b"), gs.mask_of("acde"))] == Fraction(66, 153)
    # internal consistency between the published forms
    assert fam_from_char_ineq(cx.char_ineq).objective == cx.objective
    assert is_se_objective(cx.objective)
    assert char_objective(cx.objective) == cx.char_ineq.objective
    # per-node mass of the convex combination stays below one
    for a in range(gs.n):
        total = sum((v for (node, _), v in cx.centroid.items() if node == a), Fraction(0))
        assert total < 1


def test_fam_from_char_examples(gs3):
    m = gs3.mask_of
    q = LinearInequality("char", CharVector(gs3, {m("ab"): 1}), Fraction(1))
    assert fam_from_char_ineq(q).objective == cluster_fam(gs3, m("ab"), 1).objective
    zero = LinearInequality("char", CharVector(gs3, {}), Fraction(0))
    assert fam_from_char_ineq(zero).objective == FamVector(gs3, {})


@pytest.mark.parametrize("n", [3, 4, 5])
def test_fam_from_char_preserves_pairing(n):
    import random

    gs = GroundSet.alpha(n)
    rng = random.Random(13)
    cai = enumerate_cai(gs)
    from bnpoly.ground import enumerate_family_indices

    fai = enumerate_family_indices(gs)
    for _ in range(20):
        z = CharVector(gs, {S: rng.randint(-4, 4) for S in rng.sample(cai, min(6, len(cai)))})
        q = LinearInequality("char", z, Fraction(0))
        fam_obj = fam_from_char_ineq(q).objective
        x = FamVector(gs, {k: Fraction(rng.randint(-5, 5), rng.randint(1, 3))
                           for k in rng.sample(fai, 9)})
        assert scalar_product(z, char_from_fam(x)) == scalar_product(fam_obj, x)


def test_text_form_uses_keys(gs3):
    m = gs3.mask_of
    fam = FamVector(gs3, {(0, m("b")): 1, (1, m("a")): Fraction(-3, 2), (2, m("ab")): -1})
    assert str(LinearInequality("fam", fam, Fraction(1, 2))) == "a|b - 3/2*b|a - c|ab <= 1/2"
    char = CharVector(gs3, {m("ab"): -1, m("abc"): 2})
    assert str(LinearInequality("char", char, 0)) == "-ab + 2*abc <= 0"
    assert str(LinearInequality("char", CharVector(gs3, {}), 1)) == "0 <= 1"
    # Text keys need single-character labels; others keep the repr.
    wide = GroundSet(["x1", "y"])
    q = LinearInequality("fam", FamVector(wide, {(0, 0b10): 1}), 1)
    assert str(q) == repr(q)


def test_text_form_over_wide_labels_lists_the_fields():
    # the text the dataclass repr printed, before LinearInequality became a
    # plain class
    wide = GroundSet(["x1", "y"])
    fam = FamVector(wide, {(0, 0b10): 1, (1, 0b01): Fraction(-3, 2)})
    assert str(LinearInequality("fam", fam, Fraction(1, 2), "cut")) == (
        "LinearInequality(space='fam', objective=FamVector({(0, 2): 1, (1, 1): -3/2}), "
        "bound=Fraction(1, 2), label='cut')"
    )
    assert str(LinearInequality("char", CharVector(GroundSet(["p", "q", "rs"]), {0b11: 2}), 0)) == (
        "LinearInequality(space='char', objective=CharVector({3: 2}), "
        "bound=Fraction(0, 1), label='')"
    )


def test_export_lp_text(gs3):
    text = export_lp(gs3, clusters=cluster_pairs(gs3))
    assert "Maximize" in text and "Subject To" in text and text.endswith("End\n")
    assert " conv_a: x_a_ + x_a_b + x_a_c + x_a_bc = 1" in text
    assert "cluster_ab_1" in text and ">= 1" in text
    assert "cluster_abc_1" in text and "cluster_abc_2" in text
    obj = FamVector(gs3, {(0, gs3.mask_of("b")): 3, (1, gs3.mask_of("a")): -2})
    with_obj = export_lp(gs3, objective=obj, clusters=[], integer=True)
    assert "+ 3 x_a_b" in with_obj and "- 2 x_b_a" in with_obj
    assert "Binaries" in with_obj
