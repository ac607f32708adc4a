import random
from fractions import Fraction

import pytest

from bnpoly import linalg, scoreeq, verify
from bnpoly.dags import Dag, enumerate_dags, enumerate_equivalence_classes, equivalence_class
from bnpoly.encodings import char_bits, char_from_fam, fam_vector, standard_imset
from bnpoly.errors import (
    BnPolyError,
    BudgetExceededError,
    IndexFamilyMismatchError,
    NotScoreEquivalentError,
)
from bnpoly.ground import (
    CharVector,
    FamVector,
    GroundSet,
    enumerate_cai,
    enumerate_family_indices,
    iter_bits,
    scalar_product,
)
from bnpoly.ineq import cluster_fam
from bnpoly.polyhedra import facets_from_vertices, fvp_vrep
from bnpoly.scoreeq import (
    char_objective,
    is_se_face,
    is_se_objective,
    moebius_down,
    moebius_up,
    objective_from_setfn,
    setfn_from_objective,
)
from bnpoly.verify import all_faces_by_tight_sets, explore_conjecture


def random_setfn(gs, rng, span=5):
    return CharVector(gs, {S: rng.randint(-span, span) for S in enumerate_cai(gs)})


def dag(gs, **parents):
    return Dag.from_json({lab: parents.get(lab, "") for lab in gs.labels}, gs)


def test_is_se_objective_examples(gs3):
    assert is_se_objective(FamVector(gs3, {}))
    cluster = cluster_fam(gs3, gs3.mask_of("ab"), 1)
    assert is_se_objective(cluster.objective)
    assert not is_se_objective(FamVector(gs3, {(0, 0b010): -1}))


def test_objective_from_setfn_examples(gs3):
    m = gs3.mask_of
    assert objective_from_setfn(CharVector(gs3, {})) == FamVector(gs3, {})
    spike = objective_from_setfn(CharVector(gs3, {m("abc"): 1}))
    assert spike == FamVector(gs3, {(0, m("bc")): 1, (1, m("ac")): 1, (2, m("ab")): 1})
    pair = objective_from_setfn(CharVector(gs3, {m("ab"): 1, m("abc"): 1}))
    assert pair == cluster_fam(gs3, m("ab"), 1).objective


def test_setfn_from_objective_examples(gs3):
    m = gs3.mask_of
    assert setfn_from_objective(FamVector(gs3, {})) == CharVector(gs3, {})
    cluster = cluster_fam(gs3, m("ab"), 1).objective
    assert setfn_from_objective(cluster) == CharVector(gs3, {m("ab"): 1, m("abc"): 1})
    with pytest.raises(NotScoreEquivalentError):
        setfn_from_objective(FamVector(gs3, {(0, 0b010): -1}))


@pytest.mark.parametrize("n", [3, 4])
def test_parametrization_roundtrip_random(n):
    gs = GroundSet.alpha(n)
    rng = random.Random(n)
    for _ in range(100):
        m = random_setfn(gs, rng)
        obj = objective_from_setfn(m)
        assert is_se_objective(obj)
        assert setfn_from_objective(obj) == m


def test_char_objective_examples(gs3):
    m = gs3.mask_of
    big = objective_from_setfn(
        CharVector(gs3, {m("ab"): 1, m("ac"): 1, m("bc"): 1, m("abc"): 2})
    )
    z = char_objective(big)
    assert z == CharVector(gs3, {m("ab"): 1, m("ac"): 1, m("bc"): 1, m("abc"): -1})
    small = cluster_fam(gs3, m("ab"), 1).objective
    assert char_objective(small) == CharVector(gs3, {m("ab"): 1})
    assert char_objective(FamVector(gs3, {})) == CharVector(gs3, {})
    with pytest.raises(NotScoreEquivalentError):
        char_objective(FamVector(gs3, {(0, 0b010): -1}))


@pytest.mark.parametrize("n", [3, 4])
def test_transform_identity_exhaustive(n):
    # <obj, code(G)> = <char_objective(obj), char(G)> over every DAG.
    gs = GroundSet.alpha(n)
    rng = random.Random(17 + n)
    dags = enumerate_dags(gs)
    trials = 50 if n == 3 else 10
    for _ in range(trials):
        obj = objective_from_setfn(random_setfn(gs, rng))
        z = char_objective(obj)
        for g in dags:
            fam = fam_vector(g)
            assert scalar_product(obj, fam) == scalar_product(z, char_from_fam(fam))


@pytest.mark.parametrize("n", [3, 4, 5])
def test_transform_identity_on_arbitrary_vectors(n):
    gs = GroundSet.alpha(n)
    rng = random.Random(23)
    fai = enumerate_family_indices(gs)
    for _ in range(20):
        obj = objective_from_setfn(random_setfn(gs, rng))
        z = char_objective(obj)
        x = FamVector(gs, {k: Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                           for k in rng.sample(fai, min(10, len(fai)))})
        assert scalar_product(obj, x) == scalar_product(z, char_from_fam(x))


def test_moebius_examples(gs3):
    m = gs3.mask_of
    z = moebius_down(CharVector(gs3, {m("ab"): 1}))
    assert z == CharVector(gs3, {m("ab"): 1, m("abc"): -1})
    assert moebius_down(CharVector(gs3, {})) == CharVector(gs3, {})


def _moebius_down_by_double_loop(m):
    """The Moebius pair as the double loop over cai and the support."""
    coords = {}
    for T in enumerate_cai(m.gs):
        total = Fraction(0)
        for L, value in m.items():
            if L & T == L:
                total += value if (T.bit_count() - L.bit_count()) % 2 == 0 else -value
        coords[T] = total
    return CharVector(m.gs, coords)


def _moebius_up_by_double_loop(z):
    coords = {}
    for S in enumerate_cai(z.gs):
        coords[S] = sum((value for T, value in z.items() if T & S == T), Fraction(0))
    return CharVector(z.gs, coords)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_moebius_pair_matches_the_double_loops(n):
    gs = GroundSet.alpha(n)
    cai = enumerate_cai(gs)
    rng = random.Random(70 + n)
    for _ in range(40):
        support = rng.sample(cai, rng.randint(0, len(cai)))
        m = CharVector(
            gs, {S: Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for S in support}
        )
        assert moebius_down(m) == _moebius_down_by_double_loop(m)
        assert moebius_up(m) == _moebius_up_by_double_loop(m)


@pytest.mark.parametrize("n", [3, 4])
def test_moebius_inverse_pair(n):
    gs = GroundSet.alpha(n)
    rng = random.Random(31 + n)
    for _ in range(100):
        m = random_setfn(gs, rng)
        assert moebius_up(moebius_down(m)) == m
        assert moebius_down(moebius_up(m)) == m


def test_se_dimension():
    # The exchange identities cut the objective space down to 2^n - n - 1.
    for n in (2, 3, 4):
        gs = GroundSet.alpha(n)
        fai = enumerate_family_indices(gs)
        pos = {key: i for i, key in enumerate(fai)}
        rows = []
        for a in range(n):
            for b in range(a + 1, n):
                rest = gs.full_mask & ~(1 << a) & ~(1 << b)
                Z = rest
                while True:
                    row = [0] * len(fai)
                    for key, sign in (
                        ((b, (1 << a) | Z), 1),
                        ((a, Z), 1),
                        ((a, (1 << b) | Z), -1),
                        ((b, Z), -1),
                    ):
                        if key[1]:
                            row[pos[key]] += sign
                    rows.append(row)
                    if Z == 0:
                        break
                    Z = (Z - 1) & rest
        dim = len(fai) - linalg.rank(rows)
        assert dim == 2**n - n - 1


@pytest.mark.parametrize("n", [3, 4])
def test_se_objectives_constant_on_classes(n):
    gs = GroundSet.alpha(n)
    rng = random.Random(53 + n)
    classes = enumerate_equivalence_classes(gs)
    for _ in range(10):
        obj = objective_from_setfn(random_setfn(gs, rng))
        for rep, _ in classes:
            value = scalar_product(obj, fam_vector(rep))
            for member in equivalence_class(rep):
                assert scalar_product(obj, fam_vector(member)) == value


def test_is_se_face_examples(gs3):
    dags = enumerate_dags(gs3)
    full = dag(gs3, b="a", c="ab")
    fulls = sorted(equivalence_class(full))
    ok, witness = is_se_face(fulls)
    assert ok and witness is not None and is_se_objective(witness)
    # the witness must actually isolate the class
    values = {scalar_product(witness, fam_vector(g)) for g in fulls}
    assert len(values) == 1
    bound = values.pop()
    outside = [g for g in dags if g not in set(fulls)]
    assert all(scalar_product(witness, fam_vector(g)) < bound for g in outside)

    ok_empty, w_empty = is_se_face([dag(gs3)])
    assert ok_empty and w_empty is not None
    ok_single, w_single = is_se_face([full])
    assert not ok_single and w_single is None


def test_is_se_face_whole_polytope_and_errors(gs3):
    dags = enumerate_dags(gs3)
    ok, witness = is_se_face(dags)
    assert ok and witness == FamVector(gs3, {})
    with pytest.raises(BnPolyError):
        is_se_face([])


def test_is_se_face_refuses_dags_over_other_ground_sets(gs3, monkeypatch):
    def never(*_, **__):
        raise AssertionError("no LP may start before the refusal")

    monkeypatch.setattr(scoreeq, "solve_lp", never)
    xyz = GroundSet(["x", "y", "z"])
    empty = Dag(gs3, [0, 0, 0])
    for graphs in ([empty, Dag(xyz, [0, 1, 0])], [empty, Dag(GroundSet.alpha(4), [0] * 4)]):
        with pytest.raises(IndexFamilyMismatchError, match="different ground sets"):
            is_se_face(graphs)


def test_is_se_face_refuses_five_nodes_up_front(monkeypatch):
    def never(*_, **__):
        raise AssertionError("no work may start before the refusal")

    monkeypatch.setattr(scoreeq, "enumerate_dags", never)
    monkeypatch.setattr(scoreeq, "solve_lp", never)
    empty = Dag.from_json({x: "" for x in "abcde"}, GroundSet.alpha(5))
    with pytest.raises(BudgetExceededError):
        is_se_face([empty])


def _closed_n3_faces(dags):
    """The faces of the three-node FVP closed under Markov equivalence, as
    sets of indices into ``dags``."""
    signature = [char_bits(g) for g in dags]
    closed = []
    fvp = fvp_vrep(GroundSet.alpha(3))
    for mask in all_faces_by_tight_sets(fvp, facets_from_vertices(fvp)):
        face = set(iter_bits(mask))
        classes = {signature[i] for i in face}
        if {i for i, s in enumerate(signature) if s in classes} == face:
            closed.append(face)
    return closed


def test_se_face_witnesses_isolate_every_closed_n3_face(gs3):
    """Every face closed under Markov equivalence gets an SE witness whose
    maximizers over the DAG codes are exactly that face.  The LP may pick
    any such witness, so validity is pinned rather than the vector."""
    dags = enumerate_dags(gs3)
    closed = _closed_n3_faces(dags)
    assert len(closed) == 93
    codes = [fam_vector(g) for g in dags]
    for face in closed:
        ok, witness = is_se_face([dags[i] for i in face])
        assert ok and is_se_objective(witness)
        values = [scalar_product(witness, code) for code in codes]
        best = max(values)
        assert {i for i, v in enumerate(values) if v == best} == face


def test_the_mask_lp_agrees_with_is_se_face_on_every_closed_n3_face(gs3):
    dags = enumerate_dags(gs3)
    cai = enumerate_cai(gs3)
    rows = [scoreeq._setfn_row(g, cai) for g in dags]
    for face in _closed_n3_faces(dags):
        mask = sum(1 << i for i in face)
        assert scoreeq._se_face_lp(gs3, rows, mask) == is_se_face([dags[i] for i in face])


def test_the_conjecture_pipeline_builds_each_dag_row_once(monkeypatch):
    # One row per DAG for all 93 face LPs, not 25 per LP.
    calls = []
    setfn_row = scoreeq._setfn_row

    def counting(graph, cai):
        calls.append(graph.parents)
        return setfn_row(graph, cai)

    monkeypatch.setattr(scoreeq, "_setfn_row", counting)
    monkeypatch.setattr(verify, "_setfn_row", counting)
    assert explore_conjecture().passed
    assert len(calls) == len(set(calls)) == 25


@pytest.mark.parametrize("n", [3, 4])
def test_setfn_row_is_delta_n_minus_the_standard_imset(n):
    gs = GroundSet.alpha(n)
    cai = enumerate_cai(gs)
    for g in enumerate_dags(gs):
        u = standard_imset(g)
        assert scoreeq._setfn_row(g, cai) == tuple(int(S == gs.full_mask) - u[S] for S in cai)


@pytest.mark.parametrize("n, classes", [(3, 11), (4, 185)])
def test_setfn_rows_are_one_per_markov_class(n, classes):
    # Two DAGs share a face-LP row exactly when they share a characteristic
    # imset, so the LP keeps one row per class.
    gs = GroundSet.alpha(n)
    cai = enumerate_cai(gs)
    pairs = {(scoreeq._setfn_row(g, cai), char_bits(g)) for g in enumerate_dags(gs)}
    assert len(pairs) == len({row for row, _ in pairs}) == len({c for _, c in pairs}) == classes


def test_class_lp_matches_the_per_dag_lp_on_every_closed_n3_face(gs3, se_face_per_dag):
    dags = enumerate_dags(gs3)
    for face in _closed_n3_faces(dags):
        graphs = [dags[i] for i in face]
        assert is_se_face(graphs) == se_face_per_dag(graphs, all_dags=dags)


def _class_members(gs):
    """Every Markov class over ``gs`` as its sorted list of DAGs."""
    return [sorted(equivalence_class(rep)) for rep, _ in enumerate_equivalence_classes(gs)]


@pytest.mark.parametrize("n, trials", [(3, 300), (4, 20)])
def test_class_lp_matches_the_per_dag_lp_on_random_sets(n, trials, se_face_per_dag):
    """Random DAG sets, random unions of classes, and such unions less their
    first DAG: the same verdict and the same witness from both LPs."""
    gs = GroundSet.alpha(n)
    dags = enumerate_dags(gs)
    classes = _class_members(gs)
    rng = random.Random(n)
    verdicts = []
    for _ in range(trials):
        kind = rng.randrange(3)
        if kind == 0:
            graphs = rng.sample(dags, rng.randint(1, 4))
        else:
            graphs = [g for c in rng.sample(classes, rng.randint(1, 3)) for g in c]
            if kind == 2 and len(graphs) > 1:
                graphs = graphs[1:]
        result = is_se_face(graphs)
        assert result == se_face_per_dag(graphs, all_dags=dags)
        verdicts.append(result[0])
    assert True in verdicts and False in verdicts


@pytest.mark.parametrize("n", [3, 4])
def test_a_set_that_splits_a_class_is_not_an_se_face(n, se_face_per_dag):
    gs = GroundSet.alpha(n)
    dags = enumerate_dags(gs)
    classes = _class_members(gs)
    split = [c for c in classes if len(c) > 1]
    for members in split if n == 3 else split[:10]:
        for graphs in (members[1:], members[:1]):
            assert is_se_face(graphs) == (False, None)
            assert se_face_per_dag(graphs, all_dags=dags) == (False, None)


def test_a_partial_dag_list_misleads_only_the_per_dag_oracle(gs3, se_face_per_dag):
    dags = enumerate_dags(gs3)
    a_to_b = dag(gs3, b="a")
    b_to_a = dag(gs3, a="b")
    dropped = [g for g in dags if g != b_to_a]
    # Over the list without b -> a, the class of a -> b looks like {a -> b}
    # alone, and the LP finds a witness for a set that is not a face.
    assert se_face_per_dag([a_to_b], all_dags=dropped)[0]
    assert is_se_face([a_to_b]) == (False, None)
