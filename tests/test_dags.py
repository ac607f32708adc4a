import itertools

import pytest

from bnpoly import dags as dags_module
from bnpoly.dags import (
    Dag,
    covered_arc_neighbors,
    enumerate_dags,
    enumerate_equivalence_classes,
    equivalence_class,
    immoralities,
    is_acyclic,
    is_closed_under_equivalence,
    markov_equivalent,
)
from bnpoly.encodings import char_bits
from bnpoly.errors import BnPolyError, BudgetExceededError, IndexFamilyMismatchError
from bnpoly.ground import GroundSet


def dag(gs, **parents):
    return Dag.from_json({lab: parents.get(lab, "") for lab in gs.labels}, gs)


def full_graph(gs, order):
    parents = {}
    for i, node in enumerate(order):
        parents[node] = "".join(sorted(order[:i]))
    return Dag.from_json(parents, gs)


def test_is_acyclic_basic(gs3):
    assert is_acyclic(gs3, (0, 0, 0))
    assert not is_acyclic(gs3, (0b010, 0b001, 0))  # a <-> b
    with pytest.raises(BnPolyError, match="^parent map has a directed cycle$"):
        Dag.from_json({"a": "b", "b": "a", "c": ""}, gs3)
    with pytest.raises(BnPolyError, match="^node a cannot be its own parent$"):
        Dag(gs3, (0b001, 0, 0))
    with pytest.raises(BnPolyError, match="^need one parent set per node$"):
        Dag(gs3, (0, 0))
    with pytest.raises(BnPolyError, match="^mask 8 out of range for n=3$"):
        Dag(gs3, (0b1000, 0, 0))


def test_full_graphs_consonant_with_each_order(gs3):
    # Brute-force oracle: a parent map is acyclic iff some total order places
    # every node after all of its parents.
    for order in itertools.permutations(gs3.labels):
        g = full_graph(gs3, list(order))
        position = {lab: i for i, lab in enumerate(order)}
        for a, B in enumerate(g.parents):
            for b in gs3.letters(B):
                assert position[b] < position[gs3.labels[a]]
        assert is_acyclic(gs3, g.parents)


@pytest.mark.parametrize("n,count", [(2, 3), (3, 25), (4, 543)])
def test_dag_counts(n, count):
    assert len(enumerate_dags(GroundSet.alpha(n))) == count


def test_dag_count_n2_brute_force(gs2):
    maps = [(a, b) for a in (0, 0b10) for b in (0, 0b01)]
    acyclic = [pm for pm in maps if not (pm[0] and pm[1])]
    assert len(acyclic) == len(enumerate_dags(gs2)) == 3


def test_enumeration_is_deterministic(gs3):
    first = [g.parents for g in enumerate_dags(gs3)]
    second = [g.parents for g in enumerate_dags(GroundSet.alpha(3))]
    assert first == second == sorted(set(first))


def test_immoralities(gs3):
    collider = dag(gs3, c="ab")
    assert immoralities(collider) == {((0, 1), 2)}
    assert immoralities(full_graph(gs3, ["a", "b", "c"])) == frozenset()
    assert immoralities(dag(gs3)) == frozenset()


def test_markov_equivalent_pairs(gs3):
    assert markov_equivalent(dag(gs3, b="a"), dag(gs3, a="b"))
    collider = dag(gs3, c="ab")
    chain = dag(gs3, c="a", b="c")
    assert not markov_equivalent(collider, chain)
    for o1, o2 in itertools.combinations(itertools.permutations(gs3.labels), 2):
        assert markov_equivalent(full_graph(gs3, list(o1)), full_graph(gs3, list(o2)))


def test_covered_arc_neighbors(gs2, gs3):
    g = dag(gs2, b="a")
    assert covered_arc_neighbors(g) == [dag(gs2, a="b")]
    assert covered_arc_neighbors(dag(gs3, c="ab")) == []
    assert covered_arc_neighbors(dag(gs3)) == []


def test_covered_reversals_stay_equivalent(gs4):
    for g in enumerate_dags(gs4):
        for h in covered_arc_neighbors(g):
            assert is_acyclic(gs4, h.parents)
            assert markov_equivalent(g, h)


def test_equivalence_class_examples(gs3):
    assert equivalence_class(dag(gs3)) == {dag(gs3)}
    full_class = equivalence_class(full_graph(gs3, ["a", "b", "c"]))
    assert len(full_class) == 6
    assert full_class == {full_graph(gs3, list(o)) for o in itertools.permutations(gs3.labels)}
    assert equivalence_class(dag(gs3, c="ab")) == {dag(gs3, c="ab")}


@pytest.mark.parametrize("n,count", [(2, 2), (3, 11), (4, 185)])
def test_class_counts(n, count):
    assert len(enumerate_equivalence_classes(GroundSet.alpha(n))) == count


@pytest.mark.parametrize("n, count", [(3, 25), (4, 543)])
def test_classes_partition_dags(n, count):
    classes = enumerate_equivalence_classes(GroundSet.alpha(n))
    assert sum(size for _, size in classes) == count
    reps = [rep.parents for rep, _ in classes]
    assert len(set(reps)) == len(reps)
    # representative is the least member of its class
    for rep, size in classes:
        members = equivalence_class(rep)
        assert len(members) == size
        assert rep == min(members)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_three_characterizations_agree(n):
    gs = GroundSet.alpha(n)
    dags = enumerate_dags(gs)

    def key_by_signature(g):
        return (g.adjacency_pairs(), immoralities(g))

    by_signature = {}
    for g in dags:
        by_signature.setdefault(key_by_signature(g), set()).add(g)
    by_char = {}
    for g in dags:
        by_char.setdefault(char_bits(g), set()).add(g)
    by_closure = {frozenset(m.parents for m in equivalence_class(rep))
                  for rep, _ in enumerate_equivalence_classes(gs)}

    sig_parts = {frozenset(m.parents for m in part) for part in by_signature.values()}
    char_parts = {frozenset(m.parents for m in part) for part in by_char.values()}
    assert sig_parts == char_parts == by_closure


def test_closure_predicate(gs3):
    fulls = equivalence_class(full_graph(gs3, ["a", "b", "c"]))
    assert is_closed_under_equivalence(fulls)
    assert not is_closed_under_equivalence([full_graph(gs3, ["a", "b", "c"])])


def test_dag_json_roundtrip(gs3):
    g = dag(gs3, c="ab", b="a")
    assert g.to_json() == {"a": "", "b": "a", "c": "ab"}
    assert Dag.from_json(g.to_json()) == g


def test_enumeration_refuses_six_nodes_without_starting(monkeypatch):
    def never(*_):
        raise AssertionError("the DAG generator must not be started")

    monkeypatch.setattr(dags_module, "_acyclic_parent_tuples", never)
    with pytest.raises(BudgetExceededError, match="there are 3781503 DAGs over 6 nodes"):
        enumerate_dags(GroundSet.alpha(6))
    with pytest.raises(BudgetExceededError):
        enumerate_equivalence_classes(GroundSet.alpha(6))


def product_filter(n):
    """Brute-force oracle: every parent map in the product, kept if acyclic."""
    full = (1 << n) - 1
    choices = [[B for B in range(full + 1) if not B >> a & 1] for a in range(n)]
    return [pm for pm in itertools.product(*choices) if dags_module._acyclic(pm, full)]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_source_peeling_matches_product_filter(n):
    assert dags_module._acyclic_parent_tuples(n) == product_filter(n)


def test_source_peeling_five_nodes():
    maps = dags_module._acyclic_parent_tuples(5)
    assert len(maps) == len(set(maps)) == 29281
    assert maps == sorted(maps)
    for pm in maps:
        assert all(not B >> a & 1 for a, B in enumerate(pm))
        assert dags_module._acyclic(pm, 0b11111)


def assert_same_as_checked(graph, gs):
    """A Dag built without the acyclicity check equals the checked one."""
    checked = Dag(gs, graph.parents)
    assert graph.gs is gs and type(graph.parents) is tuple
    assert graph == checked and hash(graph) == hash(checked)
    assert repr(graph) == repr(checked) and graph.to_json() == checked.to_json()


@pytest.mark.parametrize("n", [3, 4])
def test_enumerated_dags_equal_checked_ones(n):
    gs = GroundSet.alpha(n)
    for g in enumerate_dags(gs):
        assert_same_as_checked(g, gs)


def test_covered_arc_neighbors_equal_checked_ones(gs4):
    for g in enumerate_dags(gs4):
        for h in covered_arc_neighbors(g):
            assert_same_as_checked(h, gs4)


def test_checking_constructor_refuses_a_cycle_and_has_no_bypass(gs3):
    cyclic = (0b010, 0b001, 0)  # a <-> b
    with pytest.raises(BnPolyError, match="^parent map has a directed cycle$"):
        Dag(gs3, cyclic)
    with pytest.raises(TypeError):
        Dag(gs3, cyclic, check=False)


def test_robinson_recurrence():
    # OEIS A003024
    assert [dags_module._dag_count(n) for n in range(8)] == [
        1, 1, 3, 25, 543, 29281, 3781503, 1138779265,
    ]


@pytest.mark.parametrize(
    "call, error, message",
    [
        (
            lambda gs3: Dag.from_json({"a": "", "b": "", "d": ""}, gs3),
            BnPolyError,
            "graph nodes do not match the ground set",
        ),
        (
            lambda gs3: markov_equivalent(dag(gs3), dag(GroundSet(["x", "y", "z"]))),
            IndexFamilyMismatchError,
            "graphs live over different ground sets",
        ),
    ],
    ids=["nodes-not-the-ground-set", "markov-across-ground-sets"],
)
def test_dag_refusals(gs3, call, error, message):
    with pytest.raises(error) as info:
        call(gs3)
    assert str(info.value) == message
