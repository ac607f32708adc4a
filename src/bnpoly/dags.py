"""Acyclic directed graphs over a ground set.

A graph is stored as one parent mask per node.  Enumeration builds each
acyclic parent map once, as one Cartesian product per longest-path layering,
and sorts the result into lexicographic parent-map order; Markov equivalence is
available both through the adjacency + immorality characterization and
through breadth-first closure under covered-arc reversals, and the two are
cross-checked in the test suite.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from itertools import product
from math import comb

from .errors import BnPolyError, BudgetExceededError, IndexFamilyMismatchError
from .ground import GroundSet, bit, iter_bits, submasks


class Dag:
    """Acyclic directed graph: one parent mask per node.  Immutable by
    convention only: ``__slots__`` keep the one built per DAG small, and
    nothing refuses assignment."""

    __slots__ = ("gs", "parents")

    def __init__(self, gs: GroundSet, parents: Sequence[int]):
        parents = tuple(parents)
        if not is_acyclic(gs, parents):
            raise BnPolyError("parent map has a directed cycle")
        self.gs = gs
        self.parents = parents

    def arcs(self) -> list[tuple[int, int]]:
        """All arcs as (parent, child) index pairs, child-major order."""
        return [(a, b) for b in range(self.gs.n) for a in iter_bits(self.parents[b])]

    def adjacency_pairs(self) -> frozenset[tuple[int, int]]:
        """Unordered adjacent pairs, each as a sorted index tuple."""
        return frozenset(
            (a, b) if a < b else (b, a) for a, b in self.arcs()
        )

    def __eq__(self, other) -> bool:
        return isinstance(other, Dag) and self.gs == other.gs and self.parents == other.parents

    def __hash__(self) -> int:
        return hash((self.gs.labels, self.parents))

    def __lt__(self, other) -> bool:
        return self.parents < other.parents

    def __repr__(self) -> str:
        pieces = ", ".join(
            f"{self.gs.labels[a]}<-{{{self.gs.letters(B)}}}" for a, B in enumerate(self.parents)
        )
        return f"Dag({pieces})"

    def to_json(self) -> dict[str, str]:
        return {self.gs.labels[a]: self.gs.letters(B) for a, B in enumerate(self.parents)}

    @classmethod
    def from_json(cls, obj: dict[str, str], gs: GroundSet | None = None) -> "Dag":
        if not isinstance(obj, dict) or not all(isinstance(v, str) for v in obj.values()):
            raise BnPolyError(f"a DAG must be a JSON object of parent letters, got {obj!r}")
        if gs is None:
            gs = GroundSet(obj.keys())
        elif set(obj.keys()) != set(gs.labels):
            raise BnPolyError("graph nodes do not match the ground set")
        parents = [0] * gs.n
        for node, parent_text in obj.items():
            parents[gs.index(node)] = gs.mask_of(parent_text)
        return cls(gs, parents)


def _acyclic(parents: Sequence[int], full_mask: int) -> bool:
    # Kahn's algorithm on masks: repeatedly delete nodes with no remaining parents.
    remaining = full_mask
    progressed = True
    while remaining and progressed:
        progressed = False
        for a in iter_bits(remaining):
            if not parents[a] & remaining:
                remaining ^= bit(a)
                progressed = True
    return remaining == 0


def is_acyclic(gs: GroundSet, parents: Sequence[int]) -> bool:
    """Whether the parent map admits a consonant total order."""
    parents = tuple(parents)
    if len(parents) != gs.n:
        raise BnPolyError("need one parent set per node")
    for a, B in enumerate(parents):
        gs.check_mask(B)
        if B & bit(a):
            raise BnPolyError(f"node {gs.labels[a]} cannot be its own parent")
    return _acyclic(parents, gs.full_mask)


# At n = 6 the 3 781 503 Dag objects alone would take about 0.6 GB (about
# 150 bytes each), before any Markov-class or polytope work.
MAX_ENUMERATION_NODES = 5


def _dag_count(n: int) -> int:
    """Number of labelled DAGs on n nodes, by Robinson's recurrence: sum over
    the k >= 1 sources of (-1)^(k+1) C(n, k) 2^(k(n-k)) a(n-k)."""
    counts = [1]
    for m in range(1, n + 1):
        counts.append(sum(
            (-1) ** (k + 1) * comb(m, k) * 2 ** (k * (m - k)) * counts[m - k]
            for k in range(1, m + 1)
        ))
    return counts[n]


def _acyclic_parent_tuples(n: int) -> list[tuple[int, ...]]:
    """Every acyclic parent map over n nodes once, in lexicographic order,
    as one Cartesian product per longest-path layering.

    Every DAG has exactly one layering by longest-path depth (Robinson 1973):
    layer 0 is its nonempty set of sources, and each node of layer t >= 1 has
    a parent set inside layers < t that meets layer t - 1.  Walking the
    ordered set partitions of the nodes fixes one choice list per node, and
    the DAGs of that layering are the product of those lists."""
    full = (1 << n) - 1
    out: list[tuple[int, ...]] = []
    # Lists, not tuples: the hundreds of short-lived choice tuples would stay
    # in the interpreter's tuple free lists and raise the peak memory.
    choices: list[list[int]] = [[0]] * n

    def extend(placed: int, last: int) -> None:
        if placed == full:
            out.extend(product(*choices))
            return
        options = [P for P in submasks(placed) if P & last]
        for layer in submasks(full & ~placed):
            if layer:
                for a in iter_bits(layer):
                    choices[a] = options
                extend(placed | layer, layer)

    for sources in submasks(full):
        if sources:
            for a in iter_bits(sources):
                choices[a] = [0]
            extend(sources, sources)
    out.sort()
    return out


def _trusted_dag(gs: GroundSet, parents: tuple[int, ...]) -> Dag:
    """A Dag over a parent tuple already known to be acyclic, unchecked."""
    graph = object.__new__(Dag)
    graph.gs = gs
    graph.parents = parents
    return graph


def enumerate_dags(gs: GroundSet) -> list[Dag]:
    """Every acyclic parent map exactly once, in lexicographic parent-map
    order, generated as one Cartesian product per longest-path layering.
    Exhaustive enumeration; refused with BudgetExceededError for
    n > MAX_ENUMERATION_NODES before any work starts."""
    if gs.n > MAX_ENUMERATION_NODES:
        raise BudgetExceededError(
            f"there are {_dag_count(gs.n)} DAGs over {gs.n} nodes;"
            f" exhaustive enumeration stops at n = {MAX_ENUMERATION_NODES}"
        )
    return [_trusted_dag(gs, pm) for pm in _acyclic_parent_tuples(gs.n)]


def immoralities(graph: Dag) -> frozenset[tuple[tuple[int, int], int]]:
    """All induced a -> c <- b with a, b non-adjacent, as ((a, b), c) with a < b."""
    adjacent = graph.adjacency_pairs()
    found = set()
    for c in range(graph.gs.n):
        pa = graph.parents[c]
        nodes = list(iter_bits(pa))
        for i, a in enumerate(nodes):
            for b in nodes[i + 1:]:
                if (a, b) not in adjacent:
                    found.add(((a, b), c))
    return frozenset(found)


def markov_equivalent(g: Dag, h: Dag) -> bool:
    """Same adjacencies and same immoralities."""
    if g.gs != h.gs:
        raise IndexFamilyMismatchError("graphs live over different ground sets")
    return g.adjacency_pairs() == h.adjacency_pairs() and immoralities(g) == immoralities(h)


def covered_arc_neighbors(graph: Dag) -> list[Dag]:
    """One graph per covered arc a -> b (pa(b) = {a} u pa(a)), obtained by
    reversing that arc; every output is Markov equivalent to the input."""
    out = []
    for b in range(graph.gs.n):
        for a in iter_bits(graph.parents[b]):
            if graph.parents[b] == graph.parents[a] | bit(a):
                parents = list(graph.parents)
                parents[b] = graph.parents[a]
                parents[a] = graph.parents[a] | bit(b)
                out.append(_trusted_dag(graph.gs, tuple(parents)))
    return out


def equivalence_class(graph: Dag) -> set[Dag]:
    """Closure of the graph under covered-arc reversals."""
    seen = {graph}
    stack = [graph]
    while stack:
        g = stack.pop()
        for h in covered_arc_neighbors(g):
            if h not in seen:
                seen.add(h)
                stack.append(h)
    return seen


def enumerate_equivalence_classes(gs: GroundSet) -> list[tuple[Dag, int]]:
    """Partition of all DAGs into Markov equivalence classes, each reported
    as (lexicographically least member, class size), in order of the first
    member encountered by :func:`enumerate_dags`.  That order is the
    lexicographic parent-map order, so the first member met of a class is
    its least: a smaller one would have been met earlier and marked the
    class seen."""
    seen: set[tuple[int, ...]] = set()
    classes = []
    for g in enumerate_dags(gs):
        if g.parents in seen:
            continue
        members = equivalence_class(g)
        seen.update(m.parents for m in members)
        classes.append((g, len(members)))
    return classes


def is_closed_under_equivalence(graphs: Iterable[Dag]) -> bool:
    """Whether the set contains the whole Markov equivalence class of each member."""
    graphs = set(graphs)
    for g in graphs:
        if not equivalence_class(g) <= graphs:
            return False
    return True
