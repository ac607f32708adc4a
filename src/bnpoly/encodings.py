"""The three vector encodings of a DAG and the maps between them.

* family-variable vector: 0/1 over family pairs, one 1 per nonempty parent set;
* characteristic imset: its image under a many-to-one linear map, constant
  exactly on Markov equivalence classes;
* standard imset: an integer set function affinely equivalent to the
  characteristic imset.

The linear map accepts arbitrary rational family vectors, not just DAG codes,
because fractional points get pushed through it as well.
"""

from __future__ import annotations

from fractions import Fraction

from .dags import Dag
from .ground import (
    CharVector,
    FamVector,
    SetFunction,
    ZERO,
    bit,
    enumerate_cai,
    iter_bits,
    submasks,
)


def fam_vector(graph: Dag) -> FamVector:
    """0/1 family-variable code of a DAG: coordinate (a, B) is 1 iff B is the
    (nonempty) parent set of a."""
    return FamVector(
        graph.gs,
        {(a, B): 1 for a, B in enumerate(graph.parents) if B},
    )


def char_from_fam(fam: FamVector) -> CharVector:
    """Characteristic image of a family vector:

        c(S) = sum over a in S of the fam mass on (a, B) with B >= S \\ {a},

    for every subset S of size >= 2.  Linear in the input."""
    gs = fam.gs
    acc: dict[int, Fraction] = {}
    for (a, B), value in fam.items():
        abit = bit(a)
        for K in submasks(B):
            if K:
                S = abit | K
                acc[S] = acc.get(S, ZERO) + value
    return CharVector(gs, acc)


def standard_imset(graph: Dag) -> SetFunction:
    """Integer-valued set function built from the parent sets:

        u = d_N - d_empty + sum over nodes a of (d_pa(a) - d_({a} u pa(a)))

    where d_A is the indicator of the subset A and multiplicities add up."""
    gs = graph.gs
    acc: dict[int, Fraction] = {gs.full_mask: Fraction(1), 0: Fraction(-1)}

    def bump(mask: int, delta: int) -> None:
        acc[mask] = acc.get(mask, ZERO) + delta

    for a, B in enumerate(graph.parents):
        bump(B, 1)
        bump(B | bit(a), -1)
    return SetFunction(gs, acc)


def char_from_standard(u: SetFunction) -> CharVector:
    """Inverse-direction affine map: c(T) = 1 - sum of u over supersets of T,
    for every T of size >= 2."""
    gs = u.gs
    support = list(u.items())
    coords = {}
    for T in enumerate_cai(gs):
        total = Fraction(1)
        for S, value in support:
            if S & T == T:
                total -= value
        coords[T] = total
    return CharVector(gs, coords)


def char_bits(graph: Dag, cai_order: list[int]) -> tuple[int, ...]:
    """Characteristic imset of a DAG as a 0/1 tuple over ``cai_order``.

    Uses the closed form for DAG codes: c(S) = 1 iff some a in S has all of
    S \\ {a} among its parents (at most one such node exists in a DAG)."""
    parents = graph.parents
    out = []
    for S in cai_order:
        hit = 0
        for a in iter_bits(S):
            if S & ~bit(a) & ~parents[a] == 0:
                hit = 1
                break
        out.append(hit)
    return tuple(out)
