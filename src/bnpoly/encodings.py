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
    bit,
    enumerate_cai,
    submasks,
    subset_sums,
)
from .linalg import integer_row


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

    for every subset S of size >= 2.  Linear in the input; the sums run over
    the integer numerators at one common denominator."""
    gs = fam.gs
    ints, scale = integer_row([v for _, v in fam.items()])
    acc = [0] * (1 << gs.n)
    for (a, B), value in zip(fam.support(), ints):
        abit = bit(a)
        for K in submasks(B):
            acc[abit | K] += value
    return CharVector(gs, [(S, Fraction(acc[S], scale)) for S in enumerate_cai(gs) if acc[S]])


def standard_imset(graph: Dag) -> SetFunction:
    """Integer-valued set function built from the parent sets:

        u = d_N - d_empty + sum over nodes a of (d_pa(a) - d_({a} u pa(a)))

    where d_A is the indicator of the subset A and multiplicities add up."""
    gs = graph.gs
    acc = [0] * (1 << gs.n)
    acc[gs.full_mask], acc[0] = 1, -1
    for a, B in enumerate(graph.parents):
        acc[B] += 1
        acc[B | bit(a)] -= 1
    return SetFunction(gs, [(S, v) for S, v in enumerate(acc) if v])


def char_from_standard(u: SetFunction) -> CharVector:
    """Inverse-direction affine map: c(T) = 1 - sum of u over supersets of T,
    for every T of size >= 2.  The superset sums at T are the subset sums of
    S -> u(N \\ S) at N \\ T, taken over the integer numerators at one
    common denominator."""
    gs = u.gs
    full = gs.full_mask
    ints, scale = integer_row([u[full ^ S] for S in range(full + 1)])
    sums = subset_sums(ints)
    return CharVector(gs, [(T, Fraction(scale - sums[full ^ T], scale)) for T in enumerate_cai(gs)])


def char_bits(graph: Dag) -> tuple[int, ...]:
    """Characteristic imset of a DAG as a 0/1 tuple over ``enumerate_cai``.

    Uses the closed form for DAG codes: c(S) = 1 iff S = {a} u K for some node
    a and nonempty K <= pa(a), so the imset is the bit word with those bits
    set (the K = 0 bits fall on single nodes, outside the index)."""
    word = 0
    for a, B in enumerate(graph.parents):
        abit = bit(a)
        for K in submasks(B):
            word |= 1 << (abit | K)
    return tuple([word >> S & 1 for S in enumerate_cai(graph.gs)])
