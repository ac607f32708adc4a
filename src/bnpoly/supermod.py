"""Standardized supermodular set functions and their combinatorics.

A set function is standardized when it vanishes on sets of size <= 1 and
supermodular when every elementary difference

    delta(a, b : Z) = m({a,b} u Z) + m(Z) - m({a} u Z) - m({b} u Z)

is nonnegative.  Such functions form a pointed polyhedral cone; a nonzero
member is extreme when the tight elementary differences pin it down up to
scale.  The module also covers the core polytope (greedy marginal vectors),
the duality transform onto submodular rank-like functions, matroid rank
checks, and the cluster family max(0, |S n C| - k).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations
from math import comb, factorial

from .errors import BnPolyError, BudgetExceededError, NotSupermodularError
from .ground import (
    GroundSet,
    SetFunction,
    bit,
    enumerate_cai,
    iter_bits,
    submasks,
)
from . import linalg


def delta(m: SetFunction, a: int, b: int, Z: int) -> Fraction:
    """Elementary supermodularity difference at nodes a != b and Z disjoint
    from both."""
    if a == b:
        raise BnPolyError("need two distinct nodes")
    ab = bit(a) | bit(b)
    m.gs.check_mask(Z)
    if Z & ab:
        raise BnPolyError("conditioning set overlaps the node pair")
    return m[ab | Z] + m[Z] - m[bit(a) | Z] - m[bit(b) | Z]


def elementary_triplets(gs: GroundSet):
    """All (a, b, Z) with a < b and Z disjoint from both."""
    for a in range(gs.n):
        for b in range(a + 1, gs.n):
            rest = gs.full_mask & ~bit(a) & ~bit(b)
            for Z in submasks(rest):
                yield a, b, Z


def is_standardized(m: SetFunction) -> bool:
    return all(mask.bit_count() >= 2 for mask in m.support())


def is_supermodular(m: SetFunction) -> bool:
    """All elementary differences nonnegative."""
    return all(delta(m, a, b, Z) >= 0 for a, b, Z in elementary_triplets(m.gs))


def _require_standardized_supermodular(m: SetFunction) -> None:
    if not is_standardized(m):
        raise NotSupermodularError("set function is not standardized")
    if not is_supermodular(m):
        raise NotSupermodularError("set function is not supermodular")


# One dense row over all 2^n masks per tight difference, up to
# C(n, 2) * 2^(n - 2) of them.  For the cluster function of {a, b} at level 1
# this took 0.6 s and 34 MB at n = 9 and 2.7 s and 112 MB at n = 10 on a
# 2-vCPU host; each further node doubles the row width and more than doubles
# the row count.
MAX_EXTREME_NODES = 10


def is_extreme(m: SetFunction) -> bool:
    """Whether a nonzero standardized supermodular function spans an extreme
    ray of the cone: the space of standardized functions vanishing on all of
    m's tight elementary differences must be one-dimensional.  ``m`` may be
    a CharVector, which reads 0 on sets of size <= 1.  Refused with
    BudgetExceededError for n > MAX_EXTREME_NODES before any work starts.

    m is read once, as an integer row over all 2^n masks, and one pass over
    the elementary differences refuses the first negative one and collects
    the tight ones."""
    gs = m.gs
    if gs.n > MAX_EXTREME_NODES:
        raise BudgetExceededError(
            f"the extremality test reads {comb(gs.n, 2) << (gs.n - 2)} elementary differences"
            f" over {gs.n} nodes; it stops at n = {MAX_EXTREME_NODES}"
        )
    if not m:
        raise NotSupermodularError("the zero function spans no ray")
    if not is_standardized(m):
        raise NotSupermodularError("set function is not standardized")
    ms, _ = linalg.integer_row([m[S] for S in range(gs.full_mask + 1)])
    rows = []
    for a, b, Z in elementary_triplets(gs):
        aZ, bZ = bit(a) | Z, bit(b) | Z
        d = ms[aZ | bZ] + ms[Z] - ms[aZ] - ms[bZ]
        if d < 0:
            raise NotSupermodularError("set function is not supermodular")
        if d == 0:
            row = [0] * (1 << gs.n)  # over all masks; size <= 1 columns stay 0
            row[aZ | bZ] = 1
            if Z.bit_count() >= 2:
                row[Z] = 1
            if Z:
                row[aZ] = -1
                row[bZ] = -1
            rows.append(row)
    return len(enumerate_cai(gs)) - linalg.rank(rows) == 1


# The greedy walk visits all n! node orders whatever m is.  The worst case is
# m(S) = C(|S|, 2), whose n! greedy vectors are all distinct: 0.15-0.24 s at
# n = 7 and 1.5-2.9 s (40 320 vertices) at n = 8 on a 2-vCPU host.
MAX_CORE_NODES = 8


def core_vertices(m: SetFunction) -> list[tuple[Fraction, ...]]:
    """Vertices of the core polytope of a standardized supermodular function:
    the distinct greedy marginal vectors over all node orders, each checked
    against the defining constraints.  Refused with BudgetExceededError for
    n > MAX_CORE_NODES before any work starts."""
    gs = m.gs
    if gs.n > MAX_CORE_NODES:
        raise BudgetExceededError(
            f"the core walk visits {factorial(gs.n)} node orders over {gs.n} nodes;"
            f" it stops at n = {MAX_CORE_NODES}"
        )
    _require_standardized_supermodular(m)
    full = gs.full_mask
    # m, and so every greedy vector, in integers: times the lcm of the
    # denominators of m's values.
    ms, scale = linalg.integer_row([m[S] for S in range(full + 1)])
    seen = set()
    for order in permutations(range(gs.n)):
        v = [0] * gs.n
        acc = 0
        for a in order:
            upper = acc | bit(a)
            v[a] = ms[upper] - ms[acc]
            acc = upper
        seen.add(tuple(v))
    # Subset sums by the recurrence sum(S) = sum(S - low(S)) + v[low(S)].
    steps = [(S & (S - 1), (S & -S).bit_length() - 1, ms[S]) for S in range(1, full + 1)]
    for v in seen:
        if sum(v) != ms[full]:
            raise BnPolyError("greedy vector misses the total mass")
        sums = [0]
        for rest, a, bound in steps:
            t = sums[rest] + v[a]
            if t < bound:
                raise BnPolyError("greedy vector violates a core constraint")
            sums.append(t)
    return [tuple(Fraction(x, scale) for x in v) for v in sorted(seen)]


def duality_transform(m: SetFunction) -> SetFunction:
    """r(T) = m(N) - m(N \\ T); maps standardized supermodular functions onto
    submodular functions with r(empty) = 0 and r(N) = r(N \\ {a}) for all a,
    and is self-inverse on that pair of cones."""
    gs = m.gs
    full = gs.full_mask
    top = m[full]
    values = {}
    for T in range(full + 1):
        v = top - m[full & ~T]
        if v:
            values[T] = v
    return SetFunction(gs, values)


def is_matroid_rank(r: SetFunction, ground: int) -> bool:
    """Rank axioms on the power set of ``ground``: r(empty) = 0, unit
    increments, and submodularity."""
    gs = r.gs
    gs.check_mask(ground)
    for S in submasks(ground):
        if r[S].denominator != 1:
            raise BnPolyError("rank function must be integer-valued")
    if r[0] != 0:
        return False
    for S in submasks(ground):
        for x in iter_bits(ground & ~S):
            step = r[S | bit(x)] - r[S]
            if step < 0 or step > 1:
                return False
    return all(
        delta(r, a, b, Z) <= 0
        for a, b, Z in elementary_triplets(gs)
        if not (bit(a) | bit(b) | Z) & ~ground
    )


def is_connected_matroid(r: SetFunction, ground: int) -> bool:
    """No proper nonempty split S with r(ground) = r(S) + r(ground \\ S)."""
    if not is_matroid_rank(r, ground):
        raise BnPolyError("not a matroid rank function on the given ground set")
    total = r[ground]
    for S in submasks(ground):
        if S == 0 or S == ground:
            continue
        if r[S] + r[ground & ~S] == total:
            return False
    return True


def cluster_supermodular(gs: GroundSet, C: int, k: int) -> SetFunction:
    """The cluster function S -> max(0, |S n C| - k) for |C| >= 2 and
    1 <= k <= |C| - 1; standardized, supermodular and extreme."""
    check_cluster(gs, C, k)
    values = {}
    for S in range(gs.full_mask + 1):
        excess = (S & C).bit_count() - k
        if excess > 0:
            values[S] = Fraction(excess)
    return SetFunction(gs, values)


def check_cluster(gs: GroundSet, C: int, k: int) -> None:
    """Refuse a cluster C with fewer than two nodes or a level k outside
    1 <= k <= |C| - 1."""
    gs.check_mask(C)
    size = C.bit_count()
    if size < 2:
        raise BnPolyError("cluster needs at least two nodes")
    if not 1 <= k <= size - 1:
        raise BnPolyError(f"level k={k} out of range for a cluster of size {size}")


def cluster_pairs(gs: GroundSet) -> list[tuple[int, int]]:
    """All (cluster mask, level) pairs, by cluster size, mask, then level."""
    out = []
    for C in enumerate_cai(gs):
        out.extend((C, k) for k in range(1, C.bit_count()))
    return out
