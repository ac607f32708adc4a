"""Score-equivalent objectives over family variables.

An objective is score equivalent (SE) when it takes the same value on the
codes of any two Markov equivalent DAGs.  The SE subspace is cut out by the
exchange identities

    obj(b : {a} u Z) + obj(a : Z) = obj(a : {b} u Z) + obj(b : Z)

and is parametrized by vectors m over subsets of size >= 2 through

    obj(a : B) = m({a} u B) - m(B).

The paper's correspondence links an SE objective, its standardized set
function m and its characteristic-imset objective z one to one.  Four
primitive maps make up those links:

    objective_from_setfn / setfn_from_objective    obj <-> m
    moebius_down / moebius_up                      m   <-> z

m and z are a Moebius pair: m is the zeta transform of z and z the Moebius
transform of m, each one ``ground.subset_sums`` over the values by mask.
The two composites are stated through them only:

    char_objective(obj)       = moebius_down(setfn_from_objective(obj))
    ineq.fam_from_char_ineq   : objective_from_setfn(moebius_up(z))

The module also holds the membership test and an exact-LP decision
procedure for whether a set of DAGs is an SE face of the family-variable
polytope.  An SE objective takes one value on a Markov equivalence class, so
that LP has one row per class (and per side of the set), not one per DAG.
"""

from __future__ import annotations

from collections.abc import Iterable

from .dags import Dag, enumerate_dags
from .errors import (
    BnPolyError,
    BudgetExceededError,
    IndexFamilyMismatchError,
    NotScoreEquivalentError,
)
from .ground import (
    CharVector,
    FamVector,
    GroundSet,
    bit,
    enumerate_cai,
    enumerate_family_indices,
    subset_sums,
)
from .simplex import solve_lp
from .supermod import elementary_triplets


def is_se_objective(obj: FamVector) -> bool:
    """Check every exchange identity; the empty-parent terms are supplied by
    the extension convention (they read as 0)."""
    return all(
        obj[(b, bit(a) | Z)] + obj[(a, Z)] == obj[(a, bit(b) | Z)] + obj[(b, Z)]
        for a, b, Z in elementary_triplets(obj.gs)
    )


def objective_from_setfn(m: CharVector) -> FamVector:
    """The SE objective parametrized by m: obj(a : B) = m({a} u B) - m(B)."""
    coords = {}
    for a, B in enumerate_family_indices(m.gs):
        value = m[bit(a) | B] - m[B]
        if value:
            coords[(a, B)] = value
    return FamVector(m.gs, coords)


def setfn_from_objective(obj: FamVector) -> CharVector:
    """Invert the parametrization by the inductive recipe
    m({a, b}) = obj(b : {a}),  m(D) = obj(b : D \\ {b}) + m(D \\ {b})."""
    if not is_se_objective(obj):
        raise NotScoreEquivalentError("objective violates an exchange identity")
    gs = obj.gs
    cai = enumerate_cai(gs)
    values = [0] * (1 << gs.n)
    for D in cai:  # ascending cardinality
        low = D & -D
        values[D] = obj[(low.bit_length() - 1, D ^ low)] + values[D ^ low]
    return CharVector(gs, [(D, values[D]) for D in cai if values[D]])


def moebius_down(m: CharVector) -> CharVector:
    """z(T) = sum over L <= T, |L| >= 2 of (-1)^(|T \\ L|) m(L), the Moebius transform."""
    values = subset_sums([m[S] for S in range(1 << m.gs.n)], -1)
    return CharVector(m.gs, [(T, values[T]) for T in enumerate_cai(m.gs) if values[T]])


def moebius_up(z: CharVector) -> CharVector:
    """m(S) = sum over T <= S, |T| >= 2 of z(T), the zeta transform; inverse of moebius_down."""
    values = subset_sums([z[T] for T in range(1 << z.gs.n)])
    return CharVector(z.gs, [(S, values[S]) for S in enumerate_cai(z.gs) if values[S]])


def char_objective(obj: FamVector) -> CharVector:
    """Characteristic-imset coordinates z of an SE objective, the Moebius
    inversion of its standardized set function; the result satisfies
    <obj, x> = <z, char_image(x)> for every family vector x."""
    return moebius_down(setfn_from_objective(obj))


def _setfn_row(graph: Dag, cai: list[int]) -> tuple[int, ...]:
    """Coefficients g with <obj_m, fam_G> = <m, g> for the parametrized
    objective, read at the masks of ``cai``: g(S) counts nodes with
    {a} u pa(a) = S minus nodes with pa(a) = S.  On the masks of size >= 2,
    g = delta_N - u_G for the standard imset u_G, so <obj_m, fam_G> =
    m(N) - <m, u_G>; delta_N is common to every DAG, so two DAGs share a
    row exactly when they are Markov equivalent."""
    row = [0] * (1 << graph.gs.n)
    for a, B in enumerate(graph.parents):
        row[B | bit(a)] += 1
        row[B] -= 1
    return tuple([row[S] for S in cai])


# The face LP has a row per Markov class, 8782 at n = 5, but is built from
# all 29281 DAGs there; the limit stays at 4 until n = 5 is measured under a
# Budget.
MAX_SE_FACE_NODES = 4


def is_se_face(graphs: Iterable[Dag]) -> tuple[bool, FamVector | None]:
    """Decide whether the given nonempty set of DAGs is exactly the tight set
    of some valid SE inequality over the family-variable polytope; refused
    up front with IndexFamilyMismatchError when the graphs live over
    different ground sets and with BudgetExceededError above
    MAX_SE_FACE_NODES nodes.  The set is read as a bitmask over the DAGs of
    its ground set, in enumeration order, and decided by ``_se_face_lp``."""
    graphs = list(graphs)
    if not graphs:
        raise BnPolyError("need a nonempty set of graphs")
    gs = graphs[0].gs
    if any(g.gs != gs for g in graphs):
        raise IndexFamilyMismatchError("graphs live over different ground sets")
    if gs.n > MAX_SE_FACE_NODES:
        raise BudgetExceededError(
            f"the face LP has a row per Markov class over {gs.n} nodes;"
            f" it stops at n = {MAX_SE_FACE_NODES}"
        )
    face_keys = {g.parents for g in graphs}
    dags = enumerate_dags(gs)
    cai = enumerate_cai(gs)
    face = sum(1 << i for i, g in enumerate(dags) if g.parents in face_keys)
    return _se_face_lp(gs, [_setfn_row(g, cai) for g in dags], face)


def _se_face_lp(
    gs: GroundSet, rows: list[tuple[int, ...]], face: int
) -> tuple[bool, FamVector | None]:
    """Decide whether the DAGs at the bits of ``face`` make an SE face, where
    ``rows`` holds the ``_setfn_row`` of every DAG over ``gs`` in
    enumeration order.

    Decided by an exact margin-maximization LP over the parametrizing vector
    m (boxed to |m(S)| <= 1 to prevent unbounded scaling), the shared value u
    and the margin t:  equality on the set, value <= u - t outside, maximize
    t.  An SE objective takes one value on a Markov class, so the LP has one
    row per distinct (class row, in the set) pair, placed at its first DAG;
    a set that splits a class keeps both rows of that class and gets t <= 0.
    The set is an SE face iff the optimum satisfies t > 0; a witness
    objective is returned on success.
    """
    if face == (1 << len(rows)) - 1:
        # The whole polytope is a face of itself, with the zero SE objective.
        return True, FamVector(gs, {})

    cai = enumerate_cai(gs)
    d = len(cai)
    # Variables: m_0 .. m_{d-1}, u, t.
    nvars = d + 2
    A_eq, b_eq, A_ub, b_ub = [], [], [], []
    for row, in_face in dict.fromkeys((row, face >> i & 1) for i, row in enumerate(rows)):
        if in_face:
            A_eq.append([*row, -1, 0])
            b_eq.append(0)
        else:
            A_ub.append([*row, -1, 1])
            b_ub.append(0)
    for i in range(d):  # |m_i| <= 1
        for sign in (1, -1):
            row = [0] * nvars
            row[i] = sign
            A_ub.append(row)
            b_ub.append(1)
    row = [0] * nvars  # t >= 0
    row[-1] = -1
    A_ub.append(row)
    b_ub.append(0)

    c = [0] * nvars
    c[-1] = 1
    result = solve_lp(c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq)
    if result.status != "optimal":
        raise BnPolyError(f"face LP ended with status {result.status}")
    if result.objective <= 0:
        return False, None
    m = CharVector(gs, zip(cai, result.x[:d]))
    return True, objective_from_setfn(m)
