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

and the two composites are stated through them only:

    char_objective(obj)       = moebius_down(setfn_from_objective(obj))
    ineq.fam_from_char_ineq   : objective_from_setfn(moebius_up(z))

The module also holds the membership test and an exact-LP decision
procedure for whether a set of DAGs is an SE face of the family-variable
polytope.
"""

from __future__ import annotations

from collections.abc import Iterable
from fractions import Fraction

from .dags import Dag, enumerate_dags
from .errors import BnPolyError, BudgetExceededError, NotScoreEquivalentError
from .ground import (
    CharVector,
    FamVector,
    ZERO,
    bit,
    enumerate_cai,
    enumerate_family_indices,
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
    values: dict[int, Fraction] = {}
    for D in enumerate_cai(gs):  # ascending cardinality
        b = (D & -D).bit_length() - 1
        rest = D & ~bit(b)
        v = obj[(b, rest)] + values.get(rest, ZERO)
        if v:
            values[D] = v
    return CharVector(gs, values)


def moebius_down(m: CharVector) -> CharVector:
    """z(T) = sum over L <= T, |L| >= 2 of (-1)^(|T \\ L|) m(L)."""
    gs = m.gs
    coords = {}
    for T in enumerate_cai(gs):
        tsize = T.bit_count()
        total = ZERO
        for L, value in m.items():
            if L & T == L:
                total += value if (tsize - L.bit_count()) % 2 == 0 else -value
        if total:
            coords[T] = total
    return CharVector(gs, coords)


def moebius_up(z: CharVector) -> CharVector:
    """m(S) = sum over T <= S, |T| >= 2 of z(T); inverse of moebius_down."""
    gs = z.gs
    coords = {}
    for S in enumerate_cai(gs):
        total = ZERO
        for T, value in z.items():
            if T & S == T:
                total += value
        if total:
            coords[S] = total
    return CharVector(gs, coords)


def char_objective(obj: FamVector) -> CharVector:
    """Characteristic-imset coordinates z of an SE objective, the Moebius
    inversion of its standardized set function; the result satisfies
    <obj, x> = <z, char_image(x)> for every family vector x."""
    return moebius_down(setfn_from_objective(obj))


def _setfn_row(graph: Dag, cai_order: list[int]) -> list[int]:
    """Coefficients g with <obj_m, fam_G> = <m, g> for the parametrized
    objective: g(S) counts nodes with {a} u pa(a) = S minus nodes with
    pa(a) = S, over subsets of size >= 2."""
    index = {mask: i for i, mask in enumerate(cai_order)}
    row = [0] * len(cai_order)
    for a, B in enumerate(graph.parents):
        if B:
            up = B | bit(a)
            row[index[up]] += 1
            if B.bit_count() >= 2:
                row[index[B]] -= 1
    return row


# The face LP has a row per DAG: 29281 at n = 5, still running after 60 s.
MAX_SE_FACE_NODES = 4


def is_se_face(
    graphs: Iterable[Dag], all_dags: list[Dag] | None = None
) -> tuple[bool, FamVector | None]:
    """Decide whether the given nonempty set of DAGs is exactly the tight set
    of some valid SE inequality over the family-variable polytope; refused
    with BudgetExceededError above MAX_SE_FACE_NODES nodes, up front.

    Decided by an exact margin-maximization LP over the parametrizing vector
    m (boxed to |m(S)| <= 1 to prevent unbounded scaling), the shared value u
    and the margin t:  equality on the set, value <= u - t outside, maximize
    t.  The set is an SE face iff the optimum satisfies t > 0; a witness
    objective is returned on success.
    """
    graphs = list(graphs)
    if not graphs:
        raise BnPolyError("need a nonempty set of graphs")
    gs = graphs[0].gs
    if gs.n > MAX_SE_FACE_NODES:
        raise BudgetExceededError(
            f"the face LP has a row per DAG over {gs.n} nodes;"
            f" it stops at n = {MAX_SE_FACE_NODES}"
        )
    if all_dags is None:
        all_dags = enumerate_dags(gs)
    universe = {g.parents for g in all_dags}
    face_keys = set()
    for g in graphs:
        if g.parents not in universe:
            raise BnPolyError("graph set is not a subset of the DAG enumeration")
        face_keys.add(g.parents)

    if len(face_keys) == len(universe):
        # The whole polytope is a face of itself, with the zero SE objective.
        return True, FamVector(gs, {})

    cai_order = enumerate_cai(gs)
    d = len(cai_order)
    # Variables: m_0 .. m_{d-1}, u, t.
    nvars = d + 2
    A_eq, b_eq, A_ub, b_ub = [], [], [], []
    for g in all_dags:
        row = _setfn_row(g, cai_order)
        if g.parents in face_keys:
            A_eq.append(row + [-1, 0])
            b_eq.append(0)
        else:
            A_ub.append(row + [-1, 1])
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
    m = CharVector(gs, dict(zip(cai_order, result.x[:d])))
    return True, objective_from_setfn(m)
