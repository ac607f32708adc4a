"""Exact rational polyhedral computations over the two coordinate spaces.

Polytopes appear either as vertex lists (:class:`VRep`) or as inequality +
equation systems (:class:`HRep`), both convertible through the double
description machinery in :mod:`bnpoly.dd`.  Facet enumeration lifts each
point v to the constraint (1, -v) on candidate inequality vectors (u, c) and
reads the facets off the extreme rays of that cone; vertex enumeration
homogenizes the constraints and scales the rays with positive leading
coordinate back to points.  Linear programs run on the exact simplex.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction

from .dags import Dag, enumerate_dags
from .dd import Budget, extreme_rays
from .encodings import char_bits
from .errors import (
    BnPolyError,
    InfeasibleError,
    InvalidInequalityError,
    UnboundedError,
)
from .ground import (
    CharVector,
    FamVector,
    FrozenRecord,
    GroundSet,
    as_fraction,
    enumerate_cai,
    enumerate_family_indices,
)
from .ineq import LinearInequality
from .linalg import affine_rank, integer_row
from .simplex import solve_lp


def ambient_index(gs: GroundSet, space: str) -> list:
    if space == "fam":
        return enumerate_family_indices(gs)
    if space == "char":
        return enumerate_cai(gs)
    raise BnPolyError(f"unknown coordinate space {space!r}")


def vector_to_dense(vec: FamVector | CharVector, index: Sequence) -> tuple:
    return tuple(vec[key] for key in index)


def dense_to_vector(gs: GroundSet, space: str, index: Sequence, values: Sequence):
    cls = FamVector if space == "fam" else CharVector
    return cls(gs, {k: v for k, v in zip(index, values) if v})


class VRep(FrozenRecord):
    """Polytope as a list of distinct rational points in fam or char space."""

    _fields = ("space", "gs", "points")

    def __init__(self, space: str, gs: GroundSet, points: tuple[tuple, ...]):
        if len(set(points)) != len(points):
            raise BnPolyError("V-representation points must be distinct")
        width = len(ambient_index(gs, space))
        if any(len(p) != width for p in points):
            raise BnPolyError("point width does not match the ambient index family")
        self.__dict__.update(space=space, gs=gs, points=points)

    @property
    def index(self) -> list:
        return ambient_index(self.gs, self.space)

    def vectors(self):
        index = self.index
        return [dense_to_vector(self.gs, self.space, index, p) for p in self.points]


class HRep(FrozenRecord):
    """Polyhedron as valid inequalities plus affine-hull equations."""

    _fields = ("space", "gs", "inequalities", "equations")

    def __init__(
        self,
        space: str,
        gs: GroundSet,
        inequalities: tuple[LinearInequality, ...],
        equations: tuple[tuple, ...] = (),  # (objective vector, rhs) pairs
    ):
        for ineq in inequalities:
            if ineq.space != space or ineq.gs != gs:
                raise BnPolyError("inequality does not match the H-representation space")
        self.__dict__.update(space=space, gs=gs, inequalities=inequalities, equations=equations)

    @property
    def index(self) -> list:
        return ambient_index(self.gs, self.space)

    def matrix(self) -> tuple[list[tuple], list, list[tuple], list]:
        """Dense ``(A_ub, b_ub, A_eq, b_eq)`` over the ambient index, so the
        polyhedron is {x : A_ub x <= b_ub, A_eq x = b_eq}."""
        index = self.index
        A_ub = [vector_to_dense(q.objective, index) for q in self.inequalities]
        b_ub = [q.bound for q in self.inequalities]
        A_eq = [vector_to_dense(vec, index) for vec, _ in self.equations]
        b_eq = [rhs for _, rhs in self.equations]
        return A_ub, b_ub, A_eq, b_eq


def dag_codes(gs: GroundSet, graphs: Sequence[Dag]) -> tuple[tuple[int, ...], ...]:
    """Dense 0/1 family-variable codes of the graphs over the family index."""
    pos = {key: i for i, key in enumerate(enumerate_family_indices(gs))}
    points = []
    for g in graphs:
        row = [0] * len(pos)
        for a, B in enumerate(g.parents):
            if B:
                row[pos[(a, B)]] = 1
        points.append(tuple(row))
    return tuple(points)


def fvp_vrep(gs: GroundSet) -> VRep:
    """Vertex representation of the family-variable polytope: all DAG codes."""
    return VRep("fam", gs, dag_codes(gs, enumerate_dags(gs)))


def cip_vrep(gs: GroundSet) -> VRep:
    """Vertex representation of the characteristic-imset polytope: one 0/1
    point per Markov equivalence class.  The characteristic imset identifies
    the class, so these are the distinct imsets of all DAGs, in the order of
    each class's first DAG."""
    cai = enumerate_cai(gs)
    points = dict.fromkeys(char_bits(g, cai) for g in enumerate_dags(gs))
    return VRep("char", gs, tuple(points))


class FaceInfo(FrozenRecord):
    _fields = ("tight_indices", "dimension")

    def __init__(self, tight_indices: tuple[int, ...], dimension: int):
        self.__dict__.update(tight_indices=tight_indices, dimension=dimension)


def integer_values(
    objective: FamVector | CharVector, bound, points: Sequence[Sequence]
) -> tuple[list, int]:
    """``(values, bound)``: the row ``<objective, x> <= bound`` times the
    positive scale that makes all its coefficients and its bound integer,
    evaluated at each point (dense over the objective's ambient index), and
    the bound on that scale.  The values are integers at integer points, and
    a bound of 1 comes back as the scale itself."""
    index = ambient_index(objective.gs, objective.space)
    ints, _ = integer_row([*vector_to_dense(objective, index), bound])
    terms = [(j, c) for j, c in enumerate(ints[:-1]) if c]
    return [sum(c * p[j] for j, c in terms) for p in points], ints[-1]


def _check_space(objective: FamVector | CharVector, vrep: VRep) -> None:
    if objective.space != vrep.space or objective.gs != vrep.gs:
        raise BnPolyError("objective and V-representation spaces differ")


def incidence(inequalities: Sequence[LinearInequality], vrep: VRep) -> list[int]:
    """The tight set of each inequality as an int bitmask, bit i set when
    the inequality is tight at point i; raises InvalidInequalityError if some
    point violates an inequality."""
    tight_sets = []
    for ineq in inequalities:
        _check_space(ineq.objective, vrep)
        values, bound = integer_values(ineq.objective, ineq.bound, vrep.points)
        tight = 0
        for i, value in enumerate(values):
            if value > bound:
                raise InvalidInequalityError(
                    f"inequality {ineq.label or ineq} violated at point {i}"
                )
            if value == bound:
                tight |= 1 << i
        tight_sets.append(tight)
    return tight_sets


def face_of(ineq: LinearInequality, vrep: VRep) -> FaceInfo:
    """Tight points of a valid inequality and the dimension of their affine
    hull (-1 for the empty face); raises if the inequality is violated."""
    # the mask's binary digits, lowest bit first: linear in the point count
    digits = f"{incidence([ineq], vrep)[0]:b}"[::-1]
    tight = tuple(i for i, digit in enumerate(digits) if digit == "1")
    if not tight:
        return FaceInfo((), -1)
    dim = affine_rank([vrep.points[i] for i in tight]) - 1
    return FaceInfo(tight, dim)


def is_facet(ineq: LinearInequality, vrep: VRep) -> bool:
    """Whether the face cut out by the inequality has dimension dim(P) - 1."""
    info = face_of(ineq, vrep)
    return info.dimension == affine_rank(vrep.points) - 2


def facets_from_vertices(vrep: VRep, budget: Budget | None = None) -> HRep:
    """Irredundant facet list plus affine-hull equations of conv(points).

    Works on the cone of valid inequalities {(u, c) : u - <c, v> >= 0 for
    every point v}: its lineality space gives the affine hull and its
    extreme rays are exactly the facet-defining inequalities (the trivial
    ray 0 <= u is dropped)."""
    if not vrep.points:
        raise BnPolyError("convex hull of an empty point set is undefined")
    dim = len(vrep.index)
    rows = [(Fraction(1),) + tuple(-x for x in p) for p in vrep.points]
    rays, lineality = extreme_rays(rows, dim + 1, budget=budget)
    index = vrep.index
    inequalities = []
    for ray in rays:
        bound, coeffs = ray[0], ray[1:]
        if not any(coeffs):
            continue  # the trivial valid inequality 0 <= u
        obj = dense_to_vector(vrep.gs, vrep.space, index, coeffs)
        inequalities.append(
            LinearInequality(vrep.space, obj, Fraction(bound), label="facet")
        )
    equations = []
    for line in lineality:
        vec = dense_to_vector(vrep.gs, vrep.space, index, line[1:])
        equations.append((vec, Fraction(line[0])))
    inequalities.sort(key=lambda q: q.canonical_key())
    return HRep(vrep.space, vrep.gs, tuple(inequalities), tuple(equations))


def vertices_from_inequalities(hrep: HRep, budget: Budget | None = None) -> VRep:
    """All vertices of the polyhedron, none if it is empty; raises
    UnboundedError when recession directions exist."""
    A_ub, b_ub, A_eq, b_eq = hrep.matrix()
    dim = len(hrep.index)
    rows = [(b,) + tuple(-c for c in a) for a, b in zip(A_ub, b_ub)]
    for a, b in zip(A_eq, b_eq):
        rows.append((b,) + tuple(-c for c in a))
        rows.append((-b,) + a)
    rows.append((1,) + (0,) * dim)  # homogenization coordinate t >= 0
    rays, lineality = extreme_rays(rows, dim + 1, budget=budget)
    if not any(ray[0] for ray in rays):  # no ray with t > 0: no point at all
        return VRep(hrep.space, hrep.gs, ())
    if lineality:
        raise UnboundedError("polyhedron contains lines")
    points = []
    for ray in rays:
        t = ray[0]
        if t > 0:
            points.append(tuple(Fraction(x, t) for x in ray[1:]))
        elif any(ray[1:]):
            raise UnboundedError("polyhedron has a recession direction")
    points.sort()
    return VRep(hrep.space, hrep.gs, tuple(points))


def lp_maximize(
    objective: FamVector | CharVector, hrep: HRep
) -> tuple[Fraction, FamVector | CharVector]:
    """Exact maximum of <objective, x> over the H-polyhedron, with an argmax
    point.  The simplex validates its dual certificate internally."""
    if objective.space != hrep.space or objective.gs != hrep.gs:
        raise BnPolyError("objective and polyhedron spaces differ")
    index = hrep.index
    c = vector_to_dense(objective, index)
    A_ub, b_ub, A_eq, b_eq = hrep.matrix()
    result = solve_lp(c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq)
    if result.status == "infeasible":
        raise InfeasibleError("polyhedron is empty")
    if result.status == "unbounded":
        raise UnboundedError("objective is unbounded over the polyhedron")
    point = dense_to_vector(hrep.gs, hrep.space, index, result.x)
    return result.objective, point


def hrep_to_matrix_text(hrep: HRep) -> str:
    """Plain textual matrix form: one row per inequality, the objective
    coefficients in canonical index order followed by the bound; any
    affine-hull equations follow after a single '=' line."""
    A_ub, b_ub, A_eq, b_eq = hrep.matrix()
    lines = [" ".join(map(str, (*a, b))) for a, b in zip(A_ub, b_ub)]
    if A_eq:
        lines.append("=")
        lines += [" ".join(map(str, (*a, b))) for a, b in zip(A_eq, b_eq)]
    return "\n".join(lines) + "\n"


def hrep_from_matrix_text(gs: GroundSet, space: str, text: str) -> HRep:
    """Parse the plain matrix form produced by :func:`hrep_to_matrix_text`."""
    index = ambient_index(gs, space)
    width = len(index) + 1
    inequalities, equations = [], []
    in_equations = False
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if line == "=":
            in_equations = True
            continue
        parts = line.split()
        if len(parts) != width:
            raise BnPolyError(
                f"matrix line {lineno}: expected {width} entries, got {len(parts)}"
            )
        try:
            values = [as_fraction(p) for p in parts]
        except BnPolyError as exc:
            raise BnPolyError(f"matrix line {lineno}: {exc}") from None
        vec = dense_to_vector(gs, space, index, values[:-1])
        if in_equations:
            equations.append((vec, values[-1]))
        else:
            inequalities.append(LinearInequality(space, vec, values[-1], f"row{lineno}"))
    return HRep(space, gs, tuple(inequalities), tuple(equations))


def max_over_vertices(
    objective: FamVector | CharVector, vrep: VRep
) -> tuple[Fraction, int]:
    """Maximum of the objective over a nonempty vertex list, with the first
    attaining index."""
    _check_space(objective, vrep)
    values, scale = integer_values(objective, 1, vrep.points)
    best = max(values)
    return Fraction(best, scale), values.index(best)
