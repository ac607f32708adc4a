"""Exact rational polyhedral computations over the two coordinate spaces.

Polytopes appear either as vertex lists (:class:`VRep`) or as inequality +
equation systems (:class:`HRep`), both convertible through the double
description machinery in :mod:`bnpoly.dd`.  Facet enumeration lifts each
point v to the constraint (1, -v) on candidate inequality vectors (u, c),
with the coordinates densest first, and reads the facets off the extreme
rays of that cone, mapped back to index order; a lower-dimensional hull's
equations come in reduced echelon form and its facets are zero at the
pivots, so the output depends only on the point set.  Vertex enumeration
homogenizes the constraints in index order and scales the rays with
positive leading coordinate back to points.  Linear programs run on the
exact simplex.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction

from .dags import Dag, enumerate_dags
from .dd import Budget, _sign_normalize, extreme_rays
from .encodings import char_bits
from .errors import (
    BnPolyError,
    IndexFamilyMismatchError,
    InfeasibleError,
    InvalidInequalityError,
    UnboundedError,
)
from .ground import (
    CharVector,
    FamVector,
    GroundSet,
    Record,
    as_fraction,
    enumerate_family_indices,
    iter_bits,
    vector_class,
)
from .ineq import LinearInequality
from .linalg import affine_rank, integer_row, primitive
from .simplex import solve_lp


class VRep(Record):
    """Polytope as a list of distinct rational points in fam or char space."""

    _fields = ("space", "gs", "points")

    def __init__(self, space: str, gs: GroundSet, points: tuple[tuple, ...]):
        if len(set(points)) != len(points):
            raise BnPolyError("V-representation points must be distinct")
        width = len(vector_class(space).index(gs))
        if any(len(p) != width for p in points):
            raise BnPolyError("point width does not match the ambient index family")
        self.__dict__.update(space=space, gs=gs, points=points)

    @property
    def index(self) -> list:
        return vector_class(self.space).index(self.gs)

    def vectors(self):
        cls = vector_class(self.space)
        index = cls.index(self.gs)
        return [cls(self.gs, zip(index, p)) for p in self.points]


class HRep(Record):
    """Polyhedron as valid inequalities plus affine-hull equations."""

    _fields = ("space", "gs", "inequalities", "equations")

    def __init__(
        self,
        space: str,
        gs: GroundSet,
        inequalities: tuple[LinearInequality, ...],
        equations: tuple[tuple, ...] = (),  # (objective vector, rhs) pairs
    ):
        cls = vector_class(space)  # refuses an unknown tag
        for ineq in inequalities:
            if ineq.space != space or ineq.gs != gs:
                raise BnPolyError("inequality does not match the H-representation space")
        for vec, _ in equations:
            if type(vec) is not cls or vec.gs != gs:
                raise BnPolyError("equation does not match the H-representation space")
        self.__dict__.update(space=space, gs=gs, inequalities=inequalities, equations=equations)

    @property
    def index(self) -> list:
        return vector_class(self.space).index(self.gs)

    def matrix(self) -> tuple[list[tuple], list, list[tuple], list]:
        """Dense ``(A_ub, b_ub, A_eq, b_eq)`` over the ambient index, so the
        polyhedron is {x : A_ub x <= b_ub, A_eq x = b_eq}."""
        index = self.index
        A_ub = [q.objective.dense(index) for q in self.inequalities]
        b_ub = [q.bound for q in self.inequalities]
        A_eq = [vec.dense(index) for vec, _ in self.equations]
        b_eq = [rhs for _, rhs in self.equations]
        return A_ub, b_ub, A_eq, b_eq


def dag_codes(gs: GroundSet, graphs: Sequence[Dag]) -> tuple[tuple[int, ...], ...]:
    """Dense 0/1 family-variable codes of the graphs over the family index;
    a graph over another ground set raises IndexFamilyMismatchError."""
    pos = {key: i for i, key in enumerate(enumerate_family_indices(gs))}
    points = []
    for g in graphs:
        if g.gs is not gs and g.gs != gs:
            raise IndexFamilyMismatchError(f"a DAG over {g.gs.labels} among codes over {gs.labels}")
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
    points = dict.fromkeys(char_bits(g) for g in enumerate_dags(gs))
    return VRep("char", gs, tuple(points))


class FaceInfo(Record):
    _fields = ("tight_indices", "dimension")


def integer_values(
    objective: FamVector | CharVector, bound, points: Sequence[Sequence]
) -> tuple[list, int]:
    """``(values, bound)``: the row ``<objective, x> <= bound`` times the
    positive scale that makes all its coefficients and its bound integer,
    evaluated at each point (dense over the objective's ambient index), and
    the bound on that scale.  The values are integers at integer points, and
    a bound of 1 comes back as the scale itself."""
    ints, _ = integer_row([*objective.dense(objective.index(objective.gs)), bound])
    terms = [(j, c) for j, c in enumerate(ints[:-1]) if c]
    values = []
    for p in points:
        value = 0
        for j, c in terms:
            value += c * p[j]
        values.append(value)
    return values, ints[-1]


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
    tight = tuple(iter_bits(incidence([ineq], vrep)[0]))
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
    ray 0 <= u is dropped).

    The points are lifted with their coordinates in decreasing order of
    how many points are nonzero there, ties broken by the column's
    zero/nonzero pattern over the points (ascending, so a column whose
    first nonzero comes later goes first), and the rays and lineality are
    mapped back to index order.  The double description
    inserts the lifted rows grouped by their last nonzero coordinate, so
    the sparse coordinates come last and the intermediate cones stay small.
    The output depends only on the point set: a full-dimensional hull's
    primitive rays are unique, and otherwise the equations are brought to
    reduced echelon form and the facets reduced to zero at its pivots (see
    :func:`_reduced_echelon`).  The work does not: the patterns are read
    over the points in the order given, so another order of the same points
    can change the intermediate cones and whether ``budget`` runs out (see
    :mod:`bnpoly.dd`)."""
    if not vrep.points:
        raise BnPolyError("convex hull of an empty point set is undefined")
    cls = vector_class(vrep.space)
    index = cls.index(vrep.gs)
    pattern = [tuple(map(bool, column)) for column in zip(*vrep.points)]
    order = sorted(range(len(index)), key=lambda j: (-sum(pattern[j]), pattern[j]))
    rows = [(1,) + tuple(-p[j] for j in order) for p in vrep.points]
    rays, lineality = extreme_rays(rows, len(index) + 1, budget=budget)
    # coordinate j sits at lifted position 1 + order.index(j)
    position = [0] + [1 + order.index(j) for j in range(len(index))]
    rays = [tuple(ray[k] for k in position) for ray in rays]
    lineality = [tuple(line[k] for k in position) for line in lineality]
    if lineality:
        rays, lineality = _reduced_echelon(rays, lineality)

    def vector(coeffs):
        return cls._from_valid(vrep.gs, {k: Fraction(c) for k, c in zip(index, coeffs) if c})

    inequalities = [
        LinearInequality(vector(coeffs), bound, "facet") for bound, *coeffs in rays if any(coeffs)
    ]
    inequalities.sort(key=LinearInequality.canonical_key)
    equations = [(vector(line[1:]), Fraction(line[0])) for line in lineality]
    return HRep(vrep.space, vrep.gs, tuple(inequalities), tuple(equations))


def _reduced_echelon(
    rays: Sequence[tuple[int, ...]], lineality: Sequence[tuple[int, ...]]
) -> tuple[list[tuple[int, ...]], list[tuple[int, ...]]]:
    """The valid-inequality cone's rays and lineality in a form that depends
    on the cone alone.

    The lineality basis goes to reduced echelon form, each line pivoting on
    its last nonzero coefficient coordinate, with the pivot positive and
    every other line zero there.  Coordinate 0, the bound u, is never a
    pivot: no line has c = 0, since u - <0, v> = 0 forces u = 0, so the
    coefficients alone carry a full set of pivots.  The trivial ray 0 <= u
    is therefore left as it is.  Each ray is then reduced to zero at the
    pivots (a positive multiple of the ray plus a line, made primitive);
    that is the one representative of its class modulo the lineality.  The
    lines are returned primitive, first nonzero entry positive, sorted."""
    pending = list(lineality)
    echelon = []  # (pivot, line) pairs
    for c in range(len(lineality[0]) - 1, 0, -1):
        k = next((k for k, line in enumerate(pending) if line[c]), None)
        if k is None:
            continue
        pivot_line = pending.pop(k)
        if pivot_line[c] < 0:
            pivot_line = tuple(-x for x in pivot_line)
        pending = [_eliminate(line, pivot_line, c) for line in pending]
        echelon = [(p, _eliminate(line, pivot_line, c)) for p, line in echelon]
        echelon.append((c, pivot_line))
    reduced = []
    for ray in rays:
        for c, line in echelon:
            ray = _eliminate(ray, line, c)
        reduced.append(ray)
    return reduced, sorted(_sign_normalize(line) for _, line in echelon)


def _eliminate(vec: tuple[int, ...], line: tuple[int, ...], c: int) -> tuple[int, ...]:
    """``vec`` zero at coordinate c: line[c] * vec - vec[c] * line made
    primitive, a positive multiple of vec plus a line when line[c] > 0."""
    if not vec[c]:
        return vec
    return primitive([line[c] * x - vec[c] * y for x, y in zip(vec, line)])


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
    c = objective.dense(index)
    A_ub, b_ub, A_eq, b_eq = hrep.matrix()
    result = solve_lp(c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq)
    if result.status == "infeasible":
        raise InfeasibleError("polyhedron is empty")
    if result.status == "unbounded":
        raise UnboundedError("objective is unbounded over the polyhedron")
    point = type(objective)(hrep.gs, zip(index, result.x))
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
    cls = vector_class(space)
    index = cls.index(gs)
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
        vec = cls(gs, zip(index, values[:-1]))
        if in_equations:
            equations.append((vec, values[-1]))
        else:
            inequalities.append(LinearInequality(vec, values[-1], f"row{lineno}"))
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
