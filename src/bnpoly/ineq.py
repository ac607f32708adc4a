"""Linear inequality families over the two polytopes, plus the golden data.

All inequalities are kept in the upper-bound standardization <obj, x> <= u.
Available families: non-negativity, modified convexity, generalized cluster
inequalities in both family-variable and characteristic-imset coordinates,
the two four-node facet catalogs (one representative per permutation type,
orbits generated on the fly), and the five-node constants used by the
counterexample pipeline.

Orbits are computed in integers.  ``canonical_key`` is formed once per
inequality, from its primitive integer row, and kept on it.  :func:`orbit`
reads the input's key (a relabeling moves coefficients without changing
them), maps its keys through a table of permuted masks (n! * 2^n ints per n,
built on first use), keeps each image whose key is new, and rebuilds the
members from the input's own coefficients, each holding its image key.  A
catalog type is translated into family variables once, by
:func:`fam_from_char_ineq`, on the first read of ``CatalogEntry.fam_ineq``;
since the translation commutes with relabeling, each member's translation is
the representative's, relabeled by the permutation that made the member.
"""

from __future__ import annotations

import json
import os
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import permutations
from math import comb, gcd

from .errors import BnPolyError
from .ground import (
    CharVector,
    FamVector,
    GroundSet,
    Record,
    ZERO,
    as_fraction,
    bit,
    enumerate_family_indices,
    scalar_product,
    submasks,
)
from .linalg import integer_row
from .scoreeq import moebius_up, objective_from_setfn
from .supermod import check_cluster


class LinearInequality(Record):
    """<objective, x> <= bound over family or characteristic coordinates;
    the space is the objective's."""

    _fields = ("space", "objective", "bound", "label")

    def __init__(self, objective: FamVector | CharVector, bound, label: str = ""):
        self.__dict__.update(objective=objective, bound=as_fraction(bound), label=label)

    @property
    def space(self) -> str:
        return self.objective.space

    @property
    def gs(self) -> GroundSet:
        return self.objective.gs

    def value_at(self, x) -> Fraction:
        return scalar_product(self.objective, x)

    def is_valid_at(self, x) -> bool:
        return self.value_at(x) <= self.bound

    def is_tight_at(self, x) -> bool:
        return self.value_at(x) == self.bound

    def __str__(self) -> str:
        """Key form, e.g. ``a|b + b|a <= 1/2``."""
        key_text = self.objective.key_text
        text = ""
        for k, v in self.objective.sorted_items():
            name = key_text(self.gs, k)
            term = name if abs(v) == 1 else f"{abs(v)}*{name}"
            if text:
                text += f" - {term}" if v < 0 else f" + {term}"
            else:
                text = f"-{term}" if v < 0 else term
        return f"{text or '0'} <= {self.bound}"

    def canonical_key(self):
        """(space, sorted primitive integer coefficients, bound scaled along),
        formed once per inequality; two inequalities with nonzero objectives
        share it exactly when one is a positive multiple of the other."""
        return self._key

    @cached_property
    def _key(self):
        items = self.objective.sorted_items()
        ints, scale = integer_row([v for _, v in items])
        g = gcd(*ints) or 1  # the zero objective keeps its bound
        coeffs = tuple([(k, x // g) for (k, _), x in zip(items, ints)])
        return (self.space, coeffs, self.bound * Fraction(scale, g))


@lru_cache(maxsize=None)
def _mask_images(n: int) -> tuple[tuple[int, ...], ...]:
    """One row per permutation of the n nodes, in ``permutations`` order:
    the image of every mask 0 .. 2^n - 1 when node i becomes perm[i]."""
    table = []
    for perm in permutations(range(n)):
        row = [0] * (1 << n)
        for i, p in enumerate(perm):
            top = 1 << i
            for mask in range(top, 2 * top):
                row[mask] = row[mask - top] | (1 << p)
        table.append(tuple(row))
    return tuple(table)


def _relabel(space: str, row: tuple[int, ...]):
    """The coordinate-key map of the relabeling whose mask images are ``row``."""
    if space == "char":
        return row.__getitem__
    return lambda key: (row[1 << key[0]].bit_length() - 1, row[key[1]])


def _relabeled(ineq: LinearInequality, row: tuple[int, ...], key=None) -> LinearInequality:
    """The inequality with its coordinate keys relabeled, coefficients kept;
    a relabeling maps the valid keys one to one onto valid keys.  ``key``,
    if given, is the image's canonical key, and the image keeps it."""
    obj = ineq.objective
    relabel = _relabel(ineq.space, row)
    coords = {relabel(k): v for k, v in obj.items()}
    image = LinearInequality(type(obj)._from_valid(obj.gs, coords), ineq.bound, ineq.label)
    if key is not None:
        image.__dict__["_key"] = key
    return image


def _orbit_rows(ineq: LinearInequality) -> list[tuple[tuple, tuple[int, ...]]]:
    """One ``(canonical key, relabeling)`` pair per distinct image of the
    inequality, in key order: the image's key and the mask-image row of the
    first permutation that reaches it.  A relabeling moves coefficients
    without changing them, so each image's key is the input's, relabeled."""
    space, items, bound = ineq.canonical_key()
    sort_key = ineq.objective._sort_key
    seen = {}
    for row in _mask_images(ineq.gs.n):
        relabel = _relabel(space, row)
        image = sorted([(relabel(k), v) for k, v in items], key=sort_key)
        seen.setdefault((space, tuple(image), bound), row)
    return sorted(seen.items())


def orbit(ineq: LinearInequality) -> list[LinearInequality]:
    """All distinct images of the inequality under node relabelings, sorted
    by canonical key."""
    return [_relabeled(ineq, row, key) for key, row in _orbit_rows(ineq)]


# --- the basic facet families ------------------------------------------------


def nonneg_constraints(gs: GroundSet) -> list[LinearInequality]:
    """-x(a : B) <= 0 for every family pair; tight at the empty graph."""
    return [
        LinearInequality(
            FamVector(gs, {(a, B): -1}),
            ZERO,
            label=f"nonneg[{gs.labels[a]}|{gs.letters(B)}]",
        )
        for a, B in enumerate_family_indices(gs)
    ]


def modified_convexity(gs: GroundSet) -> list[LinearInequality]:
    """sum over nonempty B of x(a : B) <= 1, one inequality per node;
    facet-defining for n >= 3."""
    coords = [{} for _ in range(gs.n)]
    for a, B in enumerate_family_indices(gs):
        coords[a][(a, B)] = 1
    return [
        LinearInequality(FamVector(gs, row), Fraction(1), label=f"convexity[{gs.labels[a]}]")
        for a, row in enumerate(coords)
    ]


def cluster_fam(gs: GroundSet, C: int, k: int) -> LinearInequality:
    """Generalized cluster inequality in family-variable coordinates:
    sum over a in C, B with |B n C| >= k of x(a : B) <= |C| - k."""
    check_cluster(gs, C, k)
    coords = {
        (a, B): 1
        for a, B in enumerate_family_indices(gs)
        if C & bit(a) and (B & C).bit_count() >= k
    }
    return LinearInequality(
        FamVector(gs, coords),
        Fraction(C.bit_count() - k),
        label=f"cluster[{gs.letters(C)},{k}]/fam",
    )


def cluster_char(gs: GroundSet, C: int, k: int) -> LinearInequality:
    """The same cut in characteristic-imset coordinates; the coefficient on
    S <= C with |S| >= k + 1 is (-1)^(|S|-k-1) * binom(|S|-2, |S|-k-1) and all
    other coefficients vanish."""
    check_cluster(gs, C, k)
    coords = {}
    for S in submasks(C):
        s = S.bit_count()
        if s >= k + 1:
            coef = comb(s - 2, s - k - 1)
            coords[S] = coef if (s - k - 1) % 2 == 0 else -coef
    return LinearInequality(
        CharVector(gs, coords),
        Fraction(C.bit_count() - k),
        label=f"cluster[{gs.letters(C)},{k}]/char",
    )


def fam_from_char_ineq(ineq: LinearInequality) -> LinearInequality:
    """Translate a characteristic-space inequality into family variables
    through its set function moebius_up(z), so that
    <z, char_image(x)> = <obj, x> for every family vector x."""
    if ineq.space != "char":
        raise BnPolyError("expected a characteristic-space inequality")
    objective = objective_from_setfn(moebius_up(ineq.objective))
    return LinearInequality(objective, ineq.bound, label=ineq.label + "/fam")


# --- the combinatorial identity behind the char-mode cluster form ------------


def paper_binom(n: int, r: int) -> int:
    """Binomial coefficient with the conventions binom(n, 0) = binom(n, n) = 1
    for any integer n and binom(n, -1) = binom(n, n+1) = 0 for n >= 0."""
    if n >= 0 and 0 <= r <= n:
        return comb(n, r)
    if r == 0 or r == n:
        return 1
    if n >= 0 and (r == -1 or r == n + 1):
        return 0
    raise BnPolyError(f"binomial ({n}, {r}) outside the supported conventions")


def binomial_identity(s: int, k: int, K: int) -> tuple[int, int]:
    """Evaluate both sides of

        sum_{m=0..s} (-1)^m binom(k+s, k+m) binom(m+k-K, m)  =  binom(s+K-1, K-1)

    for s >= 0 and k >= K >= 0, assert they agree, and return the pair."""
    if s < 0 or K < 0 or k < K:
        raise BnPolyError("need s >= 0 and k >= K >= 0")
    lhs = 0
    for m in range(s + 1):
        term = paper_binom(k + s, k + m) * paper_binom(m + k - K, m)
        lhs += term if m % 2 == 0 else -term
    rhs = paper_binom(s + K - 1, K - 1)
    if lhs != rhs:
        raise BnPolyError(f"binomial identity failed at (s={s}, k={k}, K={K})")
    return lhs, rhs


# --- golden catalogs ----------------------------------------------------------


class CatalogEntry(Record):
    """One permutation type of a four-node catalog: its representative, the
    orbit members and the relabelings (mask images) that make them.  ``kind``
    is "cluster" (with its (cluster mask, level) pair), "noncluster" or
    "specific"; ``certificate`` holds conic-combination data, if any."""

    _fields = (
        "type_id",
        "char_ineq",
        "char_orbit",
        "relabelings",
        "expected_orbit_size",
        "kind",
        "cluster",
        "certificate",
    )
    _defaults = {"cluster": None, "certificate": None}

    @cached_property
    def fam_ineq(self) -> LinearInequality:
        """``fam_from_char_ineq`` of the representative, made on first read."""
        return fam_from_char_ineq(self.char_ineq)

    def fam_orbit(self) -> list[LinearInequality]:
        """``fam_from_char_ineq`` of each orbit member, in orbit order.  The
        translation commutes with relabeling, so each is the representative's
        translation relabeled the way the member was."""
        return [_relabeled(self.fam_ineq, row) for row in self.relabelings]


def _load_data(name: str) -> dict:
    with open(os.path.join(os.path.dirname(__file__), "data", name), encoding="utf-8") as handle:
        return json.load(handle)


def _build_entry(gs: GroundSet, record: dict, kind_default: str) -> CatalogEntry:
    char_obj = CharVector.from_json(gs, record["char"])
    char_ineq = LinearInequality(char_obj, as_fraction(record["bound"]), label=record["type_id"])
    images = _orbit_rows(char_ineq)
    if len(images) != record["count"]:
        raise BnPolyError(
            f"catalog type {record['type_id']}: orbit has {len(images)} members, "
            f"expected {record['count']}"
        )
    cluster = None
    kind = record.get("kind", kind_default)
    if "cluster" in record:
        cluster = (gs.mask_of(record["cluster"]["C"]), record["cluster"]["k"])
    return CatalogEntry(
        type_id=record["type_id"],
        char_ineq=char_ineq,
        char_orbit=tuple(_relabeled(char_ineq, row, key) for key, row in images),
        relabelings=tuple(row for _, row in images),
        expected_orbit_size=record["count"],
        kind=kind,
        cluster=cluster,
        certificate=record.get("certificate"),
    )


def _build_catalog(name: str, kind: str, total: int, title: str) -> tuple[CatalogEntry, ...]:
    """The four-node catalog in data file ``name``; it must total ``total``."""
    gs = GroundSet.alpha(4)
    entries = tuple(_build_entry(gs, record, kind) for record in _load_data(name)["types"])
    if sum(e.expected_orbit_size for e in entries) != total:
        raise BnPolyError(f"{title} catalog does not total {total} inequalities")
    return entries


@lru_cache(maxsize=1)
def catalog_se_n4() -> tuple[CatalogEntry, ...]:
    """The 37 four-node facets containing the all-ones vertex, in 10 types
    with orbit sizes 6, 4, 4, 1, 1, 1, 4, 6, 4, 6."""
    return _build_catalog("se_facets_n4.json", "noncluster", 37, "SE")


@lru_cache(maxsize=1)
def catalog_specific_n4() -> tuple[CatalogEntry, ...]:
    """The 117 remaining four-node facets, in 20 types; only the last type
    (bound 1) misses the zero vertex."""
    return _build_catalog("specific_facets_n4.json", "specific", 117, "specific")


class CounterexampleConstants(Record):
    """The five-node char inequality (bound 16), its fam translation, that
    translation's objective and the centroid of its 153 tight DAG codes."""

    _fields = ("char_ineq", "fam_ineq", "objective", "centroid")


@lru_cache(maxsize=1)
def counterexample_constants() -> CounterexampleConstants:
    """The published five-node constants, hard-coded and cross-checkable."""
    data = _load_data("counterexample_n5.json")
    gs = GroundSet.alpha(5)
    char_ineq = LinearInequality(
        CharVector.from_json(gs, data["char"]),
        as_fraction(data["char_bound"]),
        label="five-node-facet/char",
    )
    fam_obj = FamVector.from_json(gs, data["fam"])
    fam_ineq = LinearInequality(
        fam_obj, as_fraction(data["fam_bound"]), label="five-node-facet/fam"
    )
    den = data["centroid_denominator"]
    centroid = FamVector(
        gs,
        {
            FamVector.parse_key(gs, key): Fraction(num, den)
            for key, num in data["centroid_numerators"].items()
        },
    )
    return CounterexampleConstants(char_ineq, fam_ineq, fam_obj, centroid)


# --- LP-format export ---------------------------------------------------------


def _lp_var(gs: GroundSet, a: int, B: int) -> str:
    return f"x_{gs.labels[a]}_{gs.letters(B)}"


def export_lp(
    gs: GroundSet,
    objective: FamVector | None = None,
    clusters: list[tuple[int, int]] | None = None,
    integer: bool = False,
) -> str:
    """CPLEX LP text for the family-variable relaxation: convexity as
    equalities over variables extended with empty parent sets, plus the
    selected generalized cluster cuts in their lower-bound form, one row per
    (cluster, level), so a pair given twice is refused.  Variable bounds
    0 <= x <= 1 take care of non-negativity."""
    lines = ["\\ family-variable relaxation", "Maximize"]
    if objective:
        terms = []
        for (a, B), v in objective.sorted_items():
            if v.denominator != 1:
                raise BnPolyError("LP export needs integer objective coefficients")
            sign = "+" if v >= 0 else "-"
            terms.append(f" {sign} {abs(v)} {_lp_var(gs, a, B)}")
        lines.append(" obj:" + "".join(terms))
    else:
        lines.append(f" obj: 0 {_lp_var(gs, 0, 0)}")
    # family pairs extended with the empty parent set, by node then mask
    pairs = [(a, B) for a in range(gs.n) for B in range(gs.full_mask + 1) if not B & bit(a)]
    lines.append("Subject To")
    for a in range(gs.n):
        vars_a = [_lp_var(gs, b, B) for b, B in pairs if b == a]
        lines.append(f" conv_{gs.labels[a]}: " + " + ".join(vars_a) + " = 1")
    named = set()
    for C, k in clusters or []:
        check_cluster(gs, C, k)
        if (C, k) in named:
            raise BnPolyError(f"cluster {gs.letters(C)}:{k} is given twice")
        named.add((C, k))
        vars_c = [
            _lp_var(gs, a, B)
            for a, B in pairs
            if C & bit(a) and (B & C).bit_count() < k
        ]
        lines.append(
            f" cluster_{gs.letters(C)}_{k}: " + " + ".join(vars_c) + f" >= {k}"
        )
    lines.append("Bounds")
    lines += [f" 0 <= {_lp_var(gs, a, B)} <= 1" for a, B in pairs]
    if integer:
        lines.append("Binaries")
        lines += [f" {_lp_var(gs, a, B)}" for a, B in pairs]
    lines.append("End")
    return "\n".join(lines) + "\n"
