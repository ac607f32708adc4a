"""Ground sets, bit-mask subsets, and exact-rational coordinate vectors.

Subsets of the node set are n-bit masks relative to the canonical (sorted)
label order, so all set algebra is integer arithmetic.  Every coordinate is a
`fractions.Fraction`; there is no floating point anywhere in the core.

Three index families are used throughout the package:

* family pairs ``(node, nonempty parent mask)``  -> :class:`FamVector`
* subset masks of size >= 2                      -> :class:`CharVector`
* all subset masks (the power set)               -> :class:`SetFunction`

Extension conventions are baked into reads: a ``FamVector`` yields 0 at any
(node, empty set) coordinate and a ``CharVector`` yields 0 on subsets of size
<= 1, so downstream formulas need no special cases.  Vectors are immutable
after construction and store only nonzero coordinates (absent means zero).

:class:`Record` and :class:`FrozenRecord` are the bases of the package's
value classes (inequalities, representations, LP results, reports): plain
classes with field-wise ``==`` and ``repr``, so importing the package loads
no ``dataclasses``.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping
from fractions import Fraction

from .errors import BnPolyError, IndexFamilyMismatchError

ZERO = Fraction(0)

MAX_NODES = 16


def as_fraction(value) -> Fraction:
    """Coerce int (not bool) / str ('p/q') / Fraction to an exact Fraction;
    a zero denominator or malformed text is a BnPolyError."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, str)) and not isinstance(value, bool):
        try:
            return Fraction(value)
        except ZeroDivisionError:
            raise BnPolyError(f"zero denominator in {value!r}") from None
        except ValueError:
            raise BnPolyError(f"malformed rational {value!r}") from None
    raise TypeError(f"not an exact rational: {value!r}")


def bit(i: int) -> int:
    return 1 << i


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def submasks(mask: int) -> Iterator[int]:
    """Yield every submask of ``mask``, including 0 and ``mask`` itself."""
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


class Record:
    """A plain value class: ``==`` and ``repr`` read the attributes named in
    ``_fields``, in that order.  Mutable, so unhashable."""

    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __repr__(self) -> str:
        body = ", ".join([f"{name}={getattr(self, name)!r}" for name in self._fields])
        return f"{type(self).__qualname__}({body})"


class FrozenRecord(Record):
    """A :class:`Record` whose fields cannot be reassigned or deleted, hashed
    by their values.  ``__init__`` sets them through ``self.__dict__``."""

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class GroundSet:
    """An ordered set of distinct node labels; subsets are n-bit masks."""

    __slots__ = ("labels", "n", "full_mask", "_index")

    def __init__(self, labels: Iterable[str]):
        labels = tuple(sorted(labels))
        if len(set(labels)) != len(labels):
            raise BnPolyError("node labels must be distinct")
        if not 2 <= len(labels) <= MAX_NODES:
            raise BnPolyError(f"need between 2 and {MAX_NODES} nodes, got {len(labels)}")
        if any(not lab or not isinstance(lab, str) for lab in labels):
            raise BnPolyError("node labels must be non-empty strings")
        self.labels = labels
        self.n = len(labels)
        self.full_mask = (1 << self.n) - 1
        self._index = {lab: i for i, lab in enumerate(labels)}

    @classmethod
    def alpha(cls, n: int) -> "GroundSet":
        """Ground set with single-letter labels a, b, c, ..."""
        if not 2 <= n <= MAX_NODES:
            raise BnPolyError(f"need between 2 and {MAX_NODES} nodes, got {n}")
        return cls("abcdefghijklmnop"[:n])

    def index(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise BnPolyError(f"unknown node label {label!r}") from None

    def mask_of(self, labels: Iterable[str]) -> int:
        """Mask of a subset given as an iterable of labels (a string works
        only when all labels are single characters)."""
        mask = 0
        for lab in labels:
            mask |= bit(self.index(lab))
        return mask

    def letters(self, mask: int) -> str:
        """Concatenated labels of ``mask`` in canonical order."""
        self.check_mask(mask)
        return "".join(self.labels[i] for i in iter_bits(mask))

    def members(self, mask: int) -> tuple[str, ...]:
        self.check_mask(mask)
        return tuple(self.labels[i] for i in iter_bits(mask))

    def check_mask(self, mask: int) -> None:
        if not 0 <= mask <= self.full_mask:
            raise BnPolyError(f"mask {mask} out of range for n={self.n}")

    def __eq__(self, other) -> bool:
        return isinstance(other, GroundSet) and self.labels == other.labels

    def __hash__(self) -> int:
        return hash(self.labels)

    def __repr__(self) -> str:
        return f"GroundSet({list(self.labels)!r})"


def enumerate_family_indices(gs: GroundSet) -> list[tuple[int, int]]:
    """All family pairs (node, nonempty parent mask), ordered by node then
    ascending parent mask.  Pairs with empty parent sets are excluded, so the
    list has exactly n * (2^(n-1) - 1) entries."""
    out = []
    for a in range(gs.n):
        abit = bit(a)
        out.extend((a, B) for B in range(1, gs.full_mask + 1) if not B & abit)
    return out


def enumerate_cai(gs: GroundSet) -> list[int]:
    """All subset masks of size >= 2, ordered by cardinality then mask value;
    exactly 2^n - n - 1 of them."""
    return sorted(
        (m for m in range(1 << gs.n) if m.bit_count() >= 2),
        key=lambda m: (m.bit_count(), m),
    )


def _same_family(x: "_Vector", y: "_Vector") -> None:
    if type(x) is not type(y) or x.gs != y.gs:
        raise IndexFamilyMismatchError(
            f"cannot combine {type(x).__name__} over {x.gs.labels} "
            f"with {type(y).__name__} over {y.gs.labels}"
        )


class _Vector:
    """Sparse exact-rational vector; absent coordinates read as zero."""

    __slots__ = ("gs", "_c")
    space: str = ""

    def __init__(self, gs: GroundSet, coords: Mapping | Iterable | None = None):
        self.gs = gs
        clean: dict = {}
        if coords is not None:
            items = coords.items() if hasattr(coords, "items") else coords
            for key, value in items:
                q = as_fraction(value)
                if q == 0:
                    continue
                self._check_key(gs, key)
                if key in clean:
                    raise BnPolyError(f"duplicate coordinate key {key!r}")
                clean[key] = q
        self._c = clean

    @staticmethod
    def _check_key(gs: GroundSet, key) -> None:  # pragma: no cover - overridden
        raise NotImplementedError

    def __getitem__(self, key) -> Fraction:
        return self._c.get(key, ZERO)

    def get(self, key, default=ZERO) -> Fraction:
        return self._c.get(key, default)

    def items(self):
        return self._c.items()

    def sorted_items(self) -> list:
        return sorted(self._c.items(), key=self._sort_key)

    @staticmethod
    def _sort_key(item):
        return item[0]

    def support(self):
        return self._c.keys()

    def __len__(self) -> int:
        return len(self._c)

    def __bool__(self) -> bool:
        return bool(self._c)

    def __eq__(self, other) -> bool:
        return (
            type(other) is type(self)
            and self.gs == other.gs
            and self._c == other._c
        )

    def __hash__(self) -> int:
        return hash((type(self).__name__, self.gs.labels, frozenset(self._c.items())))

    def _combine(self, other, sign: int) -> "_Vector":
        _same_family(self, other)
        coords = dict(self._c)
        for key, value in other._c.items():
            coords[key] = coords.get(key, ZERO) + sign * value
        return type(self)(self.gs, coords)

    def __add__(self, other):
        return self._combine(other, 1)

    def __sub__(self, other):
        return self._combine(other, -1)

    def __mul__(self, scalar):
        q = as_fraction(scalar)
        return type(self)(self.gs, {k: q * v for k, v in self._c.items()})

    __rmul__ = __mul__

    def __neg__(self):
        return self * -1

    def __repr__(self) -> str:
        body = ", ".join(f"{k!r}: {v}" for k, v in self.sorted_items())
        return f"{type(self).__name__}({{{body}}})"


class FamVector(_Vector):
    """Vector over family pairs (node, nonempty parent mask).

    Coordinates at (node, empty set) read as 0 by convention and cannot hold
    a nonzero value.
    """

    space = "fam"

    @staticmethod
    def _check_key(gs: GroundSet, key) -> None:
        try:
            a, B = key
        except (TypeError, ValueError):
            raise BnPolyError(f"family key must be (node, parent mask): {key!r}") from None
        if not 0 <= a < gs.n:
            raise BnPolyError(f"node index {a} out of range")
        gs.check_mask(B)
        if B & bit(a):
            raise BnPolyError(f"node {gs.labels[a]} cannot be its own parent")
        if B == 0:
            raise BnPolyError("coordinates at empty parent sets are fixed to 0")


class CharVector(_Vector):
    """Vector over subset masks of size >= 2; smaller subsets read as 0."""

    space = "char"

    @staticmethod
    def _check_key(gs: GroundSet, key) -> None:
        if not isinstance(key, int):
            raise BnPolyError(f"subset key must be an int mask: {key!r}")
        gs.check_mask(key)
        if key.bit_count() < 2:
            raise BnPolyError("coordinates on subsets of size <= 1 are fixed to 0")

    @staticmethod
    def _sort_key(item):
        return (item[0].bit_count(), item[0])


class SetFunction(_Vector):
    """Exact-rational set function on the full power set (sparse, 0 default)."""

    space = "set"

    @staticmethod
    def _check_key(gs: GroundSet, key) -> None:
        if not isinstance(key, int):
            raise BnPolyError(f"subset key must be an int mask: {key!r}")
        gs.check_mask(key)

    @staticmethod
    def _sort_key(item):
        return (item[0].bit_count(), item[0])

    def restrict_char(self) -> CharVector:
        """Drop the (necessarily zero) values on subsets of size <= 1."""
        for mask, value in self._c.items():
            if mask.bit_count() < 2 and value != 0:
                raise BnPolyError("set function is not standardized on small sets")
        return CharVector(self.gs, {m: v for m, v in self._c.items() if m.bit_count() >= 2})


def scalar_product(x: _Vector, y: _Vector) -> Fraction:
    """Exact <x, y> for two vectors over the same ground set and index family."""
    _same_family(x, y)
    small, big = (x, y) if len(x) <= len(y) else (y, x)
    total = ZERO
    for key, value in small.items():
        other = big.get(key)
        if other:
            total += value * other
    return total


# --- JSON text forms ---------------------------------------------------------
#
# Family pairs serialize as "a|bc" (node, bar, sorted parent letters), subsets
# as "abc", rationals as "p/q" strings.  Parsing subset strings letter by
# letter requires single-character labels, which all golden data uses.


def _require_single_letters(gs: GroundSet) -> None:
    if any(len(lab) != 1 for lab in gs.labels):
        raise BnPolyError("text keys need single-character node labels")


def subset_key(gs: GroundSet, mask: int) -> str:
    _require_single_letters(gs)
    return gs.letters(mask)


def parse_subset_key(gs: GroundSet, text: str) -> int:
    _require_single_letters(gs)
    return gs.mask_of(text)


def fam_key(gs: GroundSet, key: tuple[int, int]) -> str:
    a, B = key
    _require_single_letters(gs)
    return f"{gs.labels[a]}|{gs.letters(B)}"


def parse_fam_key(gs: GroundSet, text: str) -> tuple[int, int]:
    node, _, parents = text.partition("|")
    return gs.index(node), parse_subset_key(gs, parents)


def fam_to_json(vec: FamVector) -> dict[str, str]:
    return {fam_key(vec.gs, k): str(v) for k, v in vec.sorted_items()}


def rational_from_json(value) -> Fraction:
    """An exact rational from JSON: an integer or a "p/q" string.  Anything
    else, floats and booleans included, is a ``BnPolyError``."""
    if not isinstance(value, (int, str)) or isinstance(value, bool):
        raise BnPolyError(f"expected an integer or a 'p/q' string, got {value!r}")
    return as_fraction(value)


def _coords_from_json(gs: GroundSet, obj, parse_key) -> dict:
    if not isinstance(obj, Mapping):
        raise BnPolyError(f"a vector must be a JSON object, got {obj!r}")
    return {parse_key(gs, k): rational_from_json(v) for k, v in obj.items()}


def fam_from_json(gs: GroundSet, obj: Mapping[str, str]) -> FamVector:
    return FamVector(gs, _coords_from_json(gs, obj, parse_fam_key))


def char_to_json(vec: CharVector) -> dict[str, str]:
    return {subset_key(vec.gs, m): str(v) for m, v in vec.sorted_items()}


def char_from_json(gs: GroundSet, obj: Mapping[str, str]) -> CharVector:
    return CharVector(gs, _coords_from_json(gs, obj, parse_subset_key))


def setfn_to_json(vec: SetFunction) -> dict[str, str]:
    return {subset_key(vec.gs, m): str(v) for m, v in vec.sorted_items()}


def setfn_from_json(gs: GroundSet, obj: Mapping[str, str]) -> SetFunction:
    return SetFunction(gs, _coords_from_json(gs, obj, parse_subset_key))
