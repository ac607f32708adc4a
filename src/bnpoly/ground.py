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
<= 1, so downstream formulas need no special cases.  Vectors store only
nonzero coordinates (absent means zero) and are immutable by convention
only: their ``__slots__`` keep them small, and nothing refuses assignment.

Each vector class owns its index family (``index``), its text keys (``"a|bc"``,
``"abc"``) and its JSON form (``to_json``/``from_json``, rationals as "p/q");
:func:`vector_class` turns a space tag ("fam" or "char") into its class.

:class:`Record` is the one base of the package's value classes (ground sets,
inequalities, representations, LP results, reports): plain classes with one
constructor over ``_fields``, field-wise ``==``, ``hash`` and ``repr``, and
fields that refuse assignment and deletion, so importing the package loads no
``dataclasses``.
"""

from __future__ import annotations

import operator
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


def subset_sums(values: list, sign: int = 1) -> list:
    """Replace, in place, each entry S of a list indexed by mask with the sum
    over T <= S of sign^|S \\ T| * values[T]: the zeta transform for sign 1,
    the Moebius transform for -1 (Kennes & Smets 1990), in n * 2^(n-1) steps
    at length 2^n, zero terms skipped.  Returns the list."""
    combine = operator.add if sign == 1 else operator.sub
    step = 1
    while step < len(values):
        for S in range(step, len(values)):
            if S & step and values[S ^ step]:
                values[S] = combine(values[S], values[S ^ step])
        step <<= 1
    return values


class Record:
    """A value class built from ``_fields``, by position or name; those in
    ``_defaults`` (immutable values) may be left out, and a missing, unknown,
    repeated or surplus field is a TypeError.  ``==``, ``hash`` and ``repr`` go
    by field, and the fields cannot be reassigned or deleted: a constructor of
    its own sets them through ``self.__dict__``."""

    _fields: tuple[str, ...] = ()
    _defaults: dict = {}

    def __init__(self, *args, **kwargs):
        fields, name = self._fields, type(self).__qualname__
        if len(args) > len(fields):
            raise TypeError(f"{name}() takes {len(fields)} fields, got {len(args)}")
        for key in kwargs:
            if key not in fields:
                raise TypeError(f"{name}() got an unknown field {key!r}")
            if fields.index(key) < len(args):
                raise TypeError(f"{name}() got field {key!r} twice")
        values = {**self._defaults, **dict(zip(fields, args)), **kwargs}
        for key in fields:
            if key not in values:
                raise TypeError(f"{name}() is missing field {key!r}")
        self.__dict__.update(values)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        body = ", ".join([f"{name}={getattr(self, name)!r}" for name in self._fields])
        return f"{type(self).__qualname__}({body})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class GroundSet(Record):
    """An ordered set of distinct node labels; subsets are n-bit masks.

    Each label is one character other than ``|``, so the text forms that
    spell a subset as the run of its labels can be read back."""

    _fields = ("labels",)

    def __init__(self, labels: Iterable[str]):
        labels = tuple(sorted(labels))
        if len(set(labels)) != len(labels):
            raise BnPolyError("node labels must be distinct")
        if not 2 <= len(labels) <= MAX_NODES:
            raise BnPolyError(f"need between 2 and {MAX_NODES} nodes, got {len(labels)}")
        for lab in labels:
            if not isinstance(lab, str) or len(lab) != 1:
                raise BnPolyError(f"node labels must be single characters, got {lab!r}")
        if "|" in labels:
            raise BnPolyError("node labels must not hold '|', the family-key separator")
        n = len(labels)
        index = {lab: i for i, lab in enumerate(labels)}
        self.__dict__.update(labels=labels, n=n, full_mask=(1 << n) - 1, _index=index)

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
        """Mask of a subset given as an iterable of labels, each at most once."""
        mask = 0
        for lab in labels:
            b = bit(self.index(lab))
            if mask & b:
                raise BnPolyError(f"node label {lab!r} given twice")
            mask |= b
        return mask

    def letters(self, mask: int) -> str:
        """Concatenated labels of ``mask`` in canonical order."""
        self.check_mask(mask)
        return "".join(self.labels[i] for i in iter_bits(mask))

    def check_mask(self, mask: int) -> None:
        if not 0 <= mask <= self.full_mask:
            raise BnPolyError(f"mask {mask} out of range for n={self.n}")


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
    exactly 2^n - n - 1 of them.  The sort by size is stable, so each size
    stays ascending, and the empty set and the n singletons come first."""
    return sorted(range(1 << gs.n), key=int.bit_count)[gs.n + 1:]


def _same_family(x: "_Vector", y: "_Vector") -> None:
    if type(x) is not type(y) or x.gs != y.gs:
        raise IndexFamilyMismatchError(
            f"cannot combine {type(x).__name__} over {x.gs.labels} "
            f"with {type(y).__name__} over {y.gs.labels}"
        )


class _Vector:
    """Sparse exact-rational vector; absent coordinates read as zero.  The
    JSON codec reads and writes keys through the subclass's ``parse_key``
    and ``key_text``."""

    __slots__ = ("gs", "_c")
    space: str = ""

    def __init__(self, gs: GroundSet, coords: Mapping | Iterable | None = None):
        self.gs = gs
        clean: dict = {}
        if coords is not None:
            items = coords.items() if hasattr(coords, "items") else coords
            for key, value in items:
                self._check_key(gs, key)
                q = as_fraction(value)
                if q == 0:
                    continue
                if key in clean:
                    raise BnPolyError(f"duplicate coordinate key {key!r}")
                clean[key] = q
        self._c = clean

    @classmethod
    def _from_valid(cls, gs: GroundSet, coords: dict) -> "_Vector":
        """The vector holding ``coords`` as it is, with no checks: a dict
        from valid keys of the space to nonzero Fractions."""
        vec = cls.__new__(cls)
        vec.gs = gs
        vec._c = coords
        return vec

    @staticmethod
    def _check_key(gs: GroundSet, key) -> None:  # pragma: no cover - overridden
        raise NotImplementedError

    def to_json(self) -> dict[str, str]:
        """Text key -> "p/q" string, in the class's key order."""
        return {self.key_text(self.gs, k): str(v) for k, v in self.sorted_items()}

    @classmethod
    def from_json(cls, gs: GroundSet, obj):
        """The vector a JSON object of text keys and rationals describes; two
        texts naming one coordinate are refused, whatever their values."""
        if not isinstance(obj, Mapping):
            raise BnPolyError(f"a vector must be a JSON object, got {obj!r}")
        texts: dict = {}
        coords = []
        for text, value in obj.items():
            key = cls.parse_key(gs, text)
            if key in texts:
                raise BnPolyError(f"keys {texts[key]!r} and {text!r} name the same coordinate")
            texts[key] = text
            coords.append((key, rational_from_json(value)))
        return cls(gs, coords)

    def dense(self, index: Iterable) -> tuple:
        """The coordinates at the keys of ``index``, in its order."""
        return tuple([self._c.get(key, ZERO) for key in index])

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
    """Vector over family pairs (node, nonempty parent mask), written
    ``"a|bc"`` as text.

    Coordinates at (node, empty set) read as 0 by convention and cannot hold
    a nonzero value.
    """

    space = "fam"
    index = staticmethod(enumerate_family_indices)

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

    @staticmethod
    def key_text(gs: GroundSet, key: tuple[int, int]) -> str:
        a, B = key
        return f"{gs.labels[a]}|{gs.letters(B)}"

    @staticmethod
    def parse_key(gs: GroundSet, text: str) -> tuple[int, int]:
        node, _, parents = text.partition("|")
        return gs.index(node), gs.mask_of(parents)


class _MaskVector(_Vector):
    """Vector keyed by subset masks, written as their letters, e.g. ``"abc"``."""

    @staticmethod
    def _check_key(gs: GroundSet, key) -> None:
        if not isinstance(key, int):
            raise BnPolyError(f"subset key must be an int mask: {key!r}")
        gs.check_mask(key)

    @staticmethod
    def _sort_key(item):
        return (item[0].bit_count(), item[0])

    @staticmethod
    def key_text(gs: GroundSet, mask: int) -> str:
        return gs.letters(mask)

    @staticmethod
    def parse_key(gs: GroundSet, text: str) -> int:
        return gs.mask_of(text)


class CharVector(_MaskVector):
    """Vector over subset masks of size >= 2; smaller subsets read as 0."""

    space = "char"
    index = staticmethod(enumerate_cai)

    @staticmethod
    def _check_key(gs: GroundSet, key) -> None:
        _MaskVector._check_key(gs, key)
        if key.bit_count() < 2:
            raise BnPolyError("coordinates on subsets of size <= 1 are fixed to 0")


class SetFunction(_MaskVector):
    """Exact-rational set function on the full power set (sparse, 0 default)."""

    space = "set"


_VECTOR_CLASSES = {"fam": FamVector, "char": CharVector}


def vector_class(space) -> type:
    """The vector class of a coordinate-space tag, the one place a tag
    becomes a class; an unknown tag is a ``BnPolyError``."""
    try:
        return _VECTOR_CLASSES[space]
    except (KeyError, TypeError):  # TypeError: an unhashable tag read from JSON
        raise BnPolyError(f"space must be 'fam' or 'char', got {space!r}") from None


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


def rational_from_json(value) -> Fraction:
    """An exact rational from JSON: an integer or a "p/q" string.  Anything
    else, floats and booleans included, is a ``BnPolyError``."""
    if not isinstance(value, (int, str)) or isinstance(value, bool):
        raise BnPolyError(f"expected an integer or a 'p/q' string, got {value!r}")
    return as_fraction(value)
