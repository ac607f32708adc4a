import importlib
import inspect
import pkgutil
import random
import typing
from fractions import Fraction

import pytest

import bnpoly
from bnpoly.errors import BnPolyError, IndexFamilyMismatchError
from bnpoly.ground import (
    CharVector,
    FamVector,
    GroundSet,
    Record,
    SetFunction,
    as_fraction,
    enumerate_cai,
    enumerate_family_indices,
    iter_bits,
    rational_from_json,
    scalar_product,
    submasks,
    subset_sums,
    vector_class,
)


def test_family_index_counts():
    assert len(enumerate_family_indices(GroundSet.alpha(2))) == 2
    assert len(enumerate_family_indices(GroundSet.alpha(3))) == 9
    assert len(enumerate_family_indices(GroundSet.alpha(4))) == 28


def test_cai_counts():
    assert len(enumerate_cai(GroundSet.alpha(2))) == 1
    assert len(enumerate_cai(GroundSet.alpha(3))) == 4
    assert len(enumerate_cai(GroundSet.alpha(4))) == 11


@pytest.mark.parametrize("n", range(2, 9))
def test_closed_forms(n):
    gs = GroundSet.alpha(n)
    assert len(enumerate_family_indices(gs)) == n * (2 ** (n - 1) - 1)
    assert len(enumerate_cai(gs)) == 2**n - n - 1
    assert enumerate_cai(gs) == sorted(
        (m for m in range(1 << n) if m.bit_count() >= 2), key=lambda m: (m.bit_count(), m)
    )


def test_enumeration_order_is_canonical(gs3):
    fai = enumerate_family_indices(gs3)
    assert fai == sorted(fai)
    assert all(B != 0 for _, B in fai)
    assert fai == enumerate_family_indices(GroundSet.alpha(3))
    cai = enumerate_cai(gs3)
    assert cai == sorted(cai, key=lambda m: (m.bit_count(), m))


def _brute_subset_sums(values, sign):
    return [
        sum((sign ** (S ^ T).bit_count() * values[T] for T in submasks(S)), Fraction(0))
        for S in range(len(values))
    ]


@pytest.mark.parametrize("sign", [1, -1])
def test_subset_sums_match_brute_force(sign):
    rng = random.Random(17)
    for length in range(1, 33):
        for _ in range(3):
            # about half zeros, the rest ints and Fractions
            values = [
                rng.choice([0, 0, rng.randint(-9, 9), Fraction(rng.randint(-9, 9), 7)])
                for _ in range(length)
            ]
            expected = _brute_subset_sums(values, sign)
            out = subset_sums(values, sign)
            assert out is values  # in place
            assert out == expected


def test_zeta_then_moebius_is_the_identity():
    rng = random.Random(5)
    for n in range(0, 6):
        for _ in range(10):
            values = [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(1 << n)]
            assert subset_sums(subset_sums(list(values)), -1) == values
            assert subset_sums(subset_sums(list(values), -1)) == values


def test_labels_are_sorted_and_distinct():
    gs = GroundSet(["c", "a", "b"])
    assert gs.labels == ("a", "b", "c")
    with pytest.raises(BnPolyError):
        GroundSet(["a", "a"])


def test_mask_roundtrip(gs4):
    assert gs4.letters(gs4.mask_of("bd")) == "bd"
    assert gs4.mask_of("") == 0
    assert gs4.letters(0) == ""
    assert list(iter_bits(gs4.mask_of("ad"))) == [0, 3]


def test_extension_conventions(gs3):
    fam = FamVector(gs3, {(0, 0b110): 1})
    assert fam[(1, 0)] == 0  # empty parent set reads zero
    assert fam[(2, 0b011)] == 0  # absent key reads zero
    with pytest.raises(BnPolyError):
        FamVector(gs3, {(0, 0): 1})
    cv = CharVector(gs3, {0b011: Fraction(1, 2)})
    assert cv[0b001] == 0 and cv[0] == 0
    with pytest.raises(BnPolyError):
        CharVector(gs3, {0b001: 1})


def test_vector_equality_prunes_zeros(gs3):
    a = FamVector(gs3, {(0, 0b110): 1, (1, 0b001): 0})
    b = FamVector(gs3, {(0, 0b110): 1})
    assert a == b and hash(a) == hash(b)
    assert not FamVector(gs3, {})


def test_vector_arithmetic(gs3):
    x = CharVector(gs3, {0b011: 1, 0b111: 2})
    y = CharVector(gs3, {0b011: "1/2"})
    assert (x + y)[0b011] == Fraction(3, 2)
    assert (x - 2 * y)[0b011] == 0
    assert (-x)[0b111] == -2


def test_vector_repr_lists_sorted_keys_and_exact_values(gs3):
    x = FamVector(gs3, {(1, 0b001): -3, (0, 0b110): Fraction(1, 2)})
    assert repr(x) == "FamVector({(0, 6): 1/2, (1, 1): -3})"
    assert repr(CharVector(gs3, {})) == "CharVector({})"


def test_scalar_product_zero(gs3):
    zero = FamVector(gs3, {})
    other = FamVector(gs3, {(0, 0b010): 5})
    assert scalar_product(zero, other) == 0


def test_scalar_product_dag_code_self(gs4):
    # A 0/1 code with one 1 per node with nonempty parents pairs to its count.
    from bnpoly.dags import enumerate_dags
    from bnpoly.encodings import fam_vector

    rng = random.Random(7)
    for g in rng.sample(enumerate_dags(gs4), 25):
        fam = fam_vector(g)
        k = sum(1 for B in g.parents if B)
        brute = sum(v * v for _, v in fam.items())
        assert scalar_product(fam, fam) == k == brute


def test_scalar_product_all_ones(gs3):
    ones = CharVector(gs3, {m: 1 for m in enumerate_cai(gs3)})
    assert scalar_product(ones, ones) == 4


def test_scalar_product_rejects_mismatch(gs3, gs4):
    with pytest.raises(IndexFamilyMismatchError):
        scalar_product(FamVector(gs3, {}), CharVector(gs3, {}))
    with pytest.raises(IndexFamilyMismatchError):
        scalar_product(CharVector(gs3, {}), CharVector(gs4, {}))


def test_json_roundtrip(gs3):
    fam = FamVector(gs3, {(0, 0b110): Fraction(3, 2), (2, 0b011): -1})
    blob = fam.to_json()
    assert blob == {"a|bc": "3/2", "c|ab": "-1"}
    assert FamVector.from_json(gs3, blob) == fam
    cv = CharVector(gs3, {0b111: Fraction(-2, 3)})
    assert cv.to_json() == {"abc": "-2/3"}
    assert CharVector.from_json(gs3, cv.to_json()) == cv
    m = SetFunction(gs3, {0: 1, 0b010: Fraction(1, 2), 0b101: -3})
    assert m.to_json() == {"": "1", "b": "1/2", "ac": "-3"}
    assert SetFunction.from_json(gs3, m.to_json()) == m


def test_index_and_dense_form(gs3):
    assert FamVector.index(gs3) == enumerate_family_indices(gs3)
    assert CharVector.index(gs3) == enumerate_cai(gs3)
    cv = CharVector(gs3, {0b111: 2, 0b101: -1})
    dense = cv.dense(CharVector.index(gs3))
    assert dense == (0, -1, 0, 2)
    assert CharVector(gs3, zip(CharVector.index(gs3), dense)) == cv


@pytest.mark.parametrize(
    "cls, blob",
    [
        (SetFunction, {"abc": "1", "cba": "-1"}),
        (CharVector, {"ab": "0", "ba": "0"}),
        (FamVector, {"a|bc": "1", "a|cb": "2"}),
    ],
)
def test_from_json_refuses_two_texts_for_one_coordinate(gs3, cls, blob):
    first, second = blob
    with pytest.raises(BnPolyError) as info:
        cls.from_json(gs3, blob)
    assert str(info.value) == f"keys {first!r} and {second!r} name the same coordinate"


@pytest.mark.parametrize(
    "cls, keys",
    [
        (FamVector, enumerate_family_indices),
        (CharVector, enumerate_cai),
        (SetFunction, lambda gs: range(1 << gs.n)),
    ],
    ids=["FamVector", "CharVector", "SetFunction"],
)
def test_text_keys_need_single_character_labels(cls, keys):
    # no vector of any class can be built over a wide label, so its keys are never written
    with pytest.raises(BnPolyError) as info:
        cls(GroundSet(["p", "q", "rs"]), {})
    assert str(info.value) == "node labels must be single characters, got 'rs'"
    gs = GroundSet(["p", "q", "r"])
    vec = cls(gs, {key: i + 1 for i, key in enumerate(keys(gs))})
    assert len(vec.to_json()) == len(keys(gs))
    assert cls.from_json(gs, vec.to_json()) == vec


def test_text_keys_are_a_bijection_over_any_single_character_labels():
    gs = GroundSet("Z9_~")
    for S in range(1 << gs.n):
        assert gs.mask_of(gs.letters(S)) == S
    for k in enumerate_family_indices(gs):
        assert FamVector.parse_key(gs, FamVector.key_text(gs, k)) == k


def test_vector_class_decodes_space_tags():
    assert vector_class("fam") is FamVector and vector_class("char") is CharVector
    for tag in ("set", "", None, ["fam"]):
        with pytest.raises(BnPolyError, match="space must be 'fam' or 'char'"):
            vector_class(tag)


def test_json_roundtrip_random(gs4):
    rng = random.Random(11)
    fai = enumerate_family_indices(gs4)
    for _ in range(50):
        coords = {
            key: Fraction(rng.randint(-9, 9), rng.randint(1, 9))
            for key in rng.sample(fai, 6)
        }
        vec = FamVector(gs4, coords)
        assert FamVector.from_json(gs4, vec.to_json()) == vec


@pytest.mark.parametrize("value", [True, False, 1.5, None, [1], {"p": 1}])
def test_rational_from_json_takes_only_integers_and_strings(gs3, value):
    # bool is an int subclass; JSON true must not read as 1
    with pytest.raises(BnPolyError):
        rational_from_json(value)
    with pytest.raises(BnPolyError):
        FamVector.from_json(gs3, {"a|b": value})
    assert rational_from_json(3) == 3 and rational_from_json("-2/4") == Fraction(-1, 2)


def test_as_fraction_refuses_booleans(gs3):
    # bool is an int subclass; a Python True must not build a 1 either
    with pytest.raises(TypeError):
        FamVector(gs3, {(0, 2): True})
    with pytest.raises(TypeError):
        as_fraction(False)


def test_setfn_allows_all_subsets(gs3):
    m = SetFunction(gs3, {0: 2, 0b001: -1, 0b111: 1})
    assert m[0] == 2 and m[0b001] == -1


class _Point(Record):
    _fields = ("x", "y", "tag")
    _defaults = {"tag": ""}


def test_record_takes_fields_by_position_name_or_default():
    expected = _Point(1, 2, "p")
    assert _Point(x=1, y=2, tag="p") == expected
    assert _Point(1, tag="p", y=2) == expected
    assert _Point(1, 2) == _Point(1, 2, "")
    assert _Point(1, 2).tag == ""
    assert repr(expected) == "_Point(x=1, y=2, tag='p')"
    assert hash(_Point(1, 2)) == hash(_Point(x=1, y=2, tag=""))


@pytest.mark.parametrize(
    "args, kwargs, message",
    [
        ((1,), {}, "_Point() is missing field 'y'"),
        ((1, 2), {"z": 3}, "_Point() got an unknown field 'z'"),
        ((1, 2), {"x": 3}, "_Point() got field 'x' twice"),
        ((1, 2, "p", 4), {}, "_Point() takes 3 fields, got 4"),
    ],
    ids=["missing", "unknown", "repeated", "surplus"],
)
def test_record_refuses_a_bad_field_list(args, kwargs, message):
    with pytest.raises(TypeError) as info:
        _Point(*args, **kwargs)
    assert str(info.value) == message


def test_record_refuses_assignment_after_construction():
    point = _Point(1, 2)
    with pytest.raises(AttributeError, match="cannot assign to field 'x'"):
        point.x = 3
    with pytest.raises(AttributeError, match="cannot delete field 'y'"):
        del point.y
    assert point == _Point(1, 2)


def _record_classes(cls=Record):
    for sub in cls.__subclasses__():
        yield sub
        yield from _record_classes(sub)


def test_record_defaults_are_fields_with_hashable_values():
    # A mutable default would be one object shared by every record left without it.
    for info in pkgutil.iter_modules(bnpoly.__path__):
        importlib.import_module(f"bnpoly.{info.name}")
    classes = [cls for cls in _record_classes() if cls.__module__.startswith("bnpoly.")]
    assert {"CatalogEntry", "LpResult", "Check"} <= {cls.__name__ for cls in classes}
    for cls in classes:
        assert set(cls._defaults) <= set(cls._fields), cls
        for value in cls._defaults.values():
            hash(value)


def test_every_annotation_names_something_in_its_module_scope():
    # Annotations are strings under ``from __future__ import annotations``, so
    # one that names a module imported only inside a function fails here.
    for info in pkgutil.iter_modules(bnpoly.__path__):
        module = importlib.import_module(f"bnpoly.{info.name}")
        for obj in vars(module).values():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            members = vars(obj).values() if inspect.isclass(obj) else [obj]
            for function in filter(inspect.isfunction, members):
                typing.get_type_hints(function)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: GroundSet(["a"]), "need between 2 and 16 nodes, got 1"),
        (lambda: GroundSet(["a", ""]), "node labels must be single characters, got ''"),
        (lambda: GroundSet([1, 2]), "node labels must be single characters, got 1"),
        (lambda: GroundSet(["a", "|"]), "node labels must not hold '|', the family-key separator"),
        (lambda: GroundSet(["a", "b|c"]), "node labels must be single characters, got 'b|c'"),
        # {a, b} and {ab} would both be written "ab"
        (lambda: GroundSet(["a", "ab", "b", "c"]), "node labels must be single characters, got 'ab'"),
        (lambda: GroundSet.alpha(17), "need between 2 and 16 nodes, got 17"),
        (lambda: GroundSet.alpha(3).index("z"), "unknown node label 'z'"),
        (
            lambda: FamVector(GroundSet.alpha(3), [((0, 2), 1), ((0, 2), 2)]),
            "duplicate coordinate key (0, 2)",
        ),
        (lambda: FamVector(GroundSet.alpha(3), {0: 1}), "family key must be (node, parent mask): 0"),
        (lambda: FamVector(GroundSet.alpha(3), {(3, 1): 1}), "node index 3 out of range"),
        (lambda: CharVector(GroundSet.alpha(3), {"ab": 1}), "subset key must be an int mask: 'ab'"),
    ],
    ids=[
        "one-node",
        "empty-label",
        "non-string-label",
        "separator-label",
        "label-holding-separator",
        "label-spelling-two-others",
        "alpha-17",
        "unknown-label",
        "duplicate-key",
        "malformed-family-key",
        "node-out-of-range",
        "non-int-subset-key",
    ],
)
def test_ground_refusals(build, message):
    with pytest.raises(BnPolyError) as info:
        build()
    assert str(info.value) == message


@pytest.mark.parametrize(
    "cls, key", [(FamVector, (0, 2)), (CharVector, 0b011), (SetFunction, 0b001)]
)
@pytest.mark.parametrize("values", [(1, 0), (0, 1), (0, 0)])
def test_a_coordinate_key_given_twice_is_refused_whatever_its_values(cls, key, values):
    with pytest.raises(BnPolyError) as info:
        cls(GroundSet.alpha(3), [(key, values[0]), (key, values[1])])
    assert str(info.value) == f"duplicate coordinate key {key!r}"


def test_family_keys_round_trip_for_every_printable_ascii_label_but_the_separator():
    for label in map(chr, range(0x20, 0x7F)):
        if label == "|":
            continue
        other = "b" if label == "a" else "a"
        gs = GroundSet([label, other])
        x, y = gs.index(label), gs.index(other)
        vector = FamVector(gs, {(x, 1 << y): 1, (y, 1 << x): Fraction(-1, 2)})
        assert FamVector.from_json(gs, vector.to_json()) == vector
