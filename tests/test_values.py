"""Value semantics of the twelve immutable classes.

Each value is a tuple of its fields with no instance dict.  It is equal to
another of its own class with the same fields and to nothing else, the
plain tuple of its fields included, hashes as that tuple, prints as
ClassName(field=value, ...), refuses assignment and deletion, ordering,
+ and * (DivisorClass's own arithmetic apart), and survives copy, deepcopy
and pickle through its checked constructor.  The pinned reprs are the ones
these classes printed as frozen dataclasses.  A value that the one
unchecked builder, _value._unchecked, makes is indistinguishable from the
same value built checked, at up to 5000 digits.
"""

import copy
import operator
import pickle
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.vendor.pretty import pretty

from ruledsurf import cli
from ruledsurf._value import _unchecked
from ruledsurf.bundles import BundleNumerics, ExtensionData, GrrReport
from ruledsurf.cohomology import CohomologyTable, ConormalData, SplitBundle
from ruledsurf.geometry import CurveCycle, CycleClass, DivisorClass, SurfaceGeometry, _Value
from ruledsurf.splitting import SplittingType
from ruledsurf.verify import SuiteResult

G = SurfaceGeometry(0, 1)

# class, its fields in declared order, a value of another field, its repr
CASES = [
    (SurfaceGeometry, {"q": 0, "e": 1}, ("e", 2), "SurfaceGeometry(q=0, e=1)"),
    (DivisorClass, {"a": 1, "b": -2}, ("b", 2), "DivisorClass(a=1, b=-2)"),
    (CycleClass, {"r0": Fraction(1), "dh": Fraction(1, 2), "df": Fraction(-1), "p2": Fraction(0)},
     ("p2", Fraction(1, 3)),
     "CycleClass(r0=Fraction(1, 1), dh=Fraction(1, 2), df=Fraction(-1, 1), p2=Fraction(0, 1))"),
    (CurveCycle, {"r0": Fraction(1), "p1": Fraction(0)}, ("p1", Fraction(-1)),
     "CurveCycle(r0=Fraction(1, 1), p1=Fraction(0, 1))"),
    (BundleNumerics, {"g": G, "r": 2, "c1": DivisorClass(1, 0), "c2": 3}, ("c2", 4),
     "BundleNumerics(g=SurfaceGeometry(q=0, e=1), r=2, c1=DivisorClass(a=1, b=0), c2=3)"),
    (ExtensionData, {"g": G, "r": 3, "x": 1, "a": 1, "deg_sub": 2, "deg_quot": -1},
     ("deg_quot", 0),
     "ExtensionData(g=SurfaceGeometry(q=0, e=1), r=3, x=1, a=1, deg_sub=2, deg_quot=-1)"),
    (GrrReport, {"rank_ok": True, "degree_ok": False, "lhs_degree": 5, "rhs_degree": 1},
     ("degree_ok", True), "GrrReport(rank_ok=True, degree_ok=False, lhs_degree=5, rhs_degree=1)"),
    (CohomologyTable, {"h0": 3, "h1": 0, "h2": 0}, ("h1", 1),
     "CohomologyTable(h0=3, h1=0, h2=0)"),
    (SplitBundle, {"summands": (DivisorClass(0, 0), DivisorClass(1, 0))},
     ("summands", (DivisorClass(0, 0),)),
     "SplitBundle(summands=(DivisorClass(a=0, b=0), DivisorClass(a=1, b=0)))"),
    (ConormalData, {"t": 1, "s": 2}, ("s", 3), "ConormalData(t=1, s=2)"),
    (SplittingType, {"parts": (2, 0, -1)}, ("parts", (1, 0, 0)),
     "SplittingType(parts=(2, 0, -1))"),
    (SuiteResult, {"suite": "rigid", "points": 356, "ok": True, "counterexample": None},
     ("ok", False),
     "SuiteResult(suite='rigid', points=356, ok=True, counterexample=None)"),
]

IDS = [case[0].__name__ for case in CASES]


def test_every_value_class_is_covered():
    assert {cls for cls, *_ in CASES} == set(_Value.__subclasses__())
    assert len(CASES) == 12


@pytest.mark.parametrize(("cls", "fields", "other", "text"), CASES, ids=IDS)
def test_repr_is_pinned(cls, fields, other, text):
    assert repr(cls(*fields.values())) == text


@pytest.mark.parametrize(("cls", "fields", "other", "text"), CASES, ids=IDS)
def test_keyword_construction_equals_positional(cls, fields, other, text):
    value = cls(**fields)
    assert value == cls(*fields.values())
    assert [getattr(value, name) for name in fields] == list(fields.values())


@pytest.mark.parametrize(("cls", "fields", "other", "text"), CASES, ids=IDS)
def test_equal_by_fields_within_a_class(cls, fields, other, text):
    value = cls(**fields)
    name, changed = other
    assert value == cls(**fields)
    assert not value != cls(**fields)
    assert value != cls(**{**fields, name: changed})
    assert value != tuple(fields.values())
    assert tuple(fields.values()) != value
    assert not value == tuple(fields.values())
    assert not tuple(fields.values()) == value
    # tuple's reflected == would answer True, so __eq__ answers for it
    assert value.__eq__(tuple(fields.values())) is False


def test_values_of_different_classes_differ():
    assert DivisorClass(1, 2) != CurveCycle(1, 2)
    assert CurveCycle(1, 2) != DivisorClass(1, 2)
    assert ConormalData(1, 2) != DivisorClass(1, 2)

    class Divisor(DivisorClass):  # the same fields, but another class
        pass

    assert Divisor(1, 2) != DivisorClass(1, 2)
    assert DivisorClass(1, 2) != Divisor(1, 2)
    assert Divisor(1, 2) == Divisor(1, 2)


@pytest.mark.parametrize(("cls", "fields", "other", "text"), CASES, ids=IDS)
def test_a_value_of_another_class_with_the_same_fields_differs(cls, fields, other, text):
    value = cls(**fields)
    stranger = _unchecked(CASES[IDS.index(cls.__name__) - 1][0], tuple(value))
    sub = type("Sub", (cls,), {"__slots__": ()})(**fields)
    for twin in (stranger, sub):
        assert tuple(twin) == tuple(value)
        assert value != twin and twin != value
        assert not value == twin and not twin == value


@pytest.mark.parametrize(("cls", "fields", "other", "text"), CASES, ids=IDS)
def test_a_value_is_a_tuple_with_no_instance_dict(cls, fields, other, text):
    value = cls(**fields)
    assert isinstance(value, tuple)
    assert not hasattr(value, "__dict__")


@pytest.mark.parametrize(("cls", "fields", "other", "text"), CASES, ids=IDS)
def test_ordering_is_refused(cls, fields, other, text):
    value = cls(**fields)
    for twin in (cls(**fields), tuple(fields.values())):
        for compare in (operator.lt, operator.le, operator.gt, operator.ge):
            with pytest.raises(TypeError, match=" values are not ordered"):
                compare(value, twin)
            with pytest.raises(TypeError, match=" values are not ordered"):
                compare(twin, value)


@pytest.mark.parametrize(("cls", "fields", "other", "text"), CASES, ids=IDS)
def test_tuple_concatenation_and_repetition_are_refused(cls, fields, other, text):
    value = cls(**fields)
    plain = tuple(fields.values())
    cases = [lambda: plain + value, lambda: value * plain]
    if cls is not DivisorClass:  # it adds divisors and multiplies them by an int
        cases += [lambda: value + value, lambda: value + plain, lambda: value * 2,
                  lambda: 2 * value]
    for op in cases:
        with pytest.raises(TypeError):
            op()
    if cls is DivisorClass:
        assert (value + value, value * 2, 2 * value) == (cls(2, -4),) * 3


# an operand of another class is refused with TypeError: a tuple, a stand-in with int
# fields a and b, and a scalar that is not an exact int, bool included
@pytest.mark.parametrize("op", [
    lambda d: d + (1, 2), lambda d: d - (1, 2), lambda d: d + SimpleNamespace(a=1, b=2),
    lambda d: d - SimpleNamespace(a=1, b=2), lambda d: d + SurfaceGeometry(1, 2),
    lambda d: d - ConormalData(1, 2), lambda d: d + 1, lambda d: d - None,
    lambda d: d * True, lambda d: False * d, lambda d: d * 1.0, lambda d: 2.0 * d,
    lambda d: d * Fraction(2), lambda d: Fraction(2) * d, lambda d: d * d,
    lambda d: d * (1, 2), lambda d: d * SimpleNamespace(a=1, b=2),
], ids=["add tuple", "sub tuple", "add stand-in", "sub stand-in", "add surface",
        "sub conormal", "add int", "sub None", "mul bool", "rmul bool", "mul float",
        "rmul float", "mul Fraction", "rmul Fraction", "mul divisor", "mul tuple",
        "mul stand-in"])
def test_divisor_arithmetic_refuses_an_operand_of_another_class(op):
    with pytest.raises(TypeError):
        op(DivisorClass(1, 2))


def test_divisor_arithmetic_on_classes_and_ints():
    d, e = DivisorClass(1, 2), DivisorClass(-3, 5)
    assert (d + e, d - e, -d, 3 * d, d * -2) == (
        DivisorClass(-2, 7), DivisorClass(4, -3), DivisorClass(-1, -2), DivisorClass(3, 6),
        DivisorClass(-2, -4))


# the value classes cli renders as literals; it refuses any other
ENCODED = {DivisorClass, SplittingType, CycleClass, CurveCycle, SplitBundle, BundleNumerics}


@pytest.mark.parametrize(("cls", "fields", "other", "text"), CASES, ids=IDS)
def test_the_cli_encodes_only_the_value_classes_it_names(cls, fields, other, text):
    value = cls(**fields)
    if cls in ENCODED:
        assert isinstance(cli._encode(value), str)
    else:  # never as the JSON list of its fields
        with pytest.raises(TypeError, match="^cannot encode "):
            cli._encode(value)


@pytest.mark.parametrize(("cls", "fields", "other", "text"), CASES, ids=IDS)
def test_hash_is_the_hash_of_the_fields(cls, fields, other, text):
    value = cls(**fields)
    assert hash(value) == hash(tuple(fields.values()))
    assert hash(value) == hash(cls(**fields))


def test_a_set_of_values_iterates_in_the_order_of_a_set_of_their_fields():
    pairs = [(a, b) for a in range(-40, 41, 7) for b in range(40, -41, -3)]
    assert [(d.a, d.b) for d in set(DivisorClass(*p) for p in pairs)] == list(set(pairs))
    assert {SplittingType((1, 0)), SplittingType((1, 0))} == {SplittingType((1, 0))}


def test_a_suite_result_holding_a_counterexample_is_unhashable_like_its_dict():
    result = SuiteResult("serre", 3, False, {"e": 0, "D": DivisorClass(1, 2)})
    assert result.counterexample == {"e": 0, "D": DivisorClass(1, 2)}
    with pytest.raises(TypeError, match="unhashable type: 'dict'"):
        hash(result)


@pytest.mark.parametrize("fields, error", [
    ((1.5, 3, True), "suite must be a str, got float"),
    (("serre", None, True), "points must be integers, got NoneType"),
    (("serre", True, True), "points must be integers, got bool"),
    (("serre", 3, "x"), "ok must be a bool, got str"),
    (("serre", 3, 1), "ok must be a bool, got int"),
    (("serre", 3, False, 3), "counterexample must be a dict or None, got int"),
    (("serre", 3, False, [("e", 0)]), "counterexample must be a dict or None, got list"),
])
def test_a_suite_result_refuses_a_field_of_another_class(fields, error):
    with pytest.raises(TypeError) as err:
        SuiteResult(*fields)
    assert str(err.value) == error


@pytest.mark.parametrize(("cls", "fields", "other", "text"), CASES, ids=IDS)
def test_assignment_and_deletion_raise(cls, fields, other, text):
    value = cls(**fields)
    for name in (*fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(value, name, 0)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert value == cls(**fields)
    assert not hasattr(value, "extra")


@pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy,
                                   lambda v: pickle.loads(pickle.dumps(v))],
                         ids=["copy", "deepcopy", "pickle"])
@pytest.mark.parametrize(("cls", "fields", "other", "text"), CASES, ids=IDS)
def test_copies_round_trip(cls, fields, other, text, clone, monkeypatch):
    value = cls(**fields)
    built = []
    checked = cls.__new__

    def counted(cls_, *args):
        built.append(args)
        return checked(cls_, *args)

    monkeypatch.setattr(cls, "__new__", counted)
    twin = clone(value)
    assert built == [tuple(fields.values())]  # once, through the checked constructor
    assert type(twin) is cls
    assert twin == value
    assert hash(twin) == hash(value)
    assert repr(twin) == text
    with pytest.raises(AttributeError):
        setattr(twin, next(iter(fields)), 0)


def test_pretty_printer_renders_a_coefficient_past_the_str_limit():
    huge = 10 ** 5000
    value = DivisorClass(huge, 1)
    with pytest.raises(ValueError):  # repr is bound by Python's 4300-digit str limit
        repr(value)
    text = pretty(value)
    assert text.startswith("DivisorClass(a=0x")
    assert text.replace("\n", "").replace(" ", "").endswith(",b=1)")
    assert int(text.split("=", 1)[1].split(",", 1)[0].replace("_", ""), 16) == huge


@pytest.mark.parametrize(("cls", "fields", "other", "text"), CASES, ids=IDS)
def test_pretty_printer_agrees_with_repr_on_small_values(cls, fields, other, text):
    # the printer breaks a line past 79 characters after a field's comma
    assert " ".join(pretty(cls(**fields)).split()) == text


# small, or of 5000 digits either sign
INTS = st.one_of(st.integers(-3, 3), st.integers(10 ** 4999, 10 ** 5000 - 1),
                 st.integers(-10 ** 5000 + 1, -10 ** 4999))
POSITIVE = st.one_of(st.integers(1, 5), st.integers(10 ** 4999, 10 ** 5000 - 1))


@st.composite
def built_both_ways(draw):
    """One value built by its class's checked constructor and by _unchecked."""
    kind = draw(st.sampled_from([DivisorClass, BundleNumerics, ExtensionData, SplittingType,
                                 CohomologyTable]))
    if kind is SplittingType:
        parts = tuple(sorted(draw(st.lists(INTS, min_size=1, max_size=4)), reverse=True))
        return SplittingType(parts), _unchecked(SplittingType, (parts,))
    if kind is CohomologyTable:
        args = (draw(INTS), draw(INTS), draw(INTS))
        return CohomologyTable(*args), _unchecked(CohomologyTable, args)
    q = draw(POSITIVE) - 1
    g = SurfaceGeometry(q, draw(st.one_of(st.just(-q), INTS.map(lambda n: abs(n) - q))))
    if kind is DivisorClass:
        args = (draw(INTS), draw(INTS))
    else:
        r = draw(POSITIVE) + (kind is ExtensionData)
        if kind is BundleNumerics:
            args = (g, r, DivisorClass(draw(INTS), draw(INTS)), draw(INTS))
        else:
            args = (g, r, draw(st.integers(1, r - 1)), draw(INTS), draw(INTS), draw(INTS))
    return kind(*args), _unchecked(kind, args)


def shown(value):
    """repr, or the error it raises on an int past Python's 4300-digit str limit."""
    try:
        return repr(value)
    except ValueError as exc:
        return f"ValueError: {exc}"


@settings(max_examples=200, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.large_base_example])
@given(built_both_ways())
def test_a_value_built_unchecked_is_the_value_built_checked(pair):
    checked, unchecked = pair
    assert type(unchecked) is type(checked)
    assert unchecked == checked and checked == unchecked and not unchecked != checked
    assert hash(unchecked) == hash(checked)
    assert [getattr(unchecked, name) for name in checked._fields] == list(checked)
    assert tuple.__eq__(unchecked, checked)  # the same fields, in the same order
    assert shown(unchecked) == shown(checked)
    assert pretty(unchecked) == pretty(checked)
    for name in (*checked._fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(unchecked, name, 0)
        with pytest.raises(AttributeError):
            delattr(unchecked, name)
    assert unchecked == checked
