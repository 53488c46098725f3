"""Value semantics of the twelve immutable classes.

Each value is equal to another of its own class with the same fields,
hashes as the tuple of its fields, prints as ClassName(field=value, ...),
refuses assignment and deletion, and survives copy, deepcopy and pickle.
The pinned reprs are the ones these classes printed as frozen dataclasses.
A value that an unchecked builder makes (bundles' three, splitting's one)
is indistinguishable from the same value built checked, at up to 5000 digits.
"""

import copy
import pickle
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.vendor.pretty import pretty

from ruledsurf import bundles, splitting
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
    (GrrReport, {"rank_ok": True, "degree_ok": False, "lhs_degree": Fraction(5, 4),
                 "rhs_degree": 1}, ("degree_ok", True),
     "GrrReport(rank_ok=True, degree_ok=False, lhs_degree=Fraction(5, 4), rhs_degree=1)"),
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
    assert value.__eq__(tuple(fields.values())) is NotImplemented


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
def test_copies_round_trip(cls, fields, other, text, clone):
    value = cls(**fields)
    twin = clone(value)
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
    """One value built by its class's checked constructor and by its unchecked builder."""
    kind = draw(st.sampled_from(["_divisor", "_bundle", "_extension", "_listed"]))
    if kind == "_listed":
        parts = tuple(sorted(draw(st.lists(INTS, min_size=1, max_size=4)), reverse=True))
        return SplittingType(parts), splitting._listed(parts)
    q = draw(POSITIVE) - 1
    g = SurfaceGeometry(q, draw(st.one_of(st.just(-q), INTS.map(lambda n: abs(n) - q))))
    if kind == "_divisor":
        args = (draw(INTS), draw(INTS))
        return DivisorClass(*args), bundles._divisor(*args)
    r = draw(POSITIVE) + (kind == "_extension")
    if kind == "_bundle":
        args = (g, r, DivisorClass(draw(INTS), draw(INTS)), draw(INTS))
        return BundleNumerics(*args), bundles._bundle(*args)
    args = (g, r, draw(st.integers(1, r - 1)), draw(INTS), draw(INTS), draw(INTS))
    return ExtensionData(*args), bundles._extension(*args)


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
    assert list(vars(unchecked).items()) == list(vars(checked).items())  # order included
    assert shown(unchecked) == shown(checked)
    assert pretty(unchecked) == pretty(checked)
    for name in (*vars(checked), "extra"):
        with pytest.raises(AttributeError):
            setattr(unchecked, name, 0)
        with pytest.raises(AttributeError):
            delattr(unchecked, name)
    assert unchecked == checked
