"""Every public callable refuses an argument that is not of the class its annotation names.

The cases are read from the signatures of the callables the package
exports, its functions and its classes with a constructor, so a new public
function is covered with no list to edit.  Each row of TABLE is a valid
call, built from VALID, one valid argument per annotation, unless OVERRIDES
gives the call.  In each row, every argument annotated with a value class is
replaced in turn by a stand-in with the same fields, one of them a float, by
None, by a value whose every attribute read fails the test, and by the
plain tuple of the value's fields (a value is a tuple too), and the call
must raise the TypeError of _value._wrong_type naming that argument, before
it reads a field.  Every argument annotated int is replaced in turn by the
equal float, Fraction and by True, and the call must raise the TypeError of
_value._require_int naming that type.  Every argument annotated Fraction or bool
is replaced in turn by a float, None and a str, and the call must raise a
TypeError that names the parameter and the refused type.  Without the checks a stand-in answers
in floats: h1_end gave 1.5 for a stand-in type with parts (2.5, 0),
jumping_count 3.5 for a stand-in bundle with c2 = 3.5, and
endomorphism_growth 60.0 for a stand-in surface with e = 1.5.

Annotations are read as the strings inspect.signature gives, not through
typing.get_type_hints: Fraction is imported only inside the function bodies
that build one, so the hints of slope or CycleClass do not resolve.
"""

from __future__ import annotations  # run_serre's annotation is a string, as in the package

import inspect
from fractions import Fraction
from types import SimpleNamespace

import pytest

import ruledsurf
from ruledsurf import verify
from ruledsurf._value import _Value
from ruledsurf.bundles import BundleNumerics, ExtensionData, destabilizes, extension_data_from_chern
from ruledsurf.cohomology import ConormalData, SplitBundle
from ruledsurf.geometry import CurveCycle, CycleClass, DivisorClass, SurfaceGeometry
from ruledsurf.splitting import SplittingType, jumping_type

G = SurfaceGeometry(0, 1)
D = DivisorClass(1, 2)  # ample on G
B = BundleNumerics(G, 2, DivisorClass(2, 1), 3)  # balanced at a = 1

# a valid argument for each annotation of a public parameter
VALID = {
    "int": 1,
    "bool": True,
    "Fraction": Fraction(1, 2),
    "tuple[int, ...]": (2, 0, -1),
    "tuple[DivisorClass, ...]": (DivisorClass(0, 0), DivisorClass(1, 0)),
    "SurfaceGeometry": G,
    "DivisorClass": D,
    "BundleNumerics": B,
    "ExtensionData": ExtensionData(G, 3, 1, 1, 0, 0),
    "SplitBundle": SplitBundle((DivisorClass(0, 0), DivisorClass(1, 0))),
    "ConormalData": ConormalData(1, 2),  # ample on G: s > e*t
    "SplittingType": SplittingType((2, 0, -1)),
    "CycleClass": CycleClass(1, Fraction(1, 2), -1, 0),
    "CurveCycle": CurveCycle(1, 2),
}

# the calls the arguments of VALID do not make valid
OVERRIDES = {
    ExtensionData: tuple(VALID["ExtensionData"]),  # 0 < x < r, which 1, 1 is not
    jumping_type: (3, 1),  # rank at least 2
    # c1.a = r*a - x
    extension_data_from_chern: (BundleNumerics(G, 3, DivisorClass(2, 0), 3), 1, 1),
    destabilizes: (BundleNumerics(G, 1, D, 0), B, D),  # sub of smaller rank
}

VALUE_CLASSES = {name for name in ruledsurf.__all__
                 if inspect.isclass(obj := getattr(ruledsurf, name)) and issubclass(obj, _Value)}


def run_serre(e_max: int):
    # verify is no export; its run_suite takes every bound as a keyword, like this one
    return verify.run_suite("serre", e_max=e_max)


def public_callables():
    """The functions, and the classes with a constructor, that the package exports."""
    for name in ruledsurf.__all__:
        obj = getattr(ruledsurf, name)
        if inspect.isfunction(obj) or inspect.isclass(obj) and "__new__" in vars(obj):
            yield obj


def parameters(f):
    return list(inspect.signature(f).parameters.values())


TABLE = [(f, OVERRIDES.get(f) or tuple(VALID[p.annotation] for p in parameters(f)))
         for f in [*public_callables(), run_serre]]


class Unreadable:
    """A stand-in whose every attribute read fails the test."""

    def __getattribute__(self, name):
        pytest.fail(f"read {name} of an argument before refusing its class")


def floated(x):
    """x with its last number a float, 2 as 2.5: a value as a SimpleNamespace of its fields."""
    if isinstance(x, tuple):
        last = (*x[:-1], floated(x[-1]))
        return SimpleNamespace(**dict(zip(x._fields, last))) if isinstance(x, _Value) else last
    return x + 0.5


def replaced(args, i, wrong):
    return args[:i] + (wrong,) + args[i + 1:]


CLASS_CASES = [
    pytest.param(f, replaced(args, i, wrong),
                 f"{p.name} must be {'an' if p.annotation[0] in 'AEIOU' else 'a'} "
                 f"{p.annotation}, got {type(wrong).__name__}",
                 id=f"{f.__name__}-{p.name}-{type(wrong).__name__}")
    for f, args in TABLE
    for i, p in enumerate(parameters(f)) if p.annotation in VALUE_CLASSES
    for wrong in (floated(args[i]), None, Unreadable(), tuple(args[i]))
]

INT_CASES = [
    pytest.param(f, replaced(args, i, wrong), type(wrong).__name__,
                 id=f"{f.__name__}-{p.name}-{type(wrong).__name__}")
    for f, args in TABLE
    for i, p in enumerate(parameters(f)) if p.annotation == "int"
    for wrong in (float(args[i]), Fraction(args[i]), True)
]


# a Fraction parameter takes an int or a Fraction, a bool parameter a bool only
EXACT_CASES = [
    pytest.param(f, replaced(args, i, wrong), p.name, type(wrong).__name__,
                 id=f"{f.__name__}-{p.name}-{type(wrong).__name__}")
    for f, args in TABLE
    for i, p in enumerate(parameters(f)) if p.annotation in ("Fraction", "bool")
    for wrong in (0.5, None, "1")
]


def test_every_valid_call_answers():
    for f, args in TABLE:
        f(*args)


@pytest.mark.parametrize("f, args, text", CLASS_CASES)
def test_a_value_of_another_class_is_refused(f, args, text):
    with pytest.raises(TypeError) as error:
        f(*args)
    assert str(error.value) == text


@pytest.mark.parametrize("f, args, name", INT_CASES)
def test_a_value_that_is_not_an_int_is_refused(f, args, name):
    with pytest.raises(TypeError, match=f" must be integers, got {name}$"):
        f(*args)


@pytest.mark.parametrize("f, args, name, kind", EXACT_CASES)
def test_a_value_of_another_type_is_refused_by_name(f, args, name, kind):
    with pytest.raises(TypeError, match=f"^{name} must be .*, got {kind}$"):
        f(*args)
