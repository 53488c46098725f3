"""Every bundles callable refuses a surface, divisor class, bundle or extension of another class.

Each case below is a valid call.  Every argument in it that is a library
value is replaced in turn by a stand-in with the same attributes, by None,
and by a value whose every attribute read fails the test, and the call must
raise the TypeError of _value._wrong_type naming that argument, before it
reads a field.  Without the checks a stand-in bundle with a float c2 gets
float answers: jumping_count and jumping_count_chi_oracle gave 3.5,
pushforward_degree -2.5 and euler_char_bundle 0.5.  The last test checks
that the cases cover every such argument of every public callable of
bundles.
"""

import inspect
from types import SimpleNamespace

import pytest

from ruledsurf import bundles
from ruledsurf.bundles import BundleNumerics, ExtensionData
from ruledsurf.geometry import DivisorClass, SurfaceGeometry

G = SurfaceGeometry(0, 1)
D = DivisorClass(2, 1)
B = BundleNumerics(G, 2, D, 3)  # balanced at a = 1
B3 = BundleNumerics(G, 3, DivisorClass(2, 0), 3)  # an extension with a = 1, x = 1
E = ExtensionData(G, 3, 1, 1, 0, 0)


class Unreadable:
    """A stand-in whose every attribute read fails the test."""

    def __getattribute__(self, name):
        pytest.fail(f"read {name} of an argument before refusing its class")


# a stand-in of each value class: its fields, one of them a float
STAND_INS = {
    SurfaceGeometry: SimpleNamespace(q=0, e=1.5),
    DivisorClass: SimpleNamespace(a=2, b=0.5),
    BundleNumerics: SimpleNamespace(g=G, r=2, c1=DivisorClass(2, 1), c2=3.5),
    ExtensionData: SimpleNamespace(g=G, r=3, x=1, a=1, deg_sub=0.5, deg_quot=0),
}

# a valid call of each callable: its value arguments are the ones replaced
CALLS = [
    (bundles.BundleNumerics, (G, 2, D, 3)),
    (bundles.ExtensionData, (G, 3, 1, 1, 0, 0)),
    (bundles.fiber_degree, (B,)),
    (bundles.twist, (B, D)),
    (bundles.jumping_count, (B, 1)),
    (bundles.pushforward_degree, (B, 1)),
    (bundles.jumping_count_chi_oracle, (B, 1)),
    (bundles.grr_verify, (B, 1)),
    (bundles.euler_char_bundle, (B,)),
    (bundles.extension_chern, (E,)),
    (bundles.extension_data_from_chern, (B3, 1, 1)),
    (bundles.slope, (B, D)),
    (bundles.destabilizes, (BundleNumerics(G, 1, D, 0), B, D)),
]


def value_arguments(f, args):
    """(position, parameter name, class) of each argument of a call that is a library value."""
    names = list(inspect.signature(f).parameters)
    return [(i, names[i], type(value)) for i, value in enumerate(args)
            if type(value) in STAND_INS]


CASES = [
    pytest.param(f, args[:i] + (wrong,) + args[i + 1:], f"{name} must be a {cls.__name__}, "
                 f"got {type(wrong).__name__}", id=f"{f.__name__}-{name}-{type(wrong).__name__}")
    for f, args in CALLS
    for i, name, cls in value_arguments(f, args)
    for wrong in (STAND_INS[cls], None, Unreadable())
]


def test_every_valid_call_answers():
    for f, args in CALLS:
        f(*args)


@pytest.mark.parametrize("f, args, text", CASES)
def test_a_value_of_another_class_is_refused(f, args, text):
    with pytest.raises(TypeError) as error:
        f(*args)
    assert str(error.value) == text


def test_every_value_argument_of_a_public_callable_is_covered():
    wanted = {cls.__name__ for cls in STAND_INS}
    takes = {(obj, p.name) for name, obj in vars(bundles).items()
             if not name.startswith("_") and getattr(obj, "__module__", None) == bundles.__name__
             and (inspect.isfunction(obj) or inspect.isclass(obj) and "__init__" in vars(obj))
             for p in inspect.signature(obj).parameters.values() if p.annotation in wanted}
    covered = {(f, name) for f, args in CALLS for _, name, _ in value_arguments(f, args)}
    assert takes == covered
    assert len(CASES) == 3 * len(covered) == 54
