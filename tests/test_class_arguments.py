"""Every bundles callable and every cohomology function refuses a value of another class.

So does every geometry function that takes only surfaces and divisor
classes.  The values are surfaces, divisor classes, bundles, extensions,
split bundles and conormal data.  Each case below is a valid call.  Every argument in it
that is a library value is replaced in turn by a stand-in with the same
attributes, by None, by a value whose every attribute read fails the test,
and by the plain tuple of the value's fields (a value is a tuple too), and
the call must raise the TypeError of _value._wrong_type naming that
argument, before it reads a field.  Without the checks a stand-in bundle
with a float c2 gets float answers: jumping_count and
jumping_count_chi_oracle gave 3.5, pushforward_degree -2.5 and
euler_char_bundle 0.5; below bundles, intersect gave -1.5 for a stand-in
divisor with a = 1.5, and endomorphism_growth 60.0 for a stand-in surface
with e = 1.5.  The last two tests check that the cases cover every such
argument of every public callable of bundles and every function of
cohomology, and every function of geometry that takes only surfaces and
divisor classes.
"""

import inspect
from types import SimpleNamespace

import pytest

from ruledsurf import bundles, cohomology, geometry
from ruledsurf.bundles import BundleNumerics, ExtensionData
from ruledsurf.cohomology import ConormalData, SplitBundle
from ruledsurf.geometry import DivisorClass, SurfaceGeometry

G = SurfaceGeometry(0, 1)
D = DivisorClass(2, 1)
AMPLE = DivisorClass(1, 2)
B = BundleNumerics(G, 2, D, 3)  # balanced at a = 1
B3 = BundleNumerics(G, 3, DivisorClass(2, 0), 3)  # an extension with a = 1, x = 1
E = ExtensionData(G, 3, 1, 1, 0, 0)
S = SplitBundle((DivisorClass(0, 0), DivisorClass(1, 0)))
C = ConormalData(1, 2)  # ample on G: s > e*t


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
    SplitBundle: SimpleNamespace(summands=(DivisorClass(0, 0), SimpleNamespace(a=1, b=0.5))),
    ConormalData: SimpleNamespace(t=1, s=2.5),
}

# the plain tuple of a value of each class: a value of another class
PLAIN = {
    SurfaceGeometry: (0, 1),
    DivisorClass: (2, 1),
    BundleNumerics: (G, 2, D, 3),
    ExtensionData: (G, 3, 1, 1, 0, 0),
    SplitBundle: ((DivisorClass(0, 0), DivisorClass(1, 0)),),
    ConormalData: (1, 2),
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
    (geometry.intersect, (G, D, AMPLE)),
    (geometry.canonical_class, (G,)),
    (geometry.is_ample, (G, D)),
    (geometry.is_good_polarization, (G, AMPLE)),
    (geometry.min_good_twist, (G, AMPLE)),
    (geometry.todd_surface, (G,)),
    (cohomology.h_line, (G, D)),
    (cohomology.euler_char, (G, D)),
    (cohomology.serre_dual, (G, D)),
    (cohomology.check_conormal, (G, C)),
    (cohomology.conormal_vanishing, (G, C, 3)),
    (cohomology.h_split_end, (G, S, D)),
    (cohomology.moduli_dimension_split, (G, S)),
    (cohomology.stabilization_index, (G, S, C, 10)),
    (cohomology.endomorphism_growth, (G, S, C, 3)),
]


def value_arguments(f, args):
    """(position, parameter name, class) of each argument of a call that is a library value."""
    names = list(inspect.signature(f).parameters)
    return [(i, names[i], type(value)) for i, value in enumerate(args)
            if type(value) in STAND_INS]


CASES = [
    pytest.param(f, args[:i] + (wrong,) + args[i + 1:],
                 f"{name} must be {'an' if cls.__name__[0] in 'AEIOU' else 'a'} {cls.__name__}, "
                 f"got {type(wrong).__name__}", id=f"{f.__name__}-{name}-{type(wrong).__name__}")
    for f, args in CALLS
    for i, name, cls in value_arguments(f, args)
    for wrong in (STAND_INS[cls], None, Unreadable(), PLAIN[cls])
]


def test_every_valid_call_answers():
    for f, args in CALLS:
        f(*args)


@pytest.mark.parametrize("f, args, text", CASES)
def test_a_value_of_another_class_is_refused(f, args, text):
    with pytest.raises(TypeError) as error:
        f(*args)
    assert str(error.value) == text


def test_a_plain_tuple_of_the_fields_is_the_value_it_stands_for():
    # so a refusal of PLAIN[cls] is a refusal of its class, not of its fields
    for cls, fields in PLAIN.items():
        assert tuple(cls(*fields)) == fields


def public_callables(module):
    """The public functions, and the classes with a constructor, that module defines."""
    return [obj for name, obj in vars(module).items()
            if not name.startswith("_") and getattr(obj, "__module__", None) == module.__name__
            and (inspect.isfunction(obj) or inspect.isclass(obj) and "__new__" in vars(obj))]


def covered(modules):
    """(callable, parameter) of each value argument of the cases for these modules."""
    return {(f, name) for f, args in CALLS if inspect.getmodule(f) in modules
            for _, name, _ in value_arguments(f, args)}


def test_every_value_argument_of_a_public_callable_is_covered():
    wanted = {cls.__name__ for cls in STAND_INS}
    takes = {(obj, p.name) for obj in public_callables(bundles)
             for p in inspect.signature(obj).parameters.values() if p.annotation in wanted}
    assert takes == covered({bundles})
    assert len(takes) == 18


def test_every_cohomology_function_and_surface_and_divisor_function_is_covered():
    # every value argument of a cohomology function, and the geometry functions
    # whose every argument is a surface or a divisor class
    wanted = {cls.__name__ for cls in STAND_INS}
    takes = {(obj, p.name) for obj in public_callables(cohomology) if inspect.isfunction(obj)
             for p in inspect.signature(obj).parameters.values() if p.annotation in wanted}
    assert len(takes) == 21
    surface_and_divisor = {"SurfaceGeometry", "DivisorClass"}
    takes |= {(obj, p.name) for obj in public_callables(geometry) if inspect.isfunction(obj)
              for params in [inspect.signature(obj).parameters.values()]
              if params and all(p.annotation in surface_and_divisor for p in params)
              for p in params}
    assert takes == covered({geometry, cohomology})
    assert len(takes) == 32
    assert len(CASES) == 4 * (18 + 32) == 200
