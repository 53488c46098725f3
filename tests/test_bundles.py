from fractions import Fraction
from types import SimpleNamespace

import pytest

from ruledsurf.bundles import (
    BundleNumerics,
    ExtensionData,
    destabilizes,
    euler_char_bundle,
    extension_chern,
    extension_data_from_chern,
    fiber_degree,
    grr_verify,
    jumping_count,
    jumping_count_chi_oracle,
    pushforward_degree,
    slope,
    twist,
)
from ruledsurf.cohomology import euler_char
from ruledsurf.geometry import (
    SECTION,
    ZERO,
    DivisorClass,
    SurfaceGeometry,
    intersect,
)

G0 = SurfaceGeometry(0, 0)
G1 = SurfaceGeometry(0, 1)


def test_fiber_degree():
    assert fiber_degree(BundleNumerics(G0, 2, DivisorClass(2, 1), 0)) == 2
    assert fiber_degree(BundleNumerics(G0, 1, DivisorClass(0, 5), 0)) == 0
    assert fiber_degree(BundleNumerics(G1, 3, DivisorClass(-3, 0), 2)) == -3


def test_rank_must_be_positive():
    with pytest.raises(ValueError):
        BundleNumerics(G0, 0, ZERO, 0)


def test_twist_examples():
    b = BundleNumerics(G1, 2, DivisorClass(2, 0), 3)
    assert twist(b, ZERO) == b
    twisted = twist(b, -SECTION)
    assert twisted.c1 == ZERO and twisted.c2 == 4
    b2 = BundleNumerics(G0, 2, DivisorClass(2, 1), 2)
    twisted2 = twist(b2, -SECTION)
    assert twisted2.c1 == DivisorClass(0, 1) and twisted2.c2 == 1


def test_twist_composition():
    lines = [DivisorClass(a, b) for a in range(-2, 3) for b in range(-2, 3)]
    samples = [
        BundleNumerics(g, r, c1, c2)
        for g in (G0, G1)
        for r in (1, 2, 3)
        for c1 in (ZERO, DivisorClass(2, 1))
        for c2 in (0, 3)
    ]
    for b in samples:
        for l1 in lines:
            for l2 in lines:
                assert twist(twist(b, l1), l2) == twist(b, l1 + l2)
    wide = [DivisorClass(a, b) for a in range(-4, 5, 2) for b in range(-4, 5, 2)]
    b = BundleNumerics(SurfaceGeometry(0, 2), 2, DivisorClass(1, -1), -2)
    for l1 in wide:
        for l2 in wide:
            assert twist(twist(b, l1), l2) == twist(b, l1 + l2)


def test_jumping_count():
    assert jumping_count(BundleNumerics(G1, 2, DivisorClass(2, 0), 3), 1) == 4
    assert jumping_count(BundleNumerics(G0, 2, DivisorClass(2, 1), 2), 1) == 1
    for c2 in (-2, 0, 5):
        b = BundleNumerics(G1, 3, DivisorClass(0, 2), c2)
        assert jumping_count(b, 0) == c2


def test_jumping_count_preconditions():
    # r*a = 6 where r//a = 1
    with pytest.raises(ValueError) as error:
        jumping_count(BundleNumerics(G1, 3, DivisorClass(5, 0), 3), 2)
    assert str(error.value) == (
        "fiber degree 5 != r*a = 6: the general splitting type is not (a,...,a)")
    with pytest.raises(ValueError):
        jumping_count(BundleNumerics(G1, 2, DivisorClass(1, 0), 3), 1)
    with pytest.raises(ValueError):
        jumping_count(BundleNumerics(SurfaceGeometry(1, 0), 2, DivisorClass(2, 0), 3), 1)


def test_pushforward_degree():
    assert pushforward_degree(BundleNumerics(G1, 2, DivisorClass(2, 0), 3), 1) == -4
    assert pushforward_degree(BundleNumerics(G0, 2, DivisorClass(2, 1), 2), 1) == 0
    assert pushforward_degree(BundleNumerics(G0, 2, ZERO, 0), 0) == 0


def test_euler_char_bundle():
    for q in (0, 1, 3):
        g = SurfaceGeometry(q, 0)
        assert euler_char_bundle(BundleNumerics(g, 1, ZERO, 0)) == 1 - q
    assert euler_char_bundle(BundleNumerics(G0, 2, DivisorClass(-2, 1), 0)) == -1
    assert euler_char_bundle(BundleNumerics(G1, 2, ZERO, 4)) == -2


def test_euler_char_bundle_matches_line_euler():
    for e in range(3):
        g = SurfaceGeometry(0, e)
        for a in range(-4, 5):
            for b in range(-4, 5):
                d = DivisorClass(a, b)
                assert euler_char_bundle(BundleNumerics(g, 1, d, 0)) == euler_char(g, d)


def test_chi_oracle():
    assert jumping_count_chi_oracle(BundleNumerics(G1, 2, DivisorClass(2, 0), 3), 1) == 4
    assert jumping_count_chi_oracle(BundleNumerics(G0, 2, DivisorClass(2, 1), 2), 1) == 1
    assert jumping_count_chi_oracle(BundleNumerics(G0, 2, ZERO, 5), 0) == 5


def test_grr_verify():
    report = grr_verify(BundleNumerics(G1, 2, DivisorClass(2, 0), 3), 1)
    assert report.rank_ok and report.degree_ok
    assert report.lhs_degree == report.rhs_degree == -4
    report = grr_verify(BundleNumerics(G0, 2, ZERO, 5), 0)
    assert report.lhs_degree == report.rhs_degree == -5
    report = grr_verify(BundleNumerics(G0, 2, DivisorClass(2, 1), 2), 1)
    assert report.lhs_degree == report.rhs_degree == 0
    with pytest.raises(ValueError):
        grr_verify(BundleNumerics(G0, 2, DivisorClass(1, 1), 2), 1)


def test_extension_chern_examples():
    for e in range(4):
        g = SurfaceGeometry(0, e)
        b = extension_chern(ExtensionData(g, 2, 1, 0, 0, 0))
        assert (b.r, b.c1, b.c2) == (2, DivisorClass(-1, 0), 0)
    b = extension_chern(ExtensionData(G1, 2, 1, 1, 1, 0))
    assert (b.c1, b.c2) == (DivisorClass(1, 1), 0)
    b = extension_chern(ExtensionData(G0, 3, 1, 1, 0, 0))
    assert (b.c1, b.c2) == (DivisorClass(2, 0), 0)


def test_extension_fiber_degree_shape():
    for r in (2, 3, 5):
        for x in range(1, r):
            for a in (-1, 0, 2):
                ext = ExtensionData(G1, r, x, a, 3, -2)
                assert fiber_degree(extension_chern(ext)) == r * a - x


def test_extension_data_round_trip():
    cases = [
        ExtensionData(G0, 2, 1, 0, 0, 0),
        ExtensionData(G1, 2, 1, 1, 1, 0),
        ExtensionData(G0, 2, 1, 1, -1, 1),
        ExtensionData(SurfaceGeometry(0, 3), 5, 2, -2, 4, -5),
    ]
    for ext in cases:
        b = extension_chern(ext)
        assert extension_data_from_chern(b, ext.a, ext.x) == ext


def test_extension_data_errors():
    with pytest.raises(ValueError):
        ExtensionData(G0, 2, 2, 0, 0, 0)
    with pytest.raises(ValueError):
        extension_data_from_chern(BundleNumerics(G0, 2, DivisorClass(0, 0), 1), 1, 1)
    # c1.a = 1 fits neither x = 0 nor x = r, so only a check of x ahead of c1's gives this text
    for x in (0, 2):
        with pytest.raises(ValueError) as error:
            extension_data_from_chern(BundleNumerics(G0, 2, DivisorClass(1, 0), 1), 1, x)
        assert str(error.value) == f"need 0 < x < r, got x={x}, r=2"


def test_slope():
    assert slope(BundleNumerics(G0, 1, DivisorClass(1, 1), 0), DivisorClass(1, 1)) == 2
    assert slope(BundleNumerics(G0, 2, DivisorClass(0, 2), 0), DivisorClass(1, 1)) == 1
    assert slope(BundleNumerics(G0, 2, DivisorClass(2, 0), 0), DivisorClass(0, 1)) == 1
    assert slope(BundleNumerics(G0, 2, DivisorClass(1, 3), 0), DivisorClass(1, 2)) == Fraction(5, 2)


def test_slope_twist_shift():
    r_class = DivisorClass(1, 2)
    for e in range(3):
        g = SurfaceGeometry(0, e)
        for r in (1, 2, 3):
            b = BundleNumerics(g, r, DivisorClass(2, -1), 3)
            for line in (ZERO, SECTION, DivisorClass(-1, 4)):
                assert slope(twist(b, line), r_class) == slope(b, r_class) + intersect(
                    g, line, r_class
                )


def test_destabilizes():
    sub = BundleNumerics(G0, 1, DivisorClass(1, 1), 0)
    whole = BundleNumerics(G0, 2, DivisorClass(2, 2), 0)
    assert destabilizes(sub, whole, DivisorClass(1, 1))
    sub2 = BundleNumerics(G0, 1, DivisorClass(1, 0), 0)
    whole2 = BundleNumerics(G0, 2, DivisorClass(1, 3), 0)
    assert not destabilizes(sub2, whole2, DivisorClass(1, 1))
    assert not destabilizes(sub2, whole2, DivisorClass(1, 2))


def test_destabilizes_errors():
    sub = BundleNumerics(G0, 2, ZERO, 0)
    whole = BundleNumerics(G0, 2, ZERO, 0)
    with pytest.raises(ValueError):
        destabilizes(sub, whole, DivisorClass(1, 1))
    other = BundleNumerics(G1, 3, ZERO, 0)
    with pytest.raises(ValueError):
        destabilizes(sub, other, DivisorClass(1, 1))


@pytest.mark.parametrize("field", range(5))
@pytest.mark.parametrize("wrong", [True, 1.0, Fraction(1)])
def test_integer_fields_reject_every_non_int(field, wrong):
    # both constructors test the types inline; each field must still be checked
    ext = [3, 1, 1, 0, 0]
    ext[field] = wrong
    with pytest.raises(TypeError, match="must be integers"):
        ExtensionData(G0, *ext)
    if field < 2:
        bundle = [2, 1]
        bundle[field] = wrong
        with pytest.raises(TypeError, match="must be integers"):
            BundleNumerics(G0, bundle[0], ZERO, bundle[1])


@pytest.mark.parametrize("build, text", [
    # a geometry or c1 with the right attributes but the wrong class
    (lambda: BundleNumerics(SimpleNamespace(q=0, e=1), 2, DivisorClass(2, 0), 0),
     "g must be a SurfaceGeometry, got SimpleNamespace"),
    (lambda: BundleNumerics(G1, 2, SimpleNamespace(a=2.0, b=0.5), 0),
     "c1 must be a DivisorClass, got SimpleNamespace"),
    (lambda: BundleNumerics(G1, 2, (2, 0), 0), "c1 must be a DivisorClass, got tuple"),
    (lambda: ExtensionData(SimpleNamespace(e=0.5), 3, 1, 0, 1, 1),
     "g must be a SurfaceGeometry, got SimpleNamespace"),
    (lambda: ExtensionData(None, 3, 1, 0, 1, 1), "g must be a SurfaceGeometry, got NoneType"),
])
def test_composite_fields_refuse_every_other_class(build, text):
    with pytest.raises(TypeError) as error:
        build()
    assert str(error.value) == text


@pytest.mark.parametrize("line, name", [
    (SimpleNamespace(a=True, b=0), "SimpleNamespace"), ((1, 0), "tuple"), (None, "NoneType"),
])
def test_twist_refuses_a_line_of_another_class(line, name):
    with pytest.raises(TypeError) as error:
        twist(BundleNumerics(G1, 2, DivisorClass(2, 0), 3), line)
    assert str(error.value) == f"line must be a DivisorClass, got {name}"


def test_a_float_c1_never_reaches_a_jumping_count():
    # without the class checks, jumping_count answers 0.5 here
    geometry, c1 = SimpleNamespace(q=0, e=1), SimpleNamespace(a=2.0, b=0.5)
    with pytest.raises(TypeError, match="^g must be a SurfaceGeometry"):
        jumping_count(BundleNumerics(geometry, 2, c1, 0), 1)


@pytest.mark.parametrize("road", [
    jumping_count, pushforward_degree, jumping_count_chi_oracle, grr_verify,
])
@pytest.mark.parametrize("a", [1.0, True, Fraction(1)])
def test_every_road_refuses_a_twist_that_is_not_an_int(road, a):
    # r*a equals c1.a for each of them, so only the type check refuses;
    # without it jumping_count answers 4.0 for the float
    with pytest.raises(TypeError) as error:
        road(BundleNumerics(G1, 2, DivisorClass(2, 0), 3), a)
    assert str(error.value) == f"fiber twists must be integers, got {type(a).__name__}"
