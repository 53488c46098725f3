from fractions import Fraction

import pytest

from ruledsurf.bundles import BundleNumerics, ExtensionData
from ruledsurf.cohomology import ConormalData
from ruledsurf.geometry import (
    FIBER,
    SECTION,
    ZERO,
    CurveCycle,
    CycleClass,
    DivisorClass,
    SurfaceGeometry,
    canonical_class,
    chern_character,
    curve_mul,
    cycle_mul,
    intersect,
    is_ample,
    is_good_polarization,
    min_good_twist,
    pushforward_to_curve,
    todd_curve,
    todd_surface,
)
from ruledsurf.splitting import SplittingType, h1_end


def test_intersection_ground_truth():
    assert intersect(SurfaceGeometry(0, 2), SECTION, SECTION) == -2
    for e in range(7):
        g = SurfaceGeometry(0, e)
        assert intersect(g, SECTION, FIBER) == 1
        assert intersect(g, FIBER, FIBER) == 0
        assert intersect(g, SECTION, SECTION) == -e


def test_intersection_expanded():
    g = SurfaceGeometry(0, 1)
    d = SECTION + FIBER
    assert intersect(g, d, d) == 1


def test_intersection_symmetric():
    for e in (0, 1, 3):
        g = SurfaceGeometry(0, e)
        classes = [
            DivisorClass(a, b) for a in range(-5, 6) for b in range(-5, 6)
        ]
        for d1 in classes:
            for d2 in classes:
                assert intersect(g, d1, d2) == intersect(g, d2, d1)


def test_intersection_bilinear():
    small = [DivisorClass(a, b) for a in range(-2, 3) for b in range(-2, 3)]
    for e in (0, 1, 2):
        g = SurfaceGeometry(0, e)
        for d1 in small:
            for d2 in small:
                for d3 in small:
                    assert intersect(g, d1 + d2, d3) == intersect(g, d1, d3) + intersect(g, d2, d3)
    wide = [DivisorClass(a, b) for a in range(-8, 9, 3) for b in range(-8, 9, 3)]
    g = SurfaceGeometry(0, 4)
    for d1 in wide:
        for d2 in wide:
            for d3 in wide:
                assert intersect(g, d1 + d2, d3) == intersect(g, d1, d3) + intersect(g, d2, d3)


def test_canonical_class_values():
    assert canonical_class(SurfaceGeometry(0, 0)) == DivisorClass(-2, -2)
    assert canonical_class(SurfaceGeometry(0, 2)) == DivisorClass(-2, -4)
    assert canonical_class(SurfaceGeometry(1, 0)) == DivisorClass(-2, 0)


def test_canonical_self_intersection_is_eight_on_genus_zero():
    for e in range(7):
        g = SurfaceGeometry(0, e)
        k = canonical_class(g)
        assert intersect(g, k, k) == 8


def test_ampleness():
    assert is_ample(SurfaceGeometry(0, 1), DivisorClass(1, 2))
    for g in (SurfaceGeometry(0, 0), SurfaceGeometry(2, 1), SurfaceGeometry(1, -1)):
        assert not is_ample(g, DivisorClass(0, 5))
    assert is_ample(SurfaceGeometry(1, 0), DivisorClass(1, 1))
    assert not is_ample(SurfaceGeometry(0, 2), DivisorClass(1, 2))
    assert is_ample(SurfaceGeometry(1, -1), DivisorClass(2, 0))
    assert not is_ample(SurfaceGeometry(1, -1), DivisorClass(2, -1))
    assert not is_ample(SurfaceGeometry(0, 0), ZERO)


def test_good_polarization():
    assert is_good_polarization(SurfaceGeometry(0, 0), DivisorClass(1, 1))
    assert not is_good_polarization(SurfaceGeometry(2, 0), DivisorClass(1, 1))
    assert is_good_polarization(SurfaceGeometry(2, 0), DivisorClass(1, 2))


def test_good_implies_ample():
    for q, e in ((0, 0), (0, 3), (1, -1), (2, 0), (3, 2)):
        g = SurfaceGeometry(q, e)
        for a in range(-10, 11):
            for b in range(-10, 11):
                d = DivisorClass(a, b)
                if is_good_polarization(g, d):
                    assert is_ample(g, d)


def test_hirzebruch_ample_classes_are_good():
    for e in range(5):
        g = SurfaceGeometry(0, e)
        for a in range(-10, 11):
            for b in range(-10, 11):
                d = DivisorClass(a, b)
                if is_ample(g, d):
                    assert is_good_polarization(g, d)


def test_min_good_twist():
    assert min_good_twist(SurfaceGeometry(0, 1), DivisorClass(1, 2)) == 0
    assert min_good_twist(SurfaceGeometry(2, 0), DivisorClass(1, 1)) == 1
    assert min_good_twist(SurfaceGeometry(1, 0), DivisorClass(1, 1)) == 0


def test_min_good_twist_output_is_good():
    for q, e, d in ((2, 0, DivisorClass(1, 1)), (3, 1, DivisorClass(2, 3)), (0, 2, DivisorClass(1, 3))):
        g = SurfaceGeometry(q, e)
        t = min_good_twist(g, d)
        assert is_good_polarization(g, d + t * FIBER)
        if t > 0:
            assert not is_good_polarization(g, d + (t - 1) * FIBER)


def test_min_good_twist_rejects_non_ample():
    with pytest.raises(ValueError):
        min_good_twist(SurfaceGeometry(0, 1), DivisorClass(0, 5))


def test_geometry_invariants_enforced():
    with pytest.raises(ValueError):
        SurfaceGeometry(-1, 0)
    with pytest.raises(ValueError):
        SurfaceGeometry(0, -1)
    with pytest.raises(ValueError):
        SurfaceGeometry(2, -3)
    SurfaceGeometry(2, -2)


def test_divisor_coefficients_must_be_integers():
    with pytest.raises(TypeError):
        DivisorClass(Fraction(1, 2), 0)


G0 = SurfaceGeometry(0, 0)


@pytest.mark.parametrize("build", [
    lambda: h1_end(SplittingType((2.5, 0))),
    lambda: SplittingType((1, Fraction(0))),
    lambda: SurfaceGeometry(True, False),
    lambda: SurfaceGeometry(0, 1.0),
    lambda: DivisorClass(True, 0),
    lambda: BundleNumerics(G0, 2.0, DivisorClass(0, 0), 1),
    lambda: BundleNumerics(G0, 2, DivisorClass(0, 0), 1.5),
    lambda: ConormalData(1.0, 2),
    lambda: ConormalData(1, 2.5),
    lambda: ExtensionData(G0, 3, 1, Fraction(1, 2), 0, 0),
    lambda: ExtensionData(G0, 3, True, 1, 0, 0),
    lambda: chern_character(G0, 2.5, DivisorClass(1, 0), 0),
    lambda: chern_character(G0, 2, DivisorClass(1, 0), Fraction(1)),
    lambda: todd_curve(1.5),
    lambda: todd_curve(True),
], ids=["h1_end-float", "type-fraction", "geometry-bool", "geometry-float", "divisor-bool",
        "bundle-rank-float", "bundle-c2-float", "conormal-t-float", "conormal-s-float",
        "extension-fraction", "extension-bool", "chern-rank-float", "chern-c2-fraction",
        "todd-curve-float", "todd-curve-bool"])
def test_constructors_take_exact_integers_only(build):
    with pytest.raises(TypeError, match="must be integers"):
        build()


@pytest.mark.parametrize("build", [
    lambda: CycleClass(True, 0, 0, 0),
    lambda: CycleClass(0, 0, 0, 0.5),
    lambda: CurveCycle(True, False),
    lambda: CurveCycle(1, 1.0),
], ids=["cycle-bool", "cycle-float", "curve-cycle-bool", "curve-cycle-float"])
def test_cycles_take_exact_integers_or_rationals_only(build):
    with pytest.raises(TypeError, match="exact integer or rational"):
        build()


def _cycle(r0, dh, df, p2):
    return CycleClass(Fraction(r0), Fraction(dh), Fraction(df), Fraction(p2))


def test_cycle_mul_examples():
    g1 = SurfaceGeometry(0, 1)
    unit = _cycle(1, 0, 0, 0)
    y = _cycle(2, Fraction(1, 2), -1, 3)
    assert cycle_mul(g1, unit, y) == y
    h_cycle = _cycle(0, 1, 0, 0)
    f_cycle = _cycle(0, 0, 1, 0)
    assert cycle_mul(g1, h_cycle, h_cycle) == _cycle(0, 0, 0, -1)
    assert cycle_mul(g1, h_cycle, f_cycle) == _cycle(0, 0, 0, 1)


def test_cycle_mul_commutative_associative():
    g = SurfaceGeometry(0, 2)
    halves = [Fraction(n, 2) for n in (-3, -1, 0, 1, 2)]
    cycles = [
        _cycle(r0, dh, df, p2)
        for r0 in halves[:3]
        for dh in halves[1:4]
        for df in halves[2:5]
        for p2 in (Fraction(0), Fraction(1, 2))
    ]
    sample = cycles[::3]
    for x in sample:
        for y in sample:
            assert cycle_mul(g, x, y) == cycle_mul(g, y, x)
            for z in sample[::2]:
                assert cycle_mul(g, cycle_mul(g, x, y), z) == cycle_mul(g, x, cycle_mul(g, y, z))


def test_chern_character():
    g0 = SurfaceGeometry(0, 0)
    assert chern_character(g0, 1, ZERO, 0) == _cycle(1, 0, 0, 0)
    assert chern_character(g0, 2, ZERO, 3) == _cycle(2, 0, 0, -3)
    assert chern_character(SurfaceGeometry(0, 1), 1, SECTION, 0) == _cycle(1, 1, 0, Fraction(-1, 2))
    with pytest.raises(ValueError):
        chern_character(g0, -1, ZERO, 0)


def test_todd_classes():
    assert todd_surface(SurfaceGeometry(0, 0)) == _cycle(1, 1, 1, 1)
    assert todd_surface(SurfaceGeometry(1, 0)) == _cycle(1, 1, 0, 0)
    assert todd_surface(SurfaceGeometry(0, 2)) == _cycle(1, 1, 2, 1)
    assert todd_curve(0) == CurveCycle(Fraction(1), Fraction(1))
    assert todd_curve(1) == CurveCycle(Fraction(1), Fraction(0))
    assert todd_curve(3) == CurveCycle(Fraction(1), Fraction(-2))
    with pytest.raises(ValueError):
        todd_curve(-1)


def test_pushforward_to_curve():
    g = SurfaceGeometry(0, 1)
    assert pushforward_to_curve(g, _cycle(0, 1, 0, 0)) == CurveCycle(Fraction(1), Fraction(0))
    assert pushforward_to_curve(g, _cycle(1, 0, 0, 0)) == CurveCycle(Fraction(0), Fraction(0))
    assert pushforward_to_curve(g, _cycle(0, 0, 1, 5)) == CurveCycle(Fraction(0), Fraction(5))


def test_pushforward_projection_formula():
    g = SurfaceGeometry(0, 2)
    surface_cycles = [
        _cycle(r0, dh, df, p2)
        for r0 in (0, 1, 2)
        for dh in (-1, 0, 2)
        for df in (0, 1)
        for p2 in (Fraction(-1, 2), Fraction(3))
    ]
    curve_cycles = [
        CurveCycle(Fraction(r0), Fraction(p1)) for r0 in (0, 1, 3) for p1 in (-2, 0, 1)
    ]
    for x in surface_cycles:
        for y in curve_cycles:
            lifted = CycleClass(y.r0, Fraction(0), y.p1, Fraction(0))
            lhs = pushforward_to_curve(g, cycle_mul(g, x, lifted))
            rhs = curve_mul(pushforward_to_curve(g, x), y)
            assert lhs == rhs
