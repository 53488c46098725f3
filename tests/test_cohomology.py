from collections import Counter
from fractions import Fraction
from types import SimpleNamespace

import pytest

from ruledsurf import cohomology
from ruledsurf.cohomology import (
    CohomologyTable,
    ConormalData,
    PositiveGenusError,
    SplitBundle,
    StabilizationError,
    check_conormal,
    conormal_vanishing,
    endomorphism_growth,
    euler_char,
    h_line,
    h_split_end,
    moduli_dimension_split,
    serre_dual,
    stabilization_index,
)
from ruledsurf.geometry import ZERO, DivisorClass, SurfaceGeometry, canonical_class


def brute_h0(e: int, a: int, b: int) -> int:
    """Independent section count: enumerate the monomial lattice points."""
    if a < 0:
        return 0
    count = 0
    for k in range(a + 1):
        j = 0
        while j <= b - k * e:
            count += 1
            j += 1
    return count


def test_h_line_against_lattice_oracle():
    for e in range(4):
        g = SurfaceGeometry(0, e)
        k = canonical_class(g)
        for a in range(-6, 7):
            for b in range(-6, 7):
                d = DivisorClass(a, b)
                table = h_line(g, d)
                assert table.h0 == brute_h0(e, a, b)
                assert table.h2 == brute_h0(e, k.a - a, k.b - b)
                assert table.h1 == table.h0 + table.h2 - euler_char(g, d)
                assert table.h1 >= 0


def test_h_line_examples():
    assert h_line(SurfaceGeometry(0, 0), DivisorClass(1, 1)) == CohomologyTable(4, 0, 0)
    assert h_line(SurfaceGeometry(0, 1), DivisorClass(1, 1)) == CohomologyTable(3, 0, 0)
    g2 = SurfaceGeometry(0, 2)
    assert h_line(g2, canonical_class(g2)) == CohomologyTable(0, 0, 1)
    for e in range(4):
        for b in (-3, 0, 5):
            assert h_line(SurfaceGeometry(0, e), DivisorClass(-1, b)) == CohomologyTable(0, 0, 0)


def test_h_line_of_trivial_bundle():
    for e in range(5):
        assert h_line(SurfaceGeometry(0, e), ZERO) == CohomologyTable(1, 0, 0)


def test_h_line_rejects_positive_genus():
    with pytest.raises(PositiveGenusError):
        h_line(SurfaceGeometry(1, 0), ZERO)


@pytest.mark.parametrize("q, e", [(1, 0), (1, -1), (3, 2), (10 ** 30, -(10 ** 30))])
@pytest.mark.parametrize("a, b", [(5, 1), (0, 0), (-1, 3), (-2, 0), (-3, -7), (-(10 ** 30), 4)])
def test_h_line_refuses_positive_genus_on_both_sides_of_a_minus_2(q, e, a, b):
    with pytest.raises(PositiveGenusError) as error:
        h_line(SurfaceGeometry(q, e), DivisorClass(a, b))
    assert str(error.value) == (
        f"exact cohomology needs genus zero, got q={q}; use euler_char instead")


def test_euler_char():
    for q in range(4):
        assert euler_char(SurfaceGeometry(q, 0), ZERO) == 1 - q
    assert euler_char(SurfaceGeometry(0, 1), DivisorClass(1, 1)) == 3
    g2 = SurfaceGeometry(0, 2)
    assert euler_char(g2, DivisorClass(-2, -4)) == 1


def test_serre_dual():
    g = SurfaceGeometry(0, 0)
    assert serre_dual(g, canonical_class(g)) == ZERO
    assert serre_dual(g, DivisorClass(1, 1)) == DivisorClass(-3, -3)
    assert serre_dual(SurfaceGeometry(1, 0), ZERO) == DivisorClass(-2, 0)


def test_conormal_vanishing():
    assert conormal_vanishing(SurfaceGeometry(0, 1), ConormalData(1, 2), 6)
    assert conormal_vanishing(SurfaceGeometry(0, 3), ConormalData(1, 4), 8)
    # At e = 0 the class (2, 1) is ample, so it passes; any e >= 1 rejects it.
    assert conormal_vanishing(SurfaceGeometry(0, 0), ConormalData(2, 1), 1)
    with pytest.raises(ValueError):
        conormal_vanishing(SurfaceGeometry(0, 2), ConormalData(2, 1), 1)
    with pytest.raises(ValueError):
        ConormalData(0, 5)


@pytest.mark.parametrize("n_max", [0, -5])
def test_conormal_vanishing_needs_a_power(n_max):
    with pytest.raises(ValueError, match=f"n_max must be at least 1, got {n_max}"):
        conormal_vanishing(SurfaceGeometry(0, 1), ConormalData(1, 2), n_max)


@pytest.mark.parametrize("q, e, bound", [(1, 0, 0), (2, -1, 3)])
def test_check_conormal_in_positive_genus(q, e, bound):
    # positive genus asks s > 2q - 2 + |e| of the conormal class, whatever t is
    g = SurfaceGeometry(q, e)
    with pytest.raises(ValueError, match=rf"2q-2\+\|e\| = {bound}, got s={bound}$"):
        check_conormal(g, ConormalData(1, bound))
    check_conormal(g, ConormalData(1, bound + 1))


def test_h_split_end():
    two_trivial = SplitBundle((ZERO, ZERO))
    for e in range(4):
        assert h_split_end(SurfaceGeometry(0, e), two_trivial) == CohomologyTable(4, 0, 0)
    mixed = SplitBundle((ZERO, DivisorClass(1, 0)))
    assert h_split_end(SurfaceGeometry(0, 2), mixed) == CohomologyTable(3, 1, 0)
    assert h_split_end(SurfaceGeometry(0, 3), SplitBundle((ZERO,))) == CohomologyTable(1, 0, 0)


def test_split_bundle_needs_summands():
    with pytest.raises(ValueError):
        SplitBundle(())


def test_moduli_dimension():
    for e in range(4):
        assert moduli_dimension_split(SurfaceGeometry(0, e), SplitBundle((ZERO, ZERO))) == 0
    assert moduli_dimension_split(SurfaceGeometry(0, 2), SplitBundle((ZERO, DivisorClass(1, 0)))) == 1
    double_section = SplitBundle((ZERO, DivisorClass(2, 0)))
    # h1(O(2h)) + h1(O(-2h)) is 0 + 1 at e=0 and 1 + (e+1) in general.
    assert moduli_dimension_split(SurfaceGeometry(0, 0), double_section) == 1
    assert moduli_dimension_split(SurfaceGeometry(0, 1), double_section) == 3
    assert moduli_dimension_split(SurfaceGeometry(0, 1), SplitBundle((ZERO, DivisorClass(0, 2)))) == 1


def test_moduli_zero_inside_no_h1_window():
    for e in range(3):
        g = SurfaceGeometry(0, e)
        for b in range(-1, e + 2):
            bundle = SplitBundle((ZERO, DivisorClass(1, b)))
            expected = h_line(g, DivisorClass(1, b)).h1 + h_line(g, DivisorClass(-1, -b)).h1
            assert moduli_dimension_split(g, bundle) == expected
    window = SplitBundle((ZERO, DivisorClass(-1, 0)))
    assert moduli_dimension_split(SurfaceGeometry(0, 1), window) == 0


def test_stabilization_index():
    assert stabilization_index(
        SurfaceGeometry(0, 0), SplitBundle((ZERO, ZERO)), ConormalData(1, 1), 10
    ) == 1
    assert stabilization_index(
        SurfaceGeometry(0, 1), SplitBundle((ZERO, DivisorClass(2, 0))), ConormalData(1, 2), 10
    ) == 1
    assert stabilization_index(
        SurfaceGeometry(0, 1), SplitBundle((ZERO, DivisorClass(0, 5))), ConormalData(1, 2), 10
    ) == 4


def test_stabilization_h1_profile():
    # The h1 of End(O + O(5f)) twisted by y*(1,2) at e=1 runs 5,3,1,0,0,...
    g = SurfaceGeometry(0, 1)
    bundle = SplitBundle((ZERO, DivisorClass(0, 5)))
    values = [h_split_end(g, bundle, DivisorClass(y, 2 * y)).h1 for y in range(1, 6)]
    assert values == [5, 3, 1, 0, 0]


def test_stabilization_unreached_within_bound():
    with pytest.raises(StabilizationError):
        stabilization_index(
            SurfaceGeometry(0, 1), SplitBundle((ZERO, DivisorClass(0, 5))), ConormalData(1, 2), 3
        )
    with pytest.raises(ValueError):
        stabilization_index(
            SurfaceGeometry(0, 0), SplitBundle((ZERO,)), ConormalData(1, 1), 0
        )


def test_endomorphism_growth():
    g0 = SurfaceGeometry(0, 0)
    line = SplitBundle((ZERO,))
    assert endomorphism_growth(g0, line, ConormalData(1, 1), 1) == 1
    assert endomorphism_growth(g0, line, ConormalData(1, 1), 2) == 5
    assert endomorphism_growth(g0, SplitBundle((ZERO, ZERO)), ConormalData(1, 1), 2) == 20
    with pytest.raises(ValueError):
        endomorphism_growth(g0, line, ConormalData(1, 1), 0)


def test_growth_strictly_increasing():
    g = SurfaceGeometry(0, 2)
    bundle = SplitBundle((DivisorClass(1, 0), DivisorClass(0, -1)))
    c = ConormalData(1, 3)
    values = [endomorphism_growth(g, bundle, c, n) for n in range(1, 11)]
    assert all(later > earlier for earlier, later in zip(values, values[1:]))


def test_h_line_and_euler_char_build_no_intermediate_values(monkeypatch):
    """h_line and h_split_end build their one table, unchecked, and no class, on
    both sides of a = -2, and refuse a positive genus; euler_char builds nothing."""
    built = Counter()

    for cls in (CohomologyTable, DivisorClass):
        def counted(cls_, *args, _checked=cls.__new__):
            built[cls_.__name__] += 1
            return _checked(cls_, *args)

        monkeypatch.setattr(cls, "__new__", counted)

    def unchecked(cls, fields):
        built["unchecked " + cls.__name__] += 1
        return tuple.__new__(cls, fields)

    monkeypatch.setattr(cohomology, "_unchecked", unchecked)
    for q, e, a, b in [(0, 0, 3, 1), (0, 2, -1, 4), (0, 1, -2, 0), (0, 3, -7, -9),
                       (2, -1, -5, 3), (1, 4, 6, -2)]:
        g, d = SurfaceGeometry(q, e), DivisorClass(a, b)
        bundle = SplitBundle((ZERO, d, d))
        built.clear()
        if q == 0:
            assert type(h_line(g, d)) is CohomologyTable
            assert built == {"unchecked CohomologyTable": 1}
            built.clear()
            assert type(h_split_end(g, bundle, d)) is CohomologyTable
            assert built == {"unchecked CohomologyTable": 1}
            built.clear()
        else:
            with pytest.raises(PositiveGenusError):
                h_line(g, d)
            with pytest.raises(PositiveGenusError):
                h_split_end(g, bundle, d)
            assert built == {}
        assert type(euler_char(g, d)) is int
        assert built == {}


@pytest.mark.parametrize("summands, text", [
    ((SimpleNamespace(a=0.5, b=1),), "each summand must be a DivisorClass, got SimpleNamespace"),
    ((ZERO, (1, 0)), "each summand must be a DivisorClass, got tuple"),
    ([ZERO, None], "each summand must be a DivisorClass, got NoneType"),
])
def test_split_bundle_refuses_a_summand_of_another_class(summands, text):
    with pytest.raises(TypeError) as error:
        SplitBundle(summands)
    assert str(error.value) == text


@pytest.mark.parametrize("field", range(3))
@pytest.mark.parametrize("wrong", [True, 1.0, Fraction(1), "1"])
def test_cohomology_table_refuses_every_non_int(field, wrong):
    entries = [1, 0, 0]
    entries[field] = wrong
    with pytest.raises(TypeError) as error:
        CohomologyTable(*entries)
    assert str(error.value) == (
        f"cohomology dimensions must be integers, got {type(wrong).__name__}")
