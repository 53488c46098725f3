"""Acceptance checks: one test per criterion, exact arithmetic throughout.

Each test prints a single pass/fail line (visible with pytest -s) and
enforces the stated wall-clock budget.
"""

import time

from ruledsurf.bundles import BundleNumerics, jumping_count, pushforward_degree
from ruledsurf.geometry import (
    FIBER,
    SECTION,
    DivisorClass,
    SurfaceGeometry,
    canonical_class,
    intersect,
    is_ample,
    is_good_polarization,
    min_good_twist,
)
from ruledsurf.verify import run_suite


def _criterion(number, name, limit_seconds, body):
    start = time.perf_counter()
    try:
        body()
    except BaseException:
        print(f"criterion {number:02d} {name}: FAIL")
        raise
    elapsed = time.perf_counter() - start
    print(f"criterion {number:02d} {name}: PASS ({elapsed:.3f}s, limit {limit_seconds}s)")
    assert elapsed < limit_seconds, (
        f"criterion {number} exceeded its budget: {elapsed:.3f}s >= {limit_seconds}s"
    )


def _suite_ok(name):
    (result,) = run_suite(name)
    assert result.ok, f"{result.suite} failed at {result.counterexample}"
    return result


def test_criterion_01_intersection_ground_truth():
    def body():
        for e in range(7):
            g = SurfaceGeometry(0, e)
            assert intersect(g, SECTION, SECTION) == -e
            assert intersect(g, SECTION, FIBER) == 1
            assert intersect(g, FIBER, FIBER) == 0
        for q in range(4):
            for e in range(-q, 7):
                g = SurfaceGeometry(q, e)
                assert canonical_class(g) == DivisorClass(-2, 2 * q - 2 - e)

    _criterion(1, "intersection ground truth", 1.0, body)


def test_criterion_02_riemann_roch_consistency():
    def body():
        result = _suite_ok("euler")
        assert result.points == 5 * 17 * 17

    _criterion(2, "Riemann-Roch consistency", 1.0, body)


def test_criterion_03_serre_duality():
    def body():
        result = _suite_ok("serre")
        assert result.points == 5 * 17 * 17

    _criterion(3, "Serre duality", 1.0, body)


def test_criterion_04_conormal_vanishing():
    def body():
        result = _suite_ok("conormal")
        assert result.points == 4 * 3 * 4

    _criterion(4, "conormal-power vanishing", 1.0, body)


def test_criterion_05_triple_oracle():
    def body():
        result = _suite_ok("theoremC")
        assert result.points == 4 * 4 * 5 * 11 * 11

    _criterion(5, "jumping-count triple oracle", 5.0, body)


def test_criterion_06_spot_values():
    def body():
        first = BundleNumerics(SurfaceGeometry(0, 1), 2, DivisorClass(2, 0), 3)
        assert jumping_count(first, 1) == 4
        assert pushforward_degree(first, 1) == -4
        second = BundleNumerics(SurfaceGeometry(0, 0), 2, DivisorClass(2, 1), 2)
        assert jumping_count(second, 1) == 1
        assert pushforward_degree(second, 1) == 0

    _criterion(6, "spot values", 1.0, body)


def test_criterion_07_dominance_equivalence():
    def body():
        _suite_ok("dominance")

    _criterion(7, "dominance vs semicontinuity", 5.0, body)


def test_criterion_08_rigidity():
    def body():
        _suite_ok("rigid")

    _criterion(8, "rigid types, chains, jumping h1", 2.0, body)


def test_criterion_09_formal_lifting():
    def body():
        _suite_ok("lifting")

    _criterion(9, "formal lifting obstructions", 1.0, body)


def test_criterion_10_extension_round_trip():
    def body():
        result = _suite_ok("extension")
        assert result.points == 4 * (1 + 2 + 3 + 4) * 5 * 11 * 11

    _criterion(10, "extension round trip", 2.0, body)


def test_criterion_11_endomorphism_growth():
    def body():
        result = _suite_ok("growth")
        assert result.points == 21

    _criterion(11, "endomorphism growth and stabilization", 1.0, body)


def test_criterion_12_good_polarizations():
    def body():
        for e in range(5):
            g = SurfaceGeometry(0, e)
            for a in range(-10, 11):
                for b in range(-10, 11):
                    d = DivisorClass(a, b)
                    if is_ample(g, d):
                        assert is_good_polarization(g, d)
        g2 = SurfaceGeometry(2, 0)
        start = DivisorClass(1, 1)
        t = min_good_twist(g2, start)
        assert t == 1
        assert is_good_polarization(g2, start + t * FIBER)

    _criterion(12, "good polarizations", 1.0, body)
