"""Exact intersection theory on geometrically ruled surfaces.

The numerical Picard group of a ruled surface over a smooth genus-q curve
has basis h (a section of minimal self-intersection, so h^2 = -e) and f
(a fiber), with h.f = 1 and f^2 = 0.  This module implements that pairing
together with the canonical class, ampleness and good-polarization tests,
and a cycle ring truncated above degree 2, which is just big enough to
push Chern characters and Todd classes down to the base curve.

All arithmetic is exact: divisor classes carry integer coefficients,
cycle classes carry rationals.  Only the cycle ring imports fractions,
where it builds a cycle, so a divisor computation loads none.  Every
value is immutable and every operation is a pure function, so concurrent
use needs no coordination.
"""

from __future__ import annotations

from ._value import _require_int, _Value, _wrong_type


def _as_fraction(what: str, value) -> Fraction:
    """value as a Fraction, if it is an int or a Fraction; the refusal names the field."""
    from fractions import Fraction

    if isinstance(value, Fraction):
        return value
    if type(value) is int:  # bool is a subclass of int, so no isinstance
        return Fraction(value)
    raise TypeError(f"{what} must be an exact integer or rational, got {type(value).__name__}")


class SurfaceGeometry(_Value, fields=("q", "e")):
    """Base-curve genus q and ruled-surface invariant e (minimal section has h^2 = -e)."""
    __slots__ = ()

    def __new__(cls, q: int, e: int):
        if type(q) is not int or type(e) is not int:
            _require_int("genus and invariant", q, e)
        if q < 0:
            raise ValueError(f"genus must be nonnegative, got q={q}")
        if e < -q:
            raise ValueError(
                f"invariant e={e} violates the Nagata-Segre bound e >= -q = {-q}"
            )
        return tuple.__new__(cls, (q, e))


class DivisorClass(_Value, fields=("a", "b")):
    """Numerical divisor class a*h + b*f with integer coefficients."""
    __slots__ = ()

    def __new__(cls, a: int, b: int):
        if type(a) is not int or type(b) is not int:
            _require_int("divisor coefficients", a, b)
        return tuple.__new__(cls, (a, b))

    # Another operand's class is refused with NotImplemented, so Python raises TypeError:
    # a plain tuple or a stand-in is not a class, nor is a bool or a float a multiple.
    def __add__(self, other: "DivisorClass") -> "DivisorClass":
        if type(other) is not DivisorClass:
            return NotImplemented
        return DivisorClass(self.a + other.a, self.b + other.b)

    def __sub__(self, other: "DivisorClass") -> "DivisorClass":
        if type(other) is not DivisorClass:
            return NotImplemented
        return DivisorClass(self.a - other.a, self.b - other.b)

    def __neg__(self) -> "DivisorClass":
        return DivisorClass(-self.a, -self.b)

    def __mul__(self, n: int) -> "DivisorClass":
        if type(n) is not int:
            return NotImplemented
        return DivisorClass(self.a * n, self.b * n)

    __rmul__ = __mul__


ZERO = DivisorClass(0, 0)
SECTION = DivisorClass(1, 0)
FIBER = DivisorClass(0, 1)


def intersect(g: SurfaceGeometry, d1: DivisorClass, d2: DivisorClass) -> int:
    """Intersection number of two divisor classes: -e*a1*a2 + a1*b2 + a2*b1."""
    if type(g) is not SurfaceGeometry:
        raise _wrong_type("g", SurfaceGeometry, g)
    if type(d1) is not DivisorClass:
        raise _wrong_type("d1", DivisorClass, d1)
    if type(d2) is not DivisorClass:
        raise _wrong_type("d2", DivisorClass, d2)
    return -g.e * d1.a * d2.a + d1.a * d2.b + d2.a * d1.b


def canonical_class(g: SurfaceGeometry) -> DivisorClass:
    """Canonical divisor class -2h + (2q - 2 - e)f."""
    if type(g) is not SurfaceGeometry:
        raise _wrong_type("g", SurfaceGeometry, g)
    return DivisorClass(-2, 2 * g.q - 2 - g.e)


def is_ample(g: SurfaceGeometry, d: DivisorClass) -> bool:
    """Ampleness of a*h + b*f: a > 0 and b > a*e (e >= 0), or a > 0 and 2b > a*e (e < 0)."""
    if type(g) is not SurfaceGeometry:
        raise _wrong_type("g", SurfaceGeometry, g)
    if type(d) is not DivisorClass:
        raise _wrong_type("d", DivisorClass, d)
    if d.a <= 0:
        return False
    if g.e >= 0:
        return d.b > d.a * g.e
    return 2 * d.b > d.a * g.e


def is_good_polarization(g: SurfaceGeometry, d: DivisorClass) -> bool:
    """Ample class R with R.K + R.f < 0, equivalently a(e + 2q - 1) < 2b."""
    if not is_ample(g, d):  # which refuses a surface or divisor of another class
        return False
    k = canonical_class(g)
    return intersect(g, d, k) + intersect(g, d, FIBER) < 0


def min_good_twist(g: SurfaceGeometry, d: DivisorClass) -> int:
    """Smallest t >= 0 such that d + t*f is a good polarization.

    Adding fibers keeps an ample class ample, so d + t*f is good exactly
    when a(e + 2q - 1) < 2(b + t), and the least such t is read off in
    closed form.  Non-ample input is rejected.
    """
    if not is_ample(g, d):  # which refuses a surface or divisor of another class
        raise ValueError(f"{d!r} is not ample on (q={g.q}, e={g.e})")
    return max(0, (d.a * (g.e + 2 * g.q - 1) - 2 * d.b) // 2 + 1)


class CycleClass(_Value, fields=("r0", "dh", "df", "p2")):
    """Graded cycle r0 + (dh*h + df*f) + p2*[pt], truncated above degree 2.

    Coefficients are exact rationals; integer inputs are converted, anything
    else (floats in particular) is rejected.
    """
    __slots__ = ()

    def __new__(cls, r0: Fraction, dh: Fraction, df: Fraction, p2: Fraction):
        return tuple.__new__(cls, (_as_fraction("r0", r0), _as_fraction("dh", dh),
                                   _as_fraction("df", df), _as_fraction("p2", p2)))


class CurveCycle(_Value, fields=("r0", "p1")):
    """Cycle r0 + p1*[pt] on the base curve (degrees 0 and 1 only)."""
    __slots__ = ()

    def __new__(cls, r0: Fraction, p1: Fraction):
        return tuple.__new__(cls, (_as_fraction("r0", r0), _as_fraction("p1", p1)))


def cycle_mul(g: SurfaceGeometry, x: CycleClass, y: CycleClass) -> CycleClass:
    """Product in the truncated cycle ring; the degree-1 square lands on -e, 1, 1, 0."""
    if type(g) is not SurfaceGeometry:
        raise _wrong_type("g", SurfaceGeometry, g)
    if type(x) is not CycleClass:
        raise _wrong_type("x", CycleClass, x)
    if type(y) is not CycleClass:
        raise _wrong_type("y", CycleClass, y)
    pairing = -g.e * x.dh * y.dh + x.dh * y.df + y.dh * x.df
    return CycleClass(
        x.r0 * y.r0,
        x.r0 * y.dh + y.r0 * x.dh,
        x.r0 * y.df + y.r0 * x.df,
        x.r0 * y.p2 + y.r0 * x.p2 + pairing,
    )


def curve_mul(x: CurveCycle, y: CurveCycle) -> CurveCycle:
    if type(x) is not CurveCycle:
        raise _wrong_type("x", CurveCycle, x)
    if type(y) is not CurveCycle:
        raise _wrong_type("y", CurveCycle, y)
    return CurveCycle(x.r0 * y.r0, x.r0 * y.p1 + x.p1 * y.r0)


def chern_character(g: SurfaceGeometry, rank: int, c1: DivisorClass, c2: int) -> CycleClass:
    """Chern character rank + c1 + (c1^2 - 2*c2)/2 of a rank/c1/c2 triple."""
    if type(c1) is not DivisorClass:  # g is refused by intersect, before any field is read
        raise _wrong_type("c1", DivisorClass, c1)
    _require_int("rank and c2", rank, c2)
    if rank < 0:
        raise ValueError(f"rank must be nonnegative, got {rank}")
    from fractions import Fraction

    return CycleClass(rank, c1.a, c1.b, Fraction(intersect(g, c1, c1) - 2 * c2, 2))


def todd_surface(g: SurfaceGeometry) -> CycleClass:
    """Todd class 1 - K/2 + (1-q)*[pt] of the surface's tangent bundle."""
    from fractions import Fraction

    k = canonical_class(g)
    return CycleClass(1, Fraction(-k.a, 2), Fraction(-k.b, 2), 1 - g.q)


def todd_curve(q: int) -> CurveCycle:
    """Todd class 1 + (1-q)*[pt] of a genus-q curve."""
    _require_int("genus values", q)
    if q < 0:
        raise ValueError(f"genus must be nonnegative, got {q}")
    return CurveCycle(1, 1 - q)


def pushforward_to_curve(g: SurfaceGeometry, x: CycleClass) -> CurveCycle:
    """Proper pushforward along the ruling.

    The section class maps isomorphically to the base, fibers contract,
    the degree-0 part dies for dimension reasons, and points go to points.
    """
    if type(g) is not SurfaceGeometry:  # g is never read, but refused all the same
        raise _wrong_type("g", SurfaceGeometry, g)
    if type(x) is not CycleClass:
        raise _wrong_type("x", CycleClass, x)
    return CurveCycle(x.dh, x.p2)
