"""Grothendieck-Riemann-Roch on the ruled surface, against a sympy oracle.

The oracle works in Q[h, f] with h^2 = -e*pt, h*f = pt and f^2 = 0, and
shares no code with ruledsurf.geometry: it twists by exp(-a*h), builds
the Todd class from the Chern classes of the tangent bundle, and pushes
ch * td along the ruling to the base, where it divides by td of the curve.
The public Fraction ring (chern_character -> cycle_mul ->
pushforward_to_curve -> curve_mul) must give its rank and degree in any
genus and at any fiber degree.  `grr_verify` writes the same road out in
ints for genus zero and a normalized twist of fiber degree 0, the regime
it accepts, so it is checked there alone: on the whole default theoremC
grid and at coefficients of up to 5000 digits.
"""

import inspect
from fractions import Fraction
from math import prod

import sympy as sp
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ruledsurf.bundles import BundleNumerics, grr_verify, twist
from ruledsurf.geometry import (
    SECTION,
    CurveCycle,
    DivisorClass,
    SurfaceGeometry,
    chern_character,
    curve_mul,
    cycle_mul,
    pushforward_to_curve,
    todd_surface,
)
from ruledsurf.verify import SUITES, run_suite

H, F, PT = sp.symbols("h f pt")  # PT: the point class of the base curve


def _reduce(expr, e):
    """(degree 0, h part, f part, point part) of a polynomial in h and f."""
    parts = [sp.Integer(0)] * 4
    for (i, j), c in sp.Poly(sp.expand(expr), H, F).terms():
        if i + j == 0:
            parts[0] += c
        elif (i, j) == (1, 0):
            parts[1] += c
        elif (i, j) == (0, 1):
            parts[2] += c
        elif (i, j) == (2, 0):
            parts[3] += -e * c  # h^2 = -e pt
        elif (i, j) == (1, 1):
            parts[3] += c  # h f = pt
        # f^2 = 0, and the surface has nothing above degree 2
    return parts


def grr_oracle(e, q, r, a, c1a, c1b, c2):
    """(rank, degree) of ch(pi_! E(-a h)) = pi_*(ch(E(-a h)) td(S)) / td(C)."""
    point = H * F  # the point class of the surface
    c1 = c1a * H + c1b * F
    ch = r + c1 + c1 ** 2 / 2 - c2 * point
    ch_twisted = ch * (1 - a * H + a ** 2 * H ** 2 / 2)  # times exp(-a h)
    # td = 1 + c1(T)/2 + (c1(T)^2 + c2(T))/12, with c1(T) = -K and c2(T) = 4(1 - q)
    c1_tangent = 2 * H + (e + 2 - 2 * q) * F
    td = 1 + c1_tangent / 2 + (c1_tangent ** 2 + 4 * (1 - q) * point) / 12
    _, on_section, _, on_point = _reduce(ch_twisted * td, e)
    # the section maps onto the base, points go to points, the rest dies;
    # td(C) = 1 + (1 - q) PT and PT^2 = 0, so dividing by it is multiplying by 1 - (1 - q) PT
    pushed = sp.expand((on_section + on_point * PT) * (1 - (1 - q) * PT))
    return pushed.coeff(PT, 0), pushed.coeff(PT, 1)


def fraction_ring(bundle, a):
    """(rank, degree) of the same GRR road through geometry's public Fraction ring."""
    g = bundle.g
    normalized = twist(bundle, -a * SECTION)
    ch = chern_character(g, normalized.r, normalized.c1, normalized.c2)
    pushed = pushforward_to_curve(g, cycle_mul(g, ch, todd_surface(g)))
    lhs = curve_mul(pushed, CurveCycle(1, g.q - 1))  # todd_curve(q)^-1
    return lhs.r0, lhs.p1


def _as_fraction(value):
    value = sp.Rational(value)
    return Fraction(int(value.p), int(value.q))


def _check(bundle, a):
    g = bundle.g
    rank, degree = (_as_fraction(v) for v in grr_oracle(
        g.e, g.q, bundle.r, a, bundle.c1.a, bundle.c1.b, bundle.c2))
    # h^0 - h^1 of E(-a h) on a fiber, where it splits into r lines of total degree c1.f - r a
    assert rank == bundle.c1.a - bundle.r * a + bundle.r
    assert fraction_ring(bundle, a) == (rank, degree)
    # jumping counts, and so grr_verify, live in genus zero with c1.f = r a
    if g.q == 0 and bundle.c1.a == bundle.r * a:
        report = grr_verify(bundle, a)
        assert type(report.lhs_degree) is int
        assert report.lhs_degree == report.rhs_degree == degree
        assert report.rank_ok and report.degree_ok


def test_oracle_on_the_default_theorem_c_grid():
    # the oracle once over symbols, then as a polynomial in them at every point
    symbols = sp.symbols("e q r a c1a c1b c2")
    terms = [[(exponents, _as_fraction(c)) for exponents, c in sp.Poly(part, *symbols).terms()]
             for part in grr_oracle(*symbols)]
    parameters = inspect.signature(SUITES["theoremC"][0]).parameters
    e_max, r_max, a_max, b_max, c2_max = (
        parameters[name].default for name in ("e_max", "r_max", "a_max", "b_max", "c2_max"))
    points = 0
    for e in range(e_max + 1):
        g = SurfaceGeometry(0, e)
        for r in range(2, r_max + 1):
            for a in range(-a_max, a_max + 1):
                for b in range(-b_max, b_max + 1):
                    for c2 in range(-c2_max, c2_max + 1):
                        values = (e, 0, r, a, r * a, b, c2)
                        rank, degree = (
                            sum(c * prod(v ** k for v, k in zip(values, exponents))
                                for exponents, c in part)
                            for part in terms)
                        bundle = BundleNumerics(g, r, DivisorClass(r * a, b), c2)
                        report = grr_verify(bundle, a)
                        assert (rank, degree) == (r, report.lhs_degree) == fraction_ring(bundle, a)
                        assert report.rhs_degree == degree and report.rank_ok
                        points += 1
    assert points == run_suite("theoremC")[0].points == 9680


PROPERTIES = settings(
    max_examples=60, deadline=None, derandomize=True, database=None,
    suppress_health_check=[HealthCheck.large_base_example, HealthCheck.too_slow],
)

DIGITS_5000 = st.integers(10 ** 4999, 10 ** 5000 - 1)
ANY_INT = st.one_of(st.integers(-10 ** 6, 10 ** 6), DIGITS_5000, DIGITS_5000.map(lambda n: -n))
NATURAL = st.one_of(st.integers(0, 10 ** 6), DIGITS_5000)


@PROPERTIES
@given(e=NATURAL, r=NATURAL.map(lambda n: n + 1), a=ANY_INT, b=ANY_INT, c2=ANY_INT)
def test_oracle_in_genus_zero(e, r, a, b, c2):
    _check(BundleNumerics(SurfaceGeometry(0, e), r, DivisorClass(r * a, b), c2), a)


@PROPERTIES
@given(q=NATURAL, e_over=NATURAL, r=NATURAL.map(lambda n: n + 1), a=ANY_INT, c1a=ANY_INT,
       b=ANY_INT, c2=ANY_INT)
def test_fraction_ring_in_any_genus(q, e_over, r, a, c1a, b, c2):
    # e >= -q (Nagata-Segre); the fiber degree c1a need not be r*a off the jumping regime
    g = SurfaceGeometry(q, e_over - q)
    _check(BundleNumerics(g, r, DivisorClass(c1a, b), c2), a)
