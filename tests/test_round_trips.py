"""Algebraic round trips over unbounded integers.

Twisting composes, the closed-form jumping count is c2 of the normalizing
twist, the extension bookkeeping inverts itself in both directions, and
the divisor and splitting-type literals parse back to what was formatted.
The draws mix hypothesis's unbounded integers with 5000-digit ones, and
the literals reach Python's int-to-text limit, past which the CLI refuses
to print a result.
"""

import sys

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from ruledsurf.bundles import (
    BundleNumerics,
    ExtensionData,
    extension_chern,
    extension_data_from_chern,
    jumping_count,
    twist,
)
from ruledsurf.cli import format_divisor, format_type, parse_divisor, parse_type
from ruledsurf.geometry import SECTION, DivisorClass, SurfaceGeometry
from ruledsurf.splitting import SplittingType

# Many draws are 5000 digits on purpose, so even small examples can be large.
PROPERTIES = settings(
    max_examples=150, deadline=None, derandomize=True, database=None,
    suppress_health_check=[HealthCheck.large_base_example, HealthCheck.too_slow],
)

DIGITS_5000 = st.integers(10 ** 4999, 10 ** 5000 - 1)
HUGE = st.one_of(DIGITS_5000, DIGITS_5000.map(lambda n: -n))
ANY_INT = st.one_of(st.integers(), HUGE)

# the most digits str() gives an int; 0 means no limit
TEXT_LIMIT = sys.get_int_max_str_digits() or 5000
LARGEST_PRINTABLE = 10 ** TEXT_LIMIT - 1
PRINTABLE = st.integers(-LARGEST_PRINTABLE, LARGEST_PRINTABLE)


@st.composite
def geometries(draw):
    """Any genus q >= 0 and invariant e >= -q, each small, unbounded or 5000 digits."""
    q = draw(st.one_of(st.integers(0, 5), st.integers(min_value=0), DIGITS_5000))
    e = draw(st.one_of(st.just(-q), st.integers(-q, q + 5), st.integers(min_value=-q),
                       DIGITS_5000))
    return SurfaceGeometry(q, e)


def divisors(coefficients=ANY_INT):
    return st.builds(DivisorClass, coefficients, coefficients)


@st.composite
def bundles(draw):
    rank = draw(st.one_of(st.integers(1, 8), st.integers(min_value=1), DIGITS_5000))
    return BundleNumerics(draw(geometries()), rank, draw(divisors()), draw(ANY_INT))


@PROPERTIES
@given(bundles(), divisors(), divisors())
def test_twist_composes(bundle, first, second):
    assert twist(twist(bundle, first), second) == twist(bundle, first + second)


@st.composite
def balanced_bundles(draw):
    """Genus zero, and c1 = (r*a, b) so that the general fiber type is (a,...,a)."""
    g = SurfaceGeometry(0, draw(st.one_of(st.integers(0, 5), st.integers(min_value=0),
                                          DIGITS_5000)))
    rank = draw(st.one_of(st.integers(1, 8), st.integers(min_value=1), DIGITS_5000))
    a = draw(ANY_INT)
    return BundleNumerics(g, rank, DivisorClass(rank * a, draw(ANY_INT)), draw(ANY_INT)), a


@PROPERTIES
@given(balanced_bundles())
def test_jumping_count_is_c2_of_the_normalizing_twist(case):
    bundle, a = case
    assert jumping_count(bundle, a) == twist(bundle, -a * SECTION).c2


@st.composite
def extensions(draw):
    """Ranks up to 8 or at 5000 digits; the twist a and both degrees at 5000 digits."""
    r = draw(st.one_of(st.integers(2, 8), DIGITS_5000))
    x = draw(st.one_of(st.integers(1, r - 1), st.just(r - 1)))
    a, deg_sub, deg_quot = (draw(st.one_of(HUGE, st.integers(-3, 3))) for _ in range(3))
    return ExtensionData(draw(geometries()), r, x, a, deg_sub, deg_quot)


@PROPERTIES
@given(extensions())
def test_extension_round_trip(ext):
    assert extension_data_from_chern(extension_chern(ext), ext.a, ext.x) == ext


@st.composite
def extension_middle_terms(draw):
    """A bundle whose c1 fiber part r*a - x fits an extension of shape (a, x)."""
    r = draw(st.one_of(st.integers(2, 8), DIGITS_5000))
    x = draw(st.one_of(st.integers(1, r - 1), st.just(r - 1)))
    a = draw(st.one_of(HUGE, st.integers(-3, 3)))
    c1 = DivisorClass(r * a - x, draw(ANY_INT))
    return BundleNumerics(draw(geometries()), r, c1, draw(ANY_INT)), a, x


@PROPERTIES
@given(extension_middle_terms())
def test_extension_reverse_round_trip(case):
    bundle, a, x = case
    assert extension_chern(extension_data_from_chern(bundle, a, x)) == bundle


@PROPERTIES
@example(DivisorClass(LARGEST_PRINTABLE, -LARGEST_PRINTABLE))
@example(DivisorClass(-LARGEST_PRINTABLE, LARGEST_PRINTABLE))
@example(DivisorClass(0, 0))
@given(divisors(st.one_of(st.integers(), PRINTABLE)))
def test_divisor_literal_round_trip(d):
    assert parse_divisor(format_divisor(d)) == d


@PROPERTIES
@example(SplittingType((LARGEST_PRINTABLE, 0, -LARGEST_PRINTABLE)))
@given(st.lists(st.one_of(st.integers(), PRINTABLE), min_size=1, max_size=8)
       .map(lambda parts: SplittingType(tuple(sorted(parts, reverse=True)))))
def test_splitting_type_literal_round_trip(t):
    assert parse_type(format_type(t)) == t
