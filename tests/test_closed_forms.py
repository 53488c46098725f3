"""The closed forms of h_line and min_good_twist against the loops they replaced.

`h_line_loop` sums the section and obstruction counts of the summands
O(b - k*e), k = 0..a, of the pushed-down bundle one term at a time, and
`min_good_twist_loop` adds one fiber at a time until the class is good.
Both do work in proportion to a coefficient, so they are checked at
moderate sizes; the structural identities are checked at 5000 digits.
stabilization_index reads the y with h1 != 0 off each summand difference;
`stabilization_descent` is the search it replaced, which walks down from the
certificate evaluating h1 at one twist at a time, and the index is also
checked against the h1 values past it.  semicontinuity_oracle
compares section counts only at their kinks; `semicontinuity_window`
compares them at every twist of a window outside which both saturate.
conormal_vanishing answers from its preconditions; `conormal_vanishing_loop`
evaluates h_line at every conormal power.  The Riemann-Roch pairing
D.(D - K) that euler_char halves is checked to be even at 5000 digits.
"""

import functools
import itertools

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ruledsurf.bundles import BundleNumerics, euler_char_bundle
from ruledsurf.cohomology import (
    CohomologyTable,
    ConormalData,
    SplitBundle,
    StabilizationError,
    check_conormal,
    conormal_vanishing,
    euler_char,
    h_line,
    h_split_end,
    stabilization_index,
)
from ruledsurf.geometry import (
    FIBER,
    DivisorClass,
    SurfaceGeometry,
    canonical_class,
    intersect,
    is_ample,
    is_good_polarization,
    min_good_twist,
)
from ruledsurf.splitting import (
    SplittingType,
    enumerate_types,
    semicontinuity_oracle,
    specializes,
)

PROPERTIES = settings(max_examples=300, deadline=None, derandomize=True, database=None)
# Every draw of DIGITS_5000 has 5000 digits on purpose, so even the smallest
# example is large.
AT_5000_DIGITS = settings(
    PROPERTIES, max_examples=150, suppress_health_check=[HealthCheck.large_base_example]
)

DIGITS_5000 = st.integers(10 ** 4999, 10 ** 5000 - 1)


def h_line_loop(e: int, a: int, b: int) -> CohomologyTable:
    """h^i(O(a*h + b*f)) on the Hirzebruch surface F_e for a >= -1, term by term."""
    if a == -1:
        return CohomologyTable(0, 0, 0)
    h0 = sum(max(0, b - k * e + 1) for k in range(a + 1))
    h1 = sum(max(0, k * e - b - 1) for k in range(a + 1))
    return CohomologyTable(h0, h1, 0)


def min_good_twist_loop(g: SurfaceGeometry, d: DivisorClass) -> int:
    """Smallest t >= 0 with d + t*f good, found by adding one fiber at a time."""
    assert is_ample(g, d)
    t = 0
    while not is_good_polarization(g, d + t * FIBER):
        t += 1
    return t


def least_ample_b(g: SurfaceGeometry, a: int) -> int:
    return a * g.e + 1 if g.e >= 0 else (a * g.e) // 2 + 1


def test_h_line_matches_loop_on_small_grid():
    for e, a, b in itertools.product(range(7), range(-1, 13), range(-30, 61)):
        assert h_line(SurfaceGeometry(0, e), DivisorClass(a, b)) == h_line_loop(e, a, b)


@st.composite
def hirzebruch_points(draw):
    """(e, a, b) with e in [0, 50], a in [-1, 2000], |b| <= 1e6, often near b = k*e."""
    e = draw(st.integers(0, 50))
    a = draw(st.integers(-1, 2000))
    near_break = e * draw(st.integers(0, max(a, 0))) + draw(st.integers(-2, 2))
    b = draw(st.one_of(st.integers(-10 ** 6, 10 ** 6), st.just(near_break)))
    return e, a, b


@PROPERTIES
@given(hirzebruch_points())
def test_h_line_matches_loop(point):
    e, a, b = point
    assert h_line(SurfaceGeometry(0, e), DivisorClass(a, b)) == h_line_loop(e, a, b)


def test_min_good_twist_matches_loop_on_small_grid():
    for q in range(4):
        for e, a in itertools.product(range(-q, 6), range(1, 7)):
            g = SurfaceGeometry(q, e)
            low = least_ample_b(g, a)
            for b in range(low, low + 25):
                d = DivisorClass(a, b)
                assert min_good_twist(g, d) == min_good_twist_loop(g, d)


@st.composite
def ample_classes(draw):
    """q in [0, 5], e in [-q, 50], a in [1, 200], up to 1000 fibers past ampleness."""
    q = draw(st.integers(0, 5))
    g = SurfaceGeometry(q, draw(st.integers(-q, 50)))
    a = draw(st.integers(1, 200))
    return g, DivisorClass(a, least_ample_b(g, a) + draw(st.integers(0, 1000)))


@PROPERTIES
@given(ample_classes())
def test_min_good_twist_matches_loop(case):
    g, d = case
    assert min_good_twist(g, d) == min_good_twist_loop(g, d)


@st.composite
def huge_divisors(draw):
    """e in [0, 50] and a class whose coefficients have 5000 digits, of either sign."""
    e = draw(st.integers(0, 50))
    a = draw(DIGITS_5000) * draw(st.sampled_from([1, -1]))
    b = draw(st.one_of(
        DIGITS_5000.map(lambda n: n * (e + 1)),
        DIGITS_5000.map(lambda n: -n * (e + 1)),
        st.integers(-3, 3).map(lambda off: e * (abs(a) // 2) + off),
    ))
    return SurfaceGeometry(0, e), DivisorClass(a, b)


@AT_5000_DIGITS
@given(huge_divisors())
def test_h_line_riemann_roch_and_serre_at_5000_digits(case):
    g, d = case
    table = h_line(g, d)
    assert min(table.h0, table.h1, table.h2) >= 0
    assert table.euler() == euler_char(g, d)
    dual = h_line(g, canonical_class(g) - d)
    assert (dual.h0, dual.h1, dual.h2) == (table.h2, table.h1, table.h0)


@st.composite
def huge_ample_classes(draw):
    """Any genus and e >= -q, with q, e, a and the excess over ampleness at 5000 digits."""
    q = draw(st.one_of(st.integers(0, 5), DIGITS_5000))
    e = draw(st.one_of(st.integers(-q, q + 5), st.just(-q), DIGITS_5000))
    g = SurfaceGeometry(q, e)
    a = draw(st.one_of(st.integers(1, 5), DIGITS_5000))
    room = draw(st.one_of(st.integers(0, 5), DIGITS_5000))
    return g, DivisorClass(a, least_ample_b(g, a) + room)


@AT_5000_DIGITS
@given(huge_ample_classes())
def test_min_good_twist_is_least_at_5000_digits(case):
    g, d = case
    t = min_good_twist(g, d)
    assert t >= 0
    assert is_good_polarization(g, d + t * FIBER)
    if t > 0:
        assert not is_good_polarization(g, d + (t - 1) * FIBER)


def small_split_bundles():
    """Split bundles of rank <= 3 with summand coefficients in [-3, 3].

    End of a split bundle sees only the summand differences, so one bundle
    per multiset of differences covers the grid.
    """
    classes = [DivisorClass(a, b) for a in range(-3, 4) for b in range(-3, 4)]
    seen = set()
    for rank in (1, 2, 3):
        for summands in itertools.combinations_with_replacement(classes, rank):
            diffs = tuple(sorted((dj.a - di.a, dj.b - di.b)
                                 for di in summands for dj in summands))
            if diffs not in seen:
                seen.add(diffs)
                yield SplitBundle(summands)


# the largest index on the grid below is 23, so 64 twists cover index + 20
TWISTS = 64


@functools.lru_cache(maxsize=None)
def h1_support(e, t, s, da, db):
    """The y in [0, TWISTS) where h1(O(da*h + db*f) ⊗ O(y*(t,s))) is nonzero on F_e."""
    g = SurfaceGeometry(0, e)
    return frozenset(y for y in range(TWISTS)
                     if h_line(g, DivisorClass(da + y * t, db + y * s)).h1)


def test_stabilization_index_is_the_start_of_the_vanishing_tail():
    bundles = list(small_split_bundles())
    for e in range(4):
        g = SurfaceGeometry(0, e)
        for t, s in ((1, e + 1), (1, e + 2), (2, 2 * e + 1)):
            for bundle in bundles:
                x = stabilization_index(g, bundle, ConormalData(t, s), 100)
                nonzero = set().union(*(
                    h1_support(e, t, s, dj.a - di.a, dj.b - di.b)
                    for di in bundle.summands for dj in bundle.summands))
                assert x + 20 < TWISTS
                assert nonzero.isdisjoint(range(x, x + 21)), (e, t, s, bundle, x)
                assert x == 1 or x - 1 in nonzero, (e, t, s, bundle, x)


def stabilization_descent(
    g: SurfaceGeometry, bundle: SplitBundle, c: ConormalData, y_max: int
) -> int:
    """The index found by walking down from the certificate, one h1 evaluation per y."""
    assert g.q == 0
    check_conormal(g, c)
    if y_max < 1:
        raise ValueError(f"y_max must be at least 1, got {y_max}")
    slope = c.s - g.e * c.t
    cert_y = 1
    for d_i in bundle.summands:
        for d_j in bundle.summands:
            da, db = d_j.a - d_i.a, d_j.b - d_i.b
            cert_y = max(cert_y, -((da + 1) // c.t), -((db + 1 - g.e * da) // slope))
    if cert_y > y_max:
        raise StabilizationError(
            f"no stabilization within y_max={y_max}: the certified tail was not reached"
        )
    x = cert_y
    while x > 1 and h_split_end(g, bundle, DivisorClass((x - 1) * c.t, (x - 1) * c.s)).h1 == 0:
        x -= 1
    return x


def _index_or_refusal(function, *args):
    try:
        return function(*args)
    except StabilizationError as refusal:
        return str(refusal)


def test_stabilization_index_matches_descent_on_small_grid():
    bundles = list(small_split_bundles())
    cases = []
    for e in range(4):
        g = SurfaceGeometry(0, e)
        for c in (ConormalData(1, e + 1), ConormalData(1, e + 2), ConormalData(2, 2 * e + 1)):
            cases += [(g, bundle, c, y_max)
                      for bundle, y_max in itertools.product(bundles, (1, 3, 100))]
    expected = [_index_or_refusal(stabilization_descent, *case) for case in cases]
    got = [_index_or_refusal(stabilization_index, *case) for case in cases]
    assert got == expected
    assert sum(isinstance(x, str) for x in expected) > 0


def semicontinuity_window(general: SplittingType, special: SplittingType) -> bool:
    """h0(special(k)) >= h0(general(k)) at every twist k of the saturation window."""

    def h0(t: SplittingType, k: int) -> int:
        return sum(max(0, b + k + 1) for b in t.parts)

    everything = general.parts + special.parts
    lo = -max(everything) - 1
    hi = -min(everything) + 1
    # outside [lo, hi] both counts are 0 (below) or d + r(k+1) (above)
    assert h0(general, lo) == h0(special, lo) == 0
    assert h0(general, hi) == h0(special, hi)
    return all(h0(special, k) >= h0(general, k) for k in range(lo, hi + 1))


def test_semicontinuity_oracle_matches_window_on_small_grid():
    pairs = 0
    for r in range(1, 5):
        for d in range(-4, 5):
            types = enumerate_types(r, d, 6)
            for general, special in itertools.product(types, repeat=2):
                expected = semicontinuity_window(general, special)
                assert semicontinuity_oracle(general, special) == expected, (general, special)
                assert specializes(general, special) == expected, (general, special)
                pairs += 1
    assert pairs == 4931


@st.composite
def type_pairs(draw):
    """Two types of equal rank <= 4 and degree, with spreads up to 10^6.

    The special type moves the general one's parts by a vector summing to
    zero: parts lie in [0, size], all moves but the balancing last one in
    [-size/4, size/4], so every part lies in [-3*size/4, 7*size/4].
    """
    r = draw(st.integers(1, 4))
    size = draw(st.sampled_from([40, 4 * 10 ** 3, 4 * 10 ** 5]))
    parts = draw(st.lists(st.integers(0, size), min_size=r, max_size=r))
    moves = draw(st.lists(st.integers(-size // 4, size // 4), min_size=r - 1, max_size=r - 1))
    moves.append(-sum(moves))
    general = SplittingType(tuple(sorted(parts, reverse=True)))
    special = SplittingType(tuple(sorted((b + m for b, m in zip(parts, moves)),
                                         reverse=True)))
    return general, special


@settings(PROPERTIES, max_examples=40)
@given(type_pairs())
def test_semicontinuity_oracle_matches_window(pair):
    general, special = pair
    assert semicontinuity_oracle(general, special) == semicontinuity_window(general, special)


def conormal_vanishing_loop(g: SurfaceGeometry, c: ConormalData, n_max: int) -> bool:
    """h1 = h2 = 0 at every conormal power n*(t,s), n = 1..n_max, one power at a time."""
    for n in range(1, n_max + 1):
        table = h_line(g, DivisorClass(n * c.t, n * c.s))
        if table.h1 or table.h2:
            return False
    return True


def test_conormal_vanishing_matches_loop_on_small_grid():
    cases = 0
    for e, t in itertools.product(range(5), range(1, 5)):
        g = SurfaceGeometry(0, e)
        for s, n_max in itertools.product(range(e * t + 1, e * t + 7), range(1, 9)):
            c = ConormalData(t, s)
            assert conormal_vanishing(g, c, n_max) == conormal_vanishing_loop(g, c, n_max)
            cases += 1
    assert cases == 960


@st.composite
def huge_conormal_data(draw):
    """e in [0, 50], t and the excess s - e*t small or at 5000 digits, n_max in [1, 8]."""
    e = draw(st.integers(0, 50))
    t = draw(st.one_of(st.integers(1, 5), DIGITS_5000))
    room = draw(st.one_of(st.integers(1, 5), DIGITS_5000))
    return SurfaceGeometry(0, e), ConormalData(t, e * t + room), draw(st.integers(1, 8))


@AT_5000_DIGITS
@given(huge_conormal_data())
def test_conormal_vanishing_matches_loop_at_5000_digits(case):
    g, c, n_max = case
    assert conormal_vanishing(g, c, n_max) == conormal_vanishing_loop(g, c, n_max)


@st.composite
def huge_surfaces_and_classes(draw):
    """q, e >= -q and a class a*h + b*f, each small or at 5000 digits, of either sign."""
    q = draw(st.one_of(st.integers(0, 5), DIGITS_5000))
    e = draw(st.one_of(st.integers(-q, q + 5), st.just(-q), DIGITS_5000))
    a, b = (draw(st.one_of(st.integers(-5, 5), DIGITS_5000, DIGITS_5000.map(lambda n: -n)))
            for _ in range(2))
    return SurfaceGeometry(q, e), DivisorClass(a, b)


@settings(AT_5000_DIGITS, max_examples=50)
@given(huge_surfaces_and_classes())
def test_riemann_roch_pairing_is_even_at_5000_digits(case):
    g, d = case
    pairing = intersect(g, d, d - canonical_class(g))
    assert pairing == 2 * (d.a * d.b - g.q * d.a + d.a + d.b) - g.e * d.a * (d.a + 1)
    assert pairing % 2 == 0
    assert euler_char(g, d) * 2 == 2 * (1 - g.q) + pairing
    assert euler_char_bundle(BundleNumerics(g, 1, d, 0)) == euler_char(g, d)
