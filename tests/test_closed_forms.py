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
sweeps the special type's kinks once, keeping both counts up to date;
`semicontinuity_window` compares them at every twist of a window outside
which both saturate, and `semicontinuity_at_every_kink` sums both afresh
at every kink of either type.  h_split_end sums _h_line_ints's tables
over the summand differences; `h_split_end_by_h_line` builds a class and
a table per difference and calls h_line, also at 5000 digits.
conormal_vanishing answers from its preconditions; `conormal_vanishing_loop`
evaluates h_line at every conormal power.  The Riemann-Roch pairing
D.(D - K), whose half euler_char expands, is checked to be even at 5000 digits.
endomorphism_growth sums each summand difference's h0 over the
neighborhoods in closed form, through the floor sums of `_floor_sums`;
`endomorphism_growth_loop` adds one layer at a time, each as h_line over
every ordered summand pair (`end_h0`, which shares no code with the
multiset of differences), and `floor_sums_direct` adds one floor at a
time.  At 5000 digits, where no loop ends, each step of the growth is
checked against `end_h0` at the next layer, and the floor sums against the
residues they leave, also past Python's recursion limit.  formal_lift_obstructions builds its list from
the linear pieces between kinks; `formal_lift_loop` sums every level over
every pair of parts.  euler_char expands D.(D - K)/2 in ints;
`euler_char_pairing` builds K and D - K and calls intersect.  h1_end sums
only the pairs with b_j > b_i + 1; `h1_end_double_sum` sums max(0, ...)
over every ordered pair.  specialization_chain keeps the gaps to the
target's prefix sums in place and stops when they sum to 0;
`specialization_chain_slices` raises its prefix sums a slice at a time and
compares whole lists, `specialization_chain_loop` recomputes them and
rescans from the first part at every step, and the chains are compared
element by element.  enumerate_types fills the last part alone and carries
the bound its followers must exceed; `enumerate_types_scan` rebuilds both at
every step.  The types enumerate_types and specialization_chain list are
built unchecked, so each is checked to equal the type its parts build
through the checked constructor.  The bundles roads write their
pairings out in ints: `twist_by_classes` builds c1 + r*L as classes and
pairs by intersect, `euler_char_bundle_pairing` builds K and c1 - K, and
`jumping_count_section` and
`pushforward_degree_section` pair c1 with SECTION; grr_verify's right side
is checked against the last.  The chi road and grr_verify write ch2 of
their twists in ints, doubled; `chi_road_by_fraction_ring` and
`grr_verify_by_fraction_ring` multiply geometry's Chern characters of the
bundle and the line, then the Todd class, in Fractions, and the numbers
the int roads halve are checked to be even.  extension_chern collects
Whitney's formula into one expression; `extension_chern_by_whitney` adds
the pieces' c2 and pairs their c1 by intersect.
"""

import functools
import itertools
import pickle
import sys
from fractions import Fraction

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import pytest

from ruledsurf.bundles import (
    BundleNumerics,
    ExtensionData,
    euler_char_bundle,
    extension_chern,
    grr_verify,
    jumping_count,
    jumping_count_chi_oracle,
    pushforward_degree,
    twist,
)
from ruledsurf.cohomology import (
    CohomologyTable,
    ConormalData,
    PositiveGenusError,
    SplitBundle,
    StabilizationError,
    _differences,
    _floor_sums,
    check_conormal,
    conormal_vanishing,
    endomorphism_growth,
    euler_char,
    h_line,
    h_split_end,
    stabilization_index,
)
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
    todd_surface,
)
from ruledsurf.splitting import (
    SplittingType,
    enumerate_types,
    formal_lift_obstructions,
    h1_end,
    rigid_type,
    semicontinuity_oracle,
    specialization_chain,
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


def semicontinuity_at_every_kink(general: SplittingType, special: SplittingType) -> bool:
    """Both section counts at every kink of either type, each summed afresh."""
    gp, sp = general.parts, special.parts
    if len(gp) != len(sp):
        raise ValueError("semicontinuity comparison needs equal ranks")
    if sum(gp) != sum(sp):
        raise ValueError("semicontinuity comparison needs equal degrees")
    for c in set(gp + sp):
        if sum([b - c for b in sp if b > c]) < sum([b - c for b in gp if b > c]):
            return False
    return True


def test_semicontinuity_oracle_matches_window_on_small_grid():
    pairs = 0
    for r in range(1, 5):
        for d in range(-4, 5):
            types = enumerate_types(r, d, 6)
            for general, special in itertools.product(types, repeat=2):
                expected = semicontinuity_window(general, special)
                assert semicontinuity_oracle(general, special) == expected, (general, special)
                assert semicontinuity_at_every_kink(general, special) == expected
                assert specializes(general, special) == expected, (general, special)
                pairs += 1
    assert pairs == 4931


@pytest.mark.parametrize("general, special, message", [
    ((1, 0), (1, 0, -1), "semicontinuity comparison needs equal ranks"),
    ((1, 0), (1, 1), "semicontinuity comparison needs equal degrees"),
])
def test_semicontinuity_oracle_refuses_as_every_kink_did(general, special, message):
    for oracle in (semicontinuity_oracle, semicontinuity_at_every_kink):
        with pytest.raises(ValueError) as error:
            oracle(SplittingType(general), SplittingType(special))
        assert str(error.value) == message


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
    expected = semicontinuity_window(general, special)
    assert semicontinuity_oracle(general, special) == expected
    assert semicontinuity_at_every_kink(general, special) == expected


def h_split_end_by_h_line(g: SurfaceGeometry, bundle: SplitBundle,
                          twist: DivisorClass = ZERO) -> CohomologyTable:
    """The table as weight * h_line(D_j - D_i + twist) summed over the summand differences."""
    h0 = h1 = h2 = 0
    for (da, db), weight in _differences(bundle).items():
        table = h_line(g, DivisorClass(da + twist.a, db + twist.b))
        h0 += weight * table.h0
        h1 += weight * table.h1
        h2 += weight * table.h2
    return CohomologyTable(h0, h1, h2)


def test_h_split_end_matches_h_line_sum_on_small_grid():
    """Bundles (0, D) with D in [-2, 2]^2 and rank 3 from [-1, 1]^2, twists a in [-5, 3].

    The rank-2 bundles cover every difference and the rank-3 ones the
    weights of repeated differences.  A twist with a <= -2 takes a
    difference to a line answered by the Serre dual, so both of h_line's
    branches are summed.
    """
    unit = [DivisorClass(a, b) for a, b in itertools.product(range(-1, 2), repeat=2)]
    bundles = ([SplitBundle((ZERO,))]
               + [SplitBundle((ZERO, DivisorClass(a, b)))
                  for a, b in itertools.product(range(-2, 3), repeat=2)]
               + [SplitBundle(s) for s in itertools.combinations_with_replacement(unit, 3)])
    twists = [DivisorClass(a, b) for a in range(-5, 4) for b in range(-3, 4)]
    serre = 0
    for e in range(4):
        g = SurfaceGeometry(0, e)
        for bundle in bundles:
            for twist in twists:
                table = h_split_end(g, bundle, twist)
                assert table == h_split_end_by_h_line(g, bundle, twist), (e, bundle, twist)
                serre += table.h2 > 0
    assert len(bundles) * len(twists) == (1 + 25 + 165) * 63
    assert serre > 0


def test_h_split_end_refuses_positive_genus_as_h_line_did():
    bundle = SplitBundle((ZERO, DivisorClass(1, 2)))
    for function in (h_split_end, h_split_end_by_h_line):
        with pytest.raises(PositiveGenusError):
            function(SurfaceGeometry(1, 0), bundle, DivisorClass(-3, 0))


@st.composite
def huge_split_ends(draw):
    """e, the summands' and the twist's coefficients small or at 5000 digits, of either sign."""
    e = draw(st.one_of(st.integers(0, 4), DIGITS_5000))
    coefficient = st.one_of(st.integers(-4, 4), DIGITS_5000, DIGITS_5000.map(lambda v: -v))
    summands = draw(st.lists(st.builds(DivisorClass, coefficient, coefficient),
                             min_size=1, max_size=3))
    twist = draw(st.builds(DivisorClass, coefficient, coefficient))
    return SurfaceGeometry(0, e), SplitBundle(tuple(summands)), twist


@settings(AT_5000_DIGITS, max_examples=100)
@given(huge_split_ends())
def test_h_split_end_matches_h_line_sum_at_5000_digits(case):
    g, bundle, twist = case
    assert h_split_end(g, bundle, twist) == h_split_end_by_h_line(g, bundle, twist)


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


def floor_sums_direct(a: int, b: int, c: int, n: int) -> tuple[int, int, int]:
    """(Σ q_j, Σ j*q_j, Σ q_j²) over j in [0, n), q_j = (a*j + b) // c, term by term."""
    qs = [(a * j + b) // c for j in range(n)]
    return sum(qs), sum(j * q for j, q in enumerate(qs)), sum(q * q for q in qs)


def test_floor_sums_match_direct_sum_on_small_grid():
    for a, b, c in itertools.product(range(-7, 8), range(-7, 8), range(1, 8)):
        for n in range(10):
            assert _floor_sums(a, b, c, n) == floor_sums_direct(a, b, c, n), (a, b, c, n)


@settings(AT_5000_DIGITS, max_examples=60)
@given(st.tuples(*[st.one_of(st.integers(-9, 9), DIGITS_5000, DIGITS_5000.map(lambda v: -v))
                   for _ in range(2)]),
       st.one_of(st.integers(1, 9), DIGITS_5000), st.integers(0, 40))
def test_floor_sums_match_direct_sum_at_5000_digits(ab, c, n):
    assert _floor_sums(*ab, c, n) == floor_sums_direct(*ab, c, n)


def fibonacci_pair(k: int) -> tuple[int, int]:
    """(F_(k+2), F_(k+1)); at k = 2000 they have about 420 digits."""
    a, c = 1, 1
    for _ in range(k):
        a, c = a + c, a
    return a, c


def test_floor_sums_past_the_recursion_limit():
    """Consecutive Fibonacci numbers make the longest Euclid descent for their size.

    For coprime a and c, j -> a*j mod c permutes [0, c), which pins Σ q and
    one combination of Σ j*q and Σ q² over [0, c); splitting [0, c) in two
    pins the three sums against calls with other offsets.
    """
    a, c = fibonacci_pair(2000)
    steps, x, y = 0, a, c
    while y:
        x, y, steps = y, x % y, steps + 1
    assert steps > sys.getrecursionlimit()
    f, g, h = _floor_sums(a, 0, c, c)
    s2 = (c - 1) * c * (2 * c - 1) // 6
    assert f == (a - 1) * (c - 1) // 2
    # the remainders a*j - c*q_j run over [0, c), so their squares sum to s2
    assert a * a * s2 - 2 * a * c * g + c * c * h == s2
    split = c // 3
    f1, g1, h1 = _floor_sums(a, 0, c, split)
    f2, g2, h2 = _floor_sums(a, a * split, c, c - split)
    assert (f, g, h) == (f1 + f2, g1 + g2 + split * f2, h1 + h2)


def end_h0(g: SurfaceGeometry, bundle: SplitBundle, twist: DivisorClass) -> int:
    """h0(End(bundle) ⊗ O(twist)), one h_line per ordered summand pair, with no multiset."""
    return sum(h_line(g, d_j - d_i + twist).h0
               for d_i in bundle.summands for d_j in bundle.summands)


def endomorphism_growth_loop(
    g: SurfaceGeometry, bundle: SplitBundle, c: ConormalData, n: int
) -> int:
    """The growth summed one neighborhood layer at a time, each layer pair by pair."""
    if g.q != 0:
        raise PositiveGenusError(
            f"exact cohomology needs genus zero, got q={g.q}; use euler_char instead"
        )
    check_conormal(g, c)
    if n < 1:
        raise ValueError(f"neighborhood index must be at least 1, got {n}")
    return sum(end_h0(g, bundle, DivisorClass(m * c.t, m * c.s)) for m in range(n))


def test_endomorphism_growth_matches_loop_on_small_grid():
    """Every summand difference with coefficients in [-4, 4] at every n <= 12, then rank 3.

    A bundle's growth is the weighted sum over its summand differences, so
    the rank-2 bundles (0, D) cover every difference; their values at
    n = 1..12 are the partial sums of the loop's layers.  The rank-3
    bundles from summands with coefficients in [-1, 1] cover the weights
    of repeated differences, against the loop.
    """
    twos = [SplitBundle((ZERO, DivisorClass(a, b)))
            for a, b in itertools.product(range(-4, 5), repeat=2)]
    unit = [DivisorClass(a, b) for a, b in itertools.product(range(-1, 2), repeat=2)]
    threes = [SplitBundle(s) for s in itertools.combinations_with_replacement(unit, 3)]
    cases = 0
    for e in range(4):
        g = SurfaceGeometry(0, e)
        for c in (ConormalData(1, e + 1), ConormalData(1, e + 2), ConormalData(2, 2 * e + 1)):
            for bundle in [SplitBundle((ZERO,))] + twos:
                values = [endomorphism_growth(g, bundle, c, n) for n in range(1, 13)]
                layers = (end_h0(g, bundle, DivisorClass(m * c.t, m * c.s)) for m in range(12))
                assert values == list(itertools.accumulate(layers)), (e, c, bundle)
                cases += 12
        c = ConormalData(1, e + 1)
        for bundle in threes:
            assert (endomorphism_growth(g, bundle, c, 12)
                    == endomorphism_growth_loop(g, bundle, c, 12)), (e, bundle)
            cases += 1
    assert cases == 4 * (3 * 82 * 12 + 165)


@pytest.mark.parametrize("g, c, n", [
    (SurfaceGeometry(1, 0), ConormalData(1, 0), 0),
    (SurfaceGeometry(0, 2), ConormalData(1, 2), 0),
    (SurfaceGeometry(0, 2), ConormalData(1, 3), 0),
    (SurfaceGeometry(0, 2), ConormalData(1, 3), -4),
])
def test_endomorphism_growth_refuses_as_the_loop_did(g, c, n):
    bundle = SplitBundle((DivisorClass(0, 0), DivisorClass(1, 2)))
    with pytest.raises(ValueError) as loop_error:
        endomorphism_growth_loop(g, bundle, c, n)
    with pytest.raises(ValueError) as error:
        endomorphism_growth(g, bundle, c, n)
    assert (type(error.value), str(error.value)) == (
        type(loop_error.value), str(loop_error.value))


@st.composite
def huge_growth_cases(draw):
    """e, t, the slope s - e*t and each summand's a and gap b - e*a small or at 5000 digits.

    A difference whose gap is negative has a stretch [m0, m1) where
    top = ⌊b/e⌋, as long as -gap/slope, so of up to 5000 digits.  The a
    lean positive and the gaps negative, so that most bundles have one.
    n is in or next to one difference's stretch, up to 5001 digits, or small.
    """
    e = draw(st.one_of(st.integers(0, 3), DIGITS_5000))
    t = draw(st.one_of(st.integers(1, 3), DIGITS_5000))
    c = ConormalData(t, e * t + draw(st.one_of(st.integers(1, 5), DIGITS_5000)))
    a = st.one_of(st.integers(-5, 5), DIGITS_5000)
    gap = st.one_of(st.integers(-5, 5), DIGITS_5000.map(lambda v: -v))
    summands = [ZERO] + [DivisorClass(x, e * x + y) for x, y in
                         draw(st.lists(st.tuples(a, gap), min_size=1, max_size=2))]
    d_i, d_j = draw(st.sampled_from(summands)), draw(st.sampled_from(summands))
    da, db = d_j.a - d_i.a, d_j.b - d_i.b
    m0 = max(0, -(da // t), -(db // c.s))
    m1 = max(m0, -((db - e * da) // (c.s - e * t)))
    n = draw(st.one_of(st.integers(m0 - 2, m1 + 2), st.integers(1, 10 ** 5001),
                       st.integers(1, 12)))
    return SurfaceGeometry(0, e), SplitBundle(tuple(summands)), c, max(n, 1)


def stretch_case(e, t, slope, x, gap, n):
    """F_e, conormal (t, e*t + slope) and the summands 0 and x*h + (e*x + gap)*f at n."""
    return (SurfaceGeometry(0, e), SplitBundle((ZERO, DivisorClass(x, e * x + gap))),
            ConormalData(t, e * t + slope), n)


BIG = 10 ** 4999
FIB_E, FIB_SLOPE = fibonacci_pair(2000)


@settings(AT_5000_DIGITS, max_examples=30)
@given(huge_growth_cases())
# a stretch [0, BIG + 1) at e of 5000 digits: n inside it, just past it and far past it
@example(stretch_case(BIG + 7, 1, 3, 4, -(3 * BIG + 1), 7 * BIG // 10))
@example(stretch_case(BIG + 7, 1, 3, 4, -(3 * BIG + 1), BIG + 2))
@example(stretch_case(BIG + 7, 1, 3, 4, -(3 * BIG + 1), 10 * BIG + 5))
@example(stretch_case(2, 1, 1, BIG, -(BIG + 5), 3 * BIG))
# s/e = 1 + F_2001/F_2002 sends the floor sum down about 4000 Euclid steps
@example(stretch_case(FIB_E, 1, FIB_SLOPE, 10 ** 901, -FIB_SLOPE * 10 ** 900, 10 ** 900))
def test_endomorphism_growth_layers_at_5000_digits(case):
    """Each step of the growth is h0 of the next layer, pair by pair; the loop at n <= 12."""
    g, bundle, c, n = case
    value = endomorphism_growth(g, bundle, c, n)
    before = endomorphism_growth(g, bundle, c, n - 1) if n > 1 else 0
    assert value - before == end_h0(g, bundle, DivisorClass((n - 1) * c.t, (n - 1) * c.s))
    if n <= 12:
        assert value == endomorphism_growth_loop(g, bundle, c, n)


def formal_lift_loop(t: SplittingType, conormal_t: int, n_max: int) -> list[int]:
    """o_1..o_n_max summed one level at a time, each level over every ordered pair."""
    if conormal_t <= 0:
        raise ValueError(f"conormal fiber degree must be positive, got {conormal_t}")
    if n_max < 1:
        raise ValueError(f"n_max must be at least 1, got {n_max}")

    def layer(k: int) -> int:
        shift = k * conormal_t
        return sum(
            max(0, -(shift + bj - bi) - 1) for bi in t.parts for bj in t.parts
        )

    obstructions = []
    total = layer(0)
    for n in range(1, n_max + 1):
        total += layer(n)
        obstructions.append(total)
    return obstructions


def test_formal_lift_matches_loop_on_small_grid():
    """Every type of rank <= 3 with parts in [-4, 4], conormal_t <= 3 and n_max <= 12.

    The loop's list at n_max is its list at 12 cut to n_max, as each o_n is
    a partial sum.
    """
    cases = 0
    for r in (1, 2, 3):
        for parts in itertools.combinations_with_replacement(range(4, -5, -1), r):
            t = SplittingType(parts)
            for conormal_t in (1, 2, 3):
                expected = formal_lift_loop(t, conormal_t, 12)
                for n_max in range(1, 13):
                    assert formal_lift_obstructions(t, conormal_t, n_max) == expected[:n_max]
                    cases += 1
    assert cases == (9 + 45 + 165) * 3 * 12


@pytest.mark.parametrize("conormal_t, n_max", [(0, 3), (-2, 0), (1, 0), (1, -5)])
def test_formal_lift_refuses_as_the_loop_did(conormal_t, n_max):
    t = SplittingType((2, 0))
    with pytest.raises(ValueError) as loop_error:
        formal_lift_loop(t, conormal_t, n_max)
    with pytest.raises(ValueError) as error:
        formal_lift_obstructions(t, conormal_t, n_max)
    assert str(error.value) == str(loop_error.value)


@st.composite
def huge_lift_cases(draw):
    """Rank <= 4, conormal_t small or at 5000 digits, and parts at 5000 digits whose
    differences sit near multiples of conormal_t, so kinks fall inside n_max <= 40."""
    conormal_t = draw(st.one_of(st.integers(1, 5), DIGITS_5000))
    base = draw(DIGITS_5000) * draw(st.sampled_from([1, -1]))
    parts = draw(st.lists(st.tuples(st.integers(0, 45), st.integers(-3, 3)),
                          min_size=1, max_size=4))
    t = SplittingType(tuple(sorted((base + k * conormal_t + off for k, off in parts),
                                   reverse=True)))
    return t, conormal_t, draw(st.integers(1, 40))


@settings(AT_5000_DIGITS, max_examples=60)
@given(huge_lift_cases())
def test_formal_lift_matches_loop_at_5000_digits(case):
    assert formal_lift_obstructions(*case) == formal_lift_loop(*case)


def euler_char_pairing(g: SurfaceGeometry, d: DivisorClass) -> int:
    """(1 - q) + D.(D - K)/2, with K and D - K built as classes and paired by intersect."""
    return (1 - g.q) + intersect(g, d, d - canonical_class(g)) // 2


def test_euler_char_matches_pairing_on_small_grid():
    for q in range(4):
        for e, a, b in itertools.product(range(-q, 7), range(-9, 10), range(-9, 10)):
            g, d = SurfaceGeometry(q, e), DivisorClass(a, b)
            assert euler_char(g, d) == euler_char_pairing(g, d), (g, d)


@settings(AT_5000_DIGITS, max_examples=100)
@given(huge_surfaces_and_classes())
def test_euler_char_matches_pairing_at_5000_digits(case):
    assert euler_char(*case) == euler_char_pairing(*case)


def h1_end_double_sum(t: SplittingType) -> int:
    """h1 of End as max(0, b_j - b_i - 1) summed over every ordered pair of parts."""
    return sum(max(0, bj - bi - 1) for bi in t.parts for bj in t.parts)


def specialization_chain_loop(target: SplittingType) -> list[SplittingType]:
    """The chain with the prefix sums recomputed and both parts found afresh at each step."""
    start = rigid_type(target.rank(), target.degree())
    tgt = list(itertools.accumulate(target.parts))
    chain = [start]
    cur = list(start.parts)
    while tuple(cur) != target.parts:
        pre = list(itertools.accumulate(cur))
        i = next(k for k in range(len(cur)) if pre[k] < tgt[k])
        j = next(k for k in range(i + 1, len(cur)) if pre[k] == tgt[k])
        cur[i] += 1
        cur[j] -= 1
        chain.append(SplittingType(tuple(cur)))
    return chain


def specialization_chain_slices(target: SplittingType) -> list[SplittingType]:
    """The chain with the prefix sums raised a slice at a time, until they equal the target's."""
    parts = target.parts
    start = rigid_type(len(parts), sum(parts))
    tgt = list(itertools.accumulate(parts))
    chain = [start]
    cur = list(start.parts)
    pre, i = list(itertools.accumulate(cur)), 0
    while pre != tgt:
        while pre[i] == tgt[i]:  # pre <= tgt throughout
            i += 1
        j = i + 1
        while pre[j] != tgt[j]:
            j += 1
        cur[i] += 1
        cur[j] -= 1
        pre[i:j] = [p + 1 for p in pre[i:j]]
        chain.append(SplittingType(tuple(cur)))
    return chain


def small_types():
    """Every type of rank <= 5 with parts in [-4, 4]: 2 001 of them."""
    for r in range(1, 6):
        for parts in itertools.combinations_with_replacement(range(4, -5, -1), r):
            yield SplittingType(parts)


def test_h1_end_matches_double_sum_on_small_grid():
    types = list(small_types())
    assert len(types) == 9 + 45 + 165 + 495 + 1287
    for t in types:
        assert h1_end(t) == h1_end_double_sum(t), t


def assert_checked(types):
    """Each listed type is the one its parts build through the checked constructor."""
    for t in types:
        assert type(t) is SplittingType
        assert all(type(p) is int for p in t.parts), t
        checked = SplittingType(t.parts)
        assert t == checked and hash(t) == hash(checked) and repr(t) == repr(checked)
        assert pickle.loads(pickle.dumps(t)) == checked


def test_specialization_chain_matches_loop_on_small_grid():
    for t in small_types():
        chain = specialization_chain(t)
        assert chain == specialization_chain_loop(t) == specialization_chain_slices(t), t
        assert_checked(chain)


@st.composite
def huge_types(draw, max_offset):
    """Rank <= 8, parts an offset up to ±10^30/2 plus up to max_offset, often near ties."""
    r = draw(st.integers(1, 8))
    base = draw(st.integers(-10 ** 30 // 2, 10 ** 30 // 2))
    offsets = draw(st.lists(st.one_of(st.integers(0, 3), st.integers(0, max_offset)),
                            min_size=r, max_size=r))
    return SplittingType(tuple(sorted((base + k for k in offsets), reverse=True)))


@PROPERTIES
@given(huge_types(10 ** 30 // 2))
def test_h1_end_matches_double_sum(t):
    assert h1_end(t) == h1_end_double_sum(t)


@PROPERTIES
@given(huge_types(12))  # the chain takes up to 7 * 12 steps at rank 8
def test_specialization_chain_matches_loop(t):
    chain = specialization_chain(t)
    assert chain == specialization_chain_loop(t) == specialization_chain_slices(t)
    assert_checked(chain)


def enumerate_types_scan(r, d, max_spread):
    """The loop enumerate_types replaced: every raise found by a scan from the last part."""
    found = []
    for top in range(-(-d // r), (d + (r - 1) * max_spread) // r + 1):
        parts, i, tail = [top], 0, d - top
        while True:
            m = r - 1 - i
            q, extra = divmod(tail, m or 1)
            parts[i + 1:] = [q + 1] * extra + [q] * (m - extra)
            found.append(SplittingType(tuple(parts)))
            tail = 0
            for i in range(r - 1, 0, -1):
                if parts[i] < parts[i - 1] and tail > (r - 1 - i) * (top - max_spread):
                    parts[i] += 1
                    tail -= 1
                    break
                tail += parts[i]
            else:
                break
    return found


def test_enumerate_types_matches_scan_on_small_grid():
    for r, d, spread in itertools.product(range(1, 7), range(-6, 7), range(7)):
        types = enumerate_types(r, d, spread)
        assert types == enumerate_types_scan(r, d, spread), (r, d, spread)
        assert_checked(types)


@PROPERTIES
@given(st.integers(1, 8), st.integers(-10 ** 30, 10 ** 30), st.integers(0, 6))
def test_enumerate_types_matches_scan_at_10_30(r, d, spread):
    types = enumerate_types(r, d, spread)
    assert types == enumerate_types_scan(r, d, spread)
    assert_checked(types)


def twist_by_classes(bundle: BundleNumerics, line: DivisorClass) -> BundleNumerics:
    """c1 + r*L by DivisorClass arithmetic, c2 + (r-1) c1.L + r(r-1)/2 L.L by intersect."""
    g, r = bundle.g, bundle.r
    c2 = (bundle.c2 + (r - 1) * intersect(g, bundle.c1, line)
          + (r * (r - 1) // 2) * intersect(g, line, line))
    return BundleNumerics(g, r, bundle.c1 + r * line, c2)


def euler_char_bundle_pairing(bundle: BundleNumerics) -> int:
    """r(1 - q) + c1.(c1 - K)/2 - c2, with K and c1 - K built as classes."""
    g = bundle.g
    pairing = intersect(g, bundle.c1, bundle.c1 - canonical_class(g))
    return bundle.r * (1 - g.q) + pairing // 2 - bundle.c2


def jumping_count_section(bundle: BundleNumerics, a: int) -> int:
    """c2 - a(r-1) c1.h - e a^2 r(r-1)/2, with c1.h paired with SECTION by intersect."""
    g, r = bundle.g, bundle.r
    return (bundle.c2 - a * (r - 1) * intersect(g, bundle.c1, SECTION)
            - g.e * a * a * (r * (r - 1) // 2))


def pushforward_degree_section(bundle: BundleNumerics, a: int) -> int:
    """(1 + a(r-1)) c1.h - c2 + e a (r + a r(r-1)/2), c1.h by intersect with SECTION."""
    g, r = bundle.g, bundle.r
    c1h = intersect(g, bundle.c1, SECTION)
    return (1 + a * (r - 1)) * c1h - bundle.c2 + g.e * a * (r + a * (r * (r - 1) // 2))


def small_geometries(q_max: int, e_max: int):
    """Every surface with q <= q_max and -q <= e <= e_max."""
    for q in range(q_max + 1):
        for e in range(-q, e_max + 1):
            yield SurfaceGeometry(q, e)


def test_twist_matches_class_arithmetic_on_small_grid():
    lines = [DivisorClass(la, lb) for la in range(-2, 3) for lb in range(-2, 3)]
    cases = 0
    for g in small_geometries(2, 3):
        for r, a, b, c2 in itertools.product(range(1, 4), range(-2, 3), range(-2, 3), (0, 3)):
            bundle = BundleNumerics(g, r, DivisorClass(a, b), c2)
            for line in lines:
                assert twist(bundle, line) == twist_by_classes(bundle, line), (bundle, line)
                cases += 1
    assert cases == (4 + 5 + 6) * 3 * 25 * 2 * 25


def test_euler_char_bundle_matches_pairing_on_small_grid():
    for g in small_geometries(3, 5):
        for r, a, b, c2 in itertools.product(range(1, 4), range(-6, 7), range(-6, 7), (-2, 0, 5)):
            bundle = BundleNumerics(g, r, DivisorClass(a, b), c2)
            assert euler_char_bundle(bundle) == euler_char_bundle_pairing(bundle), bundle


def test_balanced_counts_match_section_pairing_on_small_grid():
    """jumping_count, pushforward_degree and grr_verify's right side, in the balanced regime."""
    for e, r, a, b, c2 in itertools.product(range(5), range(1, 5), range(-3, 4), range(-4, 5),
                                            range(-3, 4)):
        bundle = BundleNumerics(SurfaceGeometry(0, e), r, DivisorClass(r * a, b), c2)
        degree = pushforward_degree_section(bundle, a)
        assert jumping_count(bundle, a) == jumping_count_section(bundle, a), bundle
        assert pushforward_degree(bundle, a) == degree, bundle
        report = grr_verify(bundle, a)
        assert report.rhs_degree == degree, bundle
        assert type(report.lhs_degree) is int


SMALL_OR_HUGE = st.one_of(st.integers(-5, 5), DIGITS_5000, DIGITS_5000.map(lambda n: -n))
RANKS = st.one_of(st.integers(1, 5), DIGITS_5000)


@st.composite
def huge_bundles(draw):
    """A bundle on any surface of huge_surfaces_and_classes, and a line class to twist by."""
    g, c1 = draw(huge_surfaces_and_classes())
    bundle = BundleNumerics(g, draw(RANKS), c1, draw(SMALL_OR_HUGE))
    return bundle, DivisorClass(draw(SMALL_OR_HUGE), draw(SMALL_OR_HUGE))


@settings(AT_5000_DIGITS, max_examples=100)
@given(huge_bundles())
def test_twist_and_euler_char_bundle_match_their_oracles_at_5000_digits(case):
    bundle, line = case
    assert twist(bundle, line) == twist_by_classes(bundle, line)
    assert euler_char_bundle(bundle) == euler_char_bundle_pairing(bundle)


@st.composite
def huge_balanced_bundles(draw):
    """A genus-zero bundle with c1 = r*a*h + b*f, each number small or at 5000 digits."""
    e, r = draw(st.one_of(st.integers(0, 5), DIGITS_5000)), draw(RANKS)
    a, b, c2 = (draw(SMALL_OR_HUGE) for _ in range(3))
    return BundleNumerics(SurfaceGeometry(0, e), r, DivisorClass(r * a, b), c2), a


@settings(AT_5000_DIGITS, max_examples=100)
@given(huge_balanced_bundles())
def test_balanced_counts_match_section_pairing_at_5000_digits(case):
    bundle, a = case
    degree = pushforward_degree_section(bundle, a)
    assert jumping_count(bundle, a) == jumping_count_section(bundle, a)
    assert pushforward_degree(bundle, a) == degree
    assert grr_verify(bundle, a).rhs_degree == degree


def twisted_character(bundle: BundleNumerics, t: int) -> CycleClass:
    """ch(E(-t*h)) = ch(E) ch(O(-t*h)), in geometry's Fraction ring."""
    g = bundle.g
    return cycle_mul(g, chern_character(g, bundle.r, bundle.c1, bundle.c2),
                     chern_character(g, 1, DivisorClass(-t, 0), 0))


def chi_road_by_fraction_ring(bundle: BundleNumerics, a: int) -> Fraction:
    """-chi(E(-(a+1)*h)), the point part of ch * td(S) (Hirzebruch-Riemann-Roch)."""
    g = bundle.g
    return -cycle_mul(g, twisted_character(bundle, a + 1), todd_surface(g)).p2


def grr_verify_by_fraction_ring(bundle: BundleNumerics, a: int) -> tuple:
    """grr_verify's fields, ch(E(-a*h)) * td(S) pushed to the base times todd_curve(q)^-1."""
    g = bundle.g
    pushed = pushforward_to_curve(g, cycle_mul(g, twisted_character(bundle, a), todd_surface(g)))
    lhs = curve_mul(pushed, CurveCycle(1, g.q - 1))
    rhs = pushforward_degree(bundle, a)
    return lhs.r0 == bundle.r, lhs.p1 == rhs, lhs.p1, rhs


def assert_roads_match_the_fraction_ring(bundle: BundleNumerics, a: int):
    assert jumping_count_chi_oracle(bundle, a) == chi_road_by_fraction_ring(bundle, a), bundle
    report = grr_verify(bundle, a)
    assert (report.rank_ok, report.degree_ok, report.lhs_degree, report.rhs_degree) == (
        grr_verify_by_fraction_ring(bundle, a)), bundle
    assert type(report.lhs_degree) is int


def test_chi_and_grr_roads_match_the_fraction_ring_on_small_grid():
    cases = 0
    for e, r, a, b, c2 in itertools.product(range(5), range(1, 5), range(-3, 4), range(-4, 5),
                                            range(-3, 4)):
        assert_roads_match_the_fraction_ring(
            BundleNumerics(SurfaceGeometry(0, e), r, DivisorClass(r * a, b), c2), a)
        cases += 1
    assert cases == 5 * 4 * 7 * 9 * 7


@settings(AT_5000_DIGITS, max_examples=100)
@given(huge_balanced_bundles())
def test_chi_and_grr_roads_match_the_fraction_ring_at_5000_digits(case):
    assert_roads_match_the_fraction_ring(*case)


@settings(AT_5000_DIGITS, max_examples=100)
@given(huge_balanced_bundles(), RANKS)
def test_what_each_road_halves_is_even_at_5000_digits(case, x):
    """The numbers the int roads floor-divide by 2 are even, read off the Fraction ring.

    grr_verify halves 2 ch2(E(-a*h)); the chi road halves 2 (chi - r) =
    c1(F).c1(T) + 2 ch2(F) for F = E(-(a+1)*h), and not 2 ch2(F) alone,
    which is odd when e and r are.  extension_chern and its inverse halve
    A^2 - rho a^2 - x (a - 1)^2 for A = rho a + x (a - 1).
    """
    bundle, a = case
    g, r = bundle.g, bundle.r
    grr = 2 * twisted_character(bundle, a).p2
    chi_character = twisted_character(bundle, a + 1)
    chi = 2 * (cycle_mul(g, chi_character, todd_surface(g)).p2 - r)
    assert grr.denominator == chi.denominator == 1
    assert grr.numerator % 2 == chi.numerator % 2 == 0
    assert (2 * chi_character.p2).numerator % 2 == g.e * r % 2
    fiber = r * a + x * (a - 1)
    assert (fiber * fiber - r * a * a - x * (a - 1) * (a - 1)) % 2 == 0


def extension_chern_by_whitney(ext: ExtensionData) -> BundleNumerics:
    """c1 = c1(sub) + c1(quot), c2 = c2(sub) + c2(quot) + c1(sub).c1(quot) by intersect."""
    g, x, a = ext.g, ext.x, ext.a
    pieces = [(ext.r - x, DivisorClass((ext.r - x) * a, ext.deg_sub)),
              (x, DivisorClass(x * (a - 1), ext.deg_quot))]
    # a pullback of rank k with c1 = k*t*h + d*f has c2 = (k - 1) t d - e t^2 k(k - 1)/2,
    # which is ((k - 1)/k) c1^2 / 2 = (k - 1) c1^2 / (2k)
    c2 = sum((k - 1) * intersect(g, c1, c1) // (2 * k) for k, c1 in pieces)
    sub, quot = (c1 for _, c1 in pieces)
    return BundleNumerics(g, ext.r, sub + quot, c2 + intersect(g, sub, quot))


def test_extension_chern_matches_whitney_on_small_grid():
    for e, r, a, b, c in itertools.product(range(4), range(2, 6), range(-3, 4), range(-3, 4),
                                           range(-3, 4)):
        for x in range(1, r):
            ext = ExtensionData(SurfaceGeometry(0, e), r, x, a, b, c)
            assert extension_chern(ext) == extension_chern_by_whitney(ext), ext


@settings(AT_5000_DIGITS, max_examples=100)
@given(st.one_of(st.integers(0, 5), DIGITS_5000), RANKS, RANKS, SMALL_OR_HUGE, SMALL_OR_HUGE,
       SMALL_OR_HUGE)
def test_extension_chern_matches_whitney_at_5000_digits(e, rho, x, a, b, c):
    ext = ExtensionData(SurfaceGeometry(0, e), rho + x, x, a, b, c)
    assert extension_chern(ext) == extension_chern_by_whitney(ext)
