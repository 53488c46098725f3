"""Line-bundle cohomology on Hirzebruch surfaces and quantities built on it.

For genus zero the ruling pushes O(a*h + b*f) down to a sum of line bundles
on the base P^1, so for a >= 0 the dimensions h0 and h1 are the section and
obstruction counts of the summands O(b - k*e), k = 0..a.  Those counts are
arithmetic series with closed forms, so h_line does a fixed number of
integer operations whatever the coefficients.  h2 vanishes whenever
a >= -1; _h_line_ints, the one integer kernel behind h_line and
h_split_end, takes the remaining case a <= -2 to the a >= 0 case through
Serre duality in a single step.

On top of the line-bundle table this module evaluates the endomorphism
cohomology of split bundles, which sums over the multiset of summand
differences, the dimension of their local moduli space, the conormal-power
vanishing that makes infinitesimal neighborhoods manageable, the index
past which twisted endomorphism h1 stabilizes at zero, and the growth of
global endomorphisms through the neighborhoods (in the split model, where
sections of the layers add up).  The last two are read off each summand
difference in closed form, with no twist evaluated: their cost does not
grow with the index or the neighborhood.

Positive genus exposes only the Riemann-Roch Euler characteristic; exact
individual h^i would need Brill-Noether data and is deliberately refused
with a typed error.
"""

from __future__ import annotations

from ._value import _require_int, _unchecked, _Value, _wrong_type
from .geometry import ZERO, DivisorClass, SurfaceGeometry, canonical_class


class PositiveGenusError(ValueError):
    """Exact cohomology dimensions are only available for genus zero."""


class StabilizationError(ValueError):
    """The certified vanishing tail was not reached within the search bound."""


def _require_genus_zero(g: SurfaceGeometry):
    if type(g) is not SurfaceGeometry:
        raise _wrong_type("g", SurfaceGeometry, g)
    if g.q != 0:
        raise PositiveGenusError(
            f"exact cohomology needs genus zero, got q={g.q}; use euler_char instead"
        )


class CohomologyTable(_Value, fields=("h0", "h1", "h2")):
    """The three cohomology dimensions (h0, h1, h2) of a sheaf on a surface."""
    __slots__ = ()

    def __new__(cls, h0: int, h1: int, h2: int):
        if not (type(h0) is type(h1) is type(h2) is int):
            _require_int("cohomology dimensions", h0, h1, h2)
        return tuple.__new__(cls, (h0, h1, h2))

    def euler(self) -> int:
        return self.h0 - self.h1 + self.h2


class SplitBundle(_Value, fields=("summands",)):
    """Direct sum of line bundles, recorded by its summand divisor classes."""
    __slots__ = ()

    def __new__(cls, summands: tuple[DivisorClass, ...]):
        summands = tuple(summands)
        if not summands:
            raise ValueError("a split bundle needs at least one summand")
        for summand in summands:
            if type(summand) is not DivisorClass:
                raise _wrong_type("each summand", DivisorClass, summand)
        return tuple.__new__(cls, (summands,))

    def rank(self) -> int:
        return len(self.summands)


class ConormalData(_Value, fields=("t", "s")):
    """Numerical conormal class t*h + s*f of the surface inside its ambient threefold.

    For genus zero the standing assumption is ampleness (t > 0, s > e*t);
    for positive genus the degree condition is s > 2q - 2 + |e|.  t > 0 is
    enforced at construction, the genus-dependent part by check_conormal.
    """
    __slots__ = ()

    def __new__(cls, t: int, s: int):
        if type(t) is not int or type(s) is not int:
            _require_int("conormal degrees", t, s)
        if t <= 0:
            raise ValueError(f"conormal h-degree must be positive, got t={t}")
        return tuple.__new__(cls, (t, s))


def check_conormal(g: SurfaceGeometry, c: ConormalData):
    """Reject conormal data violating the standing positivity assumptions."""
    if type(g) is not SurfaceGeometry:
        raise _wrong_type("g", SurfaceGeometry, g)
    if type(c) is not ConormalData:
        raise _wrong_type("c", ConormalData, c)
    if g.q == 0:
        if c.s <= g.e * c.t:
            raise ValueError(
                f"conormal class must be ample: need s > e*t, got s={c.s}, e*t={g.e * c.t}"
            )
    else:
        bound = 2 * g.q - 2 + abs(g.e)
        if c.s <= bound:
            raise ValueError(
                f"conormal degree must exceed 2q-2+|e| = {bound}, got s={c.s}"
            )


def _h_line_ints(e: int, a: int, b: int) -> tuple[int, int, int]:
    # (h0, h1, h2) of O(a*h + b*f) on F_e.  For a <= -2, Serre duality:
    # h^i(D) = h^(2-i)(K - D), K - D = (-2 - a)*h + (-2 - e - b)*f.
    if a <= -2:
        h0, h1, h2 = _h_line_ints(e, -2 - a, -2 - e - b)
        return h2, h1, h0
    # Now h2 = 0.  h0 sums b - k*e + 1 over the k in 0..a where it is positive,
    # and h1 sums k*e - b - 1 over the k in 0..a where that is positive (e >= 0
    # in genus zero; a = -1 leaves no k).  Each is an arithmetic series of its
    # own, so neither is read off the other or off chi.
    if e == 0:  # every k gives the same term
        return ((a + 1) * (b + 1), 0, 0) if b >= -1 else (0, -(a + 1) * (b + 1), 0)
    # h0 takes k = 0..top and h1 takes k = low..a.  top*(top + 1) is even, and
    # so is n*(low + a) for the n = a - low + 1 terms of h1: each division is exact.
    if b < 0:
        h0 = 0
        low = 1 if b == -1 else 0
    else:
        top = min(a, b // e)
        h0 = (top + 1) * (b + 1) - e * top * (top + 1) // 2
        low = (b + 1) // e + 1
    if low > a:
        return h0, 0, 0
    return h0, (a - low + 1) * (e * (low + a) - 2 * (b + 1)) // 2, 0


def h_line(g: SurfaceGeometry, d: DivisorClass) -> CohomologyTable:
    """Exact cohomology of the line bundle O(a*h + b*f) on a Hirzebruch surface."""
    if type(g) is not SurfaceGeometry or g.q:
        _require_genus_zero(g)
    if type(d) is not DivisorClass:
        raise _wrong_type("d", DivisorClass, d)
    # the kernel's ints, from the fields of the two values checked above
    return _unchecked(CohomologyTable, _h_line_ints(g.e, d.a, d.b))


def euler_char(g: SurfaceGeometry, d: DivisorClass) -> int:
    """Riemann-Roch Euler characteristic (1 - q) + D.(D - K)/2, any genus."""
    if type(g) is not SurfaceGeometry:
        raise _wrong_type("g", SurfaceGeometry, g)
    if type(d) is not DivisorClass:
        raise _wrong_type("d", DivisorClass, d)
    # D.(D - K)/2 = ab - qa + a + b - e*a(a + 1)/2 and a(a + 1) is even: exact ints
    return (d.a + 1) * (d.b + 1 - g.q) - g.e * (d.a * (d.a + 1) // 2)


def serre_dual(g: SurfaceGeometry, d: DivisorClass) -> DivisorClass:
    """The class K - D whose cohomology mirrors that of D."""
    if type(g) is not SurfaceGeometry:
        raise _wrong_type("g", SurfaceGeometry, g)
    if type(d) is not DivisorClass:
        raise _wrong_type("d", DivisorClass, d)
    return canonical_class(g) - d


def conormal_vanishing(g: SurfaceGeometry, c: ConormalData, n_max: int) -> bool:
    """Whether h1 and h2 of every conormal power n*(t,s), n = 1..n_max, vanish.

    The preconditions decide the answer: every input they accept vanishes,
    so no power is evaluated.  The `conormal` verify grid and the tests
    compare it with h_line at each power.
    """
    _require_genus_zero(g)
    check_conormal(g, c)
    if type(n_max) is not int:
        _require_int("n_max values", n_max)
    if n_max < 1:
        raise ValueError(f"n_max must be at least 1, got {n_max}")
    # n*(t,s) pushes down to the sum of O(n*s - k*e), k = 0..n*t, and each
    # summand has degree >= n*(s - e*t) > 0, so h1 = 0; h2 = 0 as n*t >= -1.
    return True


def _differences(bundle: SplitBundle) -> dict[tuple[int, int], int]:
    """The multiset of summand differences D_j - D_i as {(Δa, Δb): multiplicity}.

    End(bundle) is the sum of the lines O(D_j - D_i), so every count on it
    sums over this multiset; the diagonal adds r to the entry (0, 0).
    """
    if type(bundle) is not SplitBundle:
        raise _wrong_type("bundle", SplitBundle, bundle)
    diffs: dict[tuple[int, int], int] = {}
    for d_i in bundle.summands:
        for d_j in bundle.summands:
            key = (d_j.a - d_i.a, d_j.b - d_i.b)
            diffs[key] = diffs.get(key, 0) + 1
    return diffs


def h_split_end(
    g: SurfaceGeometry, bundle: SplitBundle, twist: DivisorClass = ZERO
) -> CohomologyTable:
    """Cohomology of End(bundle) twisted by a divisor class.

    End of a direct sum splits into the lines O(D_j - D_i), so the table is
    the componentwise sum of h_line over all ordered summand pairs, each
    distinct difference weighted by its multiplicity.  The sum is taken in
    ints, one call of h_line's kernel _h_line_ints per difference.
    """
    if type(g) is not SurfaceGeometry or g.q:
        _require_genus_zero(g)
    if type(twist) is not DivisorClass:
        raise _wrong_type("twist", DivisorClass, twist)
    e, ta, tb = g.e, twist.a, twist.b
    h0 = h1 = h2 = 0
    for (da, db), weight in _differences(bundle).items():
        x0, x1, x2 = _h_line_ints(e, da + ta, db + tb)
        h0 += weight * x0
        h1 += weight * x1
        h2 += weight * x2
    return _unchecked(CohomologyTable, (h0, h1, h2))


def moduli_dimension_split(g: SurfaceGeometry, bundle: SplitBundle) -> int:
    """Dimension h1(End) of the local moduli space at the zeroth neighborhood."""
    return h_split_end(g, bundle).h1


def stabilization_index(
    g: SurfaceGeometry, bundle: SplitBundle, c: ConormalData, y_max: int
) -> int:
    """Smallest x >= 1 with h1(End(bundle) ⊗ O(y*(t,s))) = 0 for all y >= x.

    End(bundle) ⊗ O(y*(t,s)) is the sum of the lines O(a*h + b*f) with
    a = Δa + y*t and gap = b - e*a = Δb - e*Δa + y*(s - e*t) over the summand
    differences (Δa, Δb).  Such a line has h1 != 0 exactly when a >= 0 and
    gap <= -2, or, by Serre duality, when a <= -2 and gap >= e.  Both a and
    gap grow linearly in y (slopes t and s - e*t > 0), so for each difference
    the y with h1 != 0 form two intervals, ending just before gap or a
    reaches -1.  The index is one past the last such y >= 1, read off in
    closed form with no twist evaluated.  The certificate cert_y, the least
    y >= 1 with a >= -1 and gap >= -1 for every difference, bounds the
    index; if cert_y > y_max the search fails with StabilizationError.
    """
    _require_genus_zero(g)
    check_conormal(g, c)
    if type(y_max) is not int:
        _require_int("y_max values", y_max)
    if y_max < 1:
        raise ValueError(f"y_max must be at least 1, got {y_max}")

    slope = c.s - g.e * c.t  # > 0 by check_conormal
    cert_y = index = 1
    for da, db in _differences(bundle):
        gap = db - g.e * da
        a_ok = -((da + 1) // c.t)  # least y with y*t + Δa >= -1
        gap_ok = -((gap + 1) // slope)  # least y with y*slope + gap >= -1
        cert_y = max(cert_y, a_ok, gap_ok)
        # the y with gap <= -2 end at gap_ok - 1 and those with a <= -2
        # at a_ok - 1; h1 != 0 there iff a >= 0, resp. gap >= e, holds
        if gap_ok > index and (gap_ok - 1) * c.t + da >= 0:
            index = gap_ok
        if a_ok > index and (a_ok - 1) * slope + gap >= g.e:
            index = a_ok
    if cert_y > y_max:
        raise StabilizationError(
            f"no stabilization within y_max={y_max}: the certified tail was not reached"
        )
    return index


def _power_sums(n: int) -> tuple[int, int]:
    """(Σ j, Σ j²) over j in [0, n)."""
    s1 = n * (n - 1) // 2
    return s1, s1 * (2 * n - 1) // 3


def _floor_sums(a: int, b: int, c: int, n: int) -> tuple[int, int, int]:
    """(Σ q_j, Σ j*q_j, Σ q_j²) over j in [0, n), where q_j = ⌊(a*j + b)/c⌋ and c > 0.

    The floor-sum recurrence of Concrete Mathematics §3.5, with the weighted
    and squared sums.  Splitting off ⌊a/c⌋*j + ⌊b/c⌋ leaves 0 <= a, b < c;
    then, with M = q_{n-1} and q'_k = ⌊(c*k + c - b - 1)/a⌋ over k in [0, M),
    Σ q = (n - 1)*M - Σ q', Σ j*q = (M*n*(n - 1) - Σ q'² - Σ q')/2 and
    Σ q² = (n - 1)*M² - 2*Σ k*q' - Σ q'.  (a, c) steps as in Euclid's
    algorithm, about 10^4 times at 5000 digits, past Python's recursion
    limit, so the steps are an explicit list of frames.
    """
    frames = []
    while n > 0:
        if not (0 <= a < c and 0 <= b < c):
            (qa, a), (qb, b) = divmod(a, c), divmod(b, c)
            frames.append((n, qa, qb))
            continue
        m = (a * (n - 1) + b) // c
        if m == 0:  # every q_j is 0
            break
        frames.append((n, m, None))
        a, b, c, n = c, c - b - 1, a, m
    f = g = h = 0
    for n, x, qb in reversed(frames):
        if qb is None:  # the row count, x = M
            f, g, h = ((n - 1) * x - f, (x * n * (n - 1) - h - f) // 2,
                       (n - 1) * x * x - 2 * g - f)
        else:  # q_j = x*j + qb + (the q of the reduced sum)
            s1, s2 = _power_sums(n)
            f, g, h = (x * s1 + qb * n + f, x * s2 + qb * s1 + g,
                       x * x * s2 + 2 * x * qb * s1 + qb * qb * n
                       + 2 * x * g + 2 * qb * f + h)
    return f, g, h


def endomorphism_growth(
    g: SurfaceGeometry, bundle: SplitBundle, c: ConormalData, n: int
) -> int:
    """Global endomorphism count on the n-th infinitesimal neighborhood, split model.

    In the split model the restriction sequences of the thickenings split,
    so sections add layer by layer: the result is the sum over m = 0..n-1
    of h0(End(bundle) ⊗ O(m*(t,s))), a weighted sum over the summand
    differences of h0(O(a*h + b*f)), a = Δa + m*t, b = Δb + m*s.  That h0
    is 0 until a, b >= 0 (from m0 on), then (top + 1)(b + 1) -
    e*top(top + 1)/2 with top = ⌊b/e⌋ while b < e*a (up to m1, as b - e*a
    grows by s - e*t > 0), and top = a after.  _floor_sums sums [m0, m1)
    and [m1, n) is a quadratic in m: O(r²·log) steps, whatever n is.
    """
    _require_genus_zero(g)
    check_conormal(g, c)
    if type(n) is not int:
        _require_int("neighborhood indices", n)
    if n < 1:
        raise ValueError(f"neighborhood index must be at least 1, got {n}")
    e, t, s = g.e, c.t, c.s
    total = 0
    for (da, db), weight in _differences(bundle).items():
        m0 = min(n, max(0, -(da // t), -(db // s)))
        m1 = min(n, max(m0, -((db - e * da) // (s - e * t))))
        if m1 > m0:  # q = ⌊b/e⌋ with b = b0 + s*j, j in [0, k)
            k, b0 = m1 - m0, db + m0 * s
            q, jq, qq = _floor_sums(s, b0, e, k)
            s1, _ = _power_sums(k)
            total += weight * ((b0 + 1) * (q + k) + s * (jq + s1) - e * (qq + q) // 2)
        if n > m1:  # a = a1 + t*j, b = b1 + s*j, j in [0, k)
            k, a1, b1 = n - m1, da + m1 * t, db + m1 * s
            s1, s2 = _power_sums(k)
            total += weight * (
                k * (a1 + 1) * (b1 + 1) + ((a1 + 1) * s + (b1 + 1) * t) * s1 + t * s * s2
                - e * (k * a1 * (a1 + 1) + t * (2 * a1 + 1) * s1 + t * t * s2) // 2)
    return total
