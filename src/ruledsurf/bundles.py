"""Numerical vector-bundle calculus on a ruled surface.

A bundle enters only through its numerical shadow (rank, c1, c2).  The
operations here twist that data by line bundles, count jumping fibers of
a bundle whose general fiber restriction is balanced, compute the degree
of its pushforward to the base, and keep the books for extensions of a
pulled-back piece twisted by (a-1)h by a pulled-back piece twisted by ah.

The jumping count deliberately travels four independent roads: the
closed form, c2 of the normalizing twist, minus the Euler characteristic
of the once-more twisted bundle, and grr_verify, which pushes the Chern
character times the Todd class to the base (Grothendieck-Riemann-Roch).
Every road runs in ints, each in its own frame and from the bundle's own
fields: each pairing is written out from the coefficients instead of
building classes for intersect.  twist writes c2 of the twist; the chi
and GRR roads write ch2 of their twist by multiplicativity of the Chern
character, ch(E(L)) = ch(E) ch(L), doubled so that its halves stay ints,
and build no shifted class or bundle.  No road reads another's formula,
so a fault in one moves that road alone; tests/test_road_independence.py
traces them.  The public Fraction ring of geometry (chern_character,
cycle_mul, todd_surface, pushforward_to_curve, curve_mul) and the class
arithmetic these bodies replaced are their oracles in the tests.  No road
calls another to check itself; the verification grids and the tests
compare them all.

Every public function refuses a bundle, extension or line of another
class, with the TypeError of _value._wrong_type, before it reads a field;
a stand-in with the same attributes would otherwise answer in floats.
Behind those checks each value is checked once: twist, grr_verify,
extension_chern and extension_data_from_chern build their results
unchecked, through _value._unchecked, from the ints of the checked values
they were given (_value._Value has the rule).

Only slope is rational, and it imports fractions in its body, so the
int-only operations load none.
"""

from __future__ import annotations

from ._value import _require_int, _unchecked, _Value, _wrong_type
from .geometry import DivisorClass, SurfaceGeometry, intersect


class BundleNumerics(_Value, fields=("g", "r", "c1", "c2")):
    """Numerical data (geometry, rank, c1, c2) of a vector bundle on the surface."""
    __slots__ = ()

    def __new__(cls, g: SurfaceGeometry, r: int, c1: DivisorClass, c2: int):
        if type(g) is not SurfaceGeometry:
            raise _wrong_type("g", SurfaceGeometry, g)
        if type(r) is not int or type(c2) is not int:
            _require_int("rank and c2", r, c2)
        if type(c1) is not DivisorClass:
            raise _wrong_type("c1", DivisorClass, c1)
        if r < 1:
            raise ValueError(f"rank must be at least 1, got {r}")
        return tuple.__new__(cls, (g, r, c1, c2))


class ExtensionData(_Value, fields=("g", "r", "x", "a", "deg_sub", "deg_quot")):
    """Bookkeeping for an extension of pulled-back bundles.

    The middle term has rank r; the sub-piece is a pullback of rank r - x
    twisted by a*h with base degree deg_sub, the quotient a pullback of
    rank x twisted by (a-1)*h with base degree deg_quot.
    """
    __slots__ = ()

    def __new__(cls, g: SurfaceGeometry, r: int, x: int, a: int, deg_sub: int,
                deg_quot: int):
        if type(g) is not SurfaceGeometry:
            raise _wrong_type("g", SurfaceGeometry, g)
        if not (type(r) is type(x) is type(a) is type(deg_sub) is type(deg_quot) is int):
            _require_int("extension ranks, twist and degrees", r, x, a, deg_sub, deg_quot)
        if not 0 < x < r:
            raise ValueError(f"need 0 < x < r, got x={x}, r={r}")
        return tuple.__new__(cls, (g, r, x, a, deg_sub, deg_quot))


def fiber_degree(bundle: BundleNumerics) -> int:
    """Degree of the restriction to a general fiber: c1.f, the h-coefficient."""
    if type(bundle) is not BundleNumerics:
        raise _wrong_type("bundle", BundleNumerics, bundle)
    return bundle.c1.a


def twist(bundle: BundleNumerics, line: DivisorClass) -> BundleNumerics:
    """Tensor by the line bundle O(line) = O(la*h + lb*f).

    c1 + r*L and c2 + (r-1) c1.L + r(r-1)/2 L.L, the pairings written out
    from the coefficients as in intersect.
    """
    if type(bundle) is not BundleNumerics:
        raise _wrong_type("bundle", BundleNumerics, bundle)
    if type(line) is not DivisorClass:  # its coefficients are read as ints
        raise _wrong_type("line", DivisorClass, line)
    r, e, a, b, la, lb = bundle.r, bundle.g.e, bundle.c1.a, bundle.c1.b, line.a, line.b
    c2 = (
        bundle.c2
        + (r - 1) * (-e * a * la + a * lb + la * b)
        + (r * (r - 1) // 2) * (la * (2 * lb - e * la))
    )
    c1 = _unchecked(DivisorClass, (a + r * la, b + r * lb))
    return _unchecked(BundleNumerics, (bundle.g, r, c1, c2))


def _require_balanced_regime(bundle: BundleNumerics, a: int):
    if type(bundle) is not BundleNumerics:
        raise _wrong_type("bundle", BundleNumerics, bundle)
    if type(a) is not int:
        _require_int("fiber twists", a)
    if bundle.g.q != 0:
        raise ValueError("jumping-fiber invariants are defined for genus zero only")
    if bundle.c1.a != bundle.r * a:  # the fiber degree
        raise ValueError(
            f"fiber degree {bundle.c1.a} != r*a = {bundle.r * a}: "
            "the general splitting type is not (a,...,a)"
        )


def jumping_count(bundle: BundleNumerics, a: int) -> int:
    """Number of fibers where the splitting type jumps off (a,...,a).

    Closed form z = c2 - a(r-1) c1.h - e a^2 r(r-1)/2, which equals c2 of
    the twist by -a*h; the theoremC grid compares the two.
    """
    _require_balanced_regime(bundle, a)
    e, r, c1 = bundle.g.e, bundle.r, bundle.c1
    # c1.h = -e*c1.a + c1.b
    return bundle.c2 - a * (r - 1) * (c1.b - e * c1.a) - e * a * a * (r * (r - 1) // 2)


def _pushforward_degree(bundle: BundleNumerics, a: int) -> int:
    e, r, c1 = bundle.g.e, bundle.r, bundle.c1
    return ((1 + a * (r - 1)) * (c1.b - e * c1.a) - bundle.c2
            + e * a * (r + a * (r * (r - 1) // 2)))


def pushforward_degree(bundle: BundleNumerics, a: int) -> int:
    """Degree of the pushforward of the normalized bundle: -z + c1.h + r*a*e, z expanded."""
    _require_balanced_regime(bundle, a)
    return _pushforward_degree(bundle, a)


def euler_char_bundle(bundle: BundleNumerics) -> int:
    """Riemann-Roch on the surface: r(1-q) + c1.(c1 - K)/2 - c2, any genus."""
    if type(bundle) is not BundleNumerics:
        raise _wrong_type("bundle", BundleNumerics, bundle)
    q, e, a, b = bundle.g.q, bundle.g.e, bundle.c1.a, bundle.c1.b
    # c1.(c1 - K)/2 = ab - qa + a + b - e*a(a + 1)/2 for c1 = a*h + b*f; a(a + 1) is even
    return bundle.r * (1 - q) + a * b - q * a + a + b - e * (a * (a + 1) // 2) - bundle.c2


def jumping_count_chi_oracle(bundle: BundleNumerics, a: int) -> int:
    """Jumping count via Euler characteristics.

    After twisting by L = -(a+1)*h the general fiber type is (-1,...,-1),
    which kills both direct images, so all of chi(E(L)) is the jumping
    torsion and z = -chi.  ch(E(L)) = ch(E) ch(L) gives 2 ch2(E(L)) =
    c1^2 - 2 c2 + 2 c1.L + r L^2, and Hirzebruch-Riemann-Roch in genus zero
    chi = r + (c1(E(L)).(2h + (2+e)f) + 2 ch2(E(L)))/2, where c1(E(L)) has
    h-part c1.a - r(a+1) and f-part c1.b.  Computed without reference to
    the closed form or to twist.
    """
    _require_balanced_regime(bundle, a)
    e, r, c1a, c1b, t = bundle.g.e, bundle.r, bundle.c1.a, bundle.c1.b, a + 1
    twice_ch2 = (c1a * (2 * c1b - e * c1a) - 2 * bundle.c2
                 - 2 * t * (c1b - e * c1a) - e * r * t * t)
    return -r - ((2 - e) * (c1a - r * t) + 2 * c1b + twice_ch2) // 2


class GrrReport(_Value, fields=("rank_ok", "degree_ok", "lhs_degree", "rhs_degree")):
    """Comparison of the cycle-level pushforward degree against the closed form.

    Both degrees are ints, as 2 ch2 of grr_verify's twist is even.  Built
    by hand, it refuses a field that is not of its annotated class;
    grr_verify builds its report unchecked.
    """
    __slots__ = ()

    def __new__(cls, rank_ok: bool, degree_ok: bool, lhs_degree: int, rhs_degree: int):
        if type(rank_ok) is not bool:
            raise _wrong_type("rank_ok", bool, rank_ok)
        if type(degree_ok) is not bool:
            raise _wrong_type("degree_ok", bool, degree_ok)
        if type(lhs_degree) is not int:
            _require_int("lhs_degree", lhs_degree)
        if type(rhs_degree) is not int:
            _require_int("rhs_degree", rhs_degree)
        return tuple.__new__(cls, (rank_ok, degree_ok, lhs_degree, rhs_degree))


def grr_verify(bundle: BundleNumerics, a: int) -> GrrReport:
    """Push ch(twisted bundle) * td(surface) to the base and compare degrees.

    The left side is ch * td of N = E(-a*h), pushed along the ruling and
    corrected by the inverse curve Todd class; in the balanced regime the
    higher direct image vanishes, so its degree-0 part is the rank and its
    degree-1 part the pushforward degree.  The h part of ch * td maps onto
    the base and gives the rank r + c1.a - r*a, which is r, as the regime
    check makes c1.a = r*a.  It also makes q = 0, so c1(N) = c1.b*f,
    td(S) = 1 + h + (e + 2)/2 f + [pt], and the point part r + c1.b + ch2(N)
    of ch(N) td(S) maps to a point, where todd_curve(0)^-1 = 1 - [pt] turns
    it into the degree c1.b + ch2(N).  ch(N) = ch(E) ch(O(-a*h)) gives
    2 ch2(N) = c1^2 - 2 c2 - 2a c1.h - e r a^2, which is even: at c1.a = r*a
    it is -e r(r - 1) a^2 + 2(r - 1) a c1.b - 2 c2.  geometry's public cycle
    ring computes the whole product in Fractions, in any genus and at any
    fiber degree, and is the oracle for this one in the tests.  The right
    side is the closed form of pushforward_degree, on the regime checked
    here.
    """
    _require_balanced_regime(bundle, a)
    e, r, c1a, c1b = bundle.g.e, bundle.r, bundle.c1.a, bundle.c1.b
    twice_ch2 = (c1a * (2 * c1b - e * c1a) - 2 * bundle.c2
                 - 2 * a * (c1b - e * c1a) - e * r * a * a)
    degree = c1b + twice_ch2 // 2
    rhs = _pushforward_degree(bundle, a)
    return _unchecked(GrrReport, (c1a == r * a, degree == rhs, degree, rhs))


def extension_chern(ext: ExtensionData) -> BundleNumerics:
    """Chern data of the extension middle term, by Whitney's formula.

    A pullback of rank k and base degree d twisted by t*h has c1 = k*t*h + d*f
    and c2 = (k - 1)*t*d - e*t^2*k(k - 1)/2: the sub-piece has (k, t, d) =
    (r - x, a, deg_sub), the quotient (x, a - 1, deg_quot).  With A = c1.a =
    (r - x)a + x(a - 1), c2(sub) + c2(quot) + c1(sub).c1(quot) collects to
    deg_sub (A - a) + deg_quot (A - a + 1) - e (A^2 - (r - x)a^2 - x(a - 1)^2)/2,
    where the last bracket is even.
    """
    if type(ext) is not ExtensionData:
        raise _wrong_type("ext", ExtensionData, ext)
    g, r, x, a, sub_b, quot_b = ext.g, ext.r, ext.x, ext.a, ext.deg_sub, ext.deg_quot
    rho, a1 = r - x, a - 1
    c1a = rho * a + x * a1
    c2 = (sub_b * (c1a - a) + quot_b * (c1a - a1)
          - g.e * ((c1a * c1a - rho * a * a - x * a1 * a1) // 2))
    c1 = _unchecked(DivisorClass, (c1a, sub_b + quot_b))
    return _unchecked(BundleNumerics, (g, r, c1, c2))


def extension_data_from_chern(bundle: BundleNumerics, a: int, x: int) -> ExtensionData:
    """Recover the two base degrees from the Chern data of the middle term.

    The linear system in (deg_sub, deg_quot) is unimodular, so the solution
    is always integral and unique.  It inverts extension_chern; the
    extension grid and the tests check the round trip.
    """
    if type(bundle) is not BundleNumerics:
        raise _wrong_type("bundle", BundleNumerics, bundle)
    if type(a) is not int or type(x) is not int:
        _require_int("twist and quotient rank", a, x)
    r = bundle.r
    if not 0 < x < r:
        raise ValueError(f"need 0 < x < r, got x={x}, r={r}")
    c1a = r * a - x
    c1 = bundle.c1
    if c1.a != c1a:
        raise ValueError(
            f"c1 fiber part {c1.a} incompatible with (a={a}, x={x}): "
            f"an extension of this shape forces {c1a}"
        )
    g, b, a1 = bundle.g, c1.b, a - 1
    # extension_chern's c2 = (A - a) b + deg_quot - e (A^2 - (r - x) a^2 - x a1^2)/2, A = c1.a
    deg_quot = (bundle.c2 + g.e * ((c1a * c1a - (r - x) * a * a - x * a1 * a1) // 2)
                - (c1a - a) * b)
    return _unchecked(ExtensionData, (g, r, x, a, b - deg_quot, deg_quot))


def slope(bundle: BundleNumerics, polarization: DivisorClass) -> Fraction:
    """Mumford-Takemoto slope c1.R / rank as an exact rational."""
    from fractions import Fraction

    if type(bundle) is not BundleNumerics:
        raise _wrong_type("bundle", BundleNumerics, bundle)
    if type(polarization) is not DivisorClass:
        raise _wrong_type("polarization", DivisorClass, polarization)
    return Fraction(intersect(bundle.g, bundle.c1, polarization), bundle.r)


def destabilizes(
    sub: BundleNumerics, whole: BundleNumerics, polarization: DivisorClass
) -> bool:
    """Whether the slope of `sub` rules out stability of `whole` for this polarization."""
    if type(sub) is not BundleNumerics:
        raise _wrong_type("sub", BundleNumerics, sub)
    if type(whole) is not BundleNumerics:
        raise _wrong_type("whole", BundleNumerics, whole)
    if sub.g != whole.g:
        raise ValueError("sub and whole must live on the same surface")
    if sub.r >= whole.r:
        raise ValueError(
            f"sub rank {sub.r} must be smaller than whole rank {whole.r}"
        )
    return slope(sub, polarization) >= slope(whole, polarization)
