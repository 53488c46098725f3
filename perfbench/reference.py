"""Reference computations the benchmark checks ruledsurf against.

Everything here is written from the mathematics, not from the library, and
this module never imports ruledsurf.  Divisors are plain pairs (a, b) for
a*h + b*f on a ruled surface with invariant e over a genus-q curve, so
h^2 = -e, h.f = 1, f^2 = 0 and K = -2h + (2q - 2 - e)f.  Line-bundle
cohomology uses closed arithmetic-series sums, so its cost does not grow
with the coefficients.
"""

from __future__ import annotations

import itertools
from decimal import Decimal
from fractions import Fraction
from functools import lru_cache

# --- intersection ring --------------------------------------------------


def intersect(e, d1, d2):
    return -e * d1[0] * d2[0] + d1[0] * d2[1] + d2[0] * d1[1]


def canonical(q, e):
    return (-2, 2 * q - 2 - e)


def is_ample(e, d):
    a, b = d
    if a <= 0:
        return False
    return b > a * e if e >= 0 else 2 * b > a * e


def is_good(q, e, d):
    return is_ample(e, d) and d[0] * (e + 2 * q - 1) < 2 * d[1]


def min_good_twist(q, e, d):
    """Closed form max(0, floor((a(e+2q-1) - 2b)/2) + 1) for an ample d."""
    a, b = d
    return max(0, (a * (e + 2 * q - 1) - 2 * b) // 2 + 1)


def chi_line(q, e, d):
    """Riemann-Roch: (1 - q) + D.(D - K)/2."""
    k = canonical(q, e)
    return (1 - q) + intersect(e, d, (d[0] - k[0], d[1] - k[1])) // 2


def serre_dual(q, e, d):
    k = canonical(q, e)
    return (k[0] - d[0], k[1] - d[1])


def cycle_mul(e, x, y):
    """Product of (r0, dh, df, p2) cycles in the ring truncated above degree 2."""
    pairing = -e * x[1] * y[1] + x[1] * y[2] + y[1] * x[2]
    return (
        x[0] * y[0],
        x[0] * y[1] + y[0] * x[1],
        x[0] * y[2] + y[0] * x[2],
        x[0] * y[3] + y[0] * x[3] + pairing,
    )


def chern_character(e, r, c1, c2):
    return (Fraction(r), Fraction(c1[0]), Fraction(c1[1]),
            Fraction(intersect(e, c1, c1) - 2 * c2, 2))


def todd_surface(q, e):
    k = canonical(q, e)
    return (Fraction(1), Fraction(-k[0], 2), Fraction(-k[1], 2), Fraction(1 - q))


# --- line-bundle cohomology on F_e (genus zero, e >= 0) -------------------


def _h_nonneg(e, a, b):
    # O(ah + bf) with a >= 0 pushes down to the sum of O(b - k e), k = 0..a.
    if e == 0:
        return ((a + 1) * max(0, b + 1), (a + 1) * max(0, -b - 1), 0)
    if b < 0:
        h0 = 0
    else:
        top = min(a, b // e)  # terms with k*e <= b
        h0 = (top + 1) * (b + 1) - e * top * (top + 1) // 2
    k0 = max(0, -(-(b + 2) // e))  # first k with k*e >= b + 2
    if k0 > a:
        h1 = 0
    else:
        n = a - k0 + 1
        h1 = e * (k0 + a) * n // 2 - (b + 1) * n
    return (h0, h1, 0)


def h_line(e, d):
    """(h0, h1, h2) of O(a*h + b*f) on the Hirzebruch surface F_e."""
    a, b = d
    if a >= 0:
        return _h_nonneg(e, a, b)
    if a == -1:
        return (0, 0, 0)
    h0, h1, h2 = _h_nonneg(e, -2 - a, -2 - e - b)
    return (h2, h1, h0)


def _h_sum(e, summands, twist):
    total = [0, 0, 0]
    for di in summands:
        for dj in summands:
            h = h_line(e, (dj[0] - di[0] + twist[0], dj[1] - di[1] + twist[1]))
            for i in range(3):
                total[i] += h[i]
    return tuple(total)


def h_split_end(e, summands, twist=(0, 0)):
    return _h_sum(e, summands, twist)


def conormal_vanishing(e, t, s, n_max):
    return all(h_line(e, (n * t, n * s))[1:] == (0, 0) for n in range(1, n_max + 1))


def endomorphism_growth(e, summands, t, s, n):
    return sum(_h_sum(e, summands, (m * t, m * s))[0] for m in range(n))


def growth_last_layer(e, summands, t, s, n):
    """h0 of the layer added at step n; positive means growth strictly increases."""
    return _h_sum(e, summands, ((n - 1) * t, (n - 1) * s))[0]


def stabilization_certificate(e, summands, t, s):
    """Smallest y >= 1 from which every twisted End summand has h1 = 0 for good.

    A summand O(A h + B f) with A = y t + da, B = y s + db has h1 = 0 once
    A >= -1 and B >= e A - 1, and B - e A grows by s - e t >= 1 per step.
    """
    y = 1
    for di in summands:
        for dj in summands:
            da, db = dj[0] - di[0], dj[1] - di[1]
            y = max(y, -(-(-1 - da) // t), -(-(e * da - 1 - db) // (s - e * t)))
    return y


def stabilization_index(e, summands, t, s):
    cert = stabilization_certificate(e, summands, t, s)
    last_bad = 0
    for y in range(1, cert):
        if _h_sum(e, summands, (y * t, y * s))[1]:
            last_bad = y
    return last_bad + 1


# --- splitting types on P^1 -------------------------------------------------


def rigid_type(r, d):
    a = -(-d // r)
    x = a * r - d
    return (a,) * (r - x) + (a - 1,) * x


def h1_end(parts):
    return sum(max(0, bj - bi - 1) for bi in parts for bj in parts)


def jumping_type(r, a):
    return (a + 1,) + (a,) * (r - 2) + (a - 1,)


def specializes(general, special):
    if len(general) != len(special) or sum(general) != sum(special):
        return False
    pg = ps = 0
    for bg, bs in zip(general, special):
        pg += bg
        ps += bs
        if ps < pg:
            return False
    return True


def lift_obstructions(parts, t, n_max):
    """o_1..o_n_max; a layer k contributes nothing once k*t >= spread - 1."""
    def layer(k):
        shift = k * t
        return sum(max(0, bi - bj - shift - 1) for bi in parts for bj in parts)

    spread = parts[0] - parts[-1]
    quiet = max(0, -(-(spread - 1) // t))  # layers k >= quiet vanish
    out = []
    total = layer(0)
    for n in range(1, n_max + 1):
        if n < quiet:
            total += layer(n)
        out.append(total)
    return out


@lru_cache(maxsize=None)
def _box_partitions(n, k, s):
    # Partitions of n into at most k parts, each at most s.
    if n < 0:
        return 0
    if n == 0:
        return 1
    if k == 0 or s == 0:
        return 0
    return _box_partitions(n, k - 1, s) + _box_partitions(n - k, k, s - 1)


def count_types(r, d, max_spread):
    """Number of nonincreasing r-tuples of sum d and spread <= max_spread."""
    total = 0
    for low in range(-(-(d - (r - 1) * max_spread) // r), d // r + 1):
        # subtracting the last part `low` leaves r - 1 parts in [0, max_spread]
        total += _box_partitions(d - r * low, r - 1, max_spread)
    return total


def all_types(r, d, max_spread):
    """The same types listed by brute force, in ascending lexicographic order."""
    found = []
    for low in range(-(-(d - (r - 1) * max_spread) // r), d // r + 1):
        for rest in itertools.combinations_with_replacement(
            range(low, low + max_spread + 1), r - 1
        ):
            parts = tuple(reversed(rest)) + (low,)
            if sum(parts) == d:
                found.append(parts)
    return sorted(found)


def chain_problem(target, chain):
    """Why `chain` is not a degeneration chain from the rigid type to target, or None."""
    if not chain or chain[0] != rigid_type(len(target), sum(target)):
        return "chain does not start at the rigid type"
    if chain[-1] != tuple(target):
        return "chain does not end at the target"
    for before, after in zip(chain, chain[1:]):
        deltas = sorted(y - x for x, y in zip(before, after) if y != x)
        if deltas != [-1, 1]:
            return f"step {before} -> {after} is not elementary"
        if not specializes(before, after):
            return f"step {before} -> {after} leaves the dominance order"
        if any(after[i] < after[i + 1] for i in range(len(after) - 1)):
            return f"step {after} is not nonincreasing"
    return None


# --- numerical bundles --------------------------------------------------------


def twist(e, r, c1, c2, line):
    c1n = (c1[0] + r * line[0], c1[1] + r * line[1])
    c2n = c2 + (r - 1) * intersect(e, c1, line) + r * (r - 1) // 2 * intersect(e, line, line)
    return c1n, c2n


def jumping_count(e, r, c1, c2, a):
    """Closed form z = c2 - a(r-1) c1.h - e a^2 r(r-1)/2 and pushforward degree m."""
    c1h = intersect(e, c1, (1, 0))
    z = c2 - a * (r - 1) * c1h - e * a * a * (r * (r - 1) // 2)
    return z, -z + c1h + r * a * e


def chi_bundle(q, e, r, c1, c2):
    k = canonical(q, e)
    return r * (1 - q) + intersect(e, c1, (c1[0] - k[0], c1[1] - k[1])) // 2 - c2


def extension_chern(e, r, x, a, deg_sub, deg_quot):
    """(c1, c2) of an extension of pulled-back pieces, by Whitney's formula."""
    def piece(rank, tw, deg):
        return (rank * tw, deg), (rank - 1) * tw * deg - e * tw * tw * (rank * (rank - 1) // 2)

    c1s, c2s = piece(r - x, a, deg_sub)
    c1q, c2q = piece(x, a - 1, deg_quot)
    return (c1s[0] + c1q[0], c1s[1] + c1q[1]), c2s + c2q + intersect(e, c1s, c1q)


def slope(e, r, c1, polarization):
    return Fraction(intersect(e, c1, polarization), r)


# --- verify grids at their default bounds ------------------------------------


def grid_points():
    """Points each verify suite checks at its default bounds."""
    coeff = (4 + 1) * (2 * 8 + 1) ** 2
    dominance = sum(
        count_types(r, d, 4) ** 2 for r in range(1, 5) for d in range(-4, 5)
    )
    rigid = sum(
        1 + count_types(r, d, r + 2) for r in range(1, 5) for d in range(-4, 5)
    ) + (6 - 1) * (2 * 3 + 1)
    return {
        "serre": coeff,
        "euler": coeff,
        "conormal": (3 + 1) * 3 * 4,
        "theoremC": (3 + 1) * (5 - 1) * (2 * 2 + 1) * (2 * 5 + 1) * (2 * 5 + 1),
        "dominance": dominance,
        "rigid": rigid,
        "lifting": 6 * (2 * 6 + 1) * 3 + 1,
        "extension": (3 + 1) * sum(r - 1 for r in range(2, 6)) * (2 * 2 + 1) * (2 * 5 + 1) ** 2,
        "growth": 4 * 5 + 1,
    }


# --- literal formatting, as the CLI documents it ------------------------------


def int_text(n):
    # Decimal converts ints of any size; str() refuses past 4300 digits.
    return str(n) if n.bit_length() < 14000 else str(Decimal(n))


def decimal_digits(n):
    """Number of decimal digits of n, found without converting n to text."""
    n = abs(n)
    digits = max(1, (n.bit_length() - 1) * 30103 // 100000)
    while 10 ** digits <= n:
        digits += 1
    return digits


def divisor_text(d):
    sign = "+" if d[1] >= 0 else "-"
    return f"{int_text(d[0])}*h{sign}{int_text(abs(d[1]))}*f"


def type_text(parts):
    return "(" + ",".join(str(b) for b in parts) + ")"


def rational_text(x):
    x = Fraction(x)
    if x.denominator == 1:
        return int_text(x.numerator)
    return f"{int_text(x.numerator)}/{int_text(x.denominator)}"


def cycle_text(values):
    return "(" + ",".join(rational_text(v) for v in values) + ")"


def bundle_text(q, e, r, c1, c2):
    return f"r={r}; c1={divisor_text(c1)}; c2={int_text(c2)}; e={e}; q={q}"


def json_rational(x):
    """A rational as the CLI's JSON carries it: an int when integral, else 'p/q'."""
    x = Fraction(x)
    return x.numerator if x.denominator == 1 else rational_text(x)
