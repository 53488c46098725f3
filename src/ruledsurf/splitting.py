"""Splitting types of vector bundles on the projective line.

A bundle on P^1 splits as a sum of line bundles; its type is the
nonincreasing degree sequence.  This module implements the combinatorics
the surface-level theory leans on: the rigid (balanced) type of given rank
and degree, h1 of the endomorphism bundle, the Shatz dominance order with
a section-count semicontinuity oracle as its independent twin, explicit
degeneration chains down from the rigid type, and the fiberwise
obstruction counts for lifting a splitting through the formal neighborhood
of a fiber inside a threefold, built from their linear pieces.

A SplittingType built by its public constructor checks every part, and
rigid_type and jumping_type build theirs that way.  The list builders,
enumerate_types and specialization_chain, check their arguments once and
then build each listed type unchecked from ints they made themselves.
Every public function refuses a type of another class, with the
TypeError of _value._wrong_type, before it reads a field.
"""

from __future__ import annotations

import sys
from itertools import accumulate, chain
from operator import lt

from ._value import _require_int, _unchecked, _Value, _wrong_type

_INT = {int}


class SplittingType(_Value, fields=("parts",)):
    """Nonincreasing integer sequence (b1 >= ... >= br), r >= 1.

    The constructor checks every part; enumerate_types and
    specialization_chain build their types through _value._unchecked instead.
    """
    __slots__ = ()

    def __new__(cls, parts: tuple[int, ...]):
        parts = tuple(parts)
        # one test passes every valid type; the order is compared only once
        # every part is an int (bool, float and Fraction included)
        if not parts or {*map(type, parts)} != _INT or any(map(lt, parts, parts[1:])):
            if not parts:
                raise ValueError("a splitting type needs at least one part")
            _require_int("splitting-type parts", *parts)
            raise ValueError(f"parts must be nonincreasing, got {parts}")
        return tuple.__new__(cls, (parts,))

    def rank(self) -> int:
        return len(self.parts)

    def degree(self) -> int:
        return sum(self.parts)

    def spread(self) -> int:
        return self.parts[0] - self.parts[-1]


def _require_buildable(what: str, length: int) -> None:
    """Refuse, before building it, a sequence longer than Python can index."""
    if length > sys.maxsize:
        raise ValueError(f"{what} must be at most {sys.maxsize}, the longest sequence "
                         f"Python can build, got {length}")


def _rigid_parts(r: int, d: int) -> tuple[int, ...]:
    a = -(-d // r)
    x = a * r - d
    return (a,) * (r - x) + (a - 1,) * x


def rigid_type(r: int, d: int) -> SplittingType:
    """The unique rigid type of rank r and degree d: a's then (a-1)'s, a = ceil(d/r)."""
    if type(r) is not int or type(d) is not int:
        _require_int("rank and degree", r, d)
    if r < 1:
        raise ValueError(f"rank must be at least 1, got {r}")
    _require_buildable("rank", r)
    return SplittingType(_rigid_parts(r, d))


def h1_end(t: SplittingType) -> int:
    """h1 of End: sum over ordered pairs of max(0, b_j - b_i - 1)."""
    if type(t) is not SplittingType:
        raise _wrong_type("t", SplittingType, t)
    parts = t.parts
    return sum([bj - bi - 1 for bi in parts for bj in parts if bj > bi + 1])


def is_rigid(t: SplittingType) -> bool:
    """Rigid means no infinitesimal deformations, equivalently spread <= 1."""
    if type(t) is not SplittingType:
        raise _wrong_type("t", SplittingType, t)
    return t.spread() <= 1


def jumping_type(r: int, a: int) -> SplittingType:
    """The minimal degeneration (a+1, a, ..., a, a-1) of the balanced type (a, ..., a)."""
    if type(r) is not int or type(a) is not int:
        _require_int("rank and balanced part", r, a)
    if r < 2:
        raise ValueError(f"jumping types need rank at least 2, got {r}")
    _require_buildable("rank", r)
    return SplittingType((a + 1,) + (a,) * (r - 2) + (a - 1,))


def specializes(general: SplittingType, special: SplittingType) -> bool:
    """Dominance test: can `general` degenerate to `special` in a flat family.

    True iff ranks and degrees agree and every prefix sum of the special
    type is at least the corresponding prefix sum of the general one (the
    special Harder-Narasimhan polygon lies above).
    """
    if type(general) is not SplittingType:
        raise _wrong_type("general", SplittingType, general)
    if type(special) is not SplittingType:
        raise _wrong_type("special", SplittingType, special)
    gp, sp = general.parts, special.parts
    if len(gp) != len(sp) or sum(gp) != sum(sp):
        return False
    pg = ps = 0
    for bg, bs in zip(gp, sp):
        pg += bg
        ps += bs
        if ps < pg:
            return False
    return True


def semicontinuity_oracle(general: SplittingType, special: SplittingType) -> bool:
    """Specialization test via the section counts of all twists, independent of specializes.

    special specializes from general iff h0(special(k)) >= h0(general(k))
    for every twist k.  h0(type(k)) = sum of max(0, b + k + 1) is piecewise
    linear in k with kinks only at k = -b - 1, and the two counts agree
    past both ends (0 below, d + r(k+1) above).  Their difference bends up
    only at a kink of the special type, so if it is ever negative, it is
    negative at one of those: comparing the counts there is exhaustive.
    At the kink k = -c - 1 a count is the sum of b - c over the parts
    b > c, that is the sum of those parts less c times their number.  The
    special type's parts are swept once, from largest to smallest, with
    the number and sum of each type's parts above the current one kept up
    to date; the first kink where the special count is smaller answers
    False.  Rank or degree mismatch is an error.
    """
    if type(general) is not SplittingType:
        raise _wrong_type("general", SplittingType, general)
    if type(special) is not SplittingType:
        raise _wrong_type("special", SplittingType, special)
    gp, sp = general.parts, special.parts
    r = len(gp)
    if r != len(sp):
        raise ValueError("semicontinuity comparison needs equal ranks")
    if sum(gp) != sum(sp):
        raise ValueError("semicontinuity comparison needs equal degrees")
    # i parts of general lie above c, and j of special at or above it (one at c adds 0)
    i = above_g = above_s = 0
    for j, c in enumerate(sp):
        while i < r and gp[i] > c:
            above_g += gp[i]
            i += 1
        if above_s - j * c < above_g - i * c:
            return False
        above_s += c
    return True


def formal_lift_obstructions(t: SplittingType, conormal_t: int, n_max: int) -> list[int]:
    """Obstruction dimensions o_1..o_n_max for lifting the splitting fiberwise.

    The n-th conormal layer of a fiber line in the ambient threefold is a
    sum of line bundles O(k * conormal_t) for k = 0..n, so the obstruction
    space at level n has dimension

        o_n = sum_{k=0..n} layer(k),
        layer(k) = sum_{i,j} max(0, -(k*conormal_t + b_j - b_i) - 1),

    the h1 of that layer tensored with End along the fiber.  An all-zero
    answer certifies that the splitting propagates to every thickening.

    A pair with c = b_i - b_j - 1 > 0 adds c - k*conormal_t to layer(k) below
    its kink ⌈c/conormal_t⌉, so layer(k) is one range between kinks and 0
    past the last: O(r² log r) Python steps build the list.
    """
    if type(t) is not SplittingType:
        raise _wrong_type("t", SplittingType, t)
    if type(conormal_t) is not int or type(n_max) is not int:
        _require_int("conormal fiber degree and n_max", conormal_t, n_max)
    if conormal_t <= 0:
        raise ValueError(f"conormal fiber degree must be positive, got {conormal_t}")
    if n_max < 1:
        raise ValueError(f"n_max must be at least 1, got {n_max}")
    _require_buildable("n_max", n_max)
    kinks = sorted((-(-c // conormal_t), c)
                   for bi in t.parts for bj in t.parts if (c := bi - bj - 1) > 0)
    # the pairs whose kink lies past k give layer(k) = rest - k*conormal_t*count
    rest, count = sum(c for _, c in kinks), len(kinks)
    pieces, low = [], 0
    for kink, c in kinks:
        high = min(kink, n_max + 1)
        if high > low:
            step = conormal_t * count
            pieces.append(range(rest - low * step, rest - high * step, -step))
            low = high
        rest -= c
        count -= 1
    # o_0 .. o_(low - 1), and o_0 = 0 when no pair obstructs
    sums = list(accumulate(chain.from_iterable(pieces))) or [0]
    return sums[1:] + sums[-1:] * (n_max + 1 - len(sums))


def enumerate_types(r: int, d: int, max_spread: int) -> list[SplittingType]:
    """All rank-r, degree-d types with spread <= max_spread, lexicographically."""
    _require_int("rank, degree and max_spread", r, d, max_spread)
    if r < 1:
        raise ValueError(f"rank must be at least 1, got {r}")
    if max_spread < 0:
        raise ValueError(f"max_spread must be nonnegative, got {max_spread}")
    tops = range(-(-d // r), (d + (r - 1) * max_spread) // r + 1)
    if tops:  # with no top part there is no type to build
        _require_buildable("rank", r)
    found: list[SplittingType] = []
    last = r - 1
    for top in tops:
        low = top - max_spread
        parts, i, tail = [top] * r, 0, d - top
        while True:
            # the least tail of the sum left is the balanced one (m = 0 iff r = 1)
            if i == last - 1:
                parts[last] = tail
            else:
                m = last - i
                q, extra = divmod(tail, m or 1)
                parts[i + 1:] = [q + 1] * extra + [q] * (m - extra)
            found.append(_unchecked(SplittingType, (tuple(parts),)))
            # next: raise the last part below its predecessor whose followers
            # can drop: they sum to more than `bound`, what they would sum to all at `low`
            tail, bound = parts[last], low
            for i in range(last - 1, 0, -1):
                if tail > bound and parts[i] < parts[i - 1]:
                    parts[i] += 1
                    tail -= 1
                    break
                tail += parts[i]
                bound += low
            else:
                break
    return found


def specialization_chain(target: SplittingType) -> list[SplittingType]:
    """A degeneration chain from the rigid type of (rank, degree) down to target.

    Each step transfers 1 from a later part to an earlier one (an
    elementary move), keeps the sequence sorted, and strictly raises the
    prefix-sum vector while staying below the target's, so each step
    specializes the last and the walk is forced to terminate at the target.
    A step moves 1 to the first part i whose prefix sum is below the target's
    from the first j > i whose is at it.  The gaps between the target's prefix
    sums and the current ones are kept in place: those on [i, j) drop by 1 as
    j is sought, the next scan resumes at i, as the gaps before it are 0, and
    the walk stops when the gaps sum to 0.
    """
    if type(target) is not SplittingType:
        raise _wrong_type("target", SplittingType, target)
    parts = target.parts
    start = _rigid_parts(len(parts), sum(parts))
    cur = list(start)
    gap = [t - p for t, p in zip(accumulate(parts), accumulate(cur))]  # all >= 0
    left = sum(gap)
    chain = [_unchecked(SplittingType, (start,))]
    i = 0
    while left:
        while not gap[i]:
            i += 1
        gap[i] -= 1
        j = i + 1
        while gap[j]:
            gap[j] -= 1
            j += 1
        left -= j - i
        cur[i] += 1
        cur[j] -= 1
        chain.append(_unchecked(SplittingType, (tuple(cur),)))
    return chain
