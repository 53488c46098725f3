import sys
from fractions import Fraction
from itertools import product

from hypothesis import example, given, settings
from hypothesis import strategies as st

import pytest

from ruledsurf import splitting
from ruledsurf.splitting import (
    SplittingType,
    enumerate_types,
    formal_lift_obstructions,
    h1_end,
    is_rigid,
    jumping_type,
    rigid_type,
    semicontinuity_oracle,
    specialization_chain,
    specializes,
)


def test_splitting_type_validation():
    with pytest.raises(ValueError):
        SplittingType(())
    with pytest.raises(ValueError):
        SplittingType((0, 1))
    t = SplittingType((2, 0, -1))
    assert t.rank() == 3
    assert t.degree() == 1
    assert t.spread() == 3


@pytest.mark.parametrize("parts, name", [
    ((True,), "bool"),
    ((1, False), "bool"),
    ((2.0, 1), "float"),
    ((3, Fraction(1, 2)), "Fraction"),
    ((Fraction(2), 1), "Fraction"),
    ((0, 1.5), "float"),  # the type is checked before the order
    ((1, 0, "0"), "str"),
])
def test_splitting_type_refuses_parts_that_are_not_ints(parts, name):
    with pytest.raises(TypeError) as error:
        SplittingType(parts)
    assert str(error.value) == f"splitting-type parts must be integers, got {name}"


@pytest.mark.parametrize("parts, message", [
    ((), "a splitting type needs at least one part"),
    ([], "a splitting type needs at least one part"),
    ((0, 1), "parts must be nonincreasing, got (0, 1)"),
    ([3, 3, 2, 5], "parts must be nonincreasing, got (3, 3, 2, 5)"),
    ((10 ** 30, -1, 0), f"parts must be nonincreasing, got ({10 ** 30}, -1, 0)"),
])
def test_splitting_type_refuses_empty_or_rising_parts(parts, message):
    with pytest.raises(ValueError) as error:
        SplittingType(parts)
    assert type(error.value) is ValueError
    assert str(error.value) == message


def test_splitting_type_keeps_parts_as_a_tuple():
    assert SplittingType([2, 2, -1]).parts == (2, 2, -1)
    assert SplittingType(iter([5])).parts == (5,)


def test_rigid_type():
    assert rigid_type(2, 0).parts == (0, 0)
    assert rigid_type(3, -2).parts == (0, -1, -1)
    assert rigid_type(5, 7).parts == (2, 2, 1, 1, 1)
    with pytest.raises(ValueError):
        rigid_type(0, 3)


def test_rigid_type_shape():
    for r in range(1, 7):
        for d in range(-9, 10):
            t = rigid_type(r, d)
            assert t.degree() == d
            assert t.rank() == r
            assert t.spread() <= 1


def test_h1_end():
    assert h1_end(SplittingType((0, 0))) == 0
    assert h1_end(SplittingType((1, -1))) == 1
    assert h1_end(SplittingType((2, 0, -1))) == 3


def test_is_rigid():
    assert is_rigid(SplittingType((0, 0)))
    assert not is_rigid(SplittingType((1, -1)))
    assert is_rigid(SplittingType((3, 2)))


def test_rigid_iff_h1_end_zero_iff_small_spread():
    for r in range(1, 5):
        for d in range(-4, 5):
            for t in enumerate_types(r, d, r + 2):
                flags = (is_rigid(t), h1_end(t) == 0, t.spread() <= 1)
                assert len(set(flags)) == 1


def test_specializes():
    assert specializes(SplittingType((0, 0)), SplittingType((1, -1)))
    assert specializes(SplittingType((1, -1)), SplittingType((1, -1)))
    left = SplittingType((1, 1, -2))
    right = SplittingType((2, -1, -1))
    assert not specializes(left, right)
    assert not specializes(right, left)
    assert not specializes(SplittingType((0, 0)), SplittingType((0, 0, 0)))
    assert not specializes(SplittingType((0, 0)), SplittingType((1, 0)))


def test_semicontinuity_oracle():
    assert semicontinuity_oracle(SplittingType((0, 0)), SplittingType((1, -1)))
    assert semicontinuity_oracle(SplittingType((0, 0, 0)), SplittingType((1, 0, -1)))
    assert not semicontinuity_oracle(SplittingType((1, 1, -2)), SplittingType((2, -1, -1)))
    with pytest.raises(ValueError):
        semicontinuity_oracle(SplittingType((0, 0)), SplittingType((1, 0)))
    with pytest.raises(ValueError):
        semicontinuity_oracle(SplittingType((0, 0)), SplittingType((0, 0, 0)))


def test_dominance_matches_semicontinuity():
    for r in range(1, 5):
        for d in range(-4, 5):
            types = enumerate_types(r, d, 4)
            for general in types:
                for special in types:
                    assert specializes(general, special) == semicontinuity_oracle(
                        general, special
                    )


def test_jumping_type():
    assert jumping_type(2, 0).parts == (1, -1)
    assert jumping_type(3, 1).parts == (2, 1, 0)
    assert jumping_type(4, 0).parts == (1, 0, 0, -1)
    with pytest.raises(ValueError):
        jumping_type(1, 0)


def test_jumping_type_h1():
    for r in range(2, 7):
        for a in range(-3, 4):
            assert h1_end(jumping_type(r, a)) == 1


def test_formal_lift_obstructions():
    assert formal_lift_obstructions(SplittingType((0, 0, -1)), 1, 10) == [0] * 10
    assert formal_lift_obstructions(SplittingType((1, -1)), 1, 1) == [1]
    for t in (1, 2, 5):
        assert formal_lift_obstructions(SplittingType((5,)), t, 5) == [0] * 5
    with pytest.raises(ValueError):
        formal_lift_obstructions(SplittingType((0, 0)), 0, 3)
    with pytest.raises(ValueError):
        formal_lift_obstructions(SplittingType((0, 0)), 1, 0)


def test_lift_obstructions_vanish_for_balanced():
    for r in range(1, 7):
        for d in range(-r, r + 1):
            for t in (1, 2, 3):
                assert not any(formal_lift_obstructions(rigid_type(r, d), t, 10))


def test_lift_obstruction_values_from_line_cohomology():
    # o_n sums h1(O(k*t + gap)) over layers k = 0..n and all ordered pairs.
    wide = SplittingType((2, -2))
    assert formal_lift_obstructions(wide, 1, 4) == [3 + 2, 5 + 1, 6, 6]
    assert formal_lift_obstructions(wide, 3, 2) == [3 + 0, 3]


def brute_enumerate(r, d, max_spread):
    bound = abs(d) + max_spread + 1
    out = []
    for combo in product(range(-bound, bound + 1), repeat=r):
        if sum(combo) != d:
            continue
        if any(combo[i] < combo[i + 1] for i in range(r - 1)):
            continue
        if combo[0] - combo[-1] > max_spread:
            continue
        out.append(combo)
    return sorted(out)


def test_enumerate_types():
    assert [t.parts for t in enumerate_types(2, 0, 2)] == [(0, 0), (1, -1)]
    assert [t.parts for t in enumerate_types(1, 7, 3)] == [(7,)]
    assert [t.parts for t in enumerate_types(3, 0, 2)] == [(0, 0, 0), (1, 0, -1)]
    with pytest.raises(ValueError):
        enumerate_types(0, 0, 1)
    with pytest.raises(ValueError):
        enumerate_types(2, 0, -1)


def test_enumerate_against_brute_force():
    for r in range(1, 4):
        for d in range(-3, 4):
            for spread in range(4):
                expected = brute_enumerate(r, d, spread)
                got = [t.parts for t in enumerate_types(r, d, spread)]
                assert got == expected


def enumerate_types_recursive(r, d, max_spread):
    """The depth-first search enumerate_types replaced: one call level per part."""
    found = []

    def descend(prefix, m, rem, lowest):
        if m == 0:
            if rem == 0:
                found.append(tuple(prefix))
            return
        v_lo = max(lowest, -(-rem // m))
        v_hi = min(prefix[-1], rem - (m - 1) * lowest)
        for v in range(v_lo, v_hi + 1):
            prefix.append(v)
            descend(prefix, m - 1, rem - v, lowest)
            prefix.pop()

    for top in range(-(-d // r), (d + (r - 1) * max_spread) // r + 1):
        descend([top], r - 1, d - top, top - max_spread)
    return found


def test_enumerate_matches_recursive_search():
    count = 0
    for r, d, spread in product(range(1, 7), range(-6, 7), range(7)):
        expected = enumerate_types_recursive(r, d, spread)
        assert [t.parts for t in enumerate_types(r, d, spread)] == expected, (r, d, spread)
        count += len(expected)
    assert count == 4535


@settings(deadline=None, derandomize=True, database=None)
@given(st.sampled_from(range(3)), st.one_of(st.booleans(), st.floats(), st.fractions()))
@example(0, True)  # enumerate_types(True, 3, 1) once listed (3,)
@example(2, Fraction(1))  # and enumerate_types(2, 3, Fraction(1)) (2, 1)
def test_enumerate_types_refuses_a_non_int_argument(position, value):
    args = [2, 3, 1]
    args[position] = value
    with pytest.raises(TypeError) as error:
        enumerate_types(*args)
    assert str(error.value) == ("rank, degree and max_spread must be integers, "
                                f"got {type(value).__name__}")


@pytest.mark.parametrize("target, name", [((1, 0), "tuple"), ([1, 0], "list")])
def test_specialization_chain_refuses_a_target_that_is_not_a_splitting_type(target, name):
    with pytest.raises(TypeError) as error:
        specialization_chain(target)
    assert str(error.value) == f"target must be a SplittingType, got {name}"


@pytest.mark.parametrize("build, what", [
    (lambda n: rigid_type(n, 3), "rank"),
    (lambda n: jumping_type(n, 0), "rank"),
    (lambda n: enumerate_types(n, 0, 0), "rank"),
    (lambda n: formal_lift_obstructions(SplittingType((1, 0)), 1, n), "n_max"),
], ids=["rigid_type", "jumping_type", "enumerate_types", "formal_lift_obstructions"])
def test_a_sequence_longer_than_python_builds_is_refused_first(build, what):
    length = sys.maxsize + 1
    with pytest.raises(ValueError, match=f"^{what} must be at most {sys.maxsize}, .* "
                                         f"got {length}$"):
        build(length)


def test_enumerate_types_builds_nothing_when_no_type_fits():
    # rank past sys.maxsize is refused only when some type would have to be built
    assert enumerate_types(sys.maxsize + 1, 1, 0) == []


def test_partial_order_axioms():
    for r, d in ((3, 0), (4, 2), (4, -3)):
        types = enumerate_types(r, d, 4)
        for a in types:
            assert specializes(a, a)
            for b in types:
                if specializes(a, b) and specializes(b, a):
                    assert a == b
                for c in types:
                    if specializes(a, b) and specializes(b, c):
                        assert specializes(a, c)


def _prefix_sums(parts):
    total, out = 0, []
    for p in parts:
        total += p
        out.append(total)
    return out


def _chain_is_valid(target, chain):
    assert chain[0] == rigid_type(target.rank(), target.degree())
    assert chain[-1] == target
    for before, after in zip(chain, chain[1:]):
        deltas = [b - a for a, b in zip(before.parts, after.parts)]
        assert sorted(d for d in deltas if d) == [-1, 1]
        assert specializes(before, after)
        pre_before = _prefix_sums(before.parts)
        pre_after = _prefix_sums(after.parts)
        assert all(pa >= pb for pa, pb in zip(pre_after, pre_before))
        assert pre_after != pre_before


def test_specialization_chain_examples():
    assert [t.parts for t in specialization_chain(SplittingType((0, 0)))] == [(0, 0)]
    assert [t.parts for t in specialization_chain(SplittingType((1, -1)))] == [(0, 0), (1, -1)]
    chain = specialization_chain(SplittingType((2, 0, -2)))
    _chain_is_valid(SplittingType((2, 0, -2)), chain)
    assert len(chain) == 3


def test_chain_validity_and_length():
    for r in range(1, 5):
        for d in range(-3, 4):
            rigid = rigid_type(r, d)
            rigid_pre = _prefix_sums(rigid.parts)
            for target in enumerate_types(r, d, 4):
                chain = specialization_chain(target)
                _chain_is_valid(target, chain)
                max_gap = max(
                    t - c for t, c in zip(_prefix_sums(target.parts), rigid_pre)
                )
                assert len(chain) == 1 + max_gap


def test_chain_steps_are_the_excess_over_the_rigid_type():
    """len(chain) - 1 == Σ max(0, target_k - rigid_k), over every type with
    rank <= 7, |degree| <= 6 and spread <= 7."""
    types = 0
    for r in range(1, 8):
        for d in range(-6, 7):
            rigid = rigid_type(r, d).parts
            for target in enumerate_types(r, d, 7):
                excess = sum(max(0, t - b) for t, b in zip(target.parts, rigid))
                assert len(specialization_chain(target)) - 1 == excess, target
                types += 1
    assert types == 6371


def test_semicontinuity_oracle_shares_no_code_with_specializes(monkeypatch):
    """Not specializes, and not the rank() and degree() it reads."""
    def shared(*args):
        raise AssertionError("semicontinuity_oracle reached code of specializes")

    types = enumerate_types(3, 1, 4)
    expected = {(s, t): specializes(s, t) for s in types for t in types}
    monkeypatch.setattr(splitting, "specializes", shared)
    monkeypatch.setattr(SplittingType, "rank", shared)
    monkeypatch.setattr(SplittingType, "degree", shared)
    assert {(s, t): semicontinuity_oracle(s, t) for s in types for t in types} == expected
    with pytest.raises(ValueError, match="equal ranks"):
        semicontinuity_oracle(SplittingType((0, 0)), SplittingType((0, 0, 0)))
    with pytest.raises(ValueError, match="equal degrees"):
        semicontinuity_oracle(SplittingType((0, 0)), SplittingType((1, 0)))
