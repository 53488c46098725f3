"""Tests of the benchmark's reference computations.

They check the closed forms against hand-worked values from the ruledsurf
README and against direct loops over the defining sums.  Run with
`python3 -m pytest perfbench -q`; nothing here imports ruledsurf.
"""

import itertools

from perfbench import reference as ref


def _h_loop(e, a, b):
    # The defining sums, with one Serre-duality step for a <= -2.
    if a == -1:
        return (0, 0, 0)
    if a < -1:
        return _h_loop(e, -2 - a, -2 - e - b)[::-1]
    return (sum(max(0, b - k * e + 1) for k in range(a + 1)),
            sum(max(0, k * e - b - 1) for k in range(a + 1)), 0)


def test_hand_worked_readme_values():
    assert ref.jumping_count(1, 2, (2, 0), 3, 1) == (4, -4)
    assert ref.rigid_type(5, 7) == (2, 2, 1, 1, 1)
    assert ref.h_line(0, (1, 1)) == (4, 0, 0)


def test_h_line_closed_form_matches_loop_and_riemann_roch():
    for e in range(5):
        for a in range(-12, 13):
            for b in range(-15, 16):
                h = ref.h_line(e, (a, b))
                assert h == _h_loop(e, a, b), (e, a, b)
                assert h[0] - h[1] + h[2] == ref.chi_line(0, e, (a, b))
                assert h == ref.h_line(e, ref.serre_dual(0, e, (a, b)))[::-1]


def test_min_good_twist_matches_search():
    for q in range(3):
        for e in range(-q, 4):
            for a in range(1, 4):
                for b in range(-6, 12):
                    if not ref.is_ample(e, (a, b)):
                        continue
                    t = 0
                    while not ref.is_good(q, e, (a, b + t)):
                        t += 1
                    assert ref.min_good_twist(q, e, (a, b)) == t


def test_type_count_matches_listing_and_brute_force():
    for r in range(1, 4):
        for d in range(-5, 6):
            for spread in range(5):
                brute = sorted(
                    p for p in itertools.product(
                        range(-abs(d) - spread - 1, abs(d) + spread + 2), repeat=r)
                    if sum(p) == d and list(p) == sorted(p, reverse=True)
                    and p[0] - p[-1] <= spread
                )
                assert ref.all_types(r, d, spread) == brute
                assert ref.count_types(r, d, spread) == len(brute)


def test_grid_points_at_default_bounds():
    points = ref.grid_points()
    assert points["theoremC"] == 9680
    assert points["extension"] == 24200
    assert sum(points.values()) == 38443


def test_lift_obstructions_match_loop():
    for parts in [(0,), (1, -1), (5, 2, 0), (3, 3, -4), (9, 1, 0, -2)]:
        for t in (1, 2, 3):
            expect, total = [], 0
            for n in range(0, 12):
                total += sum(max(0, bi - bj - n * t - 1) for bi in parts for bj in parts)
                if n:
                    expect.append(total)
            assert ref.lift_obstructions(parts, t, 11) == expect


def test_stabilization_index_matches_scan():
    for e in range(3):
        for summands in [((0, 0), (0, 5)), ((1, 1), (0, -1), (-1, 0)), ((0, 0), (2, -7))]:
            t, s = 1, e + 1
            h1 = [ref.h_split_end(e, summands, (y * t, y * s))[1] for y in range(1, 80)]
            assert not any(h1[40:])
            last_bad = max((y for y, v in enumerate(h1, start=1) if v), default=0)
            assert ref.stabilization_index(e, summands, t, s) == last_bad + 1
    assert ref.stabilization_index(1, ((0, 0), (0, 5)), 1, 2) == 4


def test_chain_problem_detects_bad_chains():
    target = (3, 0)
    good = [(2, 1), (3, 0)]
    assert ref.chain_problem(target, good) is None
    assert ref.chain_problem(target, [(3, 0)]) is not None
    assert ref.chain_problem((4, -1), [(2, 1), (4, -1)]) is not None


def test_huge_integers_format_without_the_digit_limit():
    n = 10 ** 6000 + 7
    assert ref.decimal_digits(n) == 6001
    assert ref.decimal_digits(-999) == 3
    text = ref.int_text(n)
    assert len(text) == 6001 and text.endswith("007")
