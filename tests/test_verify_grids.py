"""Point counts and first counterexamples of the verify grids.

Each case breaks one oracle that `ruledsurf.verify` calls, at one input or
everywhere, or one line of the library beneath it, and pins what the suite
reports: how many points it counted before it stopped, and the
counterexample it stopped at, as the CLI renders the library values it
holds.  The default grids passing, with their point counts, is pinned by
test_acceptance.  The last tests pin what the runner reports for a grid
that counts no point, and how often a theoremC or extension point calls
into bundles and what values it builds; tests/test_cli.py pins what it
reports for a grid that raises.
"""

import inspect
from collections import Counter

import pytest

import ruledsurf.bundles as bundles
import ruledsurf.cli as cli
import ruledsurf.cohomology as cohomology
import ruledsurf.geometry as geometry
import ruledsurf.splitting as splitting
import ruledsurf.verify as verify
from ruledsurf.bundles import ExtensionData
from ruledsurf.cohomology import CohomologyTable
from ruledsurf.geometry import DivisorClass
from ruledsurf.splitting import SplittingType, jumping_type, rigid_type


def _lie_at(monkeypatch, module, name, when, wrong):
    """Make module.<name> answer wrong(value) where when(*args) holds, and truly elsewhere.

    A grid imports the names it calls from their layer when it starts, so it
    calls the patched one.
    """
    real = getattr(module, name)

    def patched(*args):
        value = real(*args)
        return wrong(value) if when(*args) else value

    monkeypatch.setattr(module, name, patched)


def _mutated(monkeypatch, module, name, old, new):
    """Make module.<name> run its own source with old replaced by new, once."""
    source = inspect.getsource(getattr(module, name))
    assert source.count(old) == 1
    namespace = dict(vars(module))
    exec(source.replace(old, new), namespace)
    monkeypatch.setattr(module, name, namespace[name])


def _lie_in_series(monkeypatch, when):
    """Make cohomology._h_line_ints answer h0 + 1 and h1 + 1 where when(e, a, b) holds."""
    real = cohomology._h_line_ints

    def patched(e, a, b):
        h0, h1, h2 = real(e, a, b)
        return (h0 + 1, h1 + 1, h2) if when(e, a, b) else (h0, h1, h2)

    monkeypatch.setattr(cohomology, "_h_line_ints", patched)


def _spread_step(general, special):
    # reflexive and antisymmetric, but (0,-4) is two steps from (-2,-2)
    return general == special or special.spread() - general.spread() == 2


# suite -> (how to break it, points counted, first counterexample)
INJECTED = {
    # the grid sums every dual K - D itself, so the lie shows at D = h + 3f alone
    "serre": (
        lambda mp: _lie_at(mp, cohomology, "h_line",
                           lambda g, d: g.e == 2 and d == DivisorClass(1, 3),
                           lambda t: CohomologyTable(t.h0 + 1, t.h1, t.h2)),
        743, {"e": 2, "D": "1*h+3*f"}),
    # a wrong h0 series, first seen where the dual K - D = 6h + 4f is summed
    "serre-h0-series": (
        lambda mp: _mutated(mp, cohomology, "_h_line_ints",
                            "top = min(a, b // e)", "top = min(a, b // e + 1)"),
        579, {"e": 2, "D": "-8*h-8*f"}),
    # the kernel's Serre map drops K's -e*f: only lines with a <= -2 go wrong
    "serre-duality-map": (
        lambda mp: _mutated(mp, cohomology, "_h_line_ints",
                            "_h_line_ints(e, -2 - a, -2 - e - b)",
                            "_h_line_ints(e, -2 - a, -2 - b)"),
        290, {"e": 1, "D": "-8*h-8*f"}),
    # h0 and h1 of one series both 1 too large keep every chi; only the grid's
    # sum of K - D's summands at a point with a <= -2 sees them
    "serre-dual-series": (
        lambda mp: _lie_in_series(mp, lambda e, a, b: a >= 0 and b < -8),
        16, {"e": 0, "D": "-8*h+7*f"}),
    "euler": (
        lambda mp: _lie_at(mp, cohomology, "euler_char",
                           lambda g, d: g.e == 3 and d == DivisorClass(2, -1),
                           lambda chi: chi + 1),
        1045, {"e": 3, "D": "2*h-1*f"}),
    "conormal": (
        lambda mp: _lie_at(mp, cohomology, "conormal_vanishing",
                           lambda g, c, n: g.e == 2 and (c.t, c.s) == (2, 6),
                           lambda ok: False),
        30, {"e": 2, "t": 2, "s": 6}),
    "conormal-powers": (
        lambda mp: _lie_at(mp, cohomology, "h_line",
                           lambda g, d: g.e == 2 and d == DivisorClass(4, 12),
                           lambda t: CohomologyTable(t.h0, t.h1 + 1, t.h2)),
        25, {"e": 2, "t": 1, "s": 3}),
    "theoremC": (
        lambda mp: _lie_at(mp, bundles, "jumping_count_chi_oracle",
                           lambda b, a: (b.g.e, b.r, a, b.c2) == (0, 3, 1, 2),
                           lambda z: z + 1),
        976, {"e": 0, "r": 3, "a": 1, "c1": "3*h-5*f", "c2": 2, "z": 12, "z_twist": 12,
              "z_chi": 13, "m": -17, "grr_degree": "-17"}),
    # the road that forgets todd_curve(0)^-1 reads r too many, at the first point
    "theoremC-grr": (
        lambda mp: _mutated(mp, bundles, "grr_verify",
                            "degree = c1b + twice_ch2 // 2",
                            "degree = r + c1b + twice_ch2 // 2"),
        1, {"e": 0, "r": 2, "a": -2, "c1": "-4*h-5*f", "c2": -5, "z": -15, "z_twist": -15,
            "z_chi": -15, "m": 10, "grr_degree": "12"}),
    "dominance-oracle": (
        lambda mp: _lie_at(mp, splitting, "semicontinuity_oracle",
                           lambda s, t: (s, t) == (SplittingType((1, 0, -1)),
                                                   SplittingType((2, -1, -1))),
                           lambda ok: not ok),
        179, {"r": 3, "d": 0, "general": "(1,0,-1)", "special": "(2,-1,-1)"}),
    # a sweep of the special type's largest kink alone; one that skips only the
    # smallest kink answers the same, as both counts agree there whenever the
    # larger kinks pass
    "dominance-sweep": (
        lambda mp: _mutated(mp, splitting, "semicontinuity_oracle",
                            "enumerate(sp)", "enumerate(sp[:1])"),
        82, {"r": 3, "d": -4, "general": "(0,-1,-3)", "special": "(0,-2,-2)"}),
    "dominance-reflexive": (
        lambda mp: (mp.setattr(splitting, "specializes", lambda s, t: False),
                    mp.setattr(splitting, "semicontinuity_oracle", lambda s, t: False)),
        1, {"axiom": "reflexive", "type": "(-4)"}),
    "dominance-antisymmetric": (
        lambda mp: (mp.setattr(splitting, "specializes", lambda s, t: True),
                    mp.setattr(splitting, "semicontinuity_oracle", lambda s, t: True)),
        18, {"axiom": "antisymmetric", "first": "(-2,-2)", "second": "(-1,-3)"}),
    "dominance-transitive": (
        lambda mp: (mp.setattr(splitting, "specializes", _spread_step),
                    mp.setattr(splitting, "semicontinuity_oracle", _spread_step)),
        18, {"axiom": "transitive", "first": "(-2,-2)", "second": "(-1,-3)",
             "third": "(0,-4)"}),
    "rigid-flat": (
        lambda mp: _lie_at(mp, splitting, "h1_end", lambda t: t == SplittingType((2, 0, -1)),
                           lambda h: 0),
        91, {"r": 3, "d": 1, "h1_end_zero": ["(1,0,0)", "(2,0,-1)"]}),
    "rigid-unreachable": (
        lambda mp: _lie_at(mp, splitting, "specializes",
                           lambda s, t: (s, t) == (rigid_type(3, 2), SplittingType((2, 1, -1))),
                           lambda ok: False),
        102, {"r": 3, "d": 2, "unreachable": "(2,1,-1)"}),
    # the chain skips the rigid type it must start at
    "rigid-chain": (
        lambda mp: _lie_at(mp, splitting, "specialization_chain",
                           lambda t: t == SplittingType((3, -1)),
                           lambda chain: chain[1:]),
        43, {"r": 2, "d": 2, "bad_chain_target": "(3,-1)",
             "failed_check": "start"}),
    # it starts at the rigid type but stops one step short of its target
    "rigid-chain-end": (
        lambda mp: _lie_at(mp, splitting, "specialization_chain",
                           lambda t: t == SplittingType((2, 0, -2)),
                           lambda chain: chain[:-1]),
        88, {"r": 3, "d": 0, "bad_chain_target": "(2,0,-2)",
             "failed_check": "end"}),
    # from the rigid type straight to its target: one step that moves 2
    "rigid-chain-move": (
        lambda mp: _lie_at(mp, splitting, "specialization_chain",
                           lambda t: t == SplittingType((3, -1, -1)),
                           lambda chain: [chain[0], chain[-1]]),
        97, {"r": 3, "d": 1, "bad_chain_target": "(3,-1,-1)",
             "failed_check": "move"}),
    # elementary steps to its target, by way of one back up to the rigid type
    "rigid-chain-order": (
        lambda mp: _lie_at(mp, splitting, "specialization_chain",
                           lambda t: t == SplittingType((3, 1, -2)),
                           lambda chain: chain[:2] + chain),
        105, {"r": 3, "d": 2, "bad_chain_target": "(3,1,-2)",
             "failed_check": "order"}),
    "rigid-jumping": (
        lambda mp: _lie_at(mp, splitting, "h1_end", lambda t: t == jumping_type(4, 1),
                           lambda h: h + 1),
        340, {"jumping_r": 4, "jumping_a": 1}),
    "lifting-grid": (
        lambda mp: _lie_at(mp, splitting, "formal_lift_obstructions",
                           lambda t, c, n: (t, c) == (rigid_type(4, 3), 2),
                           lambda obs: [1] + obs[1:]),
        146, {"type": "(1,1,1,0)", "t": 2}),
    "lifting-jump": (
        lambda mp: _lie_at(mp, splitting, "formal_lift_obstructions",
                           lambda t, c, n: t == SplittingType((1, -1)),
                           lambda obs: [0] * len(obs)),
        235, {"type": "(1,-1)", "t": 1, "expected": [1]}),
    "extension": (
        lambda mp: _lie_at(mp, bundles, "extension_data_from_chern",
                           lambda b, a, x: (b.g.e, b.r, x, a) == (1, 3, 2, -1),
                           lambda ext: ExtensionData(ext.g, ext.r, ext.x, ext.a,
                                                     ext.deg_sub + 1, ext.deg_quot)),
        7382, {"e": 1, "r": 3, "x": 2, "a": -1, "deg_sub": -5, "deg_quot": -5}),
    "growth-monotone": (
        lambda mp: _lie_at(mp, cohomology, "endomorphism_growth",
                           lambda g, b, c, n: g.e == 2 and b.rank() == 3 and n == 7,
                           lambda v: 0),
        15, {"e": 2, "rank": 3,
             "values": [9, 59, 188, 434, 833, 1421, 0, 3308, 4679, 6383]}),
    "growth-layer": (
        lambda mp: _lie_at(mp, cohomology, "endomorphism_growth",
                           lambda g, b, c, n: g.e == 2 and b.rank() == 3 and n == 10,
                           lambda v: v + 1),
        15, {"e": 2, "rank": 3, "n": 10, "layer": 1705, "h0": 1704}),
    "growth-stabilization": (
        lambda mp: _lie_at(mp, cohomology, "stabilization_index", lambda *args: True,
                           lambda index: index + 1),
        21, {"stabilization_index": 5, "expected": 4}),
}


@pytest.mark.parametrize("case", sorted(INJECTED))
def test_first_counterexample(monkeypatch, case):
    inject, points, counterexample = INJECTED[case]
    inject(monkeypatch)
    (result,) = verify.run_suite(case.split("-")[0])
    assert (result.points, result.ok, cli._encode(result.counterexample)) == (
        points, False, counterexample)


def test_all_routes_each_bound_to_the_suites_that_take_it():
    results = verify.run_suite("all", r_max=2)
    assert [(res.suite, res.points, res.ok) for res in results] == [
        ("serre", 1445, True),
        ("euler", 1445, True),
        ("conormal", 48, True),
        ("theoremC", 2420, True),
        ("dominance", 70, True),
        ("rigid", 85, True),
        ("lifting", 79, True),
        ("extension", 2420, True),
        ("growth", 21, True),
    ]


@pytest.mark.parametrize("name, bounds, error", [
    ("theoremC", {"r_mx": 2}, "suite theoremC takes no r_mx"),
    ("rigid", {"e_max": 1, "d_max": 2}, "suite rigid takes no e_max"),
    ("all", {"r_max": 2, "r_mx": 2, "spred": 1}, "no suite takes r_mx, spred"),
], ids=["typo", "another suite's bound", "all"])
def test_a_bound_no_suite_takes_is_refused_before_any_grid_runs(monkeypatch, name, bounds,
                                                                 error):
    monkeypatch.setattr(verify, "_run", lambda *args: pytest.fail("a grid ran"))
    with pytest.raises(ValueError) as err:
        verify.run_suite(name, **bounds)
    assert str(err.value) == error


def test_an_unknown_suite_is_refused():
    # the CLI's choices refuse the name before run_suite sees it
    with pytest.raises(ValueError) as err:
        verify.run_suite("bogus")
    assert str(err.value) == (
        "unknown suite 'bogus'; choose from ['conormal', 'dominance', 'euler', 'extension', "
        "'growth', 'lifting', 'rigid', 'serre', 'theoremC'] or 'all'")


def test_each_suite_accepts_the_parameters_of_its_grid():
    # SUITES reads them off the grid's code object; inspect is the slower reference
    assert len(verify.SUITES) == 9
    for name, (grid, accepted) in verify.SUITES.items():
        assert accepted == frozenset(inspect.signature(grid).parameters), name


# theoremC at --r 1 and serre at --e-max -1 are pinned through the CLI in test_cli
@pytest.mark.parametrize("suite, bounds", [
    ("dominance", {"r_max": 0}), ("extension", {"r_max": 1}), ("conormal", {"t_max": 0}),
])
def test_an_empty_grid_fails(suite, bounds):
    (result,) = verify.run_suite(suite, **bounds)
    assert (result.points, result.ok, result.counterexample) == (
        0, False, {"error": "empty grid: the bounds leave no points"})


def _count_calls(monkeypatch, calls, module, *names):
    """Count the calls to module.<name>, also where bundles imports it by name."""
    for name in names:
        real = getattr(module, name)

        def wrapper(*args, _name=name, _real=real):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(module, name, wrapper)
        monkeypatch.setattr(bundles, name, wrapper, raising=False)


def test_theorem_c_call_structure(monkeypatch):
    """Per theoremC point: no Fraction cycle ring, one jumping count and one twist.

    The jumping count is the grid's own: pushforward_degree is closed-form
    arithmetic.  The twist is the grid's z_twist: the chi oracle and
    grr_verify write their own shifts in ints, and jumping_count does not
    twist.
    """
    calls = Counter()
    _count_calls(monkeypatch, calls, bundles, "jumping_count", "twist")
    _count_calls(monkeypatch, calls, geometry, "cycle_mul")
    (result,) = verify.run_suite("theoremC", r_max=2)
    assert (result.points, result.ok) == (2420, True)
    assert calls["cycle_mul"] == 0
    assert calls["jumping_count"] <= result.points
    assert calls["twist"] == result.points


def test_extension_call_structure(monkeypatch):
    """Per extension point, one extension_chern and one inverse: the grid's round trip."""
    calls = Counter()
    _count_calls(monkeypatch, calls, bundles, "extension_chern", "extension_data_from_chern")
    (result,) = verify.run_suite("extension", r_max=2)
    assert (result.points, result.ok) == (2420, True)
    assert calls["extension_chern"] == result.points
    assert calls["extension_data_from_chern"] == result.points


def test_every_unchecked_build_in_bundles_is_a_counted_builder():
    # so the counts below see every value bundles builds, checked or not: each
    # class's __new__ builds its own value (GrrReport's through _value._checked),
    # and the rest goes through _unchecked
    source = inspect.getsource(bundles)
    classes = [bundles.BundleNumerics, ExtensionData]
    assert source.count("tuple.__new__(") == len(classes)
    for cls in classes:
        assert "tuple.__new__(cls, " in inspect.getsource(cls.__new__)
    assert "return _checked(cls, " in inspect.getsource(bundles.GrrReport.__new__)
    assert "object.__new__(" not in source
    assert bundles._unchecked is tuple.__new__


def _count_builds(monkeypatch, builds, *classes):
    """Count the values of each class built, by wrapping its __new__ and the builder.

    A value built checked counts under its class's name, one that
    bundles._unchecked made under "unchecked " and the name.  The class
    itself stays bound under its name, since the constructors test
    `type(x) is DivisorClass` and the like against that name.
    """
    for cls in classes:
        real = cls.__new__

        def counted(cls_, *args, _name=cls.__name__, _real=real, **kwargs):
            builds[_name] += 1
            return _real(cls_, *args, **kwargs)

        monkeypatch.setattr(cls, "__new__", counted)

    def built(cls, fields, _real=bundles._unchecked):
        if cls in classes:
            builds["unchecked " + cls.__name__] += 1
        return _real(cls, fields)

    monkeypatch.setattr(bundles, "_unchecked", built)


def _totals(builds):
    """The values built per class, checked and unchecked together."""
    totals = Counter()
    for name, count in builds.items():
        totals[name.removeprefix("unchecked ")] += count
    return totals


def test_theorem_c_builds_per_point(monkeypatch):
    """Per theoremC point: no intersect, two bundles and about one divisor class.

    The grid's bundle is built checked, and the one twist's bundle with its
    c1 unchecked, from the ints of the checked bundle and line it was given.
    The grid's c1 is built once per b and its shift -a*h once per a, which
    at r_max=2 makes 220 and 20 classes besides the 2420 twisted c1s; the
    chi oracle and grr_verify build none.
    """
    builds = Counter()
    _count_builds(monkeypatch, builds, DivisorClass, bundles.BundleNumerics)
    _count_calls(monkeypatch, builds, geometry, "intersect")
    (result,) = verify.run_suite("theoremC", r_max=2)
    n = result.points
    assert (n, result.ok) == (2420, True)
    assert builds == {"DivisorClass": 240, "BundleNumerics": n,
                      "unchecked DivisorClass": n, "unchecked BundleNumerics": n}
    assert _totals(builds) == {"DivisorClass": 240 + n, "BundleNumerics": 2 * n}


def test_extension_builds_per_point(monkeypatch):
    """Per extension point: the grid's ExtensionData, the middle term with its c1, the inverse.

    The grid builds its value checked; extension_chern and its inverse build
    theirs unchecked, from the ints of the checked value they were given.
    """
    builds = Counter()
    _count_builds(monkeypatch, builds, DivisorClass, bundles.BundleNumerics, ExtensionData)
    (result,) = verify.run_suite("extension", r_max=2)
    n = result.points
    assert (n, result.ok) == (2420, True)
    assert builds == {"ExtensionData": n, "unchecked ExtensionData": n,
                      "unchecked BundleNumerics": n, "unchecked DivisorClass": n}
    assert _totals(builds) == {"DivisorClass": n, "BundleNumerics": n, "ExtensionData": 2 * n}
