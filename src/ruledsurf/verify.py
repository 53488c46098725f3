"""Property grids cross-checking the library against its independent oracles.

Each suite is a generator that walks a finite deterministic grid.  It
yields None for every point it counts and, at the first failure, a
minimal counterexample as a dict.  A check that counts no point of its
own, such as dominance's order axioms, yields its counterexample with no
None before it.  One runner, `run_suite`, drives every suite: it counts
the Nones, stops at the first dict and builds the SuiteResult.  A grid
that raises fails with the exception's type and message as its
counterexample, after the points it counted; a grid that counts no point
fails as empty, since a check of nothing is no pass.

A counterexample holds library values (ints, DivisorClass, SplittingType
and lists of them), not text: the CLI renders them as literals, with the
same renderer as every other op, so this module never imports the CLI.
The one exception is theoremC's `grr_degree`, already text: the str() of
GrrReport.lhs_degree, an int.

SUITES holds the grids: `_suite(name)` registers a grid generator under
its name, next to the bounds it accepts, which are the grid's parameters,
read from its code object; their defaults reproduce the documented grids.

Importing this module loads no library layer.  Each grid imports the names
it calls once, at the top of its generator, and hands them to its helpers,
so a run loads only the layers its suites reach: `rigid` and `lifting`
load splitting alone, `conormal` cohomology and geometry.  A name rebound
in the layer that defines it, before a grid starts, is the one that grid
calls.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator

from ._value import _require_int, _Value, _wrong_type

# What a suite yields: None per counted point, then a counterexample if one fails.
Grid = Iterator["dict | None"]


class SuiteResult(_Value, fields=("suite", "points", "ok", "counterexample")):
    """One suite's outcome: the points it counted and, if it failed, a counterexample.

    It refuses a field that is not of its annotated class, once per suite.
    """
    __slots__ = ()

    def __new__(cls, suite: str, points: int, ok: bool, counterexample: dict | None = None):
        if type(suite) is not str:
            raise _wrong_type("suite", str, suite)
        if type(points) is not int:
            _require_int("points", points)
        if type(ok) is not bool:
            raise _wrong_type("ok", bool, ok)
        if counterexample is not None and type(counterexample) is not dict:
            raise TypeError("counterexample must be a dict or None, "
                            f"got {type(counterexample).__name__}")
        return tuple.__new__(cls, (suite, points, ok, counterexample))


# suite name -> (its grid, the bounds it accepts), in registration order
SUITES: dict[str, tuple[Callable[..., Grid], frozenset[str]]] = {}


def _suite(name: str):
    """Register a grid generator as suite `name`, accepting the parameters it takes."""

    def register(grid: Callable[..., Grid]) -> Callable[..., Grid]:
        code = grid.__code__
        SUITES[name] = (grid, frozenset(code.co_varnames[:code.co_argcount]))
        return grid

    return register


@_suite("serre")
def _serre(e_max: int = 4, coeff_max: int = 8) -> Grid:
    from .cohomology import h_line
    from .geometry import DivisorClass, SurfaceGeometry, canonical_class

    for e in range(e_max + 1):
        g = SurfaceGeometry(0, e)
        k = canonical_class(g)
        for a in range(-coeff_max, coeff_max + 1):
            for b in range(-coeff_max, coeff_max + 1):
                d = DivisorClass(a, b)
                lhs = h_line(g, d)
                dual_a, dual_b = k.a - a, k.b - b
                # h_line answers for one of D and K - D = a'h + b'f from the other by
                # Serre duality, so K - D's series is summed here one summand at a
                # time, on the ruling.  For a' >= -1, pi_* O(K - D) is the sum of O(c),
                # c = b' - i*e for i = 0..a', which feeds K - D's h0 and h1; for
                # a' <= -2, pi_* O(K - D) = 0 and R^1 pi_* O(K - D) is the sum of
                # O(c), c = b' + i*e for i = 1..-a'-1, which feeds its h1 and h2.
                # Each O(c) adds c + 1 to the lower h^i when c >= 0, else -c - 1
                # to the next one up.
                if a >= 0:
                    first, step, n = dual_b + e, e, -dual_a - 1
                else:
                    first, step, n = dual_b, -e, dual_a + 1
                lower = upper = 0
                for i in range(n):
                    c = first + i * step
                    if c >= 0:
                        lower += c + 1
                    else:
                        upper -= c + 1
                rhs = (upper, lower, 0) if a >= 0 else (0, upper, lower)
                yield None
                if (lhs.h0, lhs.h1, lhs.h2) != rhs:
                    yield {"e": e, "D": d}


@_suite("euler")
def _euler(e_max: int = 4, coeff_max: int = 8) -> Grid:
    from .cohomology import euler_char, h_line
    from .geometry import DivisorClass, SurfaceGeometry

    for e in range(e_max + 1):
        g = SurfaceGeometry(0, e)
        for a in range(-coeff_max, coeff_max + 1):
            for b in range(-coeff_max, coeff_max + 1):
                d = DivisorClass(a, b)
                yield None
                if h_line(g, d).euler() != euler_char(g, d):
                    yield {"e": e, "D": d}


@_suite("conormal")
def _conormal(e_max: int = 3, t_max: int = 3, n_max: int = 6) -> Grid:
    from .cohomology import ConormalData, conormal_vanishing, h_line
    from .geometry import DivisorClass, SurfaceGeometry

    # conormal_vanishing answers from its preconditions; h_line checks each power here
    for e in range(e_max + 1):
        g = SurfaceGeometry(0, e)
        for t in range(1, t_max + 1):
            for s in range(e * t + 1, e * t + 5):
                vanishes = conormal_vanishing(g, ConormalData(t, s), n_max)
                yield None
                powers = (h_line(g, DivisorClass(n * t, n * s)) for n in range(1, n_max + 1))
                if vanishes != all(h.h1 == h.h2 == 0 for h in powers):
                    yield {"e": e, "t": t, "s": s}


@_suite("theoremC")
def _theorem_c(
    e_max: int = 3, r_max: int = 5, a_max: int = 2, b_max: int = 5, c2_max: int = 5
) -> Grid:
    from .bundles import (
        BundleNumerics,
        grr_verify,
        jumping_count,
        jumping_count_chi_oracle,
        twist,
    )
    from .geometry import DivisorClass, SurfaceGeometry

    for e in range(e_max + 1):
        g = SurfaceGeometry(0, e)
        for r in range(2, r_max + 1):
            for a in range(-a_max, a_max + 1):
                shift = DivisorClass(-a, 0)
                for b in range(-b_max, b_max + 1):
                    c1 = DivisorClass(r * a, b)
                    for c2 in range(-c2_max, c2_max + 1):
                        bundle = BundleNumerics(g, r, c1, c2)
                        z = jumping_count(bundle, a)
                        z_twist = twist(bundle, shift).c2
                        z_chi = jumping_count_chi_oracle(bundle, a)
                        report = grr_verify(bundle, a)
                        m = report.rhs_degree  # pushforward_degree(bundle, a), in grr_verify
                        yield None
                        ok = (
                            z == z_twist == z_chi
                            and report.rank_ok
                            and report.lhs_degree == m
                        )
                        if not ok:
                            yield {
                                "e": e,
                                "r": r,
                                "a": a,
                                "c1": c1,
                                "c2": c2,
                                "z": z,
                                "z_twist": z_twist,
                                "z_chi": z_chi,
                                "m": m,
                                "grr_degree": str(report.lhs_degree),
                            }


@_suite("dominance")
def _dominance(r_max: int = 4, d_max: int = 4, spread: int = 4) -> Grid:
    from .splitting import enumerate_types, semicontinuity_oracle, specializes

    for r in range(1, r_max + 1):
        for d in range(-d_max, d_max + 1):
            types = enumerate_types(r, d, spread)
            n = len(types)
            rel = [[specializes(types[i], types[j]) for j in range(n)] for i in range(n)]
            for i in range(n):
                for j in range(n):
                    yield None
                    if rel[i][j] != semicontinuity_oracle(types[i], types[j]):
                        yield {
                            "r": r,
                            "d": d,
                            "general": types[i],
                            "special": types[j],
                        }
            # the order axioms are checked on the points above and count none of their own
            for i in range(n):
                if not rel[i][i]:
                    yield {"axiom": "reflexive", "type": types[i]}
                for j in range(n):
                    if i != j and rel[i][j] and rel[j][i]:
                        yield {
                            "axiom": "antisymmetric",
                            "first": types[i],
                            "second": types[j],
                        }
                    if rel[i][j]:
                        for k in range(n):
                            if rel[j][k] and not rel[i][k]:
                                yield {
                                    "axiom": "transitive",
                                    "first": types[i],
                                    "second": types[j],
                                    "third": types[k],
                                }


def _is_elementary_move(before: SplittingType, after: SplittingType) -> bool:
    moved = [bv - av for av, bv in zip(before.parts, after.parts) if bv != av]
    return moved == [1, -1] or moved == [-1, 1]


def _chain_fault(rigid: SplittingType, target: SplittingType, chain: list[SplittingType],
                 specializes: Callable[[SplittingType, SplittingType], bool]) -> str | None:
    """The first check the chain fails, start, end, move or order, or None if it passes."""
    if chain[0] != rigid:  # the rigid type of target's rank and degree
        return "start"
    if chain[-1] != target:
        return "end"
    for prev, step in zip(chain, chain[1:]):
        if not _is_elementary_move(prev, step):
            return "move"
        if not specializes(prev, step):
            return "order"
    return None


@_suite("rigid")
def _rigid(r_max: int = 4, d_max: int = 4) -> Grid:
    from .splitting import (
        enumerate_types,
        h1_end,
        jumping_type,
        rigid_type,
        specialization_chain,
        specializes,
    )

    for r in range(1, r_max + 1):
        for d in range(-d_max, d_max + 1):
            types = enumerate_types(r, d, r + 2)
            balanced = rigid_type(r, d)
            flat = [t for t in types if h1_end(t) == 0]
            yield None
            if flat != [balanced]:
                yield {"r": r, "d": d, "h1_end_zero": flat}
            for t in types:
                yield None
                if not specializes(balanced, t):
                    yield {"r": r, "d": d, "unreachable": t}
                fault = _chain_fault(balanced, t, specialization_chain(t), specializes)
                if fault is not None:
                    yield {"r": r, "d": d, "bad_chain_target": t, "failed_check": fault}
    for r in range(2, 7):
        for a in range(-3, 4):
            yield None
            if h1_end(jumping_type(r, a)) != 1:
                yield {"jumping_r": r, "jumping_a": a}


@_suite("lifting")
def _lifting(r_max: int = 6, d_max: int = 6, t_max: int = 3, n_max: int = 10) -> Grid:
    from .splitting import SplittingType, formal_lift_obstructions, rigid_type

    for r in range(1, r_max + 1):
        for d in range(-d_max, d_max + 1):
            balanced = rigid_type(r, d)
            for t in range(1, t_max + 1):
                yield None
                if any(formal_lift_obstructions(balanced, t, n_max)):
                    yield {"type": balanced, "t": t}
    yield None
    if formal_lift_obstructions(SplittingType((1, -1)), 1, 1) != [1]:
        yield {"type": SplittingType((1, -1)), "t": 1, "expected": [1]}


@_suite("extension")
def _extension(e_max: int = 3, r_max: int = 5, a_max: int = 2, deg_max: int = 5) -> Grid:
    from .bundles import ExtensionData, extension_chern, extension_data_from_chern
    from .geometry import SurfaceGeometry

    for e in range(e_max + 1):
        g = SurfaceGeometry(0, e)
        for r in range(2, r_max + 1):
            for x in range(1, r):
                for a in range(-a_max, a_max + 1):
                    for deg_sub in range(-deg_max, deg_max + 1):
                        for deg_quot in range(-deg_max, deg_max + 1):
                            ext = ExtensionData(g, r, x, a, deg_sub, deg_quot)
                            bundle = extension_chern(ext)
                            yield None
                            if extension_data_from_chern(bundle, a, x) != ext:
                                yield {
                                    "e": e,
                                    "r": r,
                                    "x": x,
                                    "a": a,
                                    "deg_sub": deg_sub,
                                    "deg_quot": deg_quot,
                                }


def growth_samples() -> list[tuple[SurfaceGeometry, SplitBundle, ConormalData]]:
    """A fixed sample of 20 split bundles with valid conormal data."""
    from .cohomology import ConormalData, SplitBundle
    from .geometry import DivisorClass, SurfaceGeometry

    samples = []
    shapes = [
        (DivisorClass(0, 0),),
        (DivisorClass(0, 0), DivisorClass(0, 0)),
        (DivisorClass(0, 0), DivisorClass(1, 0)),
        (DivisorClass(0, 0), DivisorClass(0, 2)),
        (DivisorClass(1, 1), DivisorClass(0, -1), DivisorClass(-1, 0)),
    ]
    for e in range(4):
        g = SurfaceGeometry(0, e)
        c = ConormalData(1, e + 1)
        for summands in shapes:
            samples.append((g, SplitBundle(summands), c))
    return samples


@_suite("growth")
def _growth(n_max: int = 10, y_max: int = 10) -> Grid:
    from .cohomology import (
        ConormalData,
        SplitBundle,
        endomorphism_growth,
        h_split_end,
        stabilization_index,
    )
    from .geometry import DivisorClass, SurfaceGeometry

    if n_max < 2:  # monotonicity compares consecutive neighborhoods
        raise ValueError(f"n_max must be at least 2, got {n_max}")
    for g, bundle, c in growth_samples():
        values = [endomorphism_growth(g, bundle, c, n) for n in range(1, n_max + 1)]
        yield None
        if any(v2 <= v1 for v1, v2 in zip(values, values[1:])):
            yield {"e": g.e, "rank": bundle.rank(), "values": values}
        # layer n - 1 of the closed form against h_line at the twist (n - 1)*(t,s)
        layers = values[:1] + [v2 - v1 for v1, v2 in zip(values, values[1:])]
        for n, layer in enumerate(layers, 1):
            h0 = h_split_end(g, bundle, DivisorClass((n - 1) * c.t, (n - 1) * c.s)).h0
            if layer != h0:
                yield {"e": g.e, "rank": bundle.rank(), "n": n, "layer": layer, "h0": h0}
    yield None
    fiverf = SplitBundle((DivisorClass(0, 0), DivisorClass(0, 5)))
    index = stabilization_index(
        SurfaceGeometry(0, 1), fiverf, ConormalData(1, 2), y_max
    )
    if index != 4:
        yield {"stabilization_index": index, "expected": 4}


def _run(name: str, grid: Callable[..., Grid], bounds: dict) -> SuiteResult:
    """Walk one grid: count its points and stop at its first counterexample."""
    points = 0
    try:
        for counterexample in grid(**bounds):
            if counterexample is not None:
                return SuiteResult(name, points, False, counterexample)
            points += 1
    except Exception as exc:  # an input the library or the grid refuses
        return SuiteResult(name, points, False,
                           {"exception": type(exc).__name__, "message": str(exc)})
    if not points:
        return SuiteResult(name, 0, False, {"error": "empty grid: the bounds leave no points"})
    return SuiteResult(name, points, True)


def run_suite(name: str, **bounds) -> list[SuiteResult]:
    """Run one named suite, or all of them, each given only the bounds it accepts.

    A bound that the named suite, or for `all` every suite, does not take is
    refused with a ValueError before any grid runs.
    """
    if name == "all":
        names = list(SUITES)
    elif name in SUITES:
        names = [name]
    else:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)} or 'all'")
    taken = frozenset().union(*(SUITES[suite_name][1] for suite_name in names))
    unknown = [k for k in bounds if k not in taken]
    if unknown:
        who = "no suite takes" if name == "all" else f"suite {name} takes no"
        raise ValueError(f"{who} {', '.join(unknown)}")
    _require_int("suite bounds", *bounds.values())
    results = []
    for suite_name in names:
        grid, accepted = SUITES[suite_name]
        results.append(_run(suite_name, grid,
                            {k: v for k, v in bounds.items() if k in accepted}))
    return results
