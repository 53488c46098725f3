"""Property grids cross-checking the library against its independent oracles.

Each suite walks a finite deterministic grid, counts the points it checks,
and short-circuits at the first failure with a minimal counterexample.
Defaults reproduce the documented grids; bounds can be overridden where a
suite accepts them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .bundles import (
    BundleNumerics,
    ExtensionData,
    extension_chern,
    extension_data_from_chern,
    grr_verify,
    jumping_count,
    jumping_count_chi_oracle,
    pushforward_degree,
    twist,
)
from .cli import format_divisor, format_type
from .cohomology import (
    ConormalData,
    SplitBundle,
    conormal_vanishing,
    endomorphism_growth,
    euler_char,
    h_line,
    stabilization_index,
)
from .geometry import (
    SECTION,
    DivisorClass,
    SurfaceGeometry,
    canonical_class,
)
from .splitting import (
    SplittingType,
    enumerate_types,
    formal_lift_obstructions,
    h1_end,
    jumping_type,
    rigid_type,
    semicontinuity_oracle,
    specialization_chain,
    specializes,
)


@dataclass
class SuiteResult:
    suite: str
    points: int
    ok: bool
    counterexample: dict | None = field(default=None)


def run_serre(e_max: int = 4, coeff_max: int = 8) -> SuiteResult:
    points = 0
    for e in range(e_max + 1):
        g = SurfaceGeometry(0, e)
        k = canonical_class(g)
        for a in range(-coeff_max, coeff_max + 1):
            for b in range(-coeff_max, coeff_max + 1):
                d = DivisorClass(a, b)
                lhs = h_line(g, d)
                rhs = h_line(g, k - d)
                points += 1
                if (lhs.h0, lhs.h1, lhs.h2) != (rhs.h2, rhs.h1, rhs.h0):
                    return SuiteResult(
                        "serre",
                        points,
                        False,
                        {"e": e, "D": format_divisor(d)},
                    )
    return SuiteResult("serre", points, True)


def run_euler(e_max: int = 4, coeff_max: int = 8) -> SuiteResult:
    points = 0
    for e in range(e_max + 1):
        g = SurfaceGeometry(0, e)
        for a in range(-coeff_max, coeff_max + 1):
            for b in range(-coeff_max, coeff_max + 1):
                d = DivisorClass(a, b)
                points += 1
                if h_line(g, d).euler() != euler_char(g, d):
                    return SuiteResult(
                        "euler",
                        points,
                        False,
                        {"e": e, "D": format_divisor(d)},
                    )
    return SuiteResult("euler", points, True)


def run_conormal(e_max: int = 3, t_max: int = 3, n_max: int = 6) -> SuiteResult:
    points = 0
    for e in range(e_max + 1):
        g = SurfaceGeometry(0, e)
        for t in range(1, t_max + 1):
            for s in range(e * t + 1, e * t + 5):
                points += 1
                if not conormal_vanishing(g, ConormalData(t, s), n_max):
                    return SuiteResult(
                        "conormal",
                        points,
                        False,
                        {"e": e, "t": t, "s": s},
                    )
    return SuiteResult("conormal", points, True)


def run_theorem_c(
    e_max: int = 3,
    r_max: int = 5,
    a_max: int = 2,
    b_max: int = 5,
    c2_max: int = 5,
) -> SuiteResult:
    points = 0
    for e in range(e_max + 1):
        g = SurfaceGeometry(0, e)
        for r in range(2, r_max + 1):
            for a in range(-a_max, a_max + 1):
                for b in range(-b_max, b_max + 1):
                    for c2 in range(-c2_max, c2_max + 1):
                        bundle = BundleNumerics(g, r, DivisorClass(r * a, b), c2)
                        z = jumping_count(bundle, a)
                        z_twist = twist(bundle, -a * SECTION).c2
                        z_chi = jumping_count_chi_oracle(bundle, a)
                        m = pushforward_degree(bundle, a)
                        report = grr_verify(bundle, a)
                        points += 1
                        ok = (
                            z == z_twist == z_chi
                            and report.rank_ok
                            and report.degree_ok
                            and report.lhs_degree == m
                        )
                        if not ok:
                            return SuiteResult(
                                "theoremC",
                                points,
                                False,
                                {
                                    "e": e,
                                    "r": r,
                                    "a": a,
                                    "c1": format_divisor(bundle.c1),
                                    "c2": c2,
                                    "z": z,
                                    "z_twist": z_twist,
                                    "z_chi": z_chi,
                                    "m": m,
                                    "grr_degree": str(report.lhs_degree),
                                },
                            )
    return SuiteResult("theoremC", points, True)


def run_dominance(r_max: int = 4, d_max: int = 4, spread: int = 4) -> SuiteResult:
    points = 0
    for r in range(1, r_max + 1):
        for d in range(-d_max, d_max + 1):
            types = enumerate_types(r, d, spread)
            n = len(types)
            rel = [[specializes(types[i], types[j]) for j in range(n)] for i in range(n)]
            for i in range(n):
                for j in range(n):
                    points += 1
                    if rel[i][j] != semicontinuity_oracle(types[i], types[j]):
                        return SuiteResult(
                            "dominance",
                            points,
                            False,
                            {
                                "r": r,
                                "d": d,
                                "general": format_type(types[i]),
                                "special": format_type(types[j]),
                            },
                        )
            for i in range(n):
                if not rel[i][i]:
                    return SuiteResult(
                        "dominance", points, False,
                        {"axiom": "reflexive", "type": format_type(types[i])},
                    )
                for j in range(n):
                    if i != j and rel[i][j] and rel[j][i]:
                        return SuiteResult(
                            "dominance", points, False,
                            {
                                "axiom": "antisymmetric",
                                "first": format_type(types[i]),
                                "second": format_type(types[j]),
                            },
                        )
                    if rel[i][j]:
                        for k in range(n):
                            if rel[j][k] and not rel[i][k]:
                                return SuiteResult(
                                    "dominance", points, False,
                                    {
                                        "axiom": "transitive",
                                        "first": format_type(types[i]),
                                        "second": format_type(types[j]),
                                        "third": format_type(types[k]),
                                    },
                                )
    return SuiteResult("dominance", points, True)


def _is_elementary_move(before: SplittingType, after: SplittingType) -> bool:
    deltas = [bv - av for av, bv in zip(before.parts, after.parts)]
    return sorted(d for d in deltas if d) == [-1, 1]


def _chain_valid(target: SplittingType, chain: list[SplittingType]) -> bool:
    if chain[0] != rigid_type(target.rank(), target.degree()):
        return False
    if chain[-1] != target:
        return False
    for prev, step in zip(chain, chain[1:]):
        if not _is_elementary_move(prev, step):
            return False
        if not specializes(prev, step):
            return False
    return True


def run_rigid(
    r_max: int = 4,
    d_max: int = 4,
    jump_r_max: int = 6,
    jump_a_max: int = 3,
) -> SuiteResult:
    points = 0
    for r in range(1, r_max + 1):
        for d in range(-d_max, d_max + 1):
            types = enumerate_types(r, d, r + 2)
            balanced = rigid_type(r, d)
            flat = [t for t in types if h1_end(t) == 0]
            points += 1
            if flat != [balanced]:
                return SuiteResult(
                    "rigid", points, False,
                    {"r": r, "d": d, "h1_end_zero": [format_type(t) for t in flat]},
                )
            for t in types:
                points += 1
                if not specializes(balanced, t):
                    return SuiteResult(
                        "rigid", points, False,
                        {"r": r, "d": d, "unreachable": format_type(t)},
                    )
                if not _chain_valid(t, specialization_chain(t)):
                    return SuiteResult(
                        "rigid", points, False,
                        {"r": r, "d": d, "bad_chain_target": format_type(t)},
                    )
    for r in range(2, jump_r_max + 1):
        for a in range(-jump_a_max, jump_a_max + 1):
            points += 1
            if h1_end(jumping_type(r, a)) != 1:
                return SuiteResult(
                    "rigid", points, False,
                    {"jumping_r": r, "jumping_a": a},
                )
    return SuiteResult("rigid", points, True)


def run_lifting(
    r_max: int = 6, d_max: int = 6, t_max: int = 3, n_max: int = 10
) -> SuiteResult:
    points = 0
    for r in range(1, r_max + 1):
        for d in range(-d_max, d_max + 1):
            balanced = rigid_type(r, d)
            for t in range(1, t_max + 1):
                points += 1
                if any(formal_lift_obstructions(balanced, t, n_max)):
                    return SuiteResult(
                        "lifting", points, False,
                        {"type": format_type(balanced), "t": t},
                    )
    points += 1
    if formal_lift_obstructions(SplittingType((1, -1)), 1, 1) != [1]:
        return SuiteResult(
            "lifting", points, False, {"type": "(1,-1)", "t": 1, "expected": [1]}
        )
    return SuiteResult("lifting", points, True)


def run_extension(
    e_max: int = 3, r_max: int = 5, a_max: int = 2, deg_max: int = 5
) -> SuiteResult:
    points = 0
    for e in range(e_max + 1):
        g = SurfaceGeometry(0, e)
        for r in range(2, r_max + 1):
            for x in range(1, r):
                for a in range(-a_max, a_max + 1):
                    for deg_sub in range(-deg_max, deg_max + 1):
                        for deg_quot in range(-deg_max, deg_max + 1):
                            ext = ExtensionData(g, r, x, a, deg_sub, deg_quot)
                            bundle = extension_chern(ext)
                            points += 1
                            if extension_data_from_chern(bundle, a, x) != ext:
                                return SuiteResult(
                                    "extension", points, False,
                                    {
                                        "e": e,
                                        "r": r,
                                        "x": x,
                                        "a": a,
                                        "deg_sub": deg_sub,
                                        "deg_quot": deg_quot,
                                    },
                                )
    return SuiteResult("extension", points, True)


def growth_samples() -> list[tuple[SurfaceGeometry, SplitBundle, ConormalData]]:
    """A fixed sample of 20 split bundles with valid conormal data."""
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


def run_growth(n_max: int = 10, y_max: int = 10) -> SuiteResult:
    points = 0
    for g, bundle, c in growth_samples():
        values = [endomorphism_growth(g, bundle, c, n) for n in range(1, n_max + 1)]
        points += 1
        if any(v2 <= v1 for v1, v2 in zip(values, values[1:])):
            return SuiteResult(
                "growth", points, False,
                {"e": g.e, "rank": bundle.rank(), "values": values},
            )
    points += 1
    fiverf = SplitBundle((DivisorClass(0, 0), DivisorClass(0, 5)))
    index = stabilization_index(
        SurfaceGeometry(0, 1), fiverf, ConormalData(1, 2), y_max
    )
    if index != 4:
        return SuiteResult(
            "growth", points, False, {"stabilization_index": index, "expected": 4}
        )
    return SuiteResult("growth", points, True)


SUITES: dict[str, tuple] = {
    "serre": (run_serre, {"e_max", "coeff_max"}),
    "euler": (run_euler, {"e_max", "coeff_max"}),
    "conormal": (run_conormal, {"e_max", "t_max", "n_max"}),
    "theoremC": (run_theorem_c, {"e_max", "r_max", "a_max", "b_max", "c2_max"}),
    "dominance": (run_dominance, {"r_max", "d_max", "spread"}),
    "rigid": (run_rigid, {"r_max", "d_max"}),
    "lifting": (run_lifting, {"r_max", "d_max", "t_max", "n_max"}),
    "extension": (run_extension, {"e_max", "r_max", "a_max", "deg_max"}),
    "growth": (run_growth, {"n_max", "y_max"}),
}


def run_suite(name: str, **overrides) -> list[SuiteResult]:
    """Run one named suite (or all of them) with bound overrides where accepted."""
    if name == "all":
        names = list(SUITES)
    elif name in SUITES:
        names = [name]
    else:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)} or 'all'")
    results = []
    for suite_name in names:
        func, accepted = SUITES[suite_name]
        kwargs = {k: v for k, v in overrides.items() if k in accepted and v is not None}
        results.append(func(**kwargs))
    return results
