#!/usr/bin/env python3
"""Best-of-N nanoseconds per call of the primitives and of one grid point, under one or two trees.

    PYTHONDONTWRITEBYTECODE=1 python3 scripts/microbench.py BASE_SRC [HEAD_SRC] --number 20000

BASE_SRC and HEAD_SRC are the src directories of two checkouts, say the
parent commit's and a change's.  The cases are the primitives
`intersect`, `cycle_mul`, `h_line` and `specializes`; one point of the
`theoremC`, `extension`, `conormal` and `rigid` grids, a step of verify's
own generator, at bounds with a point for every step; the chi and GRR
roads of a theoremC point alone, on its bundle built once; what the value
layout itself costs, for a DivisorClass and a BundleNumerics: a checked
build, a build by the unchecked builder, four field reads, `!=` between
two equal values that are distinct objects, and `hash`; and
`json_report`, the CLI's `render_report` of a one-row `bundle grr`
report as JSON.

A repeat starts one process per tree, which puts that tree's src first on
sys.path, imports ruledsurf, refuses to time a ruledsurf from anywhere
else, and times `--number` calls of every case; with two trees, the tree
that goes first alternates from one repeat to the next, so the machine's
drift falls on both alike.  Two trees loaded into one process read the second one
slower, whichever it was, so no process loads both.  The script prints one
JSON object: each case's best time per call over the repeats, in ns, per
tree, and with two trees the relative change of the second from the first
(negative means faster).
"""

from __future__ import annotations

import argparse
import json
import math
import subprocess
import sys
import timeit
from pathlib import Path

CASES = ("intersect", "cycle_mul", "h_line", "specializes", "theoremC_point",
         "extension_point", "conormal_point", "rigid_point", "chi_road", "grr_road",
         "divisor_build", "divisor_unchecked", "divisor_reads", "divisor_ne", "divisor_hash",
         "bundle_build", "bundle_unchecked", "bundle_reads", "bundle_ne", "bundle_hash",
         "json_report")


def load_tree(src: Path):
    """The ruledsurf package under src, imported by its own name, with src first on sys.path.

    A ruledsurf that comes from anywhere else is refused.  The package loads
    each layer on its first use, which `cases` makes before any timing.
    """
    sys.path.insert(0, str(src))
    import ruledsurf

    package_dir = src.resolve() / "ruledsurf"
    if Path(ruledsurf.__file__).resolve().parent != package_dir:
        raise SystemExit(f"imported ruledsurf from {ruledsurf.__file__}, not {package_dir}")
    return ruledsurf


def cases(pkg, steps: int) -> dict:
    """Each case as a callable of no arguments, its inputs built once.

    A grid case steps its grid one point per call, for `steps` calls past
    the one that checks it passes.
    """
    geometry, cohomology, splitting, bundles = (
        pkg.geometry, pkg.cohomology, pkg.splitting, pkg.bundles)
    DivisorClass, SurfaceGeometry = geometry.DivisorClass, geometry.SurfaceGeometry
    g = SurfaceGeometry(0, 2)
    d1, d2 = DivisorClass(3, -1), DivisorClass(1, 4)
    x = geometry.chern_character(g, 2, DivisorClass(2, 1), 3)
    y = geometry.todd_surface(g)
    line = DivisorClass(3, 5)
    general = splitting.SplittingType((1, 1, 1, 0))
    special = splitting.SplittingType((3, 1, 0, -1))

    # verify's own grids, each yielding None per point and a dict after a point that
    # fails; one bound grows from its default so that the grid has a point for every
    # step: theoremC has 880 (2 c2_max + 1) points, extension 200 (2 deg_max + 1)^2,
    # conormal 16 t_max and rigid at least 34 (2 d_max + 1)
    suites = pkg.verify.SUITES
    theorem_c = suites["theoremC"][0](c2_max=max(5, steps // 1760 + 1))
    extension = suites["extension"][0](deg_max=max(5, math.isqrt(steps // 200 + 1) // 2 + 1))
    conormal = suites["conormal"][0](t_max=max(3, steps // 16 + 1))
    rigid = suites["rigid"][0](d_max=max(4, steps // 68 + 1))
    BundleNumerics, grr_verify = bundles.BundleNumerics, bundles.grr_verify
    r, a = 3, 1
    c1 = DivisorClass(r * a, 2)

    # the value layout, built through the unchecked builder bundles imports from _value
    unchecked = bundles._unchecked
    divisor_unchecked = lambda: unchecked(DivisorClass, (3, -1))
    bundle_unchecked = lambda: unchecked(BundleNumerics, (g, r, c1, 4))
    bundle = BundleNumerics(g, r, c1, 4)
    bundle_twin = BundleNumerics(g, r, DivisorClass(r * a, 2), 4)

    # what `bundle grr --e 2 --r 3 --c1 3*h+2*f --c2 4 --a 1 --format json` renders
    render_report = pkg.cli.render_report
    grr = grr_verify(bundle, a)
    grr_row = {field: getattr(grr, field)
               for field in ("rank_ok", "degree_ok", "lhs_degree", "rhs_degree")}
    grr_inputs = {"op": "grr", "q": 0, "e": 2, "r": r, "c1": c1, "c2": 4, "a": a}
    d1_twin = DivisorClass(3, -1)

    found = {
        "intersect": lambda: geometry.intersect(g, d1, d2),
        "cycle_mul": lambda: geometry.cycle_mul(g, x, y),
        "h_line": lambda: cohomology.h_line(g, line),
        "specializes": lambda: splitting.specializes(general, special),
        "theoremC_point": lambda: next(theorem_c) is None,
        "extension_point": lambda: next(extension) is None,
        "conormal_point": lambda: next(conormal) is None,
        "rigid_point": lambda: next(rigid) is None,
        "chi_road": lambda: bundles.jumping_count_chi_oracle(bundle, a),
        "grr_road": lambda: grr_verify(bundle, a),
        "divisor_build": lambda: DivisorClass(3, -1),
        "divisor_unchecked": divisor_unchecked,
        "divisor_reads": lambda: (d1.a, d1.b, d2.a, d2.b),
        "divisor_ne": lambda: d1 != d1_twin,
        "divisor_hash": lambda: hash(d1),
        "bundle_build": lambda: BundleNumerics(g, r, c1, 4),
        "bundle_unchecked": bundle_unchecked,
        "bundle_reads": lambda: (bundle.g, bundle.r, bundle.c1, bundle.c2),
        "bundle_ne": lambda: bundle != bundle_twin,
        "bundle_hash": lambda: hash(bundle),
        "json_report": lambda: render_report("bundle", grr_inputs, [grr_row], "ok", "json"),
    }
    if not (divisor_unchecked() == d1 and bundle_unchecked() == bundle):
        raise SystemExit(f"the unchecked builder under {pkg.__name__} builds another value")
    for name in ("specializes", "theoremC_point", "extension_point", "conormal_point",
                 "rigid_point"):
        if found[name]() is not True:
            raise SystemExit(f"{name} under {pkg.__name__} does not pass")
    if json.loads(found["json_report"]())["inputs"]["c1"] != "3*h+2*f":
        raise SystemExit(f"json_report under {pkg.__name__} renders another report")
    return found


def time_tree(src: Path, number: int) -> dict:
    """ns per call of every case under the tree at src, each timed once over `number` calls."""
    found = cases(load_tree(src), number)
    return {name: timeit.Timer(found[name]).timeit(number) / number * 1e9 for name in CASES}


# what a timing process runs: this script's time_tree on one tree, its result as JSON
_ONE_TREE = """
import importlib.util, json, sys
from pathlib import Path
spec = importlib.util.spec_from_file_location("microbench", sys.argv[1])
bench = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench)
print(json.dumps(bench.time_tree(Path(sys.argv[2]), int(sys.argv[3]))))
"""


def measure(srcs: list[Path], number: int, repeat: int) -> list[dict]:
    """Best ns per call of every case under every tree, one process per tree and repeat,
    the tree order alternating per repeat."""
    best = [dict.fromkeys(CASES, float("inf")) for _ in srcs]
    for rep in range(repeat):
        order = list(range(len(srcs)))
        if rep % 2:
            order.reverse()
        for i in order:
            out = subprocess.run(
                [sys.executable, "-c", _ONE_TREE, __file__, str(srcs[i]), str(number)],
                check=True, stdout=subprocess.PIPE, text=True).stdout
            for name, ns in json.loads(out).items():
                best[i][name] = min(best[i][name], ns)
    return best


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("src", type=Path, nargs="+", help="one or two src directories")
    parser.add_argument("--number", type=int, default=20000, help="calls per timing")
    parser.add_argument("--repeat", type=int, default=7,
                        help="timing processes per tree, each timing every case once")
    args = parser.parse_args(argv)
    if len(args.src) > 2:
        parser.error("give one or two src directories")
    if args.number < 1 or args.repeat < 1:
        parser.error("--number and --repeat must be at least 1")
    srcs = [src.resolve() for src in args.src]
    best = measure(srcs, args.number, args.repeat)
    report = {
        "number": args.number,
        "repeat": args.repeat,
        "python": sys.version.split()[0],
        "trees": [str(src) for src in srcs],
        "ns_per_call": {name: [round(side[name], 1) for side in best] for name in CASES},
    }
    if len(best) == 2:
        report["change"] = {name: round(best[1][name] / best[0][name] - 1, 4) for name in CASES}
    print(json.dumps(report, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
