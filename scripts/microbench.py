#!/usr/bin/env python3
"""Best-of-N nanoseconds per call of the primitives and of one grid point, under one or two trees.

    PYTHONDONTWRITEBYTECODE=1 python3 scripts/microbench.py BASE_SRC [HEAD_SRC] --number 20000

BASE_SRC and HEAD_SRC are the src directories of two checkouts, say the
parent commit's and a change's.  Each tree is loaded in this one process
under a package name of its own, so the two never share a module.  The
cases are the primitives `intersect`, `cycle_mul`, `h_line` and
`specializes`; one point of the `theoremC` and of the `extension` grid, a
step of verify's own generator, at bounds with a point for every step; the
chi and GRR roads of a theoremC point alone, on its bundle built once; what
the value layout itself costs, for a DivisorClass and a BundleNumerics: a
checked build, a build by the unchecked builder, four field reads, `!=`
between two equal values that are distinct objects, and `hash`; and
`json_report`, the CLI's `render_report` of a one-row `bundle grr` report
as JSON.  A repeat times `--number` calls of every case under every tree;
with two trees, the tree that goes first alternates from one repeat to the
next, so the machine's drift falls on both alike.  The script prints one
JSON object: each case's best time per call, in ns, per tree, and with two
trees the relative change of the second from the first (negative means
faster).
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import json
import math
import sys
import timeit
from pathlib import Path

CASES = ("intersect", "cycle_mul", "h_line", "specializes", "theoremC_point",
         "extension_point", "chi_road", "grr_road", "divisor_build", "divisor_unchecked",
         "divisor_reads", "divisor_ne", "divisor_hash", "bundle_build", "bundle_unchecked",
         "bundle_reads", "bundle_ne", "bundle_hash", "json_report")


def load_tree(src: Path, name: str):
    """The ruledsurf package under src, imported as `name`, with the layers the cases call."""
    init = src / "ruledsurf" / "__init__.py"
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    for layer in ("geometry", "cohomology", "splitting", "bundles", "verify"):
        importlib.import_module(f"{name}.{layer}")
    # cli imports the package by its own name, so that name is this tree's while it loads
    saved = sys.modules.get("ruledsurf")
    sys.modules["ruledsurf"] = package
    try:
        importlib.import_module(f"{name}.cli")
    finally:
        if saved is None:
            del sys.modules["ruledsurf"]
        else:
            sys.modules["ruledsurf"] = saved
    return package


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
    # step: theoremC has 880 (2 c2_max + 1) points, extension 200 (2 deg_max + 1)^2
    suites = pkg.verify.SUITES
    theorem_c = suites["theoremC"][0](c2_max=max(5, steps // 1760 + 1))
    extension = suites["extension"][0](deg_max=max(5, math.isqrt(steps // 200 + 1) // 2 + 1))
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
    for name in ("specializes", "theoremC_point", "extension_point"):
        if found[name]() is not True:
            raise SystemExit(f"{name} under {pkg.__name__} does not pass")
    if json.loads(found["json_report"]())["inputs"]["c1"] != "3*h+2*f":
        raise SystemExit(f"json_report under {pkg.__name__} renders another report")
    return found


def measure(trees: list, number: int, repeat: int) -> list[dict]:
    """Best ns per call of every case under every tree, the tree order alternating per repeat."""
    best = [dict.fromkeys(CASES, float("inf")) for _ in trees]
    for rep in range(repeat):
        order = list(range(len(trees)))
        if rep % 2:
            order.reverse()
        for i in order:
            for name, call in trees[i].items():
                ns = timeit.Timer(call).timeit(number) / number * 1e9
                best[i][name] = min(best[i][name], ns)
    return best


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("src", type=Path, nargs="+", help="one or two src directories")
    parser.add_argument("--number", type=int, default=20000, help="calls per timing")
    parser.add_argument("--repeat", type=int, default=7, help="timings per case and tree")
    args = parser.parse_args(argv)
    if len(args.src) > 2:
        parser.error("give one or two src directories")
    if args.number < 1 or args.repeat < 1:
        parser.error("--number and --repeat must be at least 1")
    srcs = [src.resolve() for src in args.src]
    steps = args.number * args.repeat
    trees = [cases(load_tree(src, f"_microbench_tree{i}"), steps) for i, src in enumerate(srcs)]
    best = measure(trees, args.number, args.repeat)
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
