"""The verify_grids workload: all nine verify suites at their default bounds.

One round is one pass through `verify.run_suite` for each suite, in a
seeded order: 38 443 grid points.  Each point counts as one operation;
its latency is its suite's time divided by the suite's points.
"""

from __future__ import annotations

import time
from random import Random

from . import reference as ref
from .cli_mix import CheckError

SUITES = ("serre", "euler", "conormal", "theoremC", "dominance", "rigid", "lifting",
          "extension", "growth")


class VerifyGrids:
    name = "verify_grids"
    calibration_reps = 5  # calibration loops after each operation
    pooled_latency = False  # percentiles per pass, then the median over passes
    cold_requests = (("verify", ("lifting",)), ("verify", ("rigid",)), ("verify", ("conormal",)))

    def __init__(self, program, seed, workdir):
        self.verify = program.verify
        self.seed = seed
        self.points = ref.grid_points()

    def round_items(self, index):
        return Random(f"verify_grids:{self.seed}:{index}").sample(SUITES, len(SUITES))

    def start_round(self):
        pass

    def execute(self, suite):
        start = time.perf_counter()
        results = self.verify.run_suite(suite)
        return time.perf_counter() - start, self.points[suite], results

    def check(self, suite, results):
        if len(results) != 1:
            raise CheckError(f"{suite}: {len(results)} results for one suite")
        res = results[0]
        if res.suite != suite or not res.ok or res.points != self.points[suite]:
            raise CheckError(
                f"{suite}: suite={res.suite} ok={res.ok} points={res.points}, expected "
                f"{self.points[suite]} points, all ok (counterexample {res.counterexample})"
            )
        return False
