"""The large_coefficients workload: library calls at magnitudes up to about 1e5.

One round is 136 seeded queries straight into library functions.  Within
each query kind the magnitudes are stratified log-uniform: the k-th of n
queries draws its magnitude from the middle half of the k-th of n equal
slices of [log lo, log hi], so every round covers the whole range and
seeds differ only inside each slice.  Each query's result is checked against
`reference` or against a property the method must have.
"""

from __future__ import annotations

import math
import time
from random import Random

from . import reference as ref
from .cli_mix import CheckError

# kind: queries per round
MIX = {
    "h_line": 24,          # a >= 0, e = 0..4
    "h_line_dual": 12,     # a <= -2, reached through Serre duality
    "euler_char": 16,
    "serre_dual": 16,
    "min_good_twist": 12,  # q up to 1e5, e >= -q
    "conormal_vanishing": 8,
    "endomorphism_growth": 8,   # n up to 300, rank <= 3
    "stabilization_index": 8,   # y_max up to ~260, rank <= 3
    "formal_lift_obstructions": 8,  # n_max up to 3000
    "enumerate_types": 12,      # rank <= 8, spread <= 6
    "specialization_chain": 12,  # rank <= 8, spread <= 12
}


def _strata(rng, n, lo, hi):
    # The middle half of each slice: seeds still differ, but no round's cost
    # hinges on where its one or two largest magnitudes happen to fall.
    span = math.log(hi) - math.log(lo)
    return [round(math.exp(math.log(lo) + span * (k + 0.25 + rng.random() / 2) / n))
            for k in range(n)]


def _signed(rng, m):
    return m if rng.random() < 0.5 else -m


def _summands(rng, rank, m):
    return tuple((rng.randint(-3, 3), rng.randint(-m, m)) for _ in range(rank))


def _gen(kind, rng, n):
    out = []
    if kind in ("h_line", "h_line_dual"):
        for k, m in enumerate(_strata(rng, n, 1, 10 ** 5)):
            e = k % 5
            a = m if kind == "h_line" else -1 - m
            out.append((e, a, rng.randint(-(e + 1) * m, (e + 1) * m)))
    elif kind in ("euler_char", "serre_dual"):
        for m in _strata(rng, n, 1, 10 ** 5):
            q = rng.randint(0, m)
            out.append((q, rng.randint(-q, m), _signed(rng, m), _signed(rng, rng.randint(0, m))))
    elif kind == "min_good_twist":
        for q in _strata(rng, n, 1, 10 ** 5):
            e = rng.randint(-q, q)
            b = e + 1 if e >= 0 else e // 2 + 1  # least b making h + b f ample
            out.append((q, e, 1, b + rng.randint(0, 3)))
    elif kind == "conormal_vanishing":
        for k, t in enumerate(_strata(rng, n, 1, 2 * 10 ** 4)):
            e = k % 5
            out.append((e, t, e * t + rng.randint(1, 1000), 1 + k % 4))
    elif kind == "endomorphism_growth":
        for k, steps in enumerate(_strata(rng, n, 1, 300)):
            e = k % 5
            out.append((e, _summands(rng, 1 + k % 3, 50), 1, e + rng.randint(1, 3), steps))
    elif kind == "stabilization_index":
        for k, target in enumerate(_strata(rng, n, 1, 250)):
            e = k % 5
            da = rng.randint(-3, 3)
            summands = ((0, 0), (da, target - 1 + e * da)) + _summands(rng, k % 2, 5)
            cert = ref.stabilization_certificate(e, summands, 1, e + 1)
            out.append((e, summands, 1, e + 1, cert + rng.randint(0, 8)))
    elif kind == "formal_lift_obstructions":
        for k, n_max in enumerate(_strata(rng, n, 1, 3000)):
            spread = _strata(rng, 1, 1, 10 ** 5)[0]
            top = _signed(rng, rng.randint(0, 10 ** 5))
            parts = sorted((rng.randint(top - spread, top) for _ in range(1 + k % 3)), reverse=True)
            out.append((tuple(parts), 1 + k % 3, n_max))
    elif kind == "enumerate_types":
        for k, m in enumerate(_strata(rng, n, 1, 10 ** 5)):
            out.append((1 + k % 8, _signed(rng, m), rng.randint(0, 6)))
    elif kind == "specialization_chain":
        for k, m in enumerate(_strata(rng, n, 1, 10 ** 5)):
            base = _signed(rng, m)
            r = 2 + k % 7
            out.append((tuple(sorted((base + rng.randint(0, 12) for _ in range(r)), reverse=True)),))
    return [(kind, p) for p in out]


class LargeCoefficients:
    name = "large_coefficients"
    calibration_reps = 1  # calibration loops after each operation
    pooled_latency = True
    cold_requests = (
        ("coh line", (2, (30000, 11))),
        ("coh euler", (70000, -5000, (99999, -12345))),
        ("split lift", ((90000, 0), 1, 2000)),
    )

    def __init__(self, program, seed, workdir):
        self.p = program
        self.seed = seed

    def round_items(self, index):
        rng = Random(f"large_coefficients:{self.seed}:{index}")
        items = []
        for kind, n in MIX.items():
            items.extend(_gen(kind, rng, n))
        rng.shuffle(items)
        return items

    def start_round(self):
        pass

    def execute(self, item):
        kind, p = item
        call = getattr(self, "_h_line" if kind == "h_line_dual" else "_" + kind)
        start = time.perf_counter()
        result = call(*p)
        return time.perf_counter() - start, 1, result

    # Calls, made through module attributes so that a tracer sees them.

    def _h_line(self, e, a, b):
        g = self.p.geometry
        return self.p.cohomology.h_line(g.SurfaceGeometry(0, e), g.DivisorClass(a, b))

    def _euler_char(self, q, e, a, b):
        g = self.p.geometry
        return self.p.cohomology.euler_char(g.SurfaceGeometry(q, e), g.DivisorClass(a, b))

    def _serre_dual(self, q, e, a, b):
        g = self.p.geometry
        return self.p.cohomology.serre_dual(g.SurfaceGeometry(q, e), g.DivisorClass(a, b))

    def _min_good_twist(self, q, e, a, b):
        g = self.p.geometry
        return g.min_good_twist(g.SurfaceGeometry(q, e), g.DivisorClass(a, b))

    def _conormal_vanishing(self, e, t, s, n_max):
        c = self.p.cohomology
        return c.conormal_vanishing(self.p.geometry.SurfaceGeometry(0, e),
                                    c.ConormalData(t, s), n_max)

    def _split(self, summands):
        g = self.p.geometry
        return self.p.cohomology.SplitBundle(tuple(g.DivisorClass(*d) for d in summands))

    def _endomorphism_growth(self, e, summands, t, s, n):
        c = self.p.cohomology
        return c.endomorphism_growth(self.p.geometry.SurfaceGeometry(0, e),
                                     self._split(summands), c.ConormalData(t, s), n)

    def _stabilization_index(self, e, summands, t, s, y_max):
        c = self.p.cohomology
        return c.stabilization_index(self.p.geometry.SurfaceGeometry(0, e),
                                     self._split(summands), c.ConormalData(t, s), y_max)

    def _formal_lift_obstructions(self, parts, t, n_max):
        s = self.p.splitting
        return s.formal_lift_obstructions(s.SplittingType(parts), t, n_max)

    def _enumerate_types(self, r, d, spread):
        return self.p.splitting.enumerate_types(r, d, spread)

    def _specialization_chain(self, parts):
        s = self.p.splitting
        return s.specialization_chain(s.SplittingType(parts))

    def check(self, item, result):
        kind, p = item
        problem = _problem(kind, p, result)
        if problem:
            raise CheckError(f"{kind}{p}: {problem}")
        return False


def _problem(kind, p, result):
    if kind in ("h_line", "h_line_dual"):
        e, a, b = p
        got = (result.h0, result.h1, result.h2)
        if got != ref.h_line(e, (a, b)):
            return f"h = {got}, expected {ref.h_line(e, (a, b))}"
        if result.h0 - result.h1 + result.h2 != ref.chi_line(0, e, (a, b)):
            return "h0 - h1 + h2 differs from the Riemann-Roch chi"
        dual = ref.h_line(e, ref.serre_dual(0, e, (a, b)))
        if got != dual[::-1]:
            return f"Serre symmetry fails: h(K-D) = {dual}"
    elif kind == "euler_char":
        q, e, a, b = p
        if result != ref.chi_line(q, e, (a, b)):
            return f"chi = {result}, expected {ref.chi_line(q, e, (a, b))}"
    elif kind == "serre_dual":
        q, e, a, b = p
        if (result.a, result.b) != ref.serre_dual(q, e, (a, b)):
            return f"dual = {result}"
    elif kind == "min_good_twist":
        q, e, a, b = p
        if not ref.is_good(q, e, (a, b + result)):
            return f"d + {result} f is not good"
        if result > 0 and ref.is_good(q, e, (a, b + result - 1)):
            return f"d + {result - 1} f is already good"
        if result != ref.min_good_twist(q, e, (a, b)):
            return "differs from the closed form"
    elif kind == "conormal_vanishing":
        if result is not ref.conormal_vanishing(*p):
            return f"vanishing = {result}"
    elif kind == "endomorphism_growth":
        if result != ref.endomorphism_growth(*p):
            return f"growth = {result}, expected {ref.endomorphism_growth(*p)}"
        if ref.growth_last_layer(*p) <= 0:
            return "growth does not strictly increase at the last layer"
    elif kind == "stabilization_index":
        expected = ref.stabilization_index(*p[:4])
        if result != expected:
            return f"index = {result}, expected {expected}"
    elif kind == "formal_lift_obstructions":
        if result != ref.lift_obstructions(*p):
            return "obstructions differ from the reference"
    elif kind == "enumerate_types":
        r, d, spread = p
        parts = [t.parts for t in result]
        if len(parts) != ref.count_types(r, d, spread):
            return f"{len(parts)} types, expected {ref.count_types(r, d, spread)}"
        if any(len(t) != r or sum(t) != d or t[0] - t[-1] > spread
               or any(t[i] < t[i + 1] for i in range(r - 1)) for t in parts):
            return "a listed type has the wrong rank, degree, spread or order"
        if any(x >= y for x, y in zip(parts, parts[1:])):
            return "types are not strictly ascending"
    elif kind == "specialization_chain":
        return ref.chain_problem(p[0], [t.parts for t in result])
    return None
