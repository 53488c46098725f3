#!/usr/bin/env python3
"""Run one workload of the ruledsurf benchmark and print its metrics.

    python3 perfbench/run.py --workload cli_mix --seed 1 --seconds 25 --trace 0

Run it from the root of a source checkout: it imports ruledsurf from
./src and nothing else.  Workloads: verify_grids, cli_mix,
large_coefficients (see perfbench/README.md).  Each run is a closed loop
with one caller: it runs whole rounds of seeded operations until
--seconds have passed, checks every output, and prints as its last line
one JSON object with `correct`, `attempted`, `failed` and `metrics`.

--trace 0 reports the end-to-end metrics of BENCHMARK.json; --trace 1
repeats round 0 under a tracer that wraps every public function of the
six modules and reports the per-layer metrics instead.  --record PATH
appends the result, tagged with workload and seed, to a JSON-lines file
that perfbench/compare.py reads.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench import reference as ref  # noqa: E402
from perfbench.cli_mix import CheckError, CliMix, Response, check_response, make_request  # noqa: E402
from perfbench.large_coefficients import LargeCoefficients  # noqa: E402
from perfbench.tracing import LAYERS, Tracer  # noqa: E402
from perfbench.verify_grids import SUITES, VerifyGrids  # noqa: E402

WORKLOADS = {w.name: w for w in (VerifyGrids, CliMix, LargeCoefficients)}
MIN_SUBPROCESS_SAMPLES = 9
SUBPROCESSES_PER_ROUND = 2
UNTRACED_BASELINE_ROUNDS = 2
SUBPROCESS_TIMEOUT_S = 60
# Every reported time is multiplied by CALIBRATION_REFERENCE_S / (median
# time of calibration_loop in the same round), the loop's median on the
# reference machine: see "Calibrated time" in README.md for why.
CALIBRATION_ITERATIONS = 5_000
CALIBRATION_REFERENCE_S = 0.0009
CYCLE_RING = ("cycle_mul", "curve_mul", "chern_character", "todd_surface",
              "pushforward_to_curve")


class ProgramMissing(RuntimeError):
    pass


def load_program():
    """Import ruledsurf from this checkout's src directory and nowhere else."""
    package_dir = ROOT / "src" / "ruledsurf"
    if not (package_dir / "__init__.py").is_file():
        raise ProgramMissing(f"no ruledsurf sources at {package_dir}")
    sys.path.insert(0, str(ROOT / "src"))
    import ruledsurf
    import ruledsurf.cli
    import ruledsurf.verify

    if Path(ruledsurf.__file__).resolve().parent != package_dir:
        raise ProgramMissing(f"imported ruledsurf from {ruledsurf.__file__}, not {package_dir}")
    return SimpleNamespace(package=ruledsurf, **{
        layer: getattr(ruledsurf, layer) for layer in LAYERS})


def percentile(samples, p):
    """Weighted nearest-rank percentile of (value, weight) samples."""
    ordered = sorted(samples)
    target = p * sum(w for _, w in ordered)
    seen = 0
    for value, weight in ordered:
        seen += weight
        if seen >= target:
            return value
    return ordered[-1][0]


class _Cell:
    __slots__ = ("a", "b", "c")

    def __init__(self, a, b, c):
        self.a, self.b, self.c = a, b, c


def calibration_loop():
    """Fixed pure-Python work: integer arithmetic, then small objects and a dict.

    Arithmetic alone tracks the slowdowns of cli_mix and large_coefficients
    best, allocation alone those of verify_grids; the two together track all
    three within a few per cent over 10-20 s windows on the reference machine.
    """
    total = 0
    for i in range(CALIBRATION_ITERATIONS):
        total += i * i % 7
    cells = [_Cell(i, 3 * i, (i, i + 1)) for i in range(CALIBRATION_ITERATIONS // 8)]
    for cell in cells:
        total += cell.a * cell.b + cell.c[1]
    return total + len({i: cell for i, cell in enumerate(cells)})


def loop_seconds():
    start = time.perf_counter()
    calibration_loop()
    return time.perf_counter() - start


def scale_of(loop_times):
    return CALIBRATION_REFERENCE_S / statistics.median(loop_times)


@dataclass
class Round:
    busy: float  # scaled seconds inside the program, failed operations left out
    samples: list  # (scaled seconds per unit, units) per successful operation
    scale: float  # CALIBRATION_REFERENCE_S / median calibration loop time


class Runner:
    """Runs whole rounds of a workload, checking every output as it goes."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0

    def round(self, items):
        wl = self.workload
        wl.start_round()
        busy = 0.0
        samples = []
        loop_times = []
        for item in items:
            elapsed, weight, payload = wl.execute(item)
            self.attempted += weight
            if wl.check(item, payload):
                self.failed += weight
            else:
                busy += elapsed
                samples.append((elapsed / weight, weight))
            loop_times.extend(loop_seconds() for _ in range(wl.calibration_reps))
        scale = scale_of(loop_times)
        return Round(busy * scale, [(t * scale, w) for t, w in samples], scale)


def _subprocess(argv, env=None):
    return subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=SUBPROCESS_TIMEOUT_S)


def calibrated(measure):
    """Run measure() between calibration loops; scale its seconds by them."""
    before = [loop_seconds() for _ in range(3)]
    seconds = measure()
    return seconds * scale_of(before + [loop_seconds() for _ in range(3)])


def setup_probe_once(args):
    """Import plus input generation in a fresh interpreter: (import_s, setup_s)."""
    proc = _subprocess([sys.executable, str(Path(__file__)), "--setup-probe",
                        "--workload", args.workload, "--seed", str(args.seed)])
    if proc.returncode != 0:
        raise CheckError(f"setup probe failed: {proc.stderr.strip()[-500:]}")
    probe = json.loads(proc.stdout.strip().splitlines()[-1])
    return probe["import_s"], probe["setup_s"]


class ColdStarts:
    """`python -m ruledsurf.cli` subprocesses with the workload's fixed requests, checked."""

    def __init__(self, workload_cls):
        pythonpath = os.pathsep.join(
            filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
        self.env = dict(os.environ, PYTHONPATH=pythonpath)
        self.requests = [make_request(op, params) for op, params in workload_cls.cold_requests]
        self._count = 0

    def once(self):
        request = self.requests[self._count % len(self.requests)]
        self._count += 1
        start = time.perf_counter()
        proc = _subprocess([sys.executable, "-m", "ruledsurf.cli", *request.argv], env=self.env)
        elapsed = time.perf_counter() - start
        if proc.returncode != 0 and proc.stderr:
            raise CheckError(f"cold {request.argv[:2]}: {proc.stderr.strip()[-500:]}")
        check_response(request, Response(proc.returncode, proc.stdout, None))
        return elapsed


def check_inputs_repeat(workload_cls, program, args, workdir):
    a = workload_cls(program, args.seed, workdir).round_items(0)
    b = workload_cls(program, args.seed, workdir).round_items(0)
    if a != b:
        raise CheckError("the same seed generated different inputs")


def end_to_end(workload, runner, args):
    """Timed rounds; after each, setup probes and cold starts, so that those
    subprocess figures sample the whole run rather than one moment."""
    runner.round(workload.round_items(0))  # warm-up: first-call costs are not steady state
    cold = ColdStarts(type(workload))
    cold.once()  # warms the file cache for the subprocesses
    rounds, probes, colds = [], [], []
    start = time.perf_counter()
    index = 1
    while True:
        rounds.append(runner.round(workload.round_items(index)))
        index += 1
        for _ in range(SUBPROCESSES_PER_ROUND):
            probes.append(calibrated(lambda: setup_probe_once(args)[1]))
            colds.append(calibrated(cold.once))
        if time.perf_counter() - start >= args.seconds and len(colds) >= MIN_SUBPROCESS_SAMPLES:
            break
    samples = [s for r in rounds for s in r.samples]
    if workload.pooled_latency:
        p50, p99 = percentile(samples, 0.5), percentile(samples, 0.99)
    else:
        p50 = statistics.median(percentile(r.samples, 0.5) for r in rounds)
        p99 = statistics.median(percentile(r.samples, 0.99) for r in rounds)
    return {
        "setup_s": statistics.median(probes),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ops_per_s": statistics.median(sum(w for _, w in r.samples) / r.busy for r in rounds),
        "op_p50_ms": p50 * 1000,
        "op_p99_ms": p99 * 1000,
        "cold_start_ms": statistics.median(colds) * 1000,
    }


def per_layer(workload, runner, program, args):
    items = workload.round_items(0)
    runner.round(items)  # warm-up
    untraced = [runner.round(items).busy for _ in range(UNTRACED_BASELINE_ROUNDS)]
    tracer = Tracer(program.package, {layer: getattr(program, layer) for layer in LAYERS})
    traced, summaries, scales, first = [], [], [], None
    tracer.install()
    try:
        start = time.perf_counter()
        while True:
            done = runner.round(items)
            traced.append(done.busy)
            scales.append(done.scale)
            spans = tracer.take()
            summaries.append(spans.summary())
            first = first or spans
            if time.perf_counter() - start >= args.seconds:
                break
    finally:
        tracer.uninstall()
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    first.write(out_dir / f"spans-{workload.name}.tsv")

    def calls(match):
        return sum(row[0] for name, row in summaries[0].items() if match(name))

    def self_s(match):
        return statistics.median(
            scale * sum(row[2] for name, row in s.items() if match(name))
            for s, scale in zip(summaries, scales))

    def fn(*names):
        return lambda name: name in names

    def layer(prefix):
        return lambda name: name.startswith(prefix)

    metrics = {}
    for name in ("bundles", "geometry", "cohomology", "splitting"):
        metrics[f"{name}.calls"] = calls(layer(name + "."))
        metrics[f"{name}.self_s"] = self_s(layer(name + "."))
    for name in ("bundles.jumping_count", "bundles.twist", "geometry.intersect",
                 "cohomology.h_line", "splitting.specializes"):
        metrics[f"{name}.calls"] = calls(fn(name))
    for name in ("bundles.grr_verify", "bundles.extension_data_from_chern",
                 "cohomology.h_line", "cohomology.endomorphism_growth",
                 "cohomology.stabilization_index", "geometry.min_good_twist",
                 "splitting.semicontinuity_oracle", "splitting.formal_lift_obstructions"):
        metrics[f"{name}.self_s"] = self_s(fn(name))
    ring = fn(*(f"geometry.{f}" for f in CYCLE_RING))
    metrics["geometry.cycle_ring.calls"] = calls(ring)
    metrics["geometry.cycle_ring.self_s"] = self_s(ring)
    metrics["verify.self_s"] = self_s(layer("verify."))
    points = ref.grid_points()
    for suite in SUITES:
        name = f"verify.run_suite[{suite}]"
        rates = [row[0] * points[suite] / (row[1] * scale)
                 for s, scale in zip(summaries, scales) for key, row in s.items() if key == name]
        metrics[f"verify.{suite}.points_per_s"] = statistics.median(rates) if rates else 0.0
    metrics["cli.build_parser_s"] = self_s(fn("cli.build_parser"))
    metrics["cli.render_s"] = self_s(fn("cli.render_report", "cli.render_table"))
    metrics["cli.literal_s"] = self_s(
        lambda name: name.startswith(("cli.parse_", "cli.format_")))
    metrics["cli.self_s"] = self_s(layer("cli."))
    metrics["cli.import_s"] = statistics.median(
        calibrated(lambda: setup_probe_once(args)[0]) for _ in range(MIN_SUBPROCESS_SAMPLES))
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    return metrics


def declared_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def setup_probe(args):
    start = time.perf_counter()
    program = load_program()
    imported = time.perf_counter()
    WORKLOADS[args.workload](program, args.seed, ROOT / ".bench_tmp").round_items(0)
    done = time.perf_counter()
    print(json.dumps({"import_s": imported - start, "setup_s": done - start}))
    return 0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", type=Path, default=None,
                        help="append the result to this JSON-lines file")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def run(args):
    program = load_program()
    e2e_units, layer_units = declared_metrics()
    workdir = ROOT / ".bench_tmp" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        cls = WORKLOADS[args.workload]
        check_inputs_repeat(cls, program, args, workdir)
        workload = cls(program, args.seed, workdir)
        runner = Runner(workload)
        if args.trace:
            values, units = per_layer(workload, runner, program, args), layer_units
        else:
            values, units = end_to_end(workload, runner, args), e2e_units
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    if set(values) != set(units):
        raise RuntimeError(f"computed metrics {sorted(set(values) ^ set(units))} "
                           "do not match BENCHMARK.json")
    return {
        "correct": True,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }


def main(argv=None):
    args = parse_args(argv)
    if args.setup_probe:
        return setup_probe(args)
    try:
        result = run(args)
    except ProgramMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    except CheckError as exc:
        print(f"perfbench: check failed: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 0, "failed": 0, "metrics": {}}))
        return 1
    except Exception:  # report any crash of the program or the benchmark as a failed run
        traceback.print_exc()
        return 1
    if args.record:
        with args.record.open("a", encoding="utf-8") as fh:
            fh.write(json.dumps({"workload": args.workload, "seed": args.seed,
                                 "trace": args.trace, "result": result}) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
