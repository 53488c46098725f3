#!/usr/bin/env python3
"""Paired cold starts of the ruledsurf CLI under two source trees, over the interpreter floor.

    PYTHONDONTWRITEBYTECODE=1 python3 scripts/cold_start.py BASE_SRC HEAD_SRC --rounds 30

BASE_SRC and HEAD_SRC are the src directories of two checkouts, say the
parent commit's and a change's.  A round runs every cold request of every
benchmark workload (its `cold_requests` in perfbench, turned into argv as
perfbench/run.py does) once as `python -m ruledsurf.cli` under each tree,
next to one `python -c pass`, the interpreter floor; the three take turns
going first.  Every run must exit 0.  For the floor, and for each workload
and tree, the script prints the median and the minimum wall time, and the
median minus the floor's median: the part of a cold start the program
controls.  With PYTHONDONTWRITEBYTECODE=1, as in the benchmark, every start
compiles every module it imports; without it, the first run of each tree
writes the bytecode cache that the later runs read.
"""

from __future__ import annotations

import argparse
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.cli_mix import make_request  # noqa: E402
from perfbench.run import WORKLOADS  # noqa: E402

FLOOR = [sys.executable, "-c", "pass"]


def requests() -> list[tuple[str, list[str]]]:
    """(workload, CLI argv) of every cold request the benchmark makes."""
    return [(name, list(make_request(op, params).argv))
            for name, workload in WORKLOADS.items() for op, params in workload.cold_requests]


def timed(argv, src=None) -> float:
    """Wall seconds of one run, importing ruledsurf from src alone; exits unless it exits 0."""
    env = dict(os.environ)
    if src is not None:
        env["PYTHONPATH"] = str(src)
    start = time.perf_counter()
    proc = subprocess.run(argv, cwd=src, env=env, capture_output=True, text=True, timeout=60)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(argv[2:])} under {src} exited {proc.returncode}: "
                         f"{(proc.stderr or proc.stdout).strip()[-500:]}")
    return elapsed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base_src", type=Path)
    parser.add_argument("head_src", type=Path)
    parser.add_argument("--rounds", type=int, default=30)
    args = parser.parse_args(argv)
    trees = {"base": args.base_src.resolve(), "head": args.head_src.resolve()}
    times: dict = {}
    for r in range(args.rounds):
        for i, (workload, words) in enumerate(requests()):
            command = [sys.executable, "-m", "ruledsurf.cli", *words]
            runs = [("floor", FLOOR, None)] + [
                ((workload, side), command, src) for side, src in trees.items()]
            turn = (r + i) % len(runs)
            for key, command, src in runs[turn:] + runs[:turn]:
                times.setdefault(key, []).append(timed(command, src) * 1000)
    floor = statistics.median(times["floor"])
    print(f"cold starts over {args.rounds} rounds, ms: median, minimum, median over the floor")
    print(f"{'floor (python -c pass)':28}{floor:9.1f}{min(times['floor']):9.1f}")
    for workload in WORKLOADS:
        if (workload, "base") not in times:
            continue
        base = statistics.median(times[workload, "base"])
        for side in trees:
            samples = times[workload, side]
            median = statistics.median(samples)
            change = f"  ({(median - base) / base:+.1%})" if side == "head" else ""
            print(f"{workload:22}{side:6}{median:9.1f}{min(samples):9.1f}{median - floor:9.1f}"
                  f"{change}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
