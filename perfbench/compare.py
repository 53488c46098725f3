#!/usr/bin/env python3
"""Compare the benchmark results of two commits, one row per workload and metric.

    python3 perfbench/compare.py base.jsonl head.jsonl

Each file holds the lines that `perfbench/run.py --record FILE` appended
while running one commit (untraced runs only are read; use the same seeds
and --seconds on both sides).  For every end-to-end metric of
BENCHMARK.json the report gives each side's median with its quartiles,
the change of the medians (positive means better) and a verdict:

    unresolved  the quartile spread of either side, as a share of its
                median, is wider than the metric's bound, and the runs
                of the two sides overlap
    worse       head's median is worse than base's by more than the bound,
                or every base run beats every head run
    better      head's median is better by more than base's own spread,
                and head wins at least 9 in 10 of the runs paired by seed
                (or every head run beats every base run)
    unchanged   otherwise
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path):
    runs = {}
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        record = json.loads(line)
        if record["trace"] == 0 and record["result"]["correct"]:
            runs.setdefault(record["workload"], []).append(record)
    return runs


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(base, head, better, bound):
    """base and head: {seed: value}.  Returns (change, verdict)."""
    sign = 1 if better == "higher" else -1
    b_q1, b_med, b_q3 = quartiles(list(base.values()))
    h_q1, h_med, h_q3 = quartiles(list(head.values()))
    change = sign * (h_med - b_med) / b_med
    spread = max((b_q3 - b_q1) / b_med, (h_q3 - h_q1) / h_med)
    head_ahead = min(sign * v for v in head.values()) > max(sign * v for v in base.values())
    base_ahead = min(sign * v for v in base.values()) > max(sign * v for v in head.values())
    if spread > bound and not (head_ahead or base_ahead):
        return change, "unresolved"
    if change < -bound or (base_ahead and change < 0):
        return change, "worse"
    paired = [seed for seed in base if seed in head]
    wins = sum(sign * head[s] > sign * base[s] for s in paired)
    if head_ahead or (change > (b_q3 - b_q1) / b_med and paired
                      and wins >= 0.9 * len(paired)):
        return change, "better"
    return change, "unchanged"


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    base, head = load(argv[0]), load(argv[1])
    header = (f"{'workload':19} {'metric':14} {'base median [q1, q3]':>40} "
              f"{'head median [q1, q3]':>40} {'change':>8}  verdict")
    print(header)
    print("-" * len(header))
    for workload in spec["workloads"]:
        name = workload["name"]
        if name not in base or name not in head:
            print(f"{name:19} (missing runs on one side)")
            continue
        for metric in spec["end_to_end"]:
            m = metric["name"]
            b = {r["seed"]: r["result"]["metrics"][m]["value"] for r in base[name]}
            h = {r["seed"]: r["result"]["metrics"][m]["value"] for r in head[name]}
            change, word = verdict(b, h, metric["better"], metric["bound"])
            cells = []
            for side in (b, h):
                q1, med, q3 = quartiles(list(side.values()))
                cells.append(f"{med:.4g} [{q1:.4g}, {q3:.4g}] n={len(side)}")
            print(f"{name:19} {m:14} {cells[0]:>40} {cells[1]:>40} {change:+8.1%}  {word}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
