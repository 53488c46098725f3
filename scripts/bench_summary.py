#!/usr/bin/env python3
"""Summarize a paired benchmark run as a BENCH_<n>.json file.

    python3 scripts/bench_summary.py BASE.jsonl HEAD.jsonl --parent SHA --out BENCH_<n>.json

BASE.jsonl and HEAD.jsonl hold the lines that `perfbench/run.py --record`
appended while running the parent commit and the change, with the same
seeds and --seconds.  For every workload with untraced runs on both sides
and every end-to-end metric of BENCHMARK.json, the file gives each side's
median and quartiles and its seeds, the change of the medians (positive
means better) and the verdict of `perfbench/compare.py`, whose rules it
imports.  Where both sides also hold `--trace 1` runs of the workload, every
per-layer metric of BENCHMARK.json follows the end-to-end rows, with each
side's median over its traced runs, their seeds and the change of the
medians, but no verdict: a traced round or two per side is a view of where
the time goes, not paired evidence.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.compare import ROOT, load, quartiles, verdict  # noqa: E402


def load_traced(path) -> dict:
    """The correct `--trace 1` records of a --record file, by workload."""
    runs = {}
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        record = json.loads(line)
        if record["trace"] == 1 and record["result"]["correct"]:
            runs.setdefault(record["workload"], []).append(record)
    return runs


def per_layer(declared, base_runs, head_runs) -> dict:
    """Each side's median of every declared per-layer metric that both sides report."""
    rows = {}
    for metric in declared:
        m = metric["name"]
        sides = [{r["seed"]: r["result"]["metrics"][m]["value"]
                  for r in runs if m in r["result"]["metrics"]}
                 for runs in (base_runs, head_runs)]
        if not all(sides):
            continue
        base, head = (statistics.median(side.values()) for side in sides)
        sign = 1 if metric["better"] == "higher" else -1
        rows[m] = {"base": {"median": base, "seeds": sorted(sides[0])},
                   "head": {"median": head, "seeds": sorted(sides[1])},
                   "unit": metric["unit"],
                   "change": sign * (head - base) / base if base else None}
    return rows


def summary(base_path, head_path, parent: str) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    base, head = load(base_path), load(head_path)
    traced = [load_traced(base_path), load_traced(head_path)]
    workloads = {}
    for workload in spec["workloads"]:
        name = workload["name"]
        if name not in base or name not in head:
            continue
        metrics = {}
        for metric in spec["end_to_end"]:
            m = metric["name"]
            sides = [{r["seed"]: r["result"]["metrics"][m]["value"] for r in runs[name]}
                     for runs in (base, head)]
            change, word = verdict(*sides, metric["better"], metric["bound"])
            row = {}
            for label, side in zip(("base", "head"), sides):
                q1, median, q3 = quartiles(list(side.values()))
                row[label] = {"median": median, "q1": q1, "q3": q3, "seeds": sorted(side)}
            metrics[m] = {**row, "unit": metric["unit"], "change": change, "verdict": word}
        if all(name in side for side in traced):
            metrics.update(per_layer(spec["per_layer"], *(side[name] for side in traced)))
        workloads[name] = metrics
    return {"parent": parent, "workloads": workloads}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=Path, help="--record lines of the parent commit")
    parser.add_argument("head", type=Path, help="--record lines of the change")
    parser.add_argument("--parent", required=True, help="the parent commit's hash")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    report = summary(args.base, args.head, args.parent)
    args.out.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
