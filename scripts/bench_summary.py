#!/usr/bin/env python3
"""Summarize a paired benchmark run as a BENCH_<n>.json file.

    python3 scripts/bench_summary.py BASE.jsonl HEAD.jsonl --parent SHA --out BENCH_<n>.json

BASE.jsonl and HEAD.jsonl hold the lines that `perfbench/run.py --record`
appended while running the parent commit and the change, with the same
seeds and --seconds.  For every workload with runs on both sides and every
end-to-end metric of BENCHMARK.json, the file gives each side's median and
quartiles and its seeds, the change of the medians (positive means better)
and the verdict of `perfbench/compare.py`, whose rules it imports.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.compare import ROOT, load, quartiles, verdict  # noqa: E402


def summary(base_path, head_path, parent: str) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    base, head = load(base_path), load(head_path)
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
