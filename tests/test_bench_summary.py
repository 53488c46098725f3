"""scripts/bench_summary.py on synthetic --record lines of a paired run."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _record(path, workload, seed, values, trace=0):
    metrics = {name: {"value": value, "unit": ""} for name, value in values.items()}
    line = {"workload": workload, "seed": seed, "trace": trace,
            "result": {"correct": True, "attempted": 10, "failed": 0, "metrics": metrics}}
    with path.open("a", encoding="utf-8") as fh:
        fh.write(json.dumps(line) + "\n")


def test_summary_of_a_paired_run(tmp_path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [metric["name"] for metric in spec["end_to_end"]]
    base, head = tmp_path / "base.jsonl", tmp_path / "head.jsonl"
    for seed in range(1, 11):
        # head is faster at the tail in every pair, the same elsewhere
        _record(base, "large_coefficients", seed,
                {name: 5 + seed if name == "op_p99_ms" else 1.0 for name in names})
        _record(head, "large_coefficients", seed,
                {name: seed / 4 if name == "op_p99_ms" else 1.0 for name in names})
    _record(head, "large_coefficients", 99, {name: 1e9 for name in names}, trace=1)
    _record(base, "cli_mix", 1, {name: 1.0 for name in names})  # no head runs
    out = tmp_path / "BENCH.json"
    subprocess.run([sys.executable, str(ROOT / "scripts" / "bench_summary.py"),
                    str(base), str(head), "--parent", "abc123", "--out", str(out)],
                   check=True, timeout=60)
    report = json.loads(out.read_text(encoding="utf-8"))
    assert report["parent"] == "abc123"
    assert list(report["workloads"]) == ["large_coefficients"]
    metrics = report["workloads"]["large_coefficients"]
    assert list(metrics) == names
    tail = metrics["op_p99_ms"]
    assert tail["verdict"] == "better"
    assert tail["base"]["seeds"] == tail["head"]["seeds"] == list(range(1, 11))
    assert (tail["base"]["median"], tail["head"]["median"]) == (10.5, 1.375)
    assert tail["base"]["q1"] < 10.5 < tail["base"]["q3"]
    assert tail["change"] == (10.5 - 1.375) / 10.5
    assert {metrics[name]["verdict"] for name in names if name != "op_p99_ms"} == {"unchanged"}


def test_per_layer_medians_follow_the_end_to_end_rows(tmp_path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [metric["name"] for metric in spec["end_to_end"]]
    layers = [metric["name"] for metric in spec["per_layer"]]
    base, head = tmp_path / "base.jsonl", tmp_path / "head.jsonl"
    for seed in range(1, 4):
        _record(base, "verify_grids", seed, {name: 1.0 for name in names})
        _record(head, "verify_grids", seed, {name: 1.0 for name in names})
    # two traced rounds on the base side, one on the head side; the head
    # record lacks one metric, an incorrect head record is left out, and a
    # count of 0 at the base has no relative change
    zero = "geometry.cycle_ring.calls"
    for seed, value in ((7, 10.0), (8, 20.0)):
        _record(base, "verify_grids", seed,
                {name: 0 if name == zero else value for name in layers}, trace=1)
    _record(head, "verify_grids", 7,
            {name: 0.0 if name.endswith(".calls") else 5.0 for name in layers[1:]}, trace=1)
    with head.open("a", encoding="utf-8") as fh:
        fh.write(json.dumps({"workload": "verify_grids", "seed": 9, "trace": 1,
                             "result": {"correct": False, "attempted": 1, "failed": 1,
                                        "metrics": {}}}) + "\n")
    # traced runs only on the head side: no per-layer rows for cli_mix
    _record(base, "cli_mix", 1, {name: 1.0 for name in names})
    _record(head, "cli_mix", 1, {name: 1.0 for name in names})
    _record(head, "cli_mix", 5, {name: 1.0 for name in layers}, trace=1)
    out = tmp_path / "BENCH.json"
    subprocess.run([sys.executable, str(ROOT / "scripts" / "bench_summary.py"),
                    str(base), str(head), "--parent", "abc123", "--out", str(out)],
                   check=True, timeout=60)
    report = json.loads(out.read_text(encoding="utf-8"))
    assert list(report["workloads"]["cli_mix"]) == names
    metrics = report["workloads"]["verify_grids"]
    assert list(metrics) == names + layers[1:]
    assert {metrics[name]["verdict"] for name in names} == {"unchanged"}
    better = {metric["name"]: metric["better"] for metric in spec["per_layer"]}
    assert metrics[zero]["base"]["median"] == 0
    assert metrics[zero]["change"] is None
    for name in layers[1:]:
        if name == zero:
            continue
        row = metrics[name]
        assert "verdict" not in row
        assert row["base"] == {"median": 15.0, "seeds": [7, 8]}
        assert row["head"]["seeds"] == [7]
        if name.endswith(".calls"):
            assert (row["head"]["median"], row["change"]) == (0.0, 1.0)
        else:
            assert row["head"]["median"] == 5.0
            assert row["change"] == (2 / 3 if better[name] == "lower" else -2 / 3)
