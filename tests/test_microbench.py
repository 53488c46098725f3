"""scripts/microbench.py on a tiny count, under one tree and under two."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


@pytest.fixture
def microbench():
    spec = importlib.util.spec_from_file_location("microbench", ROOT / "scripts" / "microbench.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("trees", [1, 2])
def test_a_tiny_run_prints_every_case_per_tree(microbench, capsys, trees):
    path = list(sys.path)
    assert microbench.main([str(SRC)] * trees + ["--number", "3", "--repeat", "2"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert (report["number"], report["repeat"], len(report["trees"])) == (3, 2, trees)
    assert list(report["ns_per_call"]) == list(microbench.CASES) == [
        "intersect", "cycle_mul", "h_line", "specializes", "theoremC_point", "extension_point",
        "conormal_point", "rigid_point", "chi_road", "grr_road", "divisor_build",
        "divisor_unchecked", "divisor_reads", "divisor_ne", "divisor_hash", "bundle_build",
        "bundle_unchecked", "bundle_reads", "bundle_ne", "bundle_hash", "json_report"]
    assert all(len(ns) == trees and min(ns) > 0 for ns in report["ns_per_call"].values())
    assert ("change" in report) == (trees == 2)
    # each tree is timed in processes of its own, never in this one
    assert sys.path == path


def test_a_timing_process_times_every_case_once(microbench, monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))
    ns = microbench.time_tree(SRC, 2)
    assert list(ns) == list(microbench.CASES)
    assert min(ns.values()) > 0


def test_a_ruledsurf_from_another_tree_is_refused(microbench, monkeypatch, tmp_path):
    # tmp_path holds no ruledsurf, so the one imported comes from another directory
    monkeypatch.setattr(sys, "path", list(sys.path))
    with pytest.raises(SystemExit, match="not .*ruledsurf"):
        microbench.load_tree(tmp_path)


def test_more_than_two_trees_are_refused(microbench):
    with pytest.raises(SystemExit):
        microbench.main([str(SRC)] * 3)
