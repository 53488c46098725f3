"""scripts/microbench.py on a tiny count, under one tree and under two."""

import importlib.util
import json
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
    assert microbench.main([str(SRC)] * trees + ["--number", "3", "--repeat", "2"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert (report["number"], report["repeat"], len(report["trees"])) == (3, 2, trees)
    assert list(report["ns_per_call"]) == list(microbench.CASES) == [
        "intersect", "cycle_mul", "h_line", "specializes", "theoremC_point", "extension_point",
        "chi_road", "grr_road", "divisor_build", "divisor_unchecked", "divisor_reads",
        "divisor_ne", "divisor_hash", "bundle_build", "bundle_unchecked", "bundle_reads",
        "bundle_ne", "bundle_hash", "json_report"]
    assert all(len(ns) == trees and min(ns) > 0 for ns in report["ns_per_call"].values())
    assert ("change" in report) == (trees == 2)


def test_each_tree_is_its_own_package(microbench):
    first, second = (microbench.load_tree(SRC, f"_microbench_test{i}") for i in range(2))
    assert first.bundles is not second.bundles
    assert first.bundles.BundleNumerics is not second.bundles.BundleNumerics
    assert first.bundles.__name__ == "_microbench_test0.bundles"


def test_more_than_two_trees_are_refused(microbench):
    with pytest.raises(SystemExit):
        microbench.main([str(SRC)] * 3)
