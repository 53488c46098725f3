"""scripts/cold_start.py on one round of one request, and on a request that fails."""

import importlib.util
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


@pytest.fixture
def cold_start():
    spec = importlib.util.spec_from_file_location("cold_start", ROOT / "scripts" / "cold_start.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_requests_are_the_benchmarks_cold_requests(cold_start):
    workloads = [workload for workload, _ in cold_start.requests()]
    assert workloads == ["verify_grids"] * 3 + ["cli_mix"] * 3 + ["large_coefficients"] * 3
    assert ("cli_mix", ["split", "rigid", "--r", "5", "--d", "7"]) in cold_start.requests()


def test_one_round(cold_start, monkeypatch, capsys):
    monkeypatch.setattr(cold_start, "requests",
                        lambda: [("cli_mix", ["split", "rigid", "--r", "5", "--d", "7"])])
    assert cold_start.main([str(SRC), str(SRC), "--rounds", "1"]) == 0
    header, floor, base, head = capsys.readouterr().out.splitlines()
    assert header.startswith("cold starts over 1 rounds")
    assert floor.split()[:4] == ["floor", "(python", "-c", "pass)"]
    assert base.split()[:2] == ["cli_mix", "base"] and len(base.split()) == 5
    assert head.split()[:2] == ["cli_mix", "head"] and re.search(r"\([+-][0-9.]+%\)$", head)


def test_a_request_that_does_not_exit_0_stops_the_run(cold_start, monkeypatch):
    monkeypatch.setattr(cold_start, "requests",
                        lambda: [("cli_mix", ["split", "rigid", "--r", "x", "--d", "1"])])
    with pytest.raises(SystemExit, match="split rigid --r x --d 1 under .* exited 1: "
                                         "status: input-error"):
        cold_start.main([str(SRC), str(SRC), "--rounds", "1"])
