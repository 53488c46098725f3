"""scripts/golden_check.py on the running Python, and on a tampered copy of the fixture."""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "golden_check.py"


@pytest.fixture
def golden_check():
    spec = importlib.util.spec_from_file_location("golden_check", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_entry_matches(golden_check, capsys):
    assert golden_check.main() == 0
    entries = len(json.loads(golden_check.FIXTURE.read_text(encoding="utf-8")))
    assert capsys.readouterr().out == f"{entries} of {entries} entries match\n"


def test_an_entry_whose_bytes_differ_is_named(golden_check, capsys, monkeypatch, tmp_path):
    entries = json.loads(golden_check.FIXTURE.read_text(encoding="utf-8"))
    tampered = next(entry for entry in entries
                    if entry["argv"] == ["split", "rigid", "--r", "5", "--d", "7", "--out", "{out}"])
    tampered["stdout"] = tampered["stdout"].replace("(2,2,1,1,1)", "(2,2,2,1,0)")
    fixture = tmp_path / "cli_golden.json"
    fixture.write_text(json.dumps(entries), encoding="utf-8")
    monkeypatch.setattr(golden_check, "FIXTURE", fixture)
    assert golden_check.main() == 1
    assert capsys.readouterr().out == (
        f"{json.dumps(tampered['argv'])}\n{len(entries) - 1} of {len(entries)} entries match\n")
