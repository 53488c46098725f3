#!/usr/bin/env python3
"""Run the CLI's golden corpus and list every argv whose bytes differ from the fixture.

    python3 scripts/golden_check.py

Every entry of tests/cli_golden.json is run in-process through `cli.run`,
as tests/test_cli_golden.py runs it: at COLUMNS=80, with its --out file in
a temporary directory.  Its stdout, exit code and --out text are compared
with the entry's.  The script prints each argv that differs, as one JSON
list a line, then a count, and exits 1 if any entry differs or the
fixture's argv list is not the corpus.  It needs only the standard
library, so it runs on a Python with no pytest; it imports ruledsurf from
this checkout's src.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from test_cli_golden import FIXTURE, corpus, run_recorded  # noqa: E402


def main() -> int:
    os.environ["COLUMNS"] = "80"  # argparse wraps help to the terminal width
    entries = json.loads(FIXTURE.read_text(encoding="utf-8"))
    if [entry["argv"] for entry in entries] != corpus():
        print(f"{FIXTURE} does not hold the argv list of the corpus")
        return 1
    differ = []
    with tempfile.TemporaryDirectory() as tmp:
        out_path = Path(tmp) / "report.out"
        for entry in entries:
            expected = {key: entry[key] for key in ("stdout", "code", "out")}
            if run_recorded(entry["argv"], out_path) != expected:
                differ.append(entry["argv"])
    for argv in differ:
        print(json.dumps(argv))
    print(f"{len(entries) - len(differ)} of {len(entries)} entries match")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
