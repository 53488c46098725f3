"""The CLI's bytes, pinned: stdout, exit code and --out file of a fixed argv corpus.

`cli_golden.json` holds, for every argv that `corpus()` builds, what
`cli.run` printed, the code it returned and the text it wrote to the
--out file (null where it wrote none).  The corpus covers top-level,
group and leaf --help, one table call and one JSON call with --out for
every op, the argparse error shapes of every leaf, and malformed literals
and invalid geometries.  Help is never wrapped, so no entry depends on the
terminal.

Regenerate the fixture, only when an output is meant to change, with

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

from ruledsurf.cli import _leaf_flags, run

FIXTURE = Path(__file__).with_name("cli_golden.json")
OUT = "{out}"  # stands for the --out file in a stored argv

B = ["--e", "1", "--r", "2", "--c1", "2*h+0*f", "--c2", "3"]

# one well-formed call per op, with small literals
CALLS = {
    ("surface", "intersect"): ["--e", "1", "--d1", "1*h+2*f", "--d2", "-1*h+3*f"],
    ("surface", "canonical"): ["--q", "1", "--e", "0"],
    ("surface", "ample"): ["--e", "1", "--D", "1*h+2*f"],
    ("surface", "good"): ["--e", "1", "--R", "1*h+3*f"],
    ("surface", "mintwist"): ["--e", "1", "--H", "1*h+2*f"],
    ("surface", "cyclemul"): ["--e", "2", "--x", "(1,1/2,-1,0)", "--y", "(2,1,0,1/3)"],
    ("surface", "chern"): ["--e", "1", "--r", "2", "--c1", "1*h+0*f", "--c2", "3"],
    ("surface", "todd"): ["--q", "2", "--e", "1"],
    ("surface", "toddcurve"): ["--q", "3"],
    ("surface", "push"): ["--e", "1", "--x", "(1,1/2,-1,0)"],
    ("coh", "line"): ["--e", "1", "--D", "2*h+1*f"],
    ("coh", "euler"): ["--q", "1", "--e", "0", "--D", "1*h+1*f"],
    ("coh", "serre"): ["--e", "2", "--D", "1*h-1*f"],
    ("coh", "conormal"): ["--e", "1", "--t", "1", "--s", "2"],
    ("coh", "splitend"): ["--e", "0", "--summands", "0*h+0*f,1*h+0*f", "--twist", "0*h+1*f"],
    ("coh", "moduli"): ["--e", "1", "--summands", "0*h+0*f,0*h+2*f"],
    ("coh", "stab"): ["--e", "1", "--summands", "0*h+0*f,0*h+5*f", "--t", "1", "--s", "2"],
    ("coh", "growth"): ["--e", "0", "--summands", "0*h+0*f,1*h+0*f", "--t", "1", "--s", "1",
                        "--n", "3"],
    ("split", "rigid"): ["--r", "5", "--d", "7"],
    ("split", "h1end"): ["--type", "(2,0,-1)"],
    ("split", "isrigid"): ["--type", "(1,1,0)"],
    ("split", "specializes"): ["--general", "(1,0)", "--special", "(2,-1)"],
    ("split", "semicont"): ["--general", "(1,0)", "--special", "(2,-1)"],
    ("split", "jumptype"): ["--r", "3", "--a", "1"],
    ("split", "lift"): ["--type", "(1,-1)", "--t", "1", "--n-max", "3"],
    ("split", "enumerate"): ["--r", "3", "--d", "0", "--max-spread", "2"],
    ("split", "chain"): ["--type", "(2,0,-2)"],
    ("bundle", "fiberdeg"): B,
    ("bundle", "twist"): B + ["--L", "-1*h+0*f"],
    ("bundle", "jump"): B + ["--a", "1"],
    ("bundle", "chi"): B + ["--a", "1"],
    ("bundle", "euler"): B,
    ("bundle", "grr"): B + ["--a", "1"],
    ("bundle", "extchern"): ["--e", "1", "--r", "3", "--x", "1", "--a", "1",
                             "--deg-sub", "2", "--deg-quot", "-1"],
    ("bundle", "extdata"): ["--e", "1", "--r", "3", "--c1", "2*h+1*f", "--c2", "-1",
                            "--a", "1", "--x", "1"],
    ("bundle", "slope"): B + ["--R", "1*h+2*f"],
    ("bundle", "destab"): B + ["--sub-r", "1", "--sub-c1", "1*h+0*f", "--sub-c2", "0",
                               "--R", "1*h+2*f"],
    ("verify",): ["rigid"],
}

# input errors found after argparse: malformed literals, bad geometry, both at once
INPUT_ERRORS = [
    ["surface", "intersect", "--e", "1", "--d1", "1*h+f", "--d2", "1*h"],
    ["surface", "intersect", "--e", "-1", "--d1", "1*h+f", "--d2", "0*h+0*f"],
    ["surface", "cyclemul", "--e", "1", "--x", "(1,2,3)", "--y", "(1,x,0,0)"],
    ["surface", "push", "--e", "0", "--x", "(1,1/2,-1,0"],
    ["surface", "mintwist", "--e", "1", "--H", "-1*h+0*f"],
    ["surface", "toddcurve", "--q", "-1"],
    ["coh", "line", "--e", "0", "--D", "1*h+f"],
    ["coh", "line", "--q", "1", "--e", "0", "--D", "0*h+0*f"],
    ["coh", "splitend", "--e", "0", "--summands", "0*h+0*f,1*h", "--twist", "x"],
    ["coh", "splitend", "--e", "0", "--summands", "0*h+0*f", "--twist", "1*h+0*g"],
    ["coh", "stab", "--e", "1", "--summands", "0*h+0*f", "--t", "0", "--s", "2"],
    ["coh", "growth", "--e", "0", "--summands", "0*h+0*f", "--t", "1", "--s", "1",
     "--n", "0"],
    ["split", "h1end", "--type", "(1,2)"],
    ["split", "specializes", "--general", "1,0", "--special", "(2,x)"],
    ["split", "rigid", "--r", "0", "--d", "1"],
    ["bundle", "twist", "--e", "1", "--r", "0", "--c1", "1*h", "--c2", "0", "--L", "x"],
    ["bundle", "twist", "--e", "1", "--r", "0", "--c1", "1*h+0*f", "--c2", "0", "--L", "x"],
    ["bundle", "jump", "--e", "1", "--r", "2", "--a", "1", "--c1", "1*h+0*f", "--c2", "3"],
    ["bundle", "destab"] + B + ["--sub-r", "0", "--sub-c1", "1*h+0*f", "--sub-c2", "0",
                                "--R", "1*h+2*f"],
    ["bundle", "destab", "--e", "1", "--r", "0", "--c1", "2*h+0*f", "--c2", "3",
     "--sub-r", "1", "--sub-c1", "1*h", "--sub-c2", "0", "--R", "1*h+2*f"],
    ["bundle", "destab", "--e", "-1", "--r", "2", "--c1", "2*h+0*f", "--c2", "3",
     "--sub-r", "1", "--sub-c1", "1*h", "--sub-c2", "0", "--R", "x"],
    ["bundle", "extchern", "--e", "1", "--r", "3", "--x", "3", "--a", "1",
     "--deg-sub", "2", "--deg-quot", "-1"],
    ["verify", "lifting", "--r", "2", "--d-max", "1", "--t-max", "1", "--n-max", "2"],
]

# argparse errors above the leaves
GROUP_ERRORS = [
    [], ["bogus"], ["--frobnicate"], ["verify"], ["verify", "nonsense"],
    ["surface"], ["surface", "bogus"], ["coh"], ["split", "bogus"], ["bundle"],
]


def _leaf_errors(head, args):
    """The argparse error shapes of one leaf, rendered as tables without --out."""
    shapes = [
        head,                                         # every required flag missing
        head + args + ["--frobnicate", "1"],          # unknown flag
        head + args + ["--format", "xml"],            # invalid choice
        head + args + ["--out"],                      # flag without its value
    ]
    ints = [i for i, a in enumerate(args) if i % 2 and a.lstrip("-").isdigit()]
    if ints:
        bad = list(args)
        bad[ints[-1]] = "x"
        shapes.append(head + bad)                     # bad integer
    return shapes


def corpus():
    argvs = [["--help"], ["-h"]]
    argvs += [[group, "--help"] for group in ("surface", "coh", "split", "bundle", "verify")]
    for key, args in CALLS.items():
        head = list(key)
        if len(key) == 2:
            argvs.append(head + ["--help"])
        argvs.append(head + args + ["--out", OUT])
        argvs.append(head + args + ["--format", "json", "--out", OUT])
        argvs += _leaf_errors(head, args)
    argvs += INPUT_ERRORS
    argvs += GROUP_ERRORS
    return argvs


def run_recorded(argv, out_path):
    """stdout, exit code and --out file text (None if no file) of one in-process run."""
    out_path.unlink(missing_ok=True)
    argv = [str(out_path) if a == OUT else a for a in argv]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run(argv)
    written = out_path.read_text(encoding="utf-8") if out_path.exists() else None
    return {"stdout": buf.getvalue(), "code": code, "out": written}


def test_golden_corpus_matches_fixture(monkeypatch, tmp_path):
    # no entry was recorded at this width: help that followed the terminal would differ
    monkeypatch.setenv("COLUMNS", "40")
    recorded = json.loads(FIXTURE.read_text(encoding="utf-8"))
    assert [entry["argv"] for entry in recorded] == corpus()
    out_path = tmp_path / "report.out"
    for entry in recorded:
        expected = {k: entry[k] for k in ("stdout", "code", "out")}
        assert run_recorded(entry["argv"], out_path) == expected, entry["argv"]



def _split_output(argv):
    """argv without its --format and --out pairs, and those pairs."""
    rest, output = [], []
    words = iter(argv)
    for word in words:
        if word in ("--format", "--out"):
            output += [word, next(words)]
        else:
            rest.append(word)
    return rest, output


def _replay(report):
    """The argv that a JSON report's inputs name: its group and op, then each input
    under the positional or the flag that _leaf_flags maps its dest to."""
    inputs = dict(report["inputs"])
    group, op = report["subcommand"], inputs.pop("op")
    options, positionals, _, _ = _leaf_flags(group, op)
    flag_of = {dest: flag for flag, (dest, _) in options.items()}
    argv = [group] if op == group else [group, op]
    argv += [str(inputs.pop(dest)) for dest, _ in positionals]
    for dest, value in inputs.items():
        argv += [flag_of[dest], str(value)]
    return argv


def test_every_report_replays_from_its_inputs(tmp_path):
    """Each entry that exits 0 or 2 and is not --help prints the same bytes again from
    the argv its JSON report's inputs name, with the entry's own --format and --out."""
    out_path = tmp_path / "report.out"
    replayed = 0
    for entry in json.loads(FIXTURE.read_text(encoding="utf-8")):
        if entry["code"] not in (0, 2) or {"--help", "-h"} & set(entry["argv"]):
            continue
        rest, output = _split_output(entry["argv"])
        report = json.loads(run_recorded(rest + ["--format", "json"], out_path)["stdout"])
        expected = {k: entry[k] for k in ("stdout", "code", "out")}
        assert run_recorded(_replay(report) + output, out_path) == expected, entry["argv"]
        replayed += 1
    # every op as a table and as JSON, and verify lifting with four bounds
    assert replayed == 77


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        out_path = Path(tmp) / "report.out"
        entries = [{"argv": argv, **run_recorded(argv, out_path)} for argv in corpus()]
    FIXTURE.write_text(json.dumps(entries, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(entries)} entries to {FIXTURE}")
