import argparse
import contextlib
import functools
import io
import json
import os
import re
import signal
import subprocess
import sys
import textwrap
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ruledsurf.bundles as bundles_mod
import ruledsurf.cli as cli_mod
import ruledsurf.splitting as splitting_mod
import ruledsurf.verify as verify_mod
from ruledsurf.cli import (
    _GROUPS,
    _VERIFY_BOUNDS,
    build_parser,
    format_bundle,
    format_curve_cycle,
    format_cycle,
    format_divisor,
    format_rational,
    format_type,
    parse_bundle,
    parse_curve_cycle,
    parse_cycle,
    parse_divisor,
    parse_summands,
    parse_type,
    render_report,
    run,
)
from ruledsurf.geometry import CurveCycle, DivisorClass
from ruledsurf.splitting import SplittingType
from test_cli_golden import CALLS, FIXTURE, OUT


def _run(capsys, argv):
    code = run(argv)
    return code, capsys.readouterr().out


def test_bundle_jump_example(capsys):
    code, out = _run(
        capsys,
        ["bundle", "jump", "--e", "1", "--r", "2", "--a", "1", "--c1", "2*h+0*f", "--c2", "3"],
    )
    assert code == 0
    assert out == "z  m\n4  -4\n"


def test_split_rigid_example(capsys):
    code, out = _run(capsys, ["split", "rigid", "--r", "5", "--d", "7"])
    assert code == 0
    assert "(2,2,1,1,1)" in out


def test_coh_line_example(capsys):
    code, out = _run(capsys, ["coh", "line", "--e", "0", "--D", "1*h+1*f"])
    assert code == 0
    assert out == "h0  h1  h2\n4   0   0\n"


def test_json_output_shape(capsys):
    code, out = _run(
        capsys,
        ["coh", "line", "--e", "0", "--D", "1*h+1*f", "--format", "json"],
    )
    assert code == 0
    report = json.loads(out)
    assert set(report) == {"subcommand", "inputs", "results", "status"}
    assert report["subcommand"] == "coh"
    assert report["status"] == "ok"
    assert report["results"] == [{"h0": 4, "h1": 0, "h2": 0}]
    assert parse_divisor(report["inputs"]["D"]) == DivisorClass(1, 1)


def test_json_values_round_trip(capsys):
    code, out = _run(
        capsys,
        ["bundle", "twist", "--e", "1", "--r", "2", "--c1", "2*h+0*f",
         "--c2", "3", "--L", "-1*h+0*f", "--format", "json"],
    )
    assert code == 0
    report = json.loads(out)
    twisted = parse_bundle(report["results"][0]["bundle"])
    assert twisted.c1 == DivisorClass(0, 0)
    assert twisted.c2 == 4

    code, out = _run(capsys, ["split", "chain", "--type", "(2,0,-2)", "--format", "json"])
    report = json.loads(out)
    chain = [parse_type(row["type"]) for row in report["results"]]
    assert chain[0] == SplittingType((0, 0, 0))
    assert chain[-1] == SplittingType((2, 0, -2))

    code, out = _run(
        capsys,
        ["surface", "chern", "--e", "1", "--r", "1", "--c1", "1*h+0*f",
         "--c2", "0", "--format", "json"],
    )
    report = json.loads(out)
    cycle = parse_cycle(report["results"][0]["cycle"])
    assert cycle.p2 == Fraction(-1, 2)


def test_deterministic_output(capsys):
    argv = ["verify", "conormal", "--format", "json"]
    _, first = _run(capsys, argv)
    _, second = _run(capsys, argv)
    assert first == second


# (argv, the input error it reports): one case per way a literal can be malformed
MALFORMED_LITERALS = [
    (["coh", "line", "--e", "0", "--D", "1*h+f"],
     "malformed divisor literal '1*h+f': expected signed integer f-coefficient at position 3"),
    (["split", "h1end", "--type", "(1,2)"],
     "malformed splitting type literal '(1,2)': "
     "expected a part no larger than the previous one at position 3"),
    (["coh", "line", "--e", "0", "--D", "h+0*f"],
     "malformed divisor literal 'h+0*f': expected integer h-coefficient at position 0"),
    (["coh", "line", "--e", "0", "--D", "1h+0*f"],
     "malformed divisor literal '1h+0*f': expected '*h' at position 1"),
    (["coh", "line", "--e", "0", "--D", "1*h+0*f+"],
     "malformed divisor literal '1*h+0*f+': expected end of literal at position 7"),
    (["split", "h1end", "--type", "(1,0"],
     "malformed splitting type literal '(1,0': expected ')' at position 4"),
    (["split", "h1end", "--type", "(1,x)"],
     "malformed splitting type literal '(1,x)': expected integer part at position 3"),
    (["surface", "push", "--e", "0", "--x", "1,0,0,0)"],
     "malformed cycle literal '1,0,0,0)': expected '(' at position 0"),
    (["surface", "push", "--e", "0", "--x", "(1,0.5,0,0)"],
     "malformed cycle literal '(1,0.5,0,0)': expected exact rational p or p/q at position 3"),
    # digits that int() reads but the grammar does not: the position is the first of them
    (["coh", "line", "--e", "0", "--D", "\uff11*h+\u0663*f"],
     "malformed divisor literal '\uff11*h+\u0663*f': expected integer h-coefficient at position 0"),
    (["coh", "line", "--e", "0", "--D", "1*h+\u0663*f"],
     "malformed divisor literal '1*h+\u0663*f': "
     "expected signed integer f-coefficient at position 3"),
    (["split", "h1end", "--type", "(1,\u0660)"],
     "malformed splitting type literal '(1,\u0660)': expected integer part at position 3"),
    (["surface", "push", "--e", "0", "--x", "(1,0,0,\u0661)"],
     "malformed cycle literal '(1,0,0,\u0661)': expected exact rational p or p/q at position 7"),
]


def test_malformed_literal_position(capsys):
    for argv, error in MALFORMED_LITERALS:
        assert _run(capsys, argv) == (1, f"status: input-error\nerror\n{error}\n"), argv


def test_a_result_with_no_rows_renders_as_no_rows(capsys):
    assert _run(capsys, ["split", "enumerate", "--r", "2", "--d", "1",
                         "--max-spread", "0"]) == (0, "(no rows)\n")


@pytest.mark.parametrize("r", [1000, 5000])
def test_enumerate_at_a_rank_past_the_recursion_limit(capsys, r):
    start = time.perf_counter()
    code, out = _run(capsys, ["split", "enumerate", "--r", str(r), "--d", "0",
                              "--max-spread", "0"])
    elapsed = time.perf_counter() - start
    assert code == 0
    assert elapsed < 2.0, f"split enumerate took {elapsed:.2f} s"
    assert out.splitlines() == ["type", "(" + ",".join(["0"] * r) + ")"]


def test_unknown_flag_rejected(capsys):
    code, out = _run(
        capsys,
        ["surface", "canonical", "--e", "0", "--frobnicate", "1"],
    )
    assert code == 1
    assert "unrecognized" in out or "frobnicate" in out


ARGPARSE_ERRORS = {
    "bad int": (["split", "rigid", "--r", "x", "--d", "1"],
                "argument --r: invalid int value: 'x'"),
    "missing required": (["split", "rigid", "--d", "1"],
                         "the following arguments are required: --r"),
    "unknown flag": (["split", "rigid", "--r", "5", "--d", "1", "--frobnicate", "1"],
                     "unrecognized arguments: --frobnicate 1"),
    "unknown flag, coh": (["coh", "line", "--e", "0", "--D", "1*h+0*f", "--bogus"],
                          "unrecognized arguments: --bogus"),
    # an int flag takes [+-]?[0-9]+ only, though int() also reads these
    "foreign digit": (["split", "rigid", "--r", " \u0665", "--d", "1_0"],
                      "argument --r: invalid int value: ' \u0665'"),
    "foreign digit e": (["coh", "line", "--e", "\u0663", "--D", "1*h+1*f"],
                        "argument --e: invalid int value: '\u0663'"),
    "underscore": (["coh", "line", "--e", "1_0", "--D", "1*h+1*f"],
                   "argument --e: invalid int value: '1_0'"),
    "space": (["coh", "line", "--e", " 1", "--D", "1*h+1*f"],
              "argument --e: invalid int value: ' 1'"),
}


@pytest.mark.parametrize("case", sorted(ARGPARSE_ERRORS))
def test_argparse_error_honours_format_and_out(capsys, tmp_path, case):
    argv, error = ARGPARSE_ERRORS[case]
    target = tmp_path / "report.json"
    code, out = _run(capsys, argv + ["--format", "json", "--out", str(target)])
    assert code == 1
    assert json.loads(out) == {"subcommand": argv[0], "inputs": {},
                               "results": [{"error": error}], "status": "input-error"}
    assert target.read_text(encoding="utf-8") == out
    assert _run(capsys, argv) == (1, f"status: input-error\nerror\n{error}\n")


def test_argparse_error_falls_back_to_table(capsys, tmp_path):
    target = tmp_path / "report.out"
    code, out = _run(capsys, ["split", "rigid", "--r", "x", "--d", "1",
                              "--format", "xml", "--out", str(target)])
    assert code == 1
    assert out.startswith("status: input-error\nerror\nargument --r: invalid int value")
    assert not target.exists()


def test_unknown_suite_rejected(capsys):
    code, out = _run(capsys, ["verify", "nonsense"])
    assert code == 1


def test_missing_group_rejected(capsys):
    code, _ = _run(capsys, [])
    assert code == 1


def test_help_exits_zero(capsys):
    assert run(["--help"]) == 0
    capsys.readouterr()


def test_precondition_failure_is_input_error(capsys):
    code, out = _run(
        capsys,
        ["bundle", "jump", "--e", "1", "--r", "2", "--a", "1", "--c1", "1*h+0*f", "--c2", "3"],
    )
    assert code == 1
    assert "input-error" in out
    code, out = _run(capsys, ["coh", "line", "--q", "1", "--e", "0", "--D", "0*h+0*f"])
    assert code == 1
    assert "genus" in out


def test_verify_ok_exit_zero(capsys):
    code, out = _run(capsys, ["verify", "growth"])
    assert code == 0
    assert "true" in out


def test_verify_violation_exit_two(capsys, monkeypatch):
    def broken():
        yield from [None] * 7
        yield {"e": 0, "D": "1*h+1*f"}

    monkeypatch.setitem(verify_mod.SUITES, "serre", (broken, frozenset()))
    code, out = _run(capsys, ["verify", "serre", "--format", "json"])
    assert code == 2
    report = json.loads(out)
    assert report["status"] == "property-violation"
    assert report["results"][0] == {"suite": "serre", "points": 7, "ok": False,
                                    "counterexample": {"e": 0, "D": "1*h+1*f"}}


def test_out_writes_report_verbatim(capsys, tmp_path):
    target = tmp_path / "report.json"
    code, out = _run(
        capsys,
        ["split", "rigid", "--r", "3", "--d", "-2", "--format", "json", "--out", str(target)],
    )
    assert code == 0
    assert target.read_text(encoding="utf-8") == out


def test_divisor_literal_round_trip():
    for a in range(-4, 5):
        for b in range(-4, 5):
            d = DivisorClass(a, b)
            assert parse_divisor(format_divisor(d)) == d
    assert format_divisor(DivisorClass(-2, 3)) == "-2*h+3*f"
    assert format_divisor(DivisorClass(1, -4)) == "1*h-4*f"


def test_type_literal_round_trip():
    for parts in ((5,), (2, 2, 1, 1, 1), (1, 0, -1), (0, -3)):
        t = SplittingType(parts)
        assert parse_type(format_type(t)) == t
    with pytest.raises(ValueError):
        parse_type("(1,2)")
    with pytest.raises(ValueError):
        parse_type("1,0")


def test_bundle_literal_round_trip():
    text = "r=2; c1=2*h+0*f; c2=3; e=1; q=0"
    bundle = parse_bundle(text)
    assert format_bundle(bundle) == text
    with pytest.raises(ValueError):
        parse_bundle("r=2; c2=3")
    with pytest.raises(ValueError):
        parse_bundle("r=\u0662; c1=2*h+0*f; c2=3; e=1; q=0")


def test_a_literal_is_echoed_in_its_canonical_form(capsys):
    code, out = _run(capsys, ["coh", "line", "--e", "+1", "--D", "+01*h+002*f", "--format", "json"])
    assert code == 0
    assert json.loads(out)["inputs"] == {"op": "line", "q": 0, "e": 1, "D": "1*h+2*f"}


def test_rational_and_cycle_literals():
    assert format_rational(Fraction(3)) == "3"
    assert format_rational(Fraction(-1, 2)) == "-1/2"
    cycle = parse_cycle("(2,1/2,-1,0)")
    assert format_cycle(cycle) == "(2,1/2,-1,0)"
    curve = CurveCycle(Fraction(-3, 4), 5)
    assert format_curve_cycle(curve) == "(-3/4,5)"
    assert parse_curve_cycle(format_curve_cycle(curve)) == curve
    assert parse_cycle("(1,1,1,1/010)").p2 == Fraction(1, 10)
    with pytest.raises(ValueError):
        parse_cycle("(1,2,3)")


ZERO_DENOMINATORS = {
    "push": (["surface", "push", "--e", "0", "--x", "(1,1,1,1/0)"],
             "malformed cycle literal '(1,1,1,1/0)': expected nonzero denominator at position 9"),
    "cyclemul": (["surface", "cyclemul", "--e", "1", "--x", "(1,0,0,0)",
                  "--y", "(1, -3/00,0,0)"],
                 "malformed cycle literal '(1, -3/00,0,0)': "
                 "expected nonzero denominator at position 7"),
}


@pytest.mark.parametrize("fmt", ["table", "json"])
@pytest.mark.parametrize("case", sorted(ZERO_DENOMINATORS))
def test_zero_denominator_is_input_error(capsys, tmp_path, case, fmt):
    argv, error = ZERO_DENOMINATORS[case]
    target = tmp_path / "report.out"
    code, out = _run(capsys, argv + ["--format", fmt, "--out", str(target)])
    assert code == 1
    assert target.read_text(encoding="utf-8") == out
    if fmt == "json":
        assert json.loads(out) == {"subcommand": "surface", "inputs": {},
                                   "results": [{"error": error}], "status": "input-error"}
    else:
        assert out == f"status: input-error\nerror\n{error}\n"


def test_summand_literal_positions():
    bundle = parse_summands("0*h+0*f,1*h+0*f")
    assert bundle.rank() == 2
    with pytest.raises(ValueError) as err:
        parse_summands("0*h+0*f,1*h")
    assert "position 11" in str(err.value)


# ---------------------------------------------------------------------------
# results past Python's 4300-digit int-to-text limit

HUGE = 10 ** 2999 + 2999  # 3000 digits: parses, but products of two do not print

HUGE_REQUESTS = {
    "surface intersect": ["--e", "1", "--d1", f"{HUGE}*h+{HUGE}*f",
                          "--d2", f"{HUGE}*h-{HUGE + 1}*f"],
    "surface cyclemul": ["--e", "2", "--x", f"({HUGE},1,{HUGE},0)",
                         "--y", f"(1,{HUGE},1,{HUGE})"],
    "surface chern": ["--e", "1", "--r", "2", "--c1", f"{HUGE}*h+{HUGE}*f", "--c2", "1"],
    "bundle twist": ["--e", "1", "--r", "2", "--c1", f"{HUGE}*h+1*f", "--c2", "0",
                     "--L", f"{HUGE}*h+{HUGE}*f"],
    "bundle jump": ["--e", "1", "--r", "2", "--c1", f"{2 * HUGE}*h+1*f", "--c2", "0",
                    "--a", str(HUGE)],
    "bundle euler": ["--e", "1", "--r", "2", "--c1", f"{HUGE}*h+{HUGE}*f", "--c2", "0"],
}


@pytest.mark.parametrize("fmt", ["table", "json"])
@pytest.mark.parametrize("op", sorted(HUGE_REQUESTS))
def test_result_past_digit_limit_is_input_error(capsys, tmp_path, op, fmt):
    target = tmp_path / "report.out"
    argv = op.split() + HUGE_REQUESTS[op] + ["--format", fmt, "--out", str(target)]
    code, out = _run(capsys, argv)
    assert code == 1
    assert target.read_text(encoding="utf-8") == out
    assert not re.search(r"\d{100}", out)  # the huge value is not echoed
    if fmt == "json":
        report = json.loads(out)
        assert report["subcommand"] == op.split()[0]
        assert report["inputs"] == {}
        assert report["status"] == "input-error"
        assert "4300 digits" in report["results"][0]["error"]
    else:
        assert out.startswith("status: input-error\nerror\n")
        assert "4300 digits" in out


def test_input_literal_past_digit_limit_is_input_error(capsys):
    digits = "7" * 5000
    code, out = _run(capsys, ["coh", "euler", "--e", "0", "--D", f"{digits}*h+0*f"])
    assert (code, out.split("\n")[0]) == (1, "status: input-error")
    code, out = _run(capsys, ["surface", "chern", "--e", "0", "--r", "1",
                              "--c1", "0*h+0*f", "--c2", digits])
    assert (code, out.split("\n")[0]) == (1, "status: input-error")


def test_an_int_flag_past_the_digit_limit_is_refused_in_argparse_words(capsys):
    # int() refuses the digits with text of its own; the report must give the tree's refusal
    digits = "7" * 5000
    argv = ["surface", "chern", "--e", "0", "--r", "1", "--c1", "0*h+0*f", "--c2", digits]
    error = f"argument --c2: invalid int value: '{digits}'"
    assert _outcome(build_parser(), argv) == ("error", error)
    assert _run(capsys, argv) == (1, f"status: input-error\nerror\n{error}\n")
    report = {"subcommand": "surface", "inputs": {}, "results": [{"error": error}],
              "status": "input-error"}
    assert _run(capsys, argv + ["--format", "json"]) == (1, json.dumps(report, indent=2) + "\n")


# ---------------------------------------------------------------------------
# the tree is built on first use, and reused

RIGID_JSON = """{
  "subcommand": "split",
  "inputs": {
    "op": "rigid",
    "r": 3,
    "d": -2
  },
  "results": [
    {
      "type": "(0,-1,-1)"
    }
  ],
  "status": "ok"
}
"""


def test_parser_reuse_leaks_no_state(capsys, tmp_path):
    # the help bytes are the golden fixture's
    golden = {" ".join(entry["argv"]): entry["stdout"]
              for entry in json.loads(FIXTURE.read_text(encoding="utf-8"))}
    target = tmp_path / "report.json"
    rigid = ["split", "rigid", "--r", "3", "--d", "-2"]
    malformed = "status: input-error\nerror\nmalformed divisor literal '1*h+f': " \
                "expected signed integer f-coefficient at position 3\n"
    steps = [
        (rigid + ["--format", "json", "--out", str(target)], 0, RIGID_JSON),
        (rigid, 0, "type\n(0,-1,-1)\n"),
        (["coh", "line", "--e", "0", "--D", "1*h+f"], 1, malformed),
        (["--help"], 0, golden["--help"]),
        (["split", "--help"], 0, golden["split --help"]),
        (["split", "rigid", "--help"], 0, golden["split rigid --help"]),
        (["verify", "rigid"], 0, "suite  points  ok\nrigid  356     true\n"),
        # the group need not come first: argparse still enters split rigid
        (["-x"] + rigid, 1, "status: input-error\nerror\nunrecognized arguments: -x\n"),
        (rigid, 0, "type\n(0,-1,-1)\n"),
        (["coh", "line", "--e", "0", "--D", "1*h+f"], 1, malformed),
    ]
    for argv, code, stdout in steps:
        assert _run(capsys, argv) == (code, stdout), argv
    # --out belongs to its own call: the later calls left the file alone
    assert target.read_text(encoding="utf-8") == RIGID_JSON


def _child_env():
    """os.environ for a fresh python that imports ruledsurf from this checkout's src."""
    src = Path(verify_mod.__file__).resolve().parents[1]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))


def test_importing_cli_builds_no_parser():
    probe = textwrap.dedent("""
        import argparse, sys
        built = []
        init = argparse.ArgumentParser.__init__
        def counting(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)
        argparse.ArgumentParser.__init__ = counting
        import ruledsurf.cli
        print(len(built), "ruledsurf.verify" in sys.modules)
    """)
    proc = subprocess.run([sys.executable, "-c", probe], env=_child_env(), capture_output=True,
                          text=True, timeout=60, check=True)
    assert proc.stdout.split() == ["0", "False"]


def test_importing_verify_loads_no_cli():
    probe = textwrap.dedent("""
        import sys
        import ruledsurf.verify
        print(*(name in sys.modules for name in ("ruledsurf.cli", "argparse", "json")))
    """)
    proc = subprocess.run([sys.executable, "-c", probe], env=_child_env(), capture_output=True,
                          text=True, timeout=60, check=True)
    assert proc.stdout.split() == ["False", "False", "False"]


def _modules_added_by(statement):
    """What a fresh python prints while it runs statement, and the modules it adds meanwhile."""
    probe = f"import sys\nbefore = set(sys.modules)\n{statement}\nprint(*set(sys.modules) - before)"
    proc = subprocess.run([sys.executable, "-c", probe], env=_child_env(), capture_output=True,
                          text=True, timeout=60, check=True)
    *printed, added = proc.stdout.split("\n")[:-1]
    return printed, set(added.split())


# A plain request loads only the library layers its op reaches, and no argparse.
COLD_REQUESTS = {
    "verify lifting": (["verify", "lifting"], ["suite    points  ok", "lifting  235     true"],
                       {"ruledsurf.bundles", "ruledsurf.cohomology", "ruledsurf.geometry",
                        "fractions", "decimal", "argparse"}),
    "verify conormal": (["verify", "conormal"], ["suite     points  ok", "conormal  48      true"],
                        {"ruledsurf.bundles", "ruledsurf.splitting", "fractions", "decimal",
                         "argparse"}),
    "split rigid": (["split", "rigid", "--r", "5", "--d", "7"], ["type", "(2,2,1,1,1)"],
                    {"ruledsurf.bundles", "ruledsurf.cohomology", "ruledsurf.geometry",
                     "fractions", "decimal", "argparse"}),
    "coh line": (["coh", "line", "--e", "0", "--D", "1*h+1*f"], ["h0  h1  h2", "4   0   0"],
                 {"ruledsurf.bundles", "ruledsurf.splitting", "fractions", "decimal",
                  "argparse"}),
    "bundle jump": (["bundle", "jump", "--e", "1", "--r", "2", "--a", "1", "--c1", "2*h+0*f",
                     "--c2", "3"], ["z  m", "4  -4"],
                    {"ruledsurf.cohomology", "ruledsurf.splitting", "fractions", "decimal",
                     "argparse"}),
    # the GRR degree is an int, so its report builds no rational
    "bundle grr": (["bundle", "grr", "--e", "1", "--r", "2", "--a", "1", "--c1", "2*h+0*f",
                    "--c2", "3"], ["rank_ok  degree_ok  lhs_degree  rhs_degree",
                                   "true     true       -4          -4"],
                   {"ruledsurf.cohomology", "ruledsurf.splitting", "fractions", "decimal",
                    "argparse"}),
}


@pytest.mark.parametrize("request_name", sorted(COLD_REQUESTS))
def test_importing_cli_loads_no_dataclasses_inspect_or_json(request_name):
    # the fresh python imports the CLI, then answers a table request as the console script does
    argv, expected, unloaded = COLD_REQUESTS[request_name]
    printed, added = _modules_added_by(
        "import ruledsurf.cli\n"
        f"sys.argv = {['ruledsurf', *argv]!r}\n"
        "assert ruledsurf.cli.main() == 0")
    assert printed == expected
    assert "ruledsurf.cli" in added
    assert not added & {"dataclasses", "inspect", "json", *unloaded}


def test_importing_verify_loads_no_dataclasses_or_inspect():
    # each grid imports the layers it calls when it starts
    printed, added = _modules_added_by("import ruledsurf.verify")
    assert printed == []
    assert "ruledsurf.verify" in added
    assert not added & {"ruledsurf.bundles", "ruledsurf.cohomology", "ruledsurf.geometry",
                        "ruledsurf.splitting", "fractions", "dataclasses", "inspect"}


def _subparsers(parser):
    return next((a.choices for a in parser._actions
                 if isinstance(a, argparse._SubParsersAction)), {})


# the words that name each op: a group and one of its ops, or verify alone
LEAVES = [(group,) if group in ops else (group, op)
          for group, (_, ops) in _GROUPS.items() for op in ops]


def _leaf(names):
    """The tree's parser for the op these words name."""
    parser = build_parser()
    for name in names:
        parser = _subparsers(parser)[name]
    return parser


def _outcome(parser, argv):
    """The namespace a parse gives, the error it raises, or its exit code and output."""
    printed = io.StringIO()
    try:
        with contextlib.redirect_stdout(printed):
            return "namespace", vars(parser.parse_args(argv))
    except ValueError as exc:
        return "error", str(exc)
    except SystemExit as exc:
        return "exit", exc.code, printed.getvalue()


def _valid_words(names):
    """A value for every required flag (and verify's suite) that argparse accepts."""
    words = []
    for action in _leaf(names)._actions:
        if not action.option_strings:
            words.append("rigid")
        elif action.required:
            words += [action.option_strings[0], "1" if action.type is int else "x"]
    return words


def test_a_request_that_names_an_op_runs_argparse_at_most_once(capsys, monkeypatch):
    # a plain request, verify's too, takes no argparse pass and builds nothing; any
    # other request takes one pass of the tree, which the first of them builds
    parses, builds = [], []
    parse_args, tree = argparse.ArgumentParser.parse_args, build_parser.__wrapped__

    def counted_parse(self, *args, **kwargs):
        parses.append(self.prog)
        return parse_args(self, *args, **kwargs)

    def counted_build():
        builds.append(1)
        return tree()

    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", counted_parse)
    monkeypatch.setattr(cli_mod, "build_parser", functools.cache(counted_build))
    line = ["coh", "line", "--e", "0", "--D", "1*h+1*f"]
    for argv, code, progs, built in ((line, 0, [], []),
                                     (["verify", "rigid"], 0, [], []),
                                     (["verify", "rigid", "--r=3"], 0, ["ruledsurf"], [1]),
                                     # the tree built for the request above
                                     (["verify", "rigid", "--bogus", "1"], 1, ["ruledsurf"], []),
                                     (line + ["--bogus"], 1, ["ruledsurf"], []),
                                     (line, 0, [], [])):
        builds.clear()
        for _ in range(2):
            parses.clear()
            assert run(argv) == code
            assert parses == progs
        assert builds == built
    capsys.readouterr()


def test_no_option_string_starts_with_a_dash_and_a_digit():
    # _Parser._parse_optional reads every such word as a value before argparse sees it,
    # so a flag like -1 could never be given: it would be taken for a literal.
    full = build_parser()
    parsers = [full, *_subparsers(full).values(), *map(_leaf, LEAVES)]
    strings = set().union(*(parser._option_string_actions for parser in parsers))
    assert {"-h", "--help", "--format", "--out", "--coeff-max", "--sub-c1"} <= strings
    assert [s for s in strings if cli_mod._LEADING_NEG.match(s)] == []


def _edited(words, edits, extra):
    """words after each edit: drop, duplicate, swap or add a word."""
    words = list(words)
    for kind, i, j, k in edits:
        if kind == "add" or not words:
            words.insert(i % (len(words) + 1), extra[k % len(extra)])
        elif kind == "drop":
            del words[i % len(words)]
        elif kind == "duplicate":
            words.insert(i % len(words), words[i % len(words)])
        else:
            i, j = i % len(words), j % len(words)
            words[i], words[j] = words[j], words[i]
    return words


EDITS = st.lists(st.tuples(st.sampled_from(["add", "drop", "duplicate", "swap"]),
                           st.integers(0, 99), st.integers(0, 99), st.integers(0, 99)),
                 max_size=4)
STRAY_WORDS = ["-h", "--he", "--help", "--", "-", "--bogus", "--format", "json", "xml",
               "--out", "--o", "--fo=json", "1", "-1", "x", "-2*h+3*f", "(1,0)", "coh", "line"]


# the words that name each op other than verify
PLAIN_LEAVES = [names for names in LEAVES if len(names) == 2]
EDGE_WORDS = ["7" * 5000, "", "-", "-1", "-2*h+3*f", "--fo", "--format=json"]
# verify's first word: a suite, all, or one the tree refuses
SUITE_WORDS = [*verify_mod.SUITES, "all", "bogus", "Rigid", "rigid,", "-1", ""]
BOUND_FLAGS = [flag for flag, _ in cli_mod._VERIFY_BOUNDS]


@settings(derandomize=True, max_examples=600, deadline=None)
@given(names=st.one_of(st.just(("verify",)), st.sampled_from(PLAIN_LEAVES)),
       slot=st.integers(0, 99), value=st.sampled_from([None, *EDGE_WORDS]),
       repeat=st.booleans(), edits=EDITS, suite=st.sampled_from(SUITE_WORDS),
       bounds=st.lists(st.tuples(st.sampled_from(BOUND_FLAGS),
                                 st.sampled_from(["0", "2", "-1", "+3", "007", "x"])),
                       max_size=3))
def test_a_plain_parse_matches_the_tree_parse(names, slot, value, repeat, edits, suite,
                                              bounds):
    flags = [a.option_strings[0] for a in _leaf(names)._actions if a.option_strings]
    extra = (STRAY_WORDS + EDGE_WORDS + SUITE_WORDS + flags + [f[:3] for f in flags]
             + [f + "=1" for f in flags])
    # verify's suite comes first, then its bound flags; every other op's required flags
    head, words = ([suite], [w for pair in bounds for w in pair]) if len(names) == 1 else (
        [], _valid_words(names))
    if value is not None and words:  # an edge word in place of one flag's value
        words[2 * (slot % (len(words) // 2)) + 1] = value
    if repeat and words:  # a flag given twice
        words += words[:2]
    words = _edited(head + words, edits, extra)
    plain = cli_mod._plain_parse(names[0], names[-1], words)
    if plain is not None:
        assert _outcome(build_parser(), [*names, *words]) == ("namespace", vars(plain))


def test_every_golden_report_of_a_library_op_takes_the_plain_parse():
    # and of verify, whose golden reports give a suite and then flag pairs
    ops = set()
    for entry in json.loads(FIXTURE.read_text(encoding="utf-8")):
        argv = entry["argv"]
        names = tuple(argv[:1] if argv[:1] == ["verify"] else argv[:2])
        if names in LEAVES and entry["code"] == 0 and not entry["stdout"].startswith("usage:"):
            words = [word.replace(OUT, "report.out") for word in argv[len(names):]]
            assert cli_mod._plain_parse(names[0], names[-1], words) is not None, argv
            ops.add(names)
    assert ops == set(LEAVES)


@pytest.mark.parametrize("argv", [["coh", "line", "--e", "0", "--D", "1*h+1*f"],
                                  ["split", "rigid", "--r", "x", "--d", "1"]])
@pytest.mark.parametrize("fmt", ["table", "json"])
@pytest.mark.parametrize("target, reason", [("missing/x.txt", "No such file or directory"),
                                            ("", "Is a directory"),
                                            ("nodir\nstatus: ok/x", "No such file or directory"),
                                            ("a\x00b", "embedded null byte")],
                         ids=["missing directory", "empty", "newline", "NUL byte"])
def test_an_unwritable_out_is_an_input_error(capsys, monkeypatch, tmp_path, argv, fmt,
                                             target, reason):
    monkeypatch.chdir(tmp_path)
    code, out = _run(capsys, argv + ["--format", fmt, "--out", target])
    assert code == 1
    error = f"cannot write --out {target!r}: {reason}"
    assert out == render_report(argv[0], {}, [{"error": error}], "input-error", fmt) + "\n"
    if fmt == "table":  # the path is quoted, so a newline in it cannot start a row
        assert out.splitlines() == ["status: input-error", "error", error]
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("status", ["ok", "input-error"])
def test_a_table_report_does_not_read_its_inputs(status):
    rows = [{"h0": 3, "h1": 0, "h2": 0}]
    table = render_report("coh", {}, rows, status, "table")
    # an input past Python's digit limit, and one that no literal renders
    for inputs in ({"op": "line", "D": DivisorClass(10 ** 5000, 1)}, {"x": object()}):
        assert render_report("coh", inputs, rows, status, "table") == table
    inputs = {"op": "line", "e": 2, "D": DivisorClass(1, -2)}
    report = json.loads(render_report("coh", inputs, rows, status, "json"))
    assert report["inputs"] == {"op": "line", "e": 2, "D": "1*h-2*f"}
    with pytest.raises(TypeError):
        render_report("coh", {"x": object()}, rows, status, "json")


def test_repeated_run_latency_budget(capsys):
    argv = ["split", "rigid", "--r", "5", "--d", "7"]
    start = time.perf_counter()
    for _ in range(200):
        assert run(argv) == 0
    elapsed = time.perf_counter() - start
    capsys.readouterr()
    assert elapsed < 1.0, f"200 in-process runs took {elapsed:.2f} s"


# Ops whose work once grew with a coefficient; each now runs in closed form
# or in O(n * r^2) line-bundle lookups.
LARGE_COEFFICIENT_OPS = {
    "mintwist": (["surface", "mintwist", "--q", "100000000", "--e", "0", "--H", "1*h+1*f"],
                 "99999999 1*h+100000000*f"),
    "line": (["coh", "line", "--e", "1", "--D", "10000000*h+0*f"], "1 49999995000000 0"),
    "growth": (["coh", "growth", "--e", "1", "--summands", "0*h+0*f,1*h+5*f,-1*h+3*f",
                "--t", "1", "--s", "2", "--n", "3000"], "121540518012"),
    "stab": (["coh", "stab", "--e", "1", "--summands", "0*h+0*f,0*h+5*f", "--t", "1",
              "--s", "2", "--y-max", "3000000"], "4"),
    "stab-certificate": (["coh", "stab", "--e", "1", "--summands", "0*h+0*f,0*h+100000000*f",
                          "--t", "1", "--s", "2", "--y-max", "300000000"], "99999999"),
    "semicont": (["split", "semicont", "--general", "(0,0)",
                  "--special", "(1000000,-1000000)"], "true"),
    "semicont-1e8": (["split", "semicont", "--general", "(0,0)",
                      "--special", "(100000000,-100000000)"], "true"),
    "conormal": (["coh", "conormal", "--e", "1", "--t", "1", "--s", "2",
                  "--n-max", "3000000"], "true"),
    "stab-far-certificate": (["coh", "stab", "--e", "0", "--summands",
                              "0*h+0*f,-1000000*h-1000000*f", "--t", "1", "--s", "1",
                              "--y-max", "1000000"], "1"),
    "stab-far-certificate-1e8": (["coh", "stab", "--e", "0", "--summands",
                                  "0*h+0*f,-100000000*h-100000000*f", "--t", "1", "--s", "1",
                                  "--y-max", "100000000"], "1"),
    "growth-far": (["coh", "growth", "--e", "1", "--summands", "0*h+0*f,1*h+5*f",
                    "--t", "1", "--s", "2", "--n", "300000"], "54000180002700003"),
    "growth-long-stretch": (["coh", "growth", "--e", "1", "--summands",
                             "0*h+0*f,0*h-100000000*f", "--t", "1", "--s", "2",
                             "--n", "200000000"], "16083333414583333325000000"),
    "verify-growth": (["verify", "growth", "--n-max", "400"], "growth 21 true"),
    # one row of 12 MB: three million zero obstructions, then the lifts cell
    "lift": (["split", "lift", "--type", "(1,0)", "--t", "1", "--n-max", "3000000"],
             "[" + ",".join(["0"] * 3000000) + "] true"),
}


LARGE_COEFFICIENT_BUDGET_S = 2.0


@pytest.mark.parametrize("op", sorted(LARGE_COEFFICIENT_OPS))
def test_large_coefficient_latency_budget(capsys, op):
    argv, values = LARGE_COEFFICIENT_OPS[op]
    start = time.perf_counter()
    code, out = _run(capsys, argv)
    elapsed = time.perf_counter() - start
    assert code == 0
    assert out.splitlines()[1].split() == values.split()
    assert elapsed < LARGE_COEFFICIENT_BUDGET_S, f"{' '.join(argv[:2])} took {elapsed:.2f} s"


def _unprintable_error():
    return (f"result has an integer of more than {sys.get_int_max_str_digits()} digits, "
            "which Python will not print")


def test_a_growth_sum_too_long_to_print_is_refused_within_the_budget(capsys, tmp_path):
    # Consecutive 700-digit Fibonacci numbers for e and s give the floor sums a Euclid
    # descent of thousands of steps on 4 000-digit numbers: summing took seconds.
    e, s = 1, 2
    while len(str(e)) < 700:
        e, s = s, e + s
    x = 10 ** 4289
    argv = ["coh", "growth", "--e", str(e), "--summands", f"0*h+0*f,0*h+{x}*f",
            "--t", "1", "--s", str(s), "--n", str(10 * x)]
    start = time.perf_counter()
    code, out = _run(capsys, argv)
    elapsed = time.perf_counter() - start
    assert (code, out) == (1, f"status: input-error\nerror\n{_unprintable_error()}\n")
    assert elapsed < LARGE_COEFFICIENT_BUDGET_S, f"coh growth took {elapsed:.2f} s"
    target = tmp_path / "report.json"
    code, out = _run(capsys, argv + ["--format", "json", "--out", str(target)])
    assert code == 1
    assert out == render_report(
        "coh", {}, [{"error": _unprintable_error()}], "input-error", "json") + "\n"
    assert target.read_text(encoding="utf-8") == out


@pytest.mark.parametrize("n, sections", [(1, 1), (2, 4 * 10 ** 639 + 3), (3, None)],
                         ids=["n=1", "n=2", "n=3"])
def test_growth_is_refused_exactly_when_its_sum_would_not_print(capsys, n, sections):
    # e = 0, one summand, s = 2*10^639: layer m is h0(O(m*h + m*s*f)) = (m + 1)(m*s + 1),
    # so the layers are 1, 4*10^639 + 2 and 12*10^639 + 3: the sum passes 10^640, and the
    # last layer with it, only at n = 3.
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        code, out = _run(capsys, ["coh", "growth", "--e", "0", "--summands", "0*h+0*f",
                                  "--t", "1", "--s", str(2 * 10 ** 639), "--n", str(n)])
        expected = (0, f"sections\n{sections}\n") if sections else (
            1, f"status: input-error\nerror\n{_unprintable_error()}\n")
    finally:
        sys.set_int_max_str_digits(limit)
    assert (code, out) == expected


BIG = 10 ** 30  # past sys.maxsize, the longest sequence Python can build
# 2**62 is below sys.maxsize, so each op starts building, and CPython refuses the
# list or tuple with a MemoryError before it allocates anything
UNALLOCATABLE = str(2 ** 62)
UNALLOCATABLE_ERROR = "the result is too long to build"


def _past_maxsize(what):
    return f"{what} must be at most {sys.maxsize}, the longest sequence Python can build, got {BIG}"


# ops whose output is a sequence of one flag's length, and the error that refuses it
TOO_LONG = {
    "rigid": (["split", "rigid", "--r", str(BIG), "--d", "3"], _past_maxsize("rank")),
    "jumptype": (["split", "jumptype", "--r", str(BIG), "--a", "0"], _past_maxsize("rank")),
    "enumerate": (["split", "enumerate", "--r", str(BIG), "--d", "0", "--max-spread", "0"],
                  _past_maxsize("rank")),
    "lift": (["split", "lift", "--type", "(1,0)", "--t", "1", "--n-max", str(BIG)],
             _past_maxsize("n_max")),
    "rigid-unallocatable": (["split", "rigid", "--r", UNALLOCATABLE, "--d", "0"],
                            UNALLOCATABLE_ERROR),
    "jumptype-unallocatable": (["split", "jumptype", "--r", UNALLOCATABLE, "--a", "0"],
                               UNALLOCATABLE_ERROR),
    "enumerate-unallocatable": (["split", "enumerate", "--r", UNALLOCATABLE, "--d", "0",
                                 "--max-spread", "0"], UNALLOCATABLE_ERROR),
    "lift-unallocatable": (["split", "lift", "--type", "(1,0)", "--t", "1",
                            "--n-max", UNALLOCATABLE], UNALLOCATABLE_ERROR),
}


@pytest.mark.parametrize("op", sorted(TOO_LONG))
def test_a_sequence_longer_than_python_builds_is_an_input_error(capsys, tmp_path, op):
    argv, error = TOO_LONG[op]
    code, out = _run(capsys, argv)
    assert (code, out) == (1, f"status: input-error\nerror\n{error}\n")
    target = tmp_path / "report.json"
    code, out = _run(capsys, argv + ["--format", "json", "--out", str(target)])
    assert code == 1
    assert out == render_report("split", {}, [{"error": error}], "input-error", "json") + "\n"
    assert target.read_text(encoding="utf-8") == out


# Int flags whose large magnitudes are not bounded yet (ROADMAP item 2), as the words
# that name an op, optionally followed by one flag: verify's bounds drive its grid loops,
# and enumerate's spread sets how many types it builds.
UNBOUNDED_INTS = (("verify",), ("split", "enumerate", "--max-spread"))


def _with_flag(args, flag, value):
    """args with flag set to value: replaced where args give it, else appended."""
    swept = list(args)
    if flag in swept:
        swept[swept.index(flag) + 1] = value
    else:
        swept += [flag, value]
    return swept


def _int_sweep(values, excluded=()):
    """Each op's well-formed call with one int flag set to each of values.

    excluded names ops, or an op and one of its flags, as in UNBOUNDED_INTS.
    """
    cases = []
    for names in LEAVES:
        if names in excluded:
            continue
        group, op = names[0], names[-1]
        args = CALLS[names]
        flags = _GROUPS[group][1][op][1]
        for flag, kwargs in flags() if callable(flags) else flags:
            if kwargs.get("type") is not int or (*names, flag) in excluded:
                continue
            for value in values:
                cases.append([*names, *_with_flag(args, flag, str(value))])
    return cases


@contextlib.contextmanager
def _alarm(seconds):
    def expire(signum, frame):
        raise TimeoutError(f"no answer within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def _keeps_the_exit_contract(capsys, argv):
    with _alarm(2):
        code = run(argv)
    capsys.readouterr()
    assert code in (0, 1, 2)


@pytest.mark.parametrize("argv", _int_sweep((BIG, -BIG), UNBOUNDED_INTS), ids=" ".join)
def test_every_int_flag_at_huge_magnitude_keeps_the_exit_contract(capsys, argv):
    _keeps_the_exit_contract(capsys, argv)


@pytest.mark.parametrize("argv", _int_sweep((0, 1, -1, 2, -2)), ids=" ".join)
def test_every_int_flag_at_a_boundary_value_keeps_the_exit_contract(capsys, argv):
    _keeps_the_exit_contract(capsys, argv)


# Literals that no literal flag accepts: empty, a stray word or space, missing or
# foreign pieces, a dangling comma, floats, a zero denominator, a rising type and a
# digit from another script (ARABIC-INDIC THREE).
BAD_LITERALS = (
    "", "x", "h+0*f", "1h+0*f", "1*h+f", "1*h+2*g", "1*h+0*f+", "1*h+0*f,", "1.5*h+0*f",
    " 1*h+0*f", "(1,2", "(1,,2)", "(1,x)", "(2,3)", "(1/0,0,0,0)", "(1,0.5,0,0)",
    "1*h+\u0663*f",
)
# Literal flags left out of the sweep, as the words that name an op and the flag.
UNSWEPT_LITERALS = ()


def _literal_sweep():
    """Each op's well-formed call with one literal flag malformed, or at 5000 digits.

    The 5000-digit literal is the flag's well-formed value (from CALLS, or its
    default) with its first number widened, which Python refuses to read.
    """
    cases = []
    for names in LEAVES:
        group, op = names[0], names[-1]
        flags = _GROUPS[group][1][op][1]
        if callable(flags):  # verify's flags are a suite name and int bounds
            continue
        args = CALLS[names]
        for flag, kwargs in flags:
            if "type" in kwargs or (*names, flag) in UNSWEPT_LITERALS:
                continue
            well_formed = args[args.index(flag) + 1] if flag in args else kwargs["default"]
            huge = re.sub(r"\d+", "9" * 5000, well_formed, count=1)
            for value in (*BAD_LITERALS, huge):
                cases.append([*names, *_with_flag(args, flag, value)])
    return cases


def _sweep_id(argv):
    return " ".join(a if len(a) < 40 else f"<{len(a)} chars>" for a in argv)


@pytest.mark.parametrize("argv", _literal_sweep(), ids=_sweep_id)
def test_every_literal_flag_malformed_or_huge_is_an_input_error(capsys, argv):
    with _alarm(2):
        code = run(argv)
    out = capsys.readouterr().out
    assert code == 1
    assert out.startswith("status: input-error\n")


def test_a_reader_that_closes_early_gets_no_traceback():
    # about 1.2 MB of output, far more than a pipe buffers
    argv = ["split", "lift", "--type", "(1,0)", "--t", "1", "--n-max", "200000"]
    with subprocess.Popen([sys.executable, "-m", "ruledsurf.cli", *argv], env=_child_env(),
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        assert proc.stdout.read(10) == b"obstructio"
        proc.stdout.close()
        stderr = proc.stderr.read().decode()
        code = proc.wait(timeout=60)
    assert code == 1
    assert "Traceback" not in stderr, stderr


def test_out_is_written_whole_when_the_reader_closes_early(capsys, tmp_path):
    argv = ["split", "lift", "--type", "(1,0)", "--t", "1", "--n-max", "200000"]
    target = tmp_path / "report.out"
    with subprocess.Popen([sys.executable, "-m", "ruledsurf.cli", *argv, "--out", str(target)],
                          env=_child_env(), stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL) as proc:
        assert proc.stdout.read(10) == b"obstructio"
        proc.stdout.close()
        assert proc.wait(timeout=60) == 1
    assert run(argv) == 0
    assert target.read_text(encoding="utf-8") == capsys.readouterr().out


def test_verify_refuses_a_bound_the_suite_does_not_take(capsys, tmp_path):
    code, out = _run(capsys, ["verify", "rigid", "--e-max", "1"])
    assert (code, out) == (1, "status: input-error\nerror\n"
                              "suite rigid takes no --e-max; its bounds are --r, --d-max\n")
    target = tmp_path / "report.json"
    code, out = _run(capsys, ["verify", "serre", "--r", "3", "--spread", "2",
                              "--format", "json", "--out", str(target)])
    assert code == 1
    assert json.loads(out) == {
        "subcommand": "verify",
        "inputs": {},
        "results": [{"error": "suite serre takes no --r, --spread; "
                              "its bounds are --e-max, --coeff-max"}],
        "status": "input-error",
    }
    assert target.read_text(encoding="utf-8") == out


@pytest.mark.parametrize("suite", sorted(verify_mod.SUITES))
def test_verify_refusal_follows_the_suite_signature(capsys, suite):
    accepted = verify_mod.SUITES[suite][1]
    for flag, dest in _VERIFY_BOUNDS:
        if dest not in accepted:
            code, out = _run(capsys, ["verify", suite, flag, "1"])
            assert code == 1, flag
            assert f"suite {suite} takes no {flag};" in out
    # a bound the suite takes is applied, not refused
    flag = next(flag for flag, dest in _VERIFY_BOUNDS if dest in accepted)
    code, out = _run(capsys, ["verify", suite, flag, "2", "--format", "json"])
    assert code == 0
    assert json.loads(out)["inputs"][dict(_VERIFY_BOUNDS)[flag]] == 2


@pytest.mark.parametrize("argv", [["verify", "theoremC", "--r", "1"],
                                  ["verify", "serre", "--e-max", "-1"]])
def test_verify_empty_grid_is_a_violation(capsys, argv):
    code, out = _run(capsys, argv)
    assert code == 2
    assert out.splitlines()[0] == "status: property-violation"
    assert '{"error":"empty grid: the bounds leave no points"}' in out


@pytest.mark.parametrize("n_max", ["0", "-5"])
def test_conormal_refuses_an_empty_range_of_powers(capsys, n_max):
    code, out = _run(capsys, ["coh", "conormal", "--e", "1", "--t", "1", "--s", "2",
                              "--n-max", n_max])
    assert code == 1
    assert out == f"status: input-error\nerror\nn_max must be at least 1, got {n_max}\n"


@pytest.mark.parametrize("suite, n_max, least", [
    ("conormal", "0", 1), ("growth", "1", 2), ("growth", "0", 2),
])
def test_verify_refuses_a_grid_that_checks_nothing(capsys, suite, n_max, least):
    code, out = _run(capsys, ["verify", suite, "--n-max", n_max, "--format", "json"])
    assert code == 2
    assert json.loads(out)["results"] == [{
        "suite": suite, "points": 0, "ok": False, "counterexample": {
            "exception": "ValueError", "message": f"n_max must be at least {least}, got {n_max}"}}]


def test_verify_all_reports_a_raising_suite_in_its_row(capsys):
    code, out = _run(capsys, ["verify", "all", "--y-max", "3", "--format", "json"])
    assert code == 2
    rows = json.loads(out)["results"]
    assert [(row["suite"], row["ok"]) for row in rows] == [
        (suite, suite != "growth") for suite in verify_mod.SUITES]
    assert rows[-1] == {"suite": "growth", "points": 21, "ok": False, "counterexample": {
        "exception": "StabilizationError",
        "message": "no stabilization within y_max=3: the certified tail was not reached"}}


def test_verify_all_prints_the_default_table(capsys):
    assert _run(capsys, ["verify", "all"]) == (0, textwrap.dedent("""\
        suite      points  ok
        serre      1445    true
        euler      1445    true
        conormal   48      true
        theoremC   9680    true
        dominance  1013    true
        rigid      356     true
        lifting    235     true
        extension  24200   true
        growth     21      true
        """))


def test_verify_table_leaves_the_counterexample_cell_of_an_ok_row_blank(capsys):
    code, out = _run(capsys, ["verify", "all", "--e-max", "0", "--r", "2", "--y-max", "3"])
    error = ('{"exception":"StabilizationError","message":'
             '"no stabilization within y_max=3: the certified tail was not reached"}')
    assert code == 2
    assert out == textwrap.dedent(f"""\
        status: property-violation
        suite      points  ok     counterexample
        serre      289     true
        euler      289     true
        conormal   12      true
        theoremC   605     true
        dominance  70      true
        rigid      85      true
        lifting    79      true
        extension  605     true
        growth     21      false  {error}
        """)


def _twist_at_one_point(monkeypatch, wrong):
    """Make bundles.twist answer wrong(twisted) for one theoremC bundle, truly elsewhere.

    The grid imports twist from bundles when it starts, so it calls the
    patched one; the chi oracle and grr_verify write their own twists.
    """
    real = bundles_mod.twist

    def patched(bundle, line):
        twisted = real(bundle, line)
        if (bundle.g.e, bundle.r, bundle.c1.b, bundle.c2) == (1, 3, 2, -1):
            return wrong(twisted)
        return twisted

    monkeypatch.setattr(bundles_mod, "twist", patched)


def test_verify_lying_twist_gives_a_counterexample_row(capsys, monkeypatch):
    # c2 one too many moves z_twist alone: the closed form, the chi oracle and
    # the GRR degree share no twist with it
    _twist_at_one_point(monkeypatch,
                        lambda t: bundles_mod.BundleNumerics(t.g, t.r, t.c1, t.c2 + 1))
    code, out = _run(capsys, ["verify", "theoremC", "--format", "json"])
    assert code == 2
    assert json.loads(out)["results"] == [{
        "suite": "theoremC", "points": 3107, "ok": False, "counterexample": {
            "e": 1, "r": 3, "a": -2, "c1": "-6*h+2*f", "c2": -1, "z": 19, "z_twist": 20,
            "z_chi": 19, "m": -17, "grr_degree": -17}}]


def test_verify_rigid_renders_a_list_of_types(capsys, monkeypatch):
    # the grid yields the SplittingType values; the CLI renders them as literals
    real = splitting_mod.h1_end
    flat = SplittingType((2, 0, -1))
    monkeypatch.setattr(splitting_mod, "h1_end", lambda t: 0 if t == flat else real(t))
    code, out = _run(capsys, ["verify", "rigid", "--format", "json"])
    assert code == 2
    assert json.loads(out)["results"] == [{
        "suite": "rigid", "points": 91, "ok": False, "counterexample": {
            "r": 3, "d": 1, "h1_end_zero": ["(1,0,0)", "(2,0,-1)"]}}]


def test_verify_raising_twist_gives_an_exception_row(capsys, monkeypatch):
    def raising(twisted):
        raise ArithmeticError("twist refused at one point")

    _twist_at_one_point(monkeypatch, raising)
    code = run(["verify", "theoremC", "--format", "json"])
    out, err = capsys.readouterr()
    assert (code, err) == (2, "")
    assert json.loads(out)["results"] == [{
        "suite": "theoremC", "points": 3106, "ok": False, "counterexample": {
            "exception": "ArithmeticError", "message": "twist refused at one point"}}]


def test_verify_all_applies_each_bound_where_it_is_taken(capsys):
    code, out = _run(capsys, ["verify", "all", "--e-max", "0", "--r", "2", "--format", "json"])
    assert code == 0
    points = {row["suite"]: row["points"] for row in json.loads(out)["results"]}
    assert points == {"serre": 289, "euler": 289, "conormal": 12, "theoremC": 605,
                      "dominance": 70, "rigid": 85, "lifting": 79, "extension": 605,
                      "growth": 21}
