"""The cli_mix workload: a seeded sequence of in-process `cli.run(argv)` calls.

One round is 140 requests in a seeded order:

* 111 well-formed requests, three of each of the 37 library ops, with
  small literals: one rendered as a table, one as JSON and one written
  with --out as well (table or JSON, seeded);
* 8 `verify` requests, one per light suite and growth once more (the
  two heavy grids, theoremC and extension, are left to verify_grids);
* 12 malformed literals, whose correct outcome is exit 1 with the
  position of the first character the grammar rejects;
* 6 huge-literal requests with fixed ~3000-digit inputs, whose results
  exceed Python's 4300-digit int-to-text limit (the known fault);
* 3 repeats of earlier argv, which must print byte-identical stdout.

Every expected value comes from `reference`, which does not import
ruledsurf.  The same request builders and checker also serve the cold
`python -m ruledsurf.cli` start-ups of every workload.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import time
from dataclasses import dataclass
from fractions import Fraction
from random import Random

from . import reference as ref

LIGHT_SUITES = ("serre", "euler", "conormal", "dominance", "rigid", "lifting", "growth")
FAULT_LIMIT_DIGITS = 4300
HUGE = 10 ** 2999 + 2999  # 3000 digits: parses fine, but products of two do not print


class CheckError(Exception):
    """An output that contradicts the reference or a property the method must have."""


@dataclass(frozen=True)
class Request:
    argv: tuple
    kind: str  # ok | malformed | fault | repeat
    op: str
    params: tuple
    out: bool = False
    source: int = -1  # for a repeat: index of the request it repeats


# --- literal helpers -----------------------------------------------------------


def _div(d):
    return ref.divisor_text(d)


def _small(rng, m=6):
    return rng.randint(-m, m)


def _sdiv(rng, m=6):
    return (_small(rng, m), _small(rng, m))


def _geometry(rng):
    q = rng.randint(0, 2)
    return q, rng.randint(-q, 3)


def _ample(rng, e, a_max=3):
    a = rng.randint(1, a_max)
    b = a * e + 1 if e >= 0 else (a * e) // 2 + 1
    return (a, b + rng.randint(0, 4))


def _rational(rng):
    return Fraction(_small(rng), rng.randint(1, 3))


def _cycle(rng):
    return tuple(_rational(rng) for _ in range(4))


def _parts(rng, r, spread=4, base=2):
    return tuple(sorted((rng.randint(base - spread, base) for _ in range(r)), reverse=True))


def _summands(rng, r_max=3, m=3):
    return tuple(_sdiv(rng, m) for _ in range(rng.randint(1, r_max)))


def _summands_text(summands):
    return ",".join(_div(d) for d in summands)


def _bundle_args(q, e, r, c1, c2):
    return ["--q", str(q), "--e", str(e), "--r", str(r), "--c1", _div(c1), "--c2", ref.int_text(c2)]


# --- the 37 library ops: params generator, argv, expected rows --------------------
# Expected rows hold values as the CLI's JSON carries them: ints, bools,
# literal strings, lists.  A chain is checked by its properties instead.


def _gen_surface(rng):
    q, e = _geometry(rng)
    return q, e, _sdiv(rng), _sdiv(rng)


OPS = {}


def _op(name, gen, argv, expected):
    OPS[name] = (gen, argv, expected)


_op("surface intersect", _gen_surface,
    lambda p: ["--q", str(p[0]), "--e", str(p[1]), "--d1", _div(p[2]), "--d2", _div(p[3])],
    lambda p: [{"product": ref.intersect(p[1], p[2], p[3])}])
_op("surface canonical", _geometry,
    lambda p: ["--q", str(p[0]), "--e", str(p[1])],
    lambda p: [{"K": _div(ref.canonical(p[0], p[1]))}])
_op("surface ample", _gen_surface,
    lambda p: ["--q", str(p[0]), "--e", str(p[1]), "--D", _div(p[2])],
    lambda p: [{"ample": ref.is_ample(p[1], p[2])}])
_op("surface good", lambda rng: (*_geometry(rng), _sdiv(rng)),
    lambda p: ["--q", str(p[0]), "--e", str(p[1]), "--R", _div(p[2])],
    lambda p: [{"good": ref.is_good(p[0], p[1], p[2])}])


def _gen_mintwist(rng):
    q, e = _geometry(rng)
    return q, e, _ample(rng, e)


def _exp_mintwist(p):
    q, e, (a, b) = p
    t = ref.min_good_twist(q, e, (a, b))
    return [{"t": t, "polarization": _div((a, b + t))}]


_op("surface mintwist", _gen_mintwist,
    lambda p: ["--q", str(p[0]), "--e", str(p[1]), "--H", _div(p[2])], _exp_mintwist)
_op("surface cyclemul", lambda rng: (*_geometry(rng), _cycle(rng), _cycle(rng)),
    lambda p: ["--q", str(p[0]), "--e", str(p[1]), "--x", ref.cycle_text(p[2]),
               "--y", ref.cycle_text(p[3])],
    lambda p: [{"cycle": ref.cycle_text(ref.cycle_mul(p[1], p[2], p[3]))}])
_op("surface chern", lambda rng: (*_geometry(rng), rng.randint(0, 4), _sdiv(rng), _small(rng)),
    lambda p: ["--q", str(p[0]), "--e", str(p[1]), "--r", str(p[2]), "--c1", _div(p[3]),
               "--c2", ref.int_text(p[4])],
    lambda p: [{"cycle": ref.cycle_text(ref.chern_character(p[1], p[2], p[3], p[4]))}])
_op("surface todd", _geometry,
    lambda p: ["--q", str(p[0]), "--e", str(p[1])],
    lambda p: [{"cycle": ref.cycle_text(ref.todd_surface(p[0], p[1]))}])
_op("surface toddcurve", lambda rng: (rng.randint(0, 5),),
    lambda p: ["--q", str(p[0])],
    lambda p: [{"curve_cycle": ref.cycle_text((1, 1 - p[0]))}])
_op("surface push", lambda rng: (*_geometry(rng), _cycle(rng)),
    lambda p: ["--q", str(p[0]), "--e", str(p[1]), "--x", ref.cycle_text(p[2])],
    lambda p: [{"curve_cycle": ref.cycle_text((p[2][1], p[2][3]))}])


def _gen_genus0(rng):
    return rng.randint(0, 3), _sdiv(rng)


def _exp_line(p):
    h0, h1, h2 = ref.h_line(p[0], p[1])
    return [{"h0": h0, "h1": h1, "h2": h2}]


_op("coh line", _gen_genus0, lambda p: ["--e", str(p[0]), "--D", _div(p[1])], _exp_line)
_op("coh euler", lambda rng: (*_geometry(rng), _sdiv(rng)),
    lambda p: ["--q", str(p[0]), "--e", str(p[1]), "--D", _div(p[2])],
    lambda p: [{"chi": ref.chi_line(p[0], p[1], p[2])}])
_op("coh serre", lambda rng: (*_geometry(rng), _sdiv(rng)),
    lambda p: ["--q", str(p[0]), "--e", str(p[1]), "--D", _div(p[2])],
    lambda p: [{"dual": _div(ref.serre_dual(p[0], p[1], p[2]))}])


def _gen_conormal(rng):
    e, t = rng.randint(0, 3), rng.randint(1, 3)
    return e, t, e * t + rng.randint(1, 4), rng.randint(1, 8)


_op("coh conormal", _gen_conormal,
    lambda p: ["--e", str(p[0]), "--t", str(p[1]), "--s", str(p[2]), "--n-max", str(p[3])],
    lambda p: [{"vanishes": ref.conormal_vanishing(*p)}])


def _exp_splitend(p):
    h0, h1, h2 = ref.h_split_end(p[0], p[1], p[2])
    return [{"h0": h0, "h1": h1, "h2": h2}]


_op("coh splitend", lambda rng: (rng.randint(0, 3), _summands(rng), _sdiv(rng, 3)),
    lambda p: ["--e", str(p[0]), "--summands", _summands_text(p[1]), "--twist", _div(p[2])],
    _exp_splitend)
_op("coh moduli", lambda rng: (rng.randint(0, 3), _summands(rng)),
    lambda p: ["--e", str(p[0]), "--summands", _summands_text(p[1])],
    lambda p: [{"dimension": ref.h_split_end(p[0], p[1])[1]}])


def _gen_stab(rng):
    e, t = rng.randint(0, 3), rng.randint(1, 2)
    s = e * t + rng.randint(1, 3)
    summands = _summands(rng, m=2)
    cert = ref.stabilization_certificate(e, summands, t, s)
    return e, summands, t, s, cert + rng.randint(0, 3)


_op("coh stab", _gen_stab,
    lambda p: ["--e", str(p[0]), "--summands", _summands_text(p[1]), "--t", str(p[2]),
               "--s", str(p[3]), "--y-max", str(p[4])],
    lambda p: [{"index": ref.stabilization_index(p[0], p[1], p[2], p[3])}])


def _gen_growth(rng):
    e, t = rng.randint(0, 3), rng.randint(1, 2)
    return e, _summands(rng), t, e * t + rng.randint(1, 3), rng.randint(1, 6)


_op("coh growth", _gen_growth,
    lambda p: ["--e", str(p[0]), "--summands", _summands_text(p[1]), "--t", str(p[2]),
               "--s", str(p[3]), "--n", str(p[4])],
    lambda p: [{"sections": ref.endomorphism_growth(*p)}])

_op("split rigid", lambda rng: (rng.randint(1, 6), _small(rng, 8)),
    lambda p: ["--r", str(p[0]), "--d", str(p[1])],
    lambda p: [{"type": ref.type_text(ref.rigid_type(*p))}])
_op("split h1end", lambda rng: (_parts(rng, rng.randint(1, 5)),),
    lambda p: ["--type", ref.type_text(p[0])],
    lambda p: [{"h1": ref.h1_end(p[0])}])
_op("split isrigid", lambda rng: (_parts(rng, rng.randint(1, 5), spread=2),),
    lambda p: ["--type", ref.type_text(p[0])],
    lambda p: [{"rigid": p[0][0] - p[0][-1] <= 1}])


def _gen_pair(rng):
    r, d, spread = rng.randint(1, 4), _small(rng, 4), rng.randint(0, 3)
    types = ref.all_types(r, d, spread) or [ref.rigid_type(r, d)]
    return rng.choice(types), rng.choice(types)


def _pair_argv(p):
    return ["--general", ref.type_text(p[0]), "--special", ref.type_text(p[1])]


_op("split specializes", _gen_pair, _pair_argv,
    lambda p: [{"specializes": ref.specializes(*p)}])
_op("split semicont", _gen_pair, _pair_argv,
    lambda p: [{"specializes": ref.specializes(*p)}])
_op("split jumptype", lambda rng: (rng.randint(2, 6), _small(rng, 4)),
    lambda p: ["--r", str(p[0]), "--a", str(p[1])],
    lambda p: [{"type": ref.type_text(ref.jumping_type(*p))}])


def _exp_lift(p):
    obs = ref.lift_obstructions(*p)
    return [{"obstructions": obs, "lifts": not any(obs)}]


_op("split lift", lambda rng: (_parts(rng, rng.randint(1, 4)), rng.randint(1, 3), rng.randint(1, 6)),
    lambda p: ["--type", ref.type_text(p[0]), "--t", str(p[1]), "--n-max", str(p[2])],
    _exp_lift)
_op("split enumerate", lambda rng: (rng.randint(1, 4), _small(rng, 5), rng.randint(0, 3)),
    lambda p: ["--r", str(p[0]), "--d", str(p[1]), "--max-spread", str(p[2])],
    lambda p: [{"type": ref.type_text(t)} for t in ref.all_types(*p)])
_op("split chain", lambda rng: (_parts(rng, rng.randint(1, 5), spread=5),),
    lambda p: ["--type", ref.type_text(p[0])],
    lambda p: ("chain", p[0]))


def _gen_bundle(rng):
    q, e = _geometry(rng)
    return q, e, rng.randint(1, 4), _sdiv(rng), _small(rng)


def _gen_balanced(rng):
    e, r, a = rng.randint(0, 3), rng.randint(2, 4), _small(rng, 2)
    return 0, e, r, (r * a, _small(rng)), _small(rng), a


_op("bundle fiberdeg", _gen_bundle, lambda p: _bundle_args(*p),
    lambda p: [{"fiber_degree": p[3][0]}])


def _exp_twist(p):
    c1, c2 = ref.twist(p[1], p[2], p[3], p[4], p[5])
    return [{"bundle": ref.bundle_text(p[0], p[1], p[2], c1, c2)}]


_op("bundle twist", lambda rng: (*_gen_bundle(rng), _sdiv(rng, 3)),
    lambda p: _bundle_args(*p[:5]) + ["--L", _div(p[5])], _exp_twist)


def _exp_jump(p):
    z, m = ref.jumping_count(p[1], p[2], p[3], p[4], p[5])
    return [{"z": z, "m": m}]


_op("bundle jump", _gen_balanced, lambda p: _bundle_args(*p[:5]) + ["--a", ref.int_text(p[5])],
    _exp_jump)
_op("bundle chi", _gen_balanced, lambda p: _bundle_args(*p[:5]) + ["--a", str(p[5])],
    lambda p: [{"z": ref.jumping_count(p[1], p[2], p[3], p[4], p[5])[0]}])
_op("bundle euler", _gen_bundle, lambda p: _bundle_args(*p),
    lambda p: [{"chi": ref.chi_bundle(*p)}])


def _exp_grr(p):
    m = ref.jumping_count(p[1], p[2], p[3], p[4], p[5])[1]
    return [{"rank_ok": True, "degree_ok": True, "lhs_degree": m, "rhs_degree": m}]


_op("bundle grr", _gen_balanced, lambda p: _bundle_args(*p[:5]) + ["--a", str(p[5])], _exp_grr)


def _gen_ext(rng):
    r = rng.randint(2, 5)
    return (rng.randint(0, 3), r, rng.randint(1, r - 1), _small(rng, 2), _small(rng, 5),
            _small(rng, 5))


def _exp_extchern(p):
    e, r = p[0], p[1]
    c1, c2 = ref.extension_chern(*p)
    return [{"bundle": ref.bundle_text(0, e, r, c1, c2)}]


_op("bundle extchern", _gen_ext,
    lambda p: ["--e", str(p[0]), "--r", str(p[1]), "--x", str(p[2]), "--a", str(p[3]),
               "--deg-sub", str(p[4]), "--deg-quot", str(p[5])],
    _exp_extchern)


def _argv_extdata(p):
    c1, c2 = ref.extension_chern(*p)
    return _bundle_args(0, p[0], p[1], c1, c2) + ["--a", str(p[3]), "--x", str(p[2])]


_op("bundle extdata", _gen_ext, _argv_extdata,
    lambda p: [{"deg_sub": p[4], "deg_quot": p[5]}])
_op("bundle slope", lambda rng: (*_gen_bundle(rng), _sdiv(rng)),
    lambda p: _bundle_args(*p[:5]) + ["--R", _div(p[5])],
    lambda p: [{"slope": ref.json_rational(ref.slope(p[1], p[2], p[3], p[5]))}])


def _gen_destab(rng):
    q, e = _geometry(rng)
    r = rng.randint(2, 5)
    return q, e, r, _sdiv(rng), _small(rng), rng.randint(1, r - 1), _sdiv(rng), _small(rng), _sdiv(rng)


def _exp_destab(p):
    q, e, r, c1, _, sub_r, sub_c1, _, pol = p
    return [{"destabilizes": ref.slope(e, sub_r, sub_c1, pol) >= ref.slope(e, r, c1, pol)}]


_op("bundle destab", _gen_destab,
    lambda p: _bundle_args(*p[:5]) + ["--sub-r", str(p[5]), "--sub-c1", _div(p[6]),
                                      "--sub-c2", str(p[7]), "--R", _div(p[8])],
    _exp_destab)


def _exp_verify(p):
    return [{"suite": p[0], "points": ref.grid_points()[p[0]], "ok": True}]


_op("verify", lambda rng: (rng.choice(LIGHT_SUITES),), lambda p: [p[0]], _exp_verify)

LIBRARY_OPS = tuple(name for name in OPS if name != "verify")

# --- malformed literals -----------------------------------------------------------
# Each names the op, its params and the expected position of the first
# character the literal grammar rejects.


def _malformed(rng, kind):
    a, b = _small(rng), _small(rng)
    good = _div((a, b))
    e = rng.randint(0, 3)
    if kind == "type_order":
        parts = list(_parts(rng, rng.randint(2, 4)))
        k = rng.randint(1, len(parts) - 1)
        parts[k] = parts[k - 1] + rng.randint(1, 3)
        text = "(" + ",".join(str(v) for v in parts) + ")"
        pos = 1 + sum(len(str(v)) + 1 for v in parts[:k])
        return "split h1end", ["--type", text], pos
    if kind == "summand":
        first = _div(_sdiv(rng, 3))
        text = first + "," + f"{a}*x{b:+d}*f"
        return "coh moduli", ["--e", str(e), "--summands", text], len(first) + 1 + len(str(a))
    if kind == "bad_h":
        text, pos = f"{a}*x{b:+d}*f", len(str(a))
    elif kind == "bad_f":
        text, pos = f"{a}*h{b:+d}*g", len(f"{a}*h{b:+d}")
    else:  # trailing
        text, pos = good + "x", len(good)
    op = rng.choice(("coh line", "coh euler", "coh serre", "surface ample"))
    return op, ["--e", str(e), "--D", text], pos


MALFORMED_KINDS = ("bad_h", "bad_f", "trailing", "type_order", "summand", "bad_h")

# --- the known fault: results past the 4300-digit int-to-text limit -----------------
# Fixed inputs, independent of the seed; the costs of these ops do not grow
# with magnitude, so only rendering is at stake.

FAULT_REQUESTS = (
    ("surface intersect", (0, 1, (HUGE, HUGE), (HUGE, -HUGE - 1))),
    ("surface cyclemul", (0, 2, (HUGE, 1, HUGE, 0), (1, HUGE, 1, HUGE))),
    ("surface chern", (0, 1, 2, (HUGE, HUGE), 1)),
    ("bundle twist", (0, 1, 2, (HUGE, 1), 0, (HUGE, HUGE))),
    ("bundle jump", (0, 1, 2, (2 * HUGE, 1), 0, HUGE)),
    ("bundle euler", (0, 1, 2, (HUGE, HUGE), 0)),
)


def _max_digits(value):
    if isinstance(value, bool):
        return 0
    if isinstance(value, int):
        return ref.decimal_digits(value)
    if isinstance(value, str):
        return max((len(tok) for tok in re.findall(r"\d+", value)), default=0)
    if isinstance(value, (list, tuple)):
        return max((_max_digits(v) for v in value), default=0)
    if isinstance(value, dict):
        return max((_max_digits(v) for v in value.values()), default=0)
    return 0


# --- building requests ---------------------------------------------------------------


def make_request(op, params, fmt="table", out_path=None, kind="ok"):
    argv = list(op.split()) + OPS[op][1](params)
    if fmt == "json":
        argv += ["--format", "json"]
    if out_path is not None:
        argv += ["--out", str(out_path)]
    return Request(tuple(argv), kind, op, params, out=out_path is not None)


def make_round(seed, index, out_path):
    rng = Random(f"cli_mix:{seed}:{index}")
    requests = []
    for op in LIBRARY_OPS:
        gen = OPS[op][0]
        requests.append(make_request(op, gen(rng)))
        requests.append(make_request(op, gen(rng), fmt="json"))
        requests.append(make_request(op, gen(rng), fmt=rng.choice(("table", "json")),
                                     out_path=out_path))
    # growth, the slowest light suite, comes twice: with 8 of 140 requests in
    # verify, p99 falls inside growth's own spread of times rather than on
    # the edge between two suites.
    for suite in LIGHT_SUITES + ("growth",):
        requests.append(make_request("verify", (suite,), fmt=rng.choice(("table", "json"))))
    for kind in MALFORMED_KINDS * 2:
        op, argv, pos = _malformed(rng, kind)
        fmt = rng.choice(("table", "json"))
        full = tuple(op.split()) + tuple(argv) + (("--format", "json") if fmt == "json" else ())
        requests.append(Request(full, "malformed", op, (pos,)))
    for op, params in FAULT_REQUESTS:
        requests.append(make_request(op, params, kind="fault"))
    rng.shuffle(requests)
    plain = [i for i, r in enumerate(requests) if r.kind == "ok" and not r.out]
    for i in sorted(rng.sample(plain, 3)):
        requests.append(Request(requests[i].argv, "repeat", requests[i].op, (), source=i))
    return requests


# --- executing and checking ------------------------------------------------------------


@dataclass
class Response:
    code: int | None
    stdout: str
    error: ValueError | None
    file_bytes: bytes | None = None


def run_in_process(cli, request, out_path):
    """Run one request through cli.run; returns (seconds, Response)."""
    if request.out and out_path.exists():
        out_path.unlink()
    buf = io.StringIO()
    error = None
    code = None
    with contextlib.redirect_stdout(buf):
        start = time.perf_counter()
        try:
            code = cli.run(list(request.argv))
        except ValueError as exc:  # the known fault escapes as ValueError
            error = exc
        elapsed = time.perf_counter() - start
    response = Response(code, buf.getvalue(), error)
    if request.out and out_path.exists():
        response.file_bytes = out_path.read_bytes()
    return elapsed, response


def _cell(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (list, dict)):
        return json.dumps(value, separators=(",", ":"))
    return str(value)


def parse_table(text):
    """Rows of an aligned table, as dicts of cell text keyed by column header."""
    lines = text.rstrip("\n").split("\n")
    if lines == ["(no rows)"]:
        return []
    starts = [m.start() for m in re.finditer(r"\S+", lines[0])]
    names = lines[0].split()
    rows = []
    for line in lines[1:]:
        cells = [line[s:e].rstrip() for s, e in zip(starts, starts[1:] + [None])]
        rows.append(dict(zip(names, cells)))
    return rows


def _results(request, response):
    """(status, result rows as JSON values or cell text, is_json) parsed from stdout."""
    if "--format" in request.argv and request.argv[request.argv.index("--format") + 1] == "json":
        report = json.loads(response.stdout)
        group = request.argv[0]
        if report.get("subcommand") != group:
            raise CheckError(f"subcommand {report.get('subcommand')!r} != {group!r}")
        return report["status"], report["results"], True
    text = response.stdout
    status = "ok"
    if text.startswith("status: "):
        first, _, text = text.partition("\n")
        status = first[len("status: "):]
    return status, parse_table(text), False


def _compare_rows(request, got, expected, is_json):
    if isinstance(expected, tuple) and expected[0] == "chain":
        key = "type"
        chain = [tuple(int(v) for v in row[key].strip("()").split(",")) for row in got]
        problem = ref.chain_problem(expected[1], chain)
        if problem:
            raise CheckError(f"{request.op}: {problem}")
        return
    if not is_json:
        expected = [{k: _cell(v) for k, v in row.items()} for row in expected]
    if got != expected:
        raise CheckError(f"{request.op} {request.params}: got {got!r}, expected {expected!r}")


def check_response(request, response, earlier=None):
    """Raise CheckError unless the response is correct; return True for the known fault."""
    if request.kind == "repeat":
        first = earlier[request.source]
        if (response.code, response.stdout) != (first.code, first.stdout):
            raise CheckError(f"identical argv printed different stdout: {request.argv[:3]}")
        return False
    if request.kind == "fault" and response.error is not None:
        if "Exceeds the limit" not in str(response.error):
            raise CheckError(f"{request.op}: unexpected ValueError {response.error}")
        expected = OPS[request.op][2](request.params)
        if _max_digits(expected) <= FAULT_LIMIT_DIGITS:
            raise CheckError(f"{request.op}: failed although no result passes the limit")
        return True
    if response.error is not None:
        raise CheckError(f"{request.op}: cli.run raised {response.error!r}")
    if request.out and response.file_bytes != response.stdout.encode("utf-8"):
        raise CheckError(f"{request.op}: --out file differs from stdout")
    status, rows, is_json = _results(request, response)
    if request.kind == "malformed":
        if response.code != 1 or status != "input-error":
            raise CheckError(f"malformed literal not refused: {request.argv}")
        found = re.search(r"at position (\d+)", rows[0]["error"] if rows else "")
        if not found or int(found.group(1)) != request.params[0]:
            raise CheckError(f"{request.argv}: expected position {request.params[0]}, "
                             f"got {rows}")
        return False
    if request.kind == "fault" and response.code == 1 and status == "input-error":
        return False  # refusing the huge result cleanly keeps the exit-code contract
    if response.code != 0 or status != "ok":
        raise CheckError(f"{request.argv[:2]} exited {response.code} with status {status}: "
                         f"{response.stdout[:300]}")
    _compare_rows(request, rows, OPS[request.op][2](request.params), is_json)
    return False


# --- the workload ---------------------------------------------------------------------


class CliMix:
    name = "cli_mix"
    calibration_reps = 1  # calibration loops after each operation
    pooled_latency = True
    cold_requests = (
        ("split rigid", (5, 7)),
        ("bundle jump", (0, 1, 2, (2, 0), 3, 1)),
        ("coh line", (0, (1, 1))),
    )

    def __init__(self, program, seed, workdir):
        self.cli = program.cli
        self.seed = seed
        self.out_path = workdir / "report.out"
        self._responses = []

    def round_items(self, index):
        return make_round(self.seed, index, self.out_path)

    def start_round(self):
        self._responses = []

    def execute(self, request):
        elapsed, response = run_in_process(self.cli, request, self.out_path)
        self._responses.append(response)
        return elapsed, 1, response

    def check(self, request, response):
        return check_response(request, response, self._responses)
