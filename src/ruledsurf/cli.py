"""Command-line front end.

Five subcommand groups (surface, coh, split, bundle, verify) expose every
library operation.  Each op is declared once, in the registry `_GROUPS`:
its help text, its flags, and a function from the parsed flags to result
rows.  A request is parsed in one of two ways, both read from that
registry.  A request that names a group and an op, then gives only
`--flag value` pairs, each flag one of the op's own spelt out in full and
set once, with values argparse would take, is parsed from the registry
with no argparse pass; so is `verify` with a suite name or `all` as its
first word, then such pairs of grid bounds.  Any other request (--help,
--flag=value, an abbreviation, a repeated flag, a refusal) takes one pass
of the full argparse tree, which `build_parser` builds once per process.
Literal flags are parsed after that, in the order the op reads them, and
the values read are echoed as the report's inputs.

A request loads only what its op reaches.  The library layers are reached
through the package, which imports each on first use: `split rigid` loads
splitting alone, and `coh line` cohomology and geometry, with no fractions
for either, as only the cycle literals and ring need them; `verify rigid`
loads splitting alone too, as each grid imports the layers it calls.
argparse loads only for a request that takes a parser pass, the regular
expressions of the cycle and bundle literals compile only when such a
literal is read, and a value is rendered by the name of its class, so
rendering loads no layer.

Output is an aligned text table by default or a single JSON object with
--format json, the bytes of json.dumps(report, indent=2), written in one
pass by _json_report with json's C string escaper; a table loads json only
for a list or dict cell.  --out writes the rendered report verbatim to a file first,
then it is printed.  Exit codes: 0 ok, 1 input error, 2 property violation.
An error argparse raises is an input error too, rendered in the requested
--format and written to --out whenever those two flags parse, else as a
table; so is an --out path that cannot be written.

Literal grammars.  Every digit, in a literal or an int flag, is an ASCII
0-9.  Values are exact, and a literal is echoed in its canonical form,
which parses back to the same value: `--D "+01*h+002*f"` is echoed as
1*h+2*f.

    divisor         a*h+b*f         e.g.  -2*h+3*f, 1*h-4*f, 0*h+0*f
    splitting type  (b1,b2,...)     e.g.  (2,2,1,1,1)
    surface cycle   (r0,h,f,p2)     four exact rationals, e.g. (1,1/2,-1,0)
    curve cycle     (r0,p1)         two exact rationals
    summand list    comma-joined divisors, e.g.  0*h+0*f,1*h+0*f
    bundle          r=<int>; c1=<divisor>; c2=<int>; e=<int>; q=<int>
"""

from __future__ import annotations

import functools
import os
import re
import sys
from types import SimpleNamespace

import ruledsurf as _lib  # the package loads each layer on its first use

_LEADING_NEG = re.compile(r"-[0-9]")


@functools.cache
def _parser_class():
    """argparse's parser as the CLI needs it, defined when a request first needs a parser."""
    import argparse

    class _Parser(argparse.ArgumentParser):
        def error(self, message):
            raise ValueError(message)

        def _parse_optional(self, arg_string):
            # Divisor literals like -2*h+3*f are values: no flag starts with - and a digit.
            return None if _LEADING_NEG.match(arg_string) else super()._parse_optional(arg_string)

        def _get_value(self, action, arg_string):
            # int() also reads other scripts' digits, "1_0" and " 1"; an int flag takes ASCII only.
            if action.type is int and not _INT.fullmatch(arg_string):
                raise argparse.ArgumentError(action, f"invalid int value: {arg_string!r}")
            return super()._get_value(action, arg_string)

    return _Parser


# ---------------------------------------------------------------------------
# literal parsing and formatting

_INT = re.compile(r"[+-]?[0-9]+")
_SIGNED_INT = re.compile(r"[+-][0-9]+")
# compiled on first use, through re's cache: only cycle literals read it
_RATIONAL = r"[+-]?[0-9]+(?:/([0-9]+))?"


def _fail(text: str, pos: int, expected: str, kind: str):
    raise ValueError(
        f"malformed {kind} literal {text!r}: expected {expected} at position {pos}"
    )


def parse_divisor(text: str, base: int = 0) -> _lib.geometry.DivisorClass:
    pos = 0
    m = _INT.match(text, pos)
    if not m:
        _fail(text, base + pos, "integer h-coefficient", "divisor")
    a = int(m.group())
    pos = m.end()
    if not text.startswith("*h", pos):
        _fail(text, base + pos, "'*h'", "divisor")
    pos += 2
    m = _SIGNED_INT.match(text, pos)
    if not m:
        _fail(text, base + pos, "signed integer f-coefficient", "divisor")
    b = int(m.group())
    pos = m.end()
    if not text.startswith("*f", pos):
        _fail(text, base + pos, "'*f'", "divisor")
    pos += 2
    if pos != len(text):
        _fail(text, base + pos, "end of literal", "divisor")
    return _lib.geometry.DivisorClass(a, b)


def format_divisor(d: _lib.geometry.DivisorClass) -> str:
    return f"{d.a}*h{d.b:+d}*f"


def _inside_parentheses(text: str, kind: str) -> str:
    if not text.startswith("("):
        _fail(text, 0, "'('", kind)
    if not text.endswith(")"):
        _fail(text, len(text), "')'", kind)
    return text[1:-1]


def parse_type(text: str) -> _lib.splitting.SplittingType:
    parts = []
    pos = 1
    for chunk in _inside_parentheses(text, "splitting type").split(","):
        if not _INT.fullmatch(chunk):
            _fail(text, pos, "integer part", "splitting type")
        value = int(chunk)
        if parts and value > parts[-1]:
            _fail(text, pos, "a part no larger than the previous one", "splitting type")
        parts.append(value)
        pos += len(chunk) + 1
    return _lib.splitting.SplittingType(tuple(parts))


def format_type(t: _lib.splitting.SplittingType) -> str:
    return "(" + ",".join(map(str, t.parts)) + ")"


def _parse_rational_list(text: str, count: int, kind: str) -> list[Fraction]:
    from fractions import Fraction  # only the cycle literals load it
    chunks = _inside_parentheses(text, kind).split(",")
    if len(chunks) != count:
        _fail(text, len(text), f"{count} comma-separated rationals", kind)
    values = []
    pos = 1
    for chunk in chunks:
        stripped = chunk.strip()
        m = re.fullmatch(_RATIONAL, stripped)
        if not m:
            _fail(text, pos, "exact rational p or p/q", kind)
        if m.group(1) is not None and not m.group(1).strip("0"):
            lead = len(chunk) - len(chunk.lstrip())
            _fail(text, pos + lead + m.start(1), "nonzero denominator", kind)
        values.append(Fraction(stripped))
        pos += len(chunk) + 1
    return values


def parse_cycle(text: str) -> _lib.geometry.CycleClass:
    return _lib.geometry.CycleClass(*_parse_rational_list(text, 4, "cycle"))


def format_rational(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def format_cycle(c: _lib.geometry.CycleClass) -> str:
    return "(" + ",".join(map(format_rational, (c.r0, c.dh, c.df, c.p2))) + ")"


def parse_curve_cycle(text: str) -> _lib.geometry.CurveCycle:
    return _lib.geometry.CurveCycle(*_parse_rational_list(text, 2, "curve cycle"))


def format_curve_cycle(c: _lib.geometry.CurveCycle) -> str:
    return "(" + ",".join(map(format_rational, (c.r0, c.p1))) + ")"


def parse_summands(text: str) -> _lib.cohomology.SplitBundle:
    summands = []
    offset = 0
    for chunk in text.split(","):
        summands.append(parse_divisor(chunk, base=offset))
        offset += len(chunk) + 1
    return _lib.cohomology.SplitBundle(tuple(summands))


def format_summands(bundle: _lib.cohomology.SplitBundle) -> str:
    return ",".join(map(format_divisor, bundle.summands))


# compiled on first use, through re's cache: only bundle literals read it
_BUNDLE = r"r=([+-]?[0-9]+); c1=([^;]+); c2=([+-]?[0-9]+); e=([+-]?[0-9]+); q=([+-]?[0-9]+)"


def parse_bundle(text: str) -> _lib.bundles.BundleNumerics:
    m = re.fullmatch(_BUNDLE, text)
    if not m:
        _fail(text, 0, "'r=<int>; c1=<divisor>; c2=<int>; e=<int>; q=<int>'", "bundle")
    r, c1_text, c2, e, q = m.groups()
    c1 = parse_divisor(c1_text, base=m.start(2))
    g = _lib.geometry.SurfaceGeometry(int(q), int(e))
    return _lib.bundles.BundleNumerics(g, int(r), c1, int(c2))


def format_bundle(b: _lib.bundles.BundleNumerics) -> str:
    return f"r={b.r}; c1={format_divisor(b.c1)}; c2={b.c2}; e={b.g.e}; q={b.g.q}"


# ---------------------------------------------------------------------------
# value encoding and report rendering

def _encode(value):
    if isinstance(value, (int, str)):
        return value
    # a value class is known by its name, so that encoding loads no module defining one
    kind = type(value).__name__
    if kind == "Fraction":
        return int(value) if value.denominator == 1 else format_rational(value)
    if kind == "DivisorClass":
        return format_divisor(value)
    if kind == "SplittingType":
        return format_type(value)
    if kind == "CycleClass":
        return format_cycle(value)
    if kind == "CurveCycle":
        return format_curve_cycle(value)
    if kind == "SplitBundle":
        return format_summands(value)
    if kind == "BundleNumerics":
        return format_bundle(value)
    if type(value) is list or type(value) is tuple:  # a value class is a tuple too
        return [_encode(v) for v in value]
    if isinstance(value, dict):
        return {k: _encode(v) for k, v in value.items()}
    raise TypeError(f"cannot encode {value!r}")


def _cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (list, dict)):
        import json  # only lists and dicts need it, so a plain table loads none

        return json.dumps(value, separators=(",", ":"))
    if value is None:
        return ""
    return str(value)


def render_table(rows: list[dict]) -> str:
    if not rows:
        return "(no rows)"
    columns = [*dict.fromkeys(key for row in rows for key in row)]  # in first-seen order
    grid = [columns] + [[_cell(row.get(c)) for c in columns] for row in rows]
    widths = [max(map(len, column)) for column in zip(*grid)]
    return "\n".join("  ".join(map(str.ljust, line, widths)).rstrip() for line in grid)


def render_report(subcommand: str, inputs: dict, rows: list[dict], status: str, fmt: str) -> str:
    """The report as one JSON object, the bytes of json.dumps(report, indent=2), or as
    a table of its rows that never reads the inputs."""
    if fmt == "json":
        from ._json_report import write  # a table request loads neither it nor json

        return write({"subcommand": subcommand, "inputs": inputs, "results": rows,
                      "status": status}, "\n", _encode)
    body = render_table([_encode(row) for row in rows])
    return body if status == "ok" else f"status: {status}\n{body}"


# ---------------------------------------------------------------------------
# the op registry

class _Args:
    """The flags of one call, as an op's row function reads them.

    A literal flag is parsed when first read, so input errors surface in
    the order the op reads its flags; every value read is echoed, in that
    order, as the report's inputs, except a flag left unset (None).
    """

    def __init__(self, ns):
        self._ns = ns
        self.inputs = {"op": ns.op}

    def _read(self, dest, parse=None):
        if dest not in self.inputs:
            value = getattr(self._ns, dest)
            if value is None:
                return None
            self.inputs[dest] = value if parse is None else parse(value)
        return self.inputs[dest]

    __getitem__ = _read

    def divisor(self, dest):
        return self._read(dest, parse_divisor)

    def splitting(self, dest):
        return self._read(dest, parse_type)

    def cycle(self, dest):
        return self._read(dest, parse_cycle)

    def summands(self):
        return self._read("summands", parse_summands)

    @property
    def g(self) -> _lib.geometry.SurfaceGeometry:
        return _lib.geometry.SurfaceGeometry(self["q"], self["e"])

    def conormal(self) -> _lib.cohomology.ConormalData:
        return _lib.cohomology.ConormalData(self["t"], self["s"])

    def bundle(self, prefix="") -> _lib.bundles.BundleNumerics:
        return _lib.bundles.BundleNumerics(
            self.g, self[prefix + "r"], self.divisor(prefix + "c1"), self[prefix + "c2"])


def _flag(flag, help=None, **kwargs):
    """An option as (flag, add_argument kwargs), required unless given a default."""
    return flag, {"required": "default" not in kwargs, "help": help, **kwargs}


def _int(flag, help=None, **kwargs):
    return _flag(flag, help, type=int, **kwargs)


def _row(obj, *labels) -> dict:
    return {label: getattr(obj, label) for label in labels}


def _mintwist_row(g, ample):
    t = _lib.geometry.min_good_twist(g, ample)
    return {"t": t, "polarization": ample + t * _lib.geometry.FIBER}


def _unprintable() -> str:
    return (f"result has an integer of more than {sys.get_int_max_str_digits()} digits, "
            "which Python will not print")


def _growth_row(g, bundle, c, n):
    # Each layer is an h0, so the last, at (n - 1)*(t, s), bounds the sum from below:
    # a sum too long to print is refused in O(r²), after the checks growth makes first.
    if g.q == 0 and n >= 1 and (limit := sys.get_int_max_str_digits()):
        _lib.cohomology.check_conormal(g, c)
        last = _lib.geometry.DivisorClass((n - 1) * c.t, (n - 1) * c.s)
        if _lib.cohomology.h_split_end(g, bundle, last).h0 >= 10 ** limit:
            raise ValueError(_unprintable())
    return {"sections": _lib.cohomology.endomorphism_growth(g, bundle, c, n)}


def _lift_row(obstructions):
    return {"obstructions": obstructions, "lifts": not any(obstructions)}


_GEOM = (_int("--q", "base-curve genus (default 0)", default=0),
         _int("--e", "ruled-surface invariant"))
_BUNDLE_FLAGS = _GEOM + (_int("--r"), _flag("--c1"), _int("--c2"))
_CYCLE = "cycle (r0,h,f,p2)"

# op -> (help text, flags, function from the call's _Args to result rows)
_SURFACE = {
    "intersect": ("intersection number of two divisors",
                  _GEOM + (_flag("--d1", "first divisor, a*h+b*f"),
                           _flag("--d2", "second divisor, a*h+b*f")),
                  lambda v: [{"product": _lib.geometry.intersect(
                      v.g, v.divisor("d1"), v.divisor("d2"))}]),
    "canonical": ("canonical divisor class", _GEOM,
                  lambda v: [{"K": _lib.geometry.canonical_class(v.g)}]),
    "ample": ("ampleness test", _GEOM + (_flag("--D", "divisor to test"),),
              lambda v: [{"ample": _lib.geometry.is_ample(v.g, v.divisor("D"))}]),
    "good": ("good-polarization test", _GEOM + (_flag("--R", "polarization to test"),),
             lambda v: [{"good": _lib.geometry.is_good_polarization(v.g, v.divisor("R"))}]),
    "mintwist": ("fewest fibers to add to an ample class to make it good",
                 _GEOM + (_flag("--H", "ample starting divisor"),),
                 lambda v: [_mintwist_row(v.g, v.divisor("H"))]),
    "cyclemul": ("product of two truncated cycles",
                 _GEOM + (_flag("--x", _CYCLE), _flag("--y", _CYCLE)),
                 lambda v: [{"cycle": _lib.geometry.cycle_mul(v.g, v.cycle("x"), v.cycle("y"))}]),
    "chern": ("Chern character of rank/c1/c2 data", _BUNDLE_FLAGS,
              lambda v: [{"cycle": _lib.geometry.chern_character(
                  v.g, v["r"], v.divisor("c1"), v["c2"])}]),
    "todd": ("Todd class of the surface", _GEOM,
             lambda v: [{"cycle": _lib.geometry.todd_surface(v.g)}]),
    "toddcurve": ("Todd class of a genus-q curve", (_int("--q"),),
                  lambda v: [{"curve_cycle": _lib.geometry.todd_curve(v["q"])}]),
    "push": ("pushforward of a cycle to the base curve", _GEOM + (_flag("--x", _CYCLE),),
             lambda v: [{"curve_cycle": _lib.geometry.pushforward_to_curve(v.g, v.cycle("x"))}]),
}

_COH = {
    "line": ("cohomology of a line bundle (genus 0)", _GEOM + (_flag("--D"),),
             lambda v: [_row(_lib.cohomology.h_line(v.g, v.divisor("D")), "h0", "h1", "h2")]),
    "euler": ("Riemann-Roch Euler characteristic (any genus)", _GEOM + (_flag("--D"),),
              lambda v: [{"chi": _lib.cohomology.euler_char(v.g, v.divisor("D"))}]),
    "serre": ("Serre-dual divisor class K - D", _GEOM + (_flag("--D"),),
              lambda v: [{"dual": _lib.cohomology.serre_dual(v.g, v.divisor("D"))}]),
    "conormal": ("vanishing of conormal powers",
                 _GEOM + (_int("--t"), _int("--s"), _int("--n-max", default=6)),
                 lambda v: [{"vanishes": _lib.cohomology.conormal_vanishing(
                     v.g, v.conormal(), v["n_max"])}]),
    "splitend": ("cohomology of twisted End of a split bundle",
                 _GEOM + (_flag("--summands", "comma-joined divisors"),
                          _flag("--twist", default="0*h+0*f")),
                 lambda v: [_row(_lib.cohomology.h_split_end(v.g, v.summands(), v.divisor("twist")),
                                 "h0", "h1", "h2")]),
    "moduli": ("local moduli dimension of a split bundle", _GEOM + (_flag("--summands"),),
               lambda v: [{"dimension": _lib.cohomology.moduli_dimension_split(
                   v.g, v.summands())}]),
    "stab": ("index past which twisted End h1 vanishes",
             _GEOM + (_flag("--summands"), _int("--t"), _int("--s"),
                      _int("--y-max", default=10)),
             lambda v: [{"index": _lib.cohomology.stabilization_index(
                 v.g, v.summands(), v.conormal(), v["y_max"])}]),
    "growth": ("global endomorphism count on the n-th neighborhood (split model)",
               _GEOM + (_flag("--summands"), _int("--t"), _int("--s"), _int("--n")),
               lambda v: [_growth_row(v.g, v.summands(), v.conormal(), v["n"])]),
}

_TYPE_PAIR = (_flag("--general"), _flag("--special"))

_SPLIT = {
    "rigid": ("balanced type of given rank and degree", (_int("--r"), _int("--d")),
              lambda v: [{"type": _lib.splitting.rigid_type(v["r"], v["d"])}]),
    "h1end": ("h1 of the endomorphism bundle",
              (_flag("--type", "splitting type (b1,b2,...)"),),
              lambda v: [{"h1": _lib.splitting.h1_end(v.splitting("type"))}]),
    "isrigid": ("rigidity test", (_flag("--type"),),
                lambda v: [{"rigid": _lib.splitting.is_rigid(v.splitting("type"))}]),
    "specializes": ("dominance-order test", _TYPE_PAIR,
                    lambda v: [{"specializes": _lib.splitting.specializes(
                        v.splitting("general"), v.splitting("special"))}]),
    "semicont": ("dominance via section-count semicontinuity", _TYPE_PAIR,
                 lambda v: [{"specializes": _lib.splitting.semicontinuity_oracle(
                     v.splitting("general"), v.splitting("special"))}]),
    "jumptype": ("minimal degeneration of a balanced type", (_int("--r"), _int("--a")),
                 lambda v: [{"type": _lib.splitting.jumping_type(v["r"], v["a"])}]),
    "lift": ("formal-neighborhood lifting obstructions",
             (_flag("--type"), _int("--t", "conormal fiber degree"),
              _int("--n-max", default=10)),
             lambda v: [_lift_row(_lib.splitting.formal_lift_obstructions(
                 v.splitting("type"), v["t"], v["n_max"]))]),
    "enumerate": ("all types of bounded spread",
                  (_int("--r"), _int("--d"), _int("--max-spread")),
                  lambda v: [{"type": t} for t in _lib.splitting.enumerate_types(
                      v["r"], v["d"], v["max_spread"])]),
    "chain": ("degeneration chain from the rigid type", (_flag("--type"),),
              lambda v: [{"type": t}
                         for t in _lib.splitting.specialization_chain(v.splitting("type"))]),
}

_BUNDLE_OPS = {
    "fiberdeg": ("degree on a general fiber", _BUNDLE_FLAGS,
                 lambda v: [{"fiber_degree": _lib.bundles.fiber_degree(v.bundle())}]),
    "twist": ("tensor by a line bundle", _BUNDLE_FLAGS + (_flag("--L", "twisting divisor"),),
              lambda v: [{"bundle": _lib.bundles.twist(v.bundle(), v.divisor("L"))}]),
    "jump": ("jumping-fiber count z and pushforward degree m",
             _BUNDLE_FLAGS + (_int("--a", "general fiber type is (a,...,a)"),),
             lambda v: [{"z": _lib.bundles.jumping_count(v.bundle(), v["a"]),
                         "m": _lib.bundles.pushforward_degree(v.bundle(), v["a"])}]),
    "chi": ("jumping count via Euler characteristics", _BUNDLE_FLAGS + (_int("--a"),),
            lambda v: [{"z": _lib.bundles.jumping_count_chi_oracle(v.bundle(), v["a"])}]),
    "euler": ("Euler characteristic of the bundle", _BUNDLE_FLAGS,
              lambda v: [{"chi": _lib.bundles.euler_char_bundle(v.bundle())}]),
    "grr": ("compare the cycle-level pushforward degree with the closed form",
            _BUNDLE_FLAGS + (_int("--a"),),
            lambda v: [_row(_lib.bundles.grr_verify(v.bundle(), v["a"]),
                            "rank_ok", "degree_ok", "lhs_degree", "rhs_degree")]),
    "extchern": ("Chern data of an extension middle term",
                 _GEOM + (_int("--r"), _int("--x", "rank of the quotient piece"), _int("--a"),
                          _int("--deg-sub"), _int("--deg-quot")),
                 lambda v: [{"bundle": _lib.bundles.extension_chern(_lib.bundles.ExtensionData(
                     v.g, v["r"], v["x"], v["a"], v["deg_sub"], v["deg_quot"]))}]),
    "extdata": ("recover extension degrees from Chern data",
                _BUNDLE_FLAGS + (_int("--a"), _int("--x")),
                lambda v: [_row(_lib.bundles.extension_data_from_chern(v.bundle(), v["a"], v["x"]),
                                "deg_sub", "deg_quot")]),
    "slope": ("slope with respect to a polarization", _BUNDLE_FLAGS + (_flag("--R"),),
              lambda v: [{"slope": _lib.bundles.slope(v.bundle(), v.divisor("R"))}]),
    # the sub-object is read, and so checked and echoed, before the whole
    "destab": ("slope comparison of a sub-object",
               _BUNDLE_FLAGS + (_int("--sub-r"), _flag("--sub-c1"), _int("--sub-c2"),
                                _flag("--R")),
               lambda v: [{"destabilizes": _lib.bundles.destabilizes(
                   v.bundle("sub_"), v.bundle(), v.divisor("R"))}]),
}

_VERIFY_HELP = "run a property grid and report pass/fail with a counterexample"

# verify's grid-bound overrides, as (flag, keyword of verify.run_suite)
_VERIFY_BOUNDS = (
    ("--r", "r_max"), ("--d-max", "d_max"), ("--e-max", "e_max"), ("--a-max", "a_max"),
    ("--b-max", "b_max"), ("--c2-max", "c2_max"), ("--t-max", "t_max"),
    ("--n-max", "n_max"), ("--y-max", "y_max"), ("--spread", "spread"),
    ("--deg-max", "deg_max"), ("--coeff-max", "coeff_max"),
)


def _verify_flags():
    from .verify import SUITES  # loaded only when the verify parser is built

    return (("suite", {"choices": [*SUITES, "all"]}),) + tuple(
        _int(flag, "override the maximal rank of the grid" if flag == "--r" else None,
             default=None, dest=dest)
        for flag, dest in _VERIFY_BOUNDS)


def _verify_rows(v):
    from .verify import SUITES, run_suite  # loaded only when a grid is run

    suite = v["suite"]
    bounds = {dest: value for _, dest in _VERIFY_BOUNDS if (value := v[dest]) is not None}
    # `all` gives each bound to the suites that take it; one suite takes only its own
    if suite != "all":
        accepted = SUITES[suite][1]
        refused = [flag for flag, dest in _VERIFY_BOUNDS
                   if dest in bounds and dest not in accepted]
        if refused:
            own = [flag for flag, dest in _VERIFY_BOUNDS if dest in accepted]
            raise ValueError(f"suite {suite} takes no {', '.join(refused)}; "
                             f"its bounds are {', '.join(own)}")
    return [_row(res, "suite", "points", "ok", *(() if res.ok else ("counterexample",)))
            for res in run_suite(suite, **bounds)]


# group -> (help text, its ops).  A group holding an op of its own name
# (verify) is that op's leaf in the tree, with no subcommand; its flags are
# built on demand because the suite names live in the verify module.
_GROUPS = {
    "surface": ("intersection ring and polarizations", _SURFACE),
    "coh": ("cohomology tables and derived counts", _COH),
    "split": ("splitting types on the projective line", _SPLIT),
    "bundle": ("numerical vector-bundle calculus", _BUNDLE_OPS),
    "verify": (_VERIFY_HELP, {"verify": (_VERIFY_HELP, _verify_flags, _verify_rows)}),
}


# ---------------------------------------------------------------------------
# parser construction

# the flags every op takes
_COMMON = (("--format", {"choices": ("table", "json"), "default": "table",
                         "help": "output rendering (default: table)"}),
           ("--out", {"metavar": "PATH", "default": None,
                      "help": "also write the rendered report to PATH"}))


def _declared(flags) -> tuple:
    """The flags every op takes, then flags, which verify builds on demand."""
    return _COMMON + (flags() if callable(flags) else flags)


def _add_op(p, help_text: str | None, flags):
    p.description = help_text
    for flag, kwargs in _declared(flags):
        p.add_argument(flag, **kwargs)


@functools.cache
def build_parser():
    """The full argument tree, built on the first request that needs an argparse pass."""
    parser_class = _parser_class()
    top = parser_class(
        prog="ruledsurf",
        description="Exact intersection theory, cohomology, splitting types, "
                    "and jumping-fiber counts on Hirzebruch and ruled surfaces.",
    )
    groups = top.add_subparsers(dest="group", required=True, parser_class=parser_class)
    for name, (help_text, ops) in _GROUPS.items():
        entry = groups.add_parser(name, help=help_text)
        if name in ops:
            _add_op(entry, *ops[name][:2])
            entry.set_defaults(op=name)
            continue
        leaves = entry.add_subparsers(dest="op", required=True, parser_class=parser_class)
        for op, (op_help, flags, _) in ops.items():
            _add_op(leaves.add_parser(op, help=op_help), op_help, flags)
    return top


@functools.cache
def _leaf_flags(group: str, op: str):
    """One leaf's options as {flag: (dest, add_argument kwargs)}, its positionals as
    (dest, kwargs) pairs, the options' defaults and their required dests."""
    declared = _declared(_GROUPS[group][1][op][1])
    options = {flag: (kwargs.get("dest") or flag.lstrip("-").replace("-", "_"), kwargs)
               for flag, kwargs in declared if flag[:1] == "-"}
    positionals = tuple((name, kwargs) for name, kwargs in declared if name[:1] != "-")
    defaults = {dest: kwargs.get("default") for dest, kwargs in options.values()}
    required = {dest for dest, kwargs in options.values() if kwargs.get("required")}
    return options, positionals, defaults, required


def _plain_value(kwargs: dict, word: str):
    """word as the tree stores it for an argument declared with kwargs, or None where
    argparse would read it as a flag or refuse it."""
    if word[:1] == "-" and not _LEADING_NEG.match(word):
        return None
    if kwargs.get("type") is int:
        if not _INT.fullmatch(word):
            return None
        try:
            return int(word)
        except ValueError:  # past the digit limit: argparse words the refusal
            return None
    if "choices" in kwargs and word not in kwargs["choices"]:
        return None
    return word


def _plain_parse(group: str, op: str, words: list[str]) -> SimpleNamespace | None:
    """The namespace the tree gives the op's names, then words that are its positionals
    and plain `--flag value` pairs, else None."""
    options, positionals, defaults, required = _leaf_flags(group, op)
    pairs = words[len(positionals):]
    if len(words) < len(positionals) or len(pairs) % 2:
        return None
    given = {}
    for (dest, kwargs), word in zip(positionals, words):
        if (value := _plain_value(kwargs, word)) is None:
            return None
        given[dest] = value
    for flag, word in zip(pairs[::2], pairs[1::2]):
        dest, kwargs = options.get(flag, (None, None))
        if dest is None or dest in given or (value := _plain_value(kwargs, word)) is None:
            return None
        given[dest] = value
    if not required <= given.keys():
        return None
    return SimpleNamespace(**{**defaults, **given}, group=group, op=op)


@functools.cache
def _output_parser():
    p = _parser_class()(add_help=False)
    _add_op(p, None, ())
    return p


def _requested_output(argv: list[str], ns):
    """ns given the --format and --out of argv, or a table and no file if they do not parse."""
    try:
        return _output_parser().parse_known_args(argv, ns)[0]
    except ValueError:
        ns.format, ns.out = "table", None
        return ns


# ---------------------------------------------------------------------------
# entry points

def _input_error(ns, error: str) -> str:
    return render_report(ns.group, {}, [{"error": error}], "input-error", ns.format)


def _emit(text: str, code: int, ns) -> int:
    """Write --out first, so a reader that closes stdout early cannot lose it, then print."""
    if ns.out is not None:
        from pathlib import Path  # only --out needs it

        try:
            Path(ns.out).write_text(text + "\n", encoding="utf-8")
        except (OSError, ValueError) as exc:  # ValueError: a NUL byte, with no strerror
            reason = getattr(exc, "strerror", None) or exc
            text, code = _input_error(ns, f"cannot write --out {ns.out!r}: {reason}"), 1
    print(text)
    return code


def run(argv: list[str]) -> int:
    """Parse argv, execute, print the rendered report, and return the exit code."""
    group = argv[0] if argv and argv[0] in _GROUPS else ""
    ops = _GROUPS[group][1] if group else {}
    # A request names its op right after its group, or is verify, its own op.
    # Plain words after the names (verify's suite, then `--flag value` pairs)
    # need no argparse pass; any other argv takes one pass of the full tree.
    names = [group] if group in ops else argv[:2] if len(argv) > 1 and argv[1] in ops else []
    try:
        ns = _plain_parse(names[0], names[-1], argv[len(names):]) if names else None
        if ns is None:
            ns = build_parser().parse_args(argv)
    except ValueError as exc:
        ns = _requested_output(argv, SimpleNamespace(group=group))
        return _emit(_input_error(ns, str(exc)), 1, ns)
    except SystemExit:  # argparse --help; _Parser.error raises instead of exiting
        return 0

    _, _, rows_of = _GROUPS[ns.group][1][ns.op]
    args = _Args(ns)
    try:
        rows = rows_of(args)
    except (ValueError, MemoryError) as exc:  # MemoryError: a result too long to build
        return _emit(_input_error(ns, str(exc) or "the result is too long to build"), 1, ns)

    violated = ns.group == "verify" and any(row.get("ok") is False for row in rows)
    status, code = ("property-violation", 2) if violated else ("ok", 0)
    try:
        text = render_report(ns.group, args.inputs, rows, status, ns.format)
    except ValueError:  # Python will not turn an int this long into text
        text, code = _input_error(ns, _unprintable()), 1
    return _emit(text, code, ns)


def main() -> int:
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()  # a reader that closed early shows here, not at exit
    except BrokenPipeError:
        # the exit flush would fail again, so stdout goes to devnull first
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
