"""Command-line front end.

Five subcommand groups (surface, coh, split, bundle, verify) expose every
library operation.  Output is an aligned text table by default or a single
JSON object with --format json; --out writes the rendered report verbatim
to a file as well.  Exit codes: 0 ok, 1 input error, 2 property violation.

Literal grammars (parsed and emitted bit-exactly):

    divisor         a*h+b*f         e.g.  -2*h+3*f, 1*h-4*f, 0*h+0*f
    splitting type  (b1,b2,...)     e.g.  (2,2,1,1,1)
    surface cycle   (r0,h,f,p2)     four exact rationals, e.g. (1,1/2,-1,0)
    curve cycle     (r0,p1)         two exact rationals
    summand list    comma-joined divisors, e.g.  0*h+0*f,1*h+0*f
    bundle          r=<int>; c1=<divisor>; c2=<int>; e=<int>; q=<int>
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
from fractions import Fraction
from pathlib import Path

from . import bundles, cohomology, geometry, splitting
from .geometry import CurveCycle, CycleClass, DivisorClass, SurfaceGeometry
from .splitting import SplittingType


class CliInputError(ValueError):
    pass


_LEADING_NEG = re.compile(r"-\d")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliInputError(message)

    def _parse_optional(self, arg_string):
        # Divisor literals like -2*h+3*f are values, never flags.
        result = super()._parse_optional(arg_string)
        if (
            isinstance(result, tuple)
            and result[0] is None
            and _LEADING_NEG.match(arg_string)
        ):
            return None
        return result


# ---------------------------------------------------------------------------
# literal parsing and formatting

_INT = re.compile(r"[+-]?\d+")
_SIGNED_INT = re.compile(r"[+-]\d+")
_RATIONAL = re.compile(r"[+-]?\d+(?:/\d+)?")


def _fail(text: str, pos: int, expected: str, kind: str):
    raise CliInputError(
        f"malformed {kind} literal {text!r}: expected {expected} at position {pos}"
    )


def parse_divisor(text: str, base: int = 0) -> DivisorClass:
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
    return DivisorClass(a, b)


def format_divisor(d: DivisorClass) -> str:
    return f"{d.a}*h{d.b:+d}*f"


def parse_type(text: str) -> SplittingType:
    if not text.startswith("("):
        _fail(text, 0, "'('", "splitting type")
    if not text.endswith(")"):
        _fail(text, len(text), "')'", "splitting type")
    body = text[1:-1]
    parts = []
    pos = 1
    for chunk in body.split(","):
        m = _INT.fullmatch(chunk)
        if not m:
            _fail(text, pos, "integer part", "splitting type")
        value = int(chunk)
        if parts and value > parts[-1]:
            _fail(text, pos, "a part no larger than the previous one", "splitting type")
        parts.append(value)
        pos += len(chunk) + 1
    return SplittingType(tuple(parts))


def format_type(t: SplittingType) -> str:
    return "(" + ",".join(str(b) for b in t.parts) + ")"


def _parse_rational_list(text: str, count: int, kind: str) -> list[Fraction]:
    if not text.startswith("("):
        _fail(text, 0, "'('", kind)
    if not text.endswith(")"):
        _fail(text, len(text), "')'", kind)
    chunks = text[1:-1].split(",")
    if len(chunks) != count:
        _fail(text, len(text), f"{count} comma-separated rationals", kind)
    values = []
    pos = 1
    for chunk in chunks:
        stripped = chunk.strip()
        if not _RATIONAL.fullmatch(stripped):
            _fail(text, pos, "exact rational p or p/q", kind)
        values.append(Fraction(stripped))
        pos += len(chunk) + 1
    return values


def parse_cycle(text: str) -> CycleClass:
    r0, dh, df, p2 = _parse_rational_list(text, 4, "cycle")
    return CycleClass(r0, dh, df, p2)


def format_rational(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def format_cycle(c: CycleClass) -> str:
    return (
        "("
        + ",".join(format_rational(v) for v in (c.r0, c.dh, c.df, c.p2))
        + ")"
    )


def parse_curve_cycle(text: str) -> CurveCycle:
    r0, p1 = _parse_rational_list(text, 2, "curve cycle")
    return CurveCycle(r0, p1)


def format_curve_cycle(c: CurveCycle) -> str:
    return "(" + ",".join(format_rational(v) for v in (c.r0, c.p1)) + ")"


def parse_summands(text: str) -> cohomology.SplitBundle:
    summands = []
    offset = 0
    for chunk in text.split(","):
        summands.append(parse_divisor(chunk, base=offset))
        offset += len(chunk) + 1
    return cohomology.SplitBundle(tuple(summands))


def format_summands(bundle: cohomology.SplitBundle) -> str:
    return ",".join(format_divisor(d) for d in bundle.summands)


_BUNDLE = re.compile(
    r"r=([+-]?\d+); c1=([^;]+); c2=([+-]?\d+); e=([+-]?\d+); q=([+-]?\d+)"
)


def parse_bundle(text: str) -> bundles.BundleNumerics:
    m = _BUNDLE.fullmatch(text)
    if not m:
        _fail(text, 0, "'r=<int>; c1=<divisor>; c2=<int>; e=<int>; q=<int>'", "bundle")
    r, c1_text, c2, e, q = m.groups()
    c1 = parse_divisor(c1_text, base=m.start(2))
    return bundles.BundleNumerics(SurfaceGeometry(int(q), int(e)), int(r), c1, int(c2))


def format_bundle(b: bundles.BundleNumerics) -> str:
    return f"r={b.r}; c1={format_divisor(b.c1)}; c2={b.c2}; e={b.g.e}; q={b.g.q}"


# ---------------------------------------------------------------------------
# value encoding and report rendering

def _encode(value):
    if isinstance(value, bool) or isinstance(value, int) or isinstance(value, str):
        return value
    if value is None:
        return None
    if isinstance(value, Fraction):
        return int(value) if value.denominator == 1 else format_rational(value)
    if isinstance(value, DivisorClass):
        return format_divisor(value)
    if isinstance(value, SplittingType):
        return format_type(value)
    if isinstance(value, CycleClass):
        return format_cycle(value)
    if isinstance(value, CurveCycle):
        return format_curve_cycle(value)
    if isinstance(value, cohomology.SplitBundle):
        return format_summands(value)
    if isinstance(value, bundles.BundleNumerics):
        return format_bundle(value)
    if isinstance(value, (list, tuple)):
        return [_encode(v) for v in value]
    if isinstance(value, dict):
        return {k: _encode(v) for k, v in value.items()}
    raise TypeError(f"cannot encode {value!r}")


def _cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (list, dict)):
        return json.dumps(value, separators=(",", ":"))
    if value is None:
        return ""
    return str(value)


def render_table(rows: list[dict]) -> str:
    if not rows:
        return "(no rows)"
    columns: list[str] = []
    for row in rows:
        for key in row:
            if key not in columns:
                columns.append(key)
    grid = [columns] + [[_cell(row.get(c)) for c in columns] for row in rows]
    widths = [max(len(line[i]) for line in grid) for i in range(len(columns))]
    lines = [
        "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(line)).rstrip()
        for line in grid
    ]
    return "\n".join(lines)


def render_report(subcommand: str, inputs: dict, rows: list[dict], status: str, fmt: str) -> str:
    inputs = _encode(inputs)
    rows = [_encode(row) for row in rows]
    if fmt == "json":
        report = {
            "subcommand": subcommand,
            "inputs": inputs,
            "results": rows,
            "status": status,
        }
        return json.dumps(report, indent=2)
    body = render_table(rows)
    if status == "ok":
        return body
    return f"status: {status}\n{body}"


# ---------------------------------------------------------------------------
# handlers

def _geom(ns) -> SurfaceGeometry:
    return SurfaceGeometry(ns.q, ns.e)


def _cmd_surface_intersect(ns):
    g = _geom(ns)
    d1, d2 = parse_divisor(ns.d1), parse_divisor(ns.d2)
    inputs = {"op": "intersect", "q": g.q, "e": g.e, "d1": d1, "d2": d2}
    return inputs, [{"product": geometry.intersect(g, d1, d2)}]


def _cmd_surface_canonical(ns):
    g = _geom(ns)
    inputs = {"op": "canonical", "q": g.q, "e": g.e}
    return inputs, [{"K": geometry.canonical_class(g)}]


def _cmd_surface_ample(ns):
    g = _geom(ns)
    d = parse_divisor(ns.D)
    inputs = {"op": "ample", "q": g.q, "e": g.e, "D": d}
    return inputs, [{"ample": geometry.is_ample(g, d)}]


def _cmd_surface_good(ns):
    g = _geom(ns)
    d = parse_divisor(ns.R)
    inputs = {"op": "good", "q": g.q, "e": g.e, "R": d}
    return inputs, [{"good": geometry.is_good_polarization(g, d)}]


def _cmd_surface_mintwist(ns):
    g = _geom(ns)
    d = parse_divisor(ns.H)
    t = geometry.min_good_twist(g, d)
    inputs = {"op": "mintwist", "q": g.q, "e": g.e, "H": d}
    return inputs, [{"t": t, "polarization": d + t * geometry.FIBER}]


def _cmd_surface_cyclemul(ns):
    g = _geom(ns)
    x, y = parse_cycle(ns.x), parse_cycle(ns.y)
    inputs = {"op": "cyclemul", "q": g.q, "e": g.e, "x": x, "y": y}
    return inputs, [{"cycle": geometry.cycle_mul(g, x, y)}]


def _cmd_surface_chern(ns):
    g = _geom(ns)
    c1 = parse_divisor(ns.c1)
    inputs = {"op": "chern", "q": g.q, "e": g.e, "r": ns.r, "c1": c1, "c2": ns.c2}
    return inputs, [{"cycle": geometry.chern_character(g, ns.r, c1, ns.c2)}]


def _cmd_surface_todd(ns):
    g = _geom(ns)
    inputs = {"op": "todd", "q": g.q, "e": g.e}
    return inputs, [{"cycle": geometry.todd_surface(g)}]


def _cmd_surface_toddcurve(ns):
    inputs = {"op": "toddcurve", "q": ns.q}
    return inputs, [{"curve_cycle": geometry.todd_curve(ns.q)}]


def _cmd_surface_push(ns):
    g = _geom(ns)
    x = parse_cycle(ns.x)
    inputs = {"op": "push", "q": g.q, "e": g.e, "x": x}
    return inputs, [{"curve_cycle": geometry.pushforward_to_curve(g, x)}]


def _cmd_coh_line(ns):
    g = _geom(ns)
    d = parse_divisor(ns.D)
    table = cohomology.h_line(g, d)
    inputs = {"op": "line", "q": g.q, "e": g.e, "D": d}
    return inputs, [{"h0": table.h0, "h1": table.h1, "h2": table.h2}]


def _cmd_coh_euler(ns):
    g = _geom(ns)
    d = parse_divisor(ns.D)
    inputs = {"op": "euler", "q": g.q, "e": g.e, "D": d}
    return inputs, [{"chi": cohomology.euler_char(g, d)}]


def _cmd_coh_serre(ns):
    g = _geom(ns)
    d = parse_divisor(ns.D)
    inputs = {"op": "serre", "q": g.q, "e": g.e, "D": d}
    return inputs, [{"dual": cohomology.serre_dual(g, d)}]


def _cmd_coh_conormal(ns):
    g = _geom(ns)
    c = cohomology.ConormalData(ns.t, ns.s)
    inputs = {"op": "conormal", "q": g.q, "e": g.e, "t": ns.t, "s": ns.s, "n_max": ns.n_max}
    return inputs, [{"vanishes": cohomology.conormal_vanishing(g, c, ns.n_max)}]


def _cmd_coh_splitend(ns):
    g = _geom(ns)
    bundle = parse_summands(ns.summands)
    tw = parse_divisor(ns.twist)
    table = cohomology.h_split_end(g, bundle, tw)
    inputs = {"op": "splitend", "q": g.q, "e": g.e, "summands": bundle, "twist": tw}
    return inputs, [{"h0": table.h0, "h1": table.h1, "h2": table.h2}]


def _cmd_coh_moduli(ns):
    g = _geom(ns)
    bundle = parse_summands(ns.summands)
    inputs = {"op": "moduli", "q": g.q, "e": g.e, "summands": bundle}
    return inputs, [{"dimension": cohomology.moduli_dimension_split(g, bundle)}]


def _cmd_coh_stab(ns):
    g = _geom(ns)
    bundle = parse_summands(ns.summands)
    c = cohomology.ConormalData(ns.t, ns.s)
    index = cohomology.stabilization_index(g, bundle, c, ns.y_max)
    inputs = {
        "op": "stab", "q": g.q, "e": g.e, "summands": bundle,
        "t": ns.t, "s": ns.s, "y_max": ns.y_max,
    }
    return inputs, [{"index": index}]


def _cmd_coh_growth(ns):
    g = _geom(ns)
    bundle = parse_summands(ns.summands)
    c = cohomology.ConormalData(ns.t, ns.s)
    count = cohomology.endomorphism_growth(g, bundle, c, ns.n)
    inputs = {
        "op": "growth", "q": g.q, "e": g.e, "summands": bundle,
        "t": ns.t, "s": ns.s, "n": ns.n,
    }
    return inputs, [{"sections": count}]


def _cmd_split_rigid(ns):
    inputs = {"op": "rigid", "r": ns.r, "d": ns.d}
    return inputs, [{"type": splitting.rigid_type(ns.r, ns.d)}]


def _cmd_split_h1end(ns):
    t = parse_type(ns.type)
    inputs = {"op": "h1end", "type": t}
    return inputs, [{"h1": splitting.h1_end(t)}]


def _cmd_split_isrigid(ns):
    t = parse_type(ns.type)
    inputs = {"op": "isrigid", "type": t}
    return inputs, [{"rigid": splitting.is_rigid(t)}]


def _cmd_split_specializes(ns):
    general, special = parse_type(ns.general), parse_type(ns.special)
    inputs = {"op": "specializes", "general": general, "special": special}
    return inputs, [{"specializes": splitting.specializes(general, special)}]


def _cmd_split_semicont(ns):
    general, special = parse_type(ns.general), parse_type(ns.special)
    inputs = {"op": "semicont", "general": general, "special": special}
    return inputs, [{"specializes": splitting.semicontinuity_oracle(general, special)}]


def _cmd_split_jumptype(ns):
    inputs = {"op": "jumptype", "r": ns.r, "a": ns.a}
    return inputs, [{"type": splitting.jumping_type(ns.r, ns.a)}]


def _cmd_split_lift(ns):
    t = parse_type(ns.type)
    obs = splitting.formal_lift_obstructions(t, ns.t, ns.n_max)
    inputs = {"op": "lift", "type": t, "t": ns.t, "n_max": ns.n_max}
    return inputs, [{"obstructions": obs, "lifts": not any(obs)}]


def _cmd_split_enumerate(ns):
    types = splitting.enumerate_types(ns.r, ns.d, ns.max_spread)
    inputs = {"op": "enumerate", "r": ns.r, "d": ns.d, "max_spread": ns.max_spread}
    return inputs, [{"type": t} for t in types]


def _cmd_split_chain(ns):
    target = parse_type(ns.type)
    chain = splitting.specialization_chain(target)
    inputs = {"op": "chain", "type": target}
    return inputs, [{"type": t} for t in chain]


def _bundle_from(ns) -> bundles.BundleNumerics:
    return bundles.BundleNumerics(_geom(ns), ns.r, parse_divisor(ns.c1), ns.c2)


def _bundle_inputs(op: str, b: bundles.BundleNumerics) -> dict:
    return {"op": op, "q": b.g.q, "e": b.g.e, "r": b.r, "c1": b.c1, "c2": b.c2}


def _cmd_bundle_fiberdeg(ns):
    b = _bundle_from(ns)
    return _bundle_inputs("fiberdeg", b), [{"fiber_degree": bundles.fiber_degree(b)}]


def _cmd_bundle_twist(ns):
    b = _bundle_from(ns)
    line = parse_divisor(ns.L)
    inputs = _bundle_inputs("twist", b)
    inputs["L"] = line
    return inputs, [{"bundle": bundles.twist(b, line)}]


def _cmd_bundle_jump(ns):
    b = _bundle_from(ns)
    inputs = _bundle_inputs("jump", b)
    inputs["a"] = ns.a
    z = bundles.jumping_count(b, ns.a)
    m = bundles.pushforward_degree(b, ns.a)
    return inputs, [{"z": z, "m": m}]


def _cmd_bundle_chi(ns):
    b = _bundle_from(ns)
    inputs = _bundle_inputs("chi", b)
    inputs["a"] = ns.a
    return inputs, [{"z": bundles.jumping_count_chi_oracle(b, ns.a)}]


def _cmd_bundle_euler(ns):
    b = _bundle_from(ns)
    return _bundle_inputs("euler", b), [{"chi": bundles.euler_char_bundle(b)}]


def _cmd_bundle_grr(ns):
    b = _bundle_from(ns)
    inputs = _bundle_inputs("grr", b)
    inputs["a"] = ns.a
    report = bundles.grr_verify(b, ns.a)
    return inputs, [{
        "rank_ok": report.rank_ok,
        "degree_ok": report.degree_ok,
        "lhs_degree": report.lhs_degree,
        "rhs_degree": report.rhs_degree,
    }]


def _cmd_bundle_extchern(ns):
    g = _geom(ns)
    ext = bundles.ExtensionData(g, ns.r, ns.x, ns.a, ns.deg_sub, ns.deg_quot)
    inputs = {
        "op": "extchern", "q": g.q, "e": g.e, "r": ns.r, "x": ns.x, "a": ns.a,
        "deg_sub": ns.deg_sub, "deg_quot": ns.deg_quot,
    }
    return inputs, [{"bundle": bundles.extension_chern(ext)}]


def _cmd_bundle_extdata(ns):
    b = _bundle_from(ns)
    inputs = _bundle_inputs("extdata", b)
    inputs.update({"a": ns.a, "x": ns.x})
    ext = bundles.extension_data_from_chern(b, ns.a, ns.x)
    return inputs, [{"deg_sub": ext.deg_sub, "deg_quot": ext.deg_quot}]


def _cmd_bundle_slope(ns):
    b = _bundle_from(ns)
    polarization = parse_divisor(ns.R)
    inputs = _bundle_inputs("slope", b)
    inputs["R"] = polarization
    return inputs, [{"slope": bundles.slope(b, polarization)}]


def _cmd_bundle_destab(ns):
    g = _geom(ns)
    sub = bundles.BundleNumerics(g, ns.sub_r, parse_divisor(ns.sub_c1), ns.sub_c2)
    whole = bundles.BundleNumerics(g, ns.r, parse_divisor(ns.c1), ns.c2)
    polarization = parse_divisor(ns.R)
    inputs = {
        "op": "destab", "q": g.q, "e": g.e,
        "sub_r": sub.r, "sub_c1": sub.c1, "sub_c2": sub.c2,
        "r": whole.r, "c1": whole.c1, "c2": whole.c2, "R": polarization,
    }
    return inputs, [{"destabilizes": bundles.destabilizes(sub, whole, polarization)}]


_VERIFY_BOUNDS = (
    "r_max", "d_max", "e_max", "a_max", "b_max", "c2_max",
    "t_max", "n_max", "y_max", "spread", "deg_max", "coeff_max",
)


def _cmd_verify(ns):
    from .verify import run_suite  # loaded only when a grid is run

    overrides = {k: getattr(ns, k) for k in _VERIFY_BOUNDS if getattr(ns, k) is not None}
    results = run_suite(ns.suite, **overrides)
    inputs = {"op": "verify", "suite": ns.suite, **overrides}
    rows = []
    for res in results:
        row = {"suite": res.suite, "points": res.points, "ok": res.ok}
        if not res.ok:
            row["counterexample"] = res.counterexample
        rows.append(row)
    return inputs, rows


# ---------------------------------------------------------------------------
# parser construction

def _add_common(p: _Parser):
    p.add_argument("--format", choices=("table", "json"), default="table",
                   help="output rendering (default: table)")
    p.add_argument("--out", metavar="PATH", default=None,
                   help="also write the rendered report to PATH")


def _add_geometry(p: _Parser, require_e=True):
    p.add_argument("--q", type=int, default=0, help="base-curve genus (default 0)")
    p.add_argument("--e", type=int, required=require_e, help="ruled-surface invariant")


def _leaf(group_sub, name: str, handler, help_text: str) -> _Parser:
    p = group_sub.add_parser(name, help=help_text, description=help_text)
    p.set_defaults(handler=handler)
    _add_common(p)
    return p


def _surface_leaves(surface: _Parser):
    ssub = surface.add_subparsers(dest="op", required=True, parser_class=_Parser)

    p = _leaf(ssub, "intersect", _cmd_surface_intersect, "intersection number of two divisors")
    _add_geometry(p)
    p.add_argument("--d1", required=True, help="first divisor, a*h+b*f")
    p.add_argument("--d2", required=True, help="second divisor, a*h+b*f")

    p = _leaf(ssub, "canonical", _cmd_surface_canonical, "canonical divisor class")
    _add_geometry(p)

    p = _leaf(ssub, "ample", _cmd_surface_ample, "ampleness test")
    _add_geometry(p)
    p.add_argument("--D", required=True, help="divisor to test")

    p = _leaf(ssub, "good", _cmd_surface_good, "good-polarization test")
    _add_geometry(p)
    p.add_argument("--R", required=True, help="polarization to test")

    p = _leaf(ssub, "mintwist", _cmd_surface_mintwist,
              "fewest fibers to add to an ample class to make it good")
    _add_geometry(p)
    p.add_argument("--H", required=True, help="ample starting divisor")

    p = _leaf(ssub, "cyclemul", _cmd_surface_cyclemul, "product of two truncated cycles")
    _add_geometry(p)
    p.add_argument("--x", required=True, help="cycle (r0,h,f,p2)")
    p.add_argument("--y", required=True, help="cycle (r0,h,f,p2)")

    p = _leaf(ssub, "chern", _cmd_surface_chern, "Chern character of rank/c1/c2 data")
    _add_geometry(p)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--c1", required=True)
    p.add_argument("--c2", type=int, required=True)

    p = _leaf(ssub, "todd", _cmd_surface_todd, "Todd class of the surface")
    _add_geometry(p)

    p = _leaf(ssub, "toddcurve", _cmd_surface_toddcurve, "Todd class of a genus-q curve")
    p.add_argument("--q", type=int, required=True)

    p = _leaf(ssub, "push", _cmd_surface_push, "pushforward of a cycle to the base curve")
    _add_geometry(p)
    p.add_argument("--x", required=True, help="cycle (r0,h,f,p2)")


def _coh_leaves(coh: _Parser):
    csub = coh.add_subparsers(dest="op", required=True, parser_class=_Parser)

    p = _leaf(csub, "line", _cmd_coh_line, "cohomology of a line bundle (genus 0)")
    _add_geometry(p)
    p.add_argument("--D", required=True)

    p = _leaf(csub, "euler", _cmd_coh_euler, "Riemann-Roch Euler characteristic (any genus)")
    _add_geometry(p)
    p.add_argument("--D", required=True)

    p = _leaf(csub, "serre", _cmd_coh_serre, "Serre-dual divisor class K - D")
    _add_geometry(p)
    p.add_argument("--D", required=True)

    p = _leaf(csub, "conormal", _cmd_coh_conormal, "vanishing of conormal powers")
    _add_geometry(p)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--n-max", type=int, default=6)

    p = _leaf(csub, "splitend", _cmd_coh_splitend, "cohomology of twisted End of a split bundle")
    _add_geometry(p)
    p.add_argument("--summands", required=True, help="comma-joined divisors")
    p.add_argument("--twist", default="0*h+0*f")

    p = _leaf(csub, "moduli", _cmd_coh_moduli, "local moduli dimension of a split bundle")
    _add_geometry(p)
    p.add_argument("--summands", required=True)

    p = _leaf(csub, "stab", _cmd_coh_stab, "index past which twisted End h1 vanishes")
    _add_geometry(p)
    p.add_argument("--summands", required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--y-max", type=int, default=10)

    p = _leaf(csub, "growth", _cmd_coh_growth,
              "global endomorphism count on the n-th neighborhood (split model)")
    _add_geometry(p)
    p.add_argument("--summands", required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--n", type=int, required=True)


def _split_leaves(split: _Parser):
    psub = split.add_subparsers(dest="op", required=True, parser_class=_Parser)

    p = _leaf(psub, "rigid", _cmd_split_rigid, "balanced type of given rank and degree")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--d", type=int, required=True)

    p = _leaf(psub, "h1end", _cmd_split_h1end, "h1 of the endomorphism bundle")
    p.add_argument("--type", required=True, help="splitting type (b1,b2,...)")

    p = _leaf(psub, "isrigid", _cmd_split_isrigid, "rigidity test")
    p.add_argument("--type", required=True)

    p = _leaf(psub, "specializes", _cmd_split_specializes, "dominance-order test")
    p.add_argument("--general", required=True)
    p.add_argument("--special", required=True)

    p = _leaf(psub, "semicont", _cmd_split_semicont,
              "dominance via brute-force section-count semicontinuity")
    p.add_argument("--general", required=True)
    p.add_argument("--special", required=True)

    p = _leaf(psub, "jumptype", _cmd_split_jumptype, "minimal degeneration of a balanced type")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--a", type=int, required=True)

    p = _leaf(psub, "lift", _cmd_split_lift, "formal-neighborhood lifting obstructions")
    p.add_argument("--type", required=True)
    p.add_argument("--t", type=int, required=True, help="conormal fiber degree")
    p.add_argument("--n-max", type=int, default=10)

    p = _leaf(psub, "enumerate", _cmd_split_enumerate, "all types of bounded spread")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--max-spread", type=int, required=True)

    p = _leaf(psub, "chain", _cmd_split_chain, "degeneration chain from the rigid type")
    p.add_argument("--type", required=True)


def _bundle_leaves(bundle: _Parser):
    bsub = bundle.add_subparsers(dest="op", required=True, parser_class=_Parser)

    def _bundle_leaf(name, handler, help_text):
        leaf = _leaf(bsub, name, handler, help_text)
        _add_geometry(leaf)
        leaf.add_argument("--r", type=int, required=True)
        leaf.add_argument("--c1", required=True)
        leaf.add_argument("--c2", type=int, required=True)
        return leaf

    _bundle_leaf("fiberdeg", _cmd_bundle_fiberdeg, "degree on a general fiber")

    p = _bundle_leaf("twist", _cmd_bundle_twist, "tensor by a line bundle")
    p.add_argument("--L", required=True, help="twisting divisor")

    p = _bundle_leaf("jump", _cmd_bundle_jump,
                     "jumping-fiber count z and pushforward degree m")
    p.add_argument("--a", type=int, required=True, help="general fiber type is (a,...,a)")

    p = _bundle_leaf("chi", _cmd_bundle_chi, "jumping count via Euler characteristics")
    p.add_argument("--a", type=int, required=True)

    _bundle_leaf("euler", _cmd_bundle_euler, "Euler characteristic of the bundle")

    p = _bundle_leaf("grr", _cmd_bundle_grr,
                     "compare the cycle-level pushforward degree with the closed form")
    p.add_argument("--a", type=int, required=True)

    p = _leaf(bsub, "extchern", _cmd_bundle_extchern, "Chern data of an extension middle term")
    _add_geometry(p)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--x", type=int, required=True, help="rank of the quotient piece")
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--deg-sub", type=int, required=True)
    p.add_argument("--deg-quot", type=int, required=True)

    p = _bundle_leaf("extdata", _cmd_bundle_extdata, "recover extension degrees from Chern data")
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--x", type=int, required=True)

    p = _bundle_leaf("slope", _cmd_bundle_slope, "slope with respect to a polarization")
    p.add_argument("--R", required=True)

    p = _bundle_leaf("destab", _cmd_bundle_destab, "slope comparison of a sub-object")
    p.add_argument("--sub-r", type=int, required=True)
    p.add_argument("--sub-c1", required=True)
    p.add_argument("--sub-c2", type=int, required=True)
    p.add_argument("--R", required=True)


_VERIFY_HELP = "run a property grid and report pass/fail with a counterexample"


def _verify_leaf(ver: _Parser):
    # verify is a group and its own leaf at once.
    ver.description = _VERIFY_HELP
    ver.set_defaults(handler=_cmd_verify)
    _add_common(ver)
    ver.add_argument("suite", choices=[
        "serre", "euler", "conormal", "theoremC", "dominance",
        "rigid", "lifting", "extension", "growth", "all",
    ])
    ver.add_argument("--r", type=int, default=None, dest="r_max",
                     help="override the maximal rank of the grid")
    for flag, dest in (
        ("--d-max", "d_max"), ("--e-max", "e_max"), ("--a-max", "a_max"),
        ("--b-max", "b_max"), ("--c2-max", "c2_max"), ("--t-max", "t_max"),
        ("--n-max", "n_max"), ("--y-max", "y_max"), ("--spread", "spread"),
        ("--deg-max", "deg_max"), ("--coeff-max", "coeff_max"),
    ):
        ver.add_argument(flag, type=int, default=None, dest=dest)


# group name -> (help text, function that adds the group's leaves)
_GROUPS = {
    "surface": ("intersection ring and polarizations", _surface_leaves),
    "coh": ("cohomology tables and derived counts", _coh_leaves),
    "split": ("splitting types on the projective line", _split_leaves),
    "bundle": ("numerical vector-bundle calculus", _bundle_leaves),
    "verify": (_VERIFY_HELP, _verify_leaf),
}


def build_parser(group: str | None = None) -> _Parser:
    """The argument parser, with the leaves of every group or of one.

    Given a group name, only that group gets its leaves; any other string
    gives the five group entries without leaves, which is all that
    top-level --help and the rejection of a missing or unknown group use.
    """
    top = _Parser(
        prog="ruledsurf",
        description="Exact intersection theory, cohomology, splitting types, "
                    "and jumping-fiber counts on Hirzebruch and ruled surfaces.",
    )
    groups = top.add_subparsers(dest="group", required=True, parser_class=_Parser)
    for name, (help_text, add_leaves) in _GROUPS.items():
        entry = groups.add_parser(name, help=help_text)
        if group is None or group == name:
            add_leaves(entry)
    return top


@functools.cache
def _parser_for(group: str) -> _Parser:
    # run() passes a group name or "", so this holds at most six parsers.
    return build_parser(group)


# ---------------------------------------------------------------------------
# entry points

def _emit(text: str, out_path):
    print(text)
    if out_path:
        Path(out_path).write_text(text + "\n", encoding="utf-8")


def run(argv: list[str]) -> int:
    """Parse argv, execute, print the rendered report, and return the exit code."""
    group = argv[0] if argv and argv[0] in _GROUPS else ""
    # argparse enters the first word that names a group, wherever it stands;
    # with none, it can only print top-level help or reject the group.
    reached = next((arg for arg in argv if arg in _GROUPS), "")
    try:
        ns = _parser_for(reached).parse_args(argv)
    except CliInputError as exc:
        _emit(render_report(group, {}, [{"error": str(exc)}], "input-error", "table"), None)
        return 1
    except SystemExit as exc:  # argparse --help
        return 0 if exc.code in (0, None) else int(exc.code)

    try:
        inputs, rows = ns.handler(ns)
    except (CliInputError, ValueError) as exc:
        text = render_report(ns.group, {}, [{"error": str(exc)}], "input-error", ns.format)
        _emit(text, ns.out)
        return 1

    status = "ok"
    code = 0
    if ns.group == "verify" and any(row.get("ok") is False for row in rows):
        status = "property-violation"
        code = 2
    try:
        text = render_report(ns.group, inputs, rows, status, ns.format)
    except ValueError:  # Python will not turn an int this long into text
        limit = sys.get_int_max_str_digits()
        error = f"result has an integer of more than {limit} digits, which Python will not print"
        text = render_report(ns.group, {}, [{"error": error}], "input-error", ns.format)
        code = 1
    _emit(text, ns.out)
    return code


def main() -> int:
    return run(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
