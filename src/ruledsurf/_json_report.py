"""The JSON text of a command-line report, written in one pass.

json.dumps(report, indent=2) gives the bytes the CLI prints, but any indent
makes json fall back to its pure-Python encoder.  write gives the same bytes
with json's C string escaper, about twice as fast on a one-row report, and
encodes each library value when it reaches it, so the report is not first
copied into a tree of plain values.  cli imports this module for the first
JSON report it renders, so a request that renders none neither compiles it
nor loads json.
"""

from json.encoder import encode_basestring_ascii as _escape


def write(value, pad: str, encode) -> str:
    """value as json.dumps(value, indent=2) writes it, pad being the newline and indent
    of its line, with each value of another class written as encode(value), which is
    cli._encode: a library value as its literal.  Keys must be str, as in every report.
    An int past Python's digit limit raises ValueError, as in json.dumps."""
    if isinstance(value, str):
        return _escape(value)
    if value is None or type(value) is bool:
        return "null" if value is None else "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    inner = pad + "  "
    if type(value) is dict:
        items = [_escape(key) + ": " + write(item, inner, encode) for key, item in value.items()]
        ends = "{}"
    elif type(value) is list:
        items, ends = [write(item, inner, encode) for item in value], "[]"
    else:  # a library value, a tuple, or a dict of another class
        return write(encode(value), pad, encode)
    return ends[0] + inner + ("," + inner).join(items) + pad + ends[1] if items else ends
