"""The JSON report is the bytes json.dumps(report, indent=2) gives.

cli writes a --format json report in one pass of ruledsurf._json_report,
with json's C string escaper, instead of json.dumps(..., indent=2), whose
indent makes json fall back to its pure-Python encoder.  Over any report-shaped value (nested
dicts and lists of strings with any characters, ints of any sign, bools,
None, and the library values the CLI prints as literals) the writer must
give exactly the bytes json.dumps gives for the value with each library
value replaced by its literal, as the CLI encoded it before.  It must raise
TypeError for what the CLI never encoded and ValueError for an int past
Python's digit limit, as that path did; the CLI's unprintable-result
refusal rests on the second.
"""

import enum
import json
import sys
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from ruledsurf import cli
from ruledsurf._json_report import write
from ruledsurf.bundles import BundleNumerics
from ruledsurf.cohomology import SplitBundle
from ruledsurf.geometry import CurveCycle, CycleClass, DivisorClass, SurfaceGeometry
from ruledsurf.splitting import SplittingType

PROPERTIES = settings(max_examples=200, deadline=None, derandomize=True, database=None,
                      suppress_health_check=[HealthCheck.too_slow])


def written(value) -> str:
    return write(value, "\n", cli._encode)


# quotes, backslashes, control characters, non-ASCII and astral characters
SPECIAL = st.sampled_from(['"', "\\", "\n", "\t", "\x00", "\x1f", "\x7f", "é", " ", "ℤ",
                           "\U0001d53d", "/"])
TEXT = st.lists(st.one_of(st.characters(), SPECIAL)).map("".join)
# None is in no report the CLI makes; the writer writes it as json.dumps does, null
PRINTED = st.one_of(TEXT, st.integers(), st.integers(max_value=-1), st.booleans())
SCALARS = st.one_of(PRINTED, st.none())
REPORTS = st.recursive(
    SCALARS,
    lambda inner: st.one_of(st.lists(inner, max_size=4), st.dictionaries(TEXT, inner, max_size=4)),
    max_leaves=30)

SMALL = st.integers(-50, 50)
DIVISORS = st.builds(DivisorClass, SMALL, SMALL)
RATIONALS = st.builds(Fraction, SMALL, st.integers(1, 9))
# each value class the CLI prints as a literal, and a Fraction, integral or not
LIBRARY_VALUES = st.one_of(
    DIVISORS,
    RATIONALS,
    st.lists(SMALL, min_size=1, max_size=4).map(
        lambda parts: SplittingType(tuple(sorted(parts, reverse=True)))),
    st.builds(CycleClass, RATIONALS, RATIONALS, RATIONALS, RATIONALS),
    st.builds(CurveCycle, RATIONALS, RATIONALS),
    st.lists(DIVISORS, min_size=1, max_size=3).map(lambda ds: SplitBundle(tuple(ds))),
    st.builds(BundleNumerics, st.builds(SurfaceGeometry, st.integers(0, 3), st.integers(0, 5)),
              st.integers(1, 5), DIVISORS, SMALL),
)
LIBRARY_REPORTS = st.recursive(
    st.one_of(PRINTED, LIBRARY_VALUES),
    lambda inner: st.one_of(st.lists(inner, max_size=4), st.tuples(inner, inner),
                            st.dictionaries(TEXT, inner, max_size=4)),
    max_leaves=30)

# the first counterexample of a failing theoremC grid, as verify yields it
COUNTEREXAMPLE = {"e": 1, "r": 3, "a": -2, "c1": DivisorClass(-6, 2), "c2": -1, "z": 19,
                  "z_twist": 20, "z_chi": 20, "m": -17, "grr_degree": Fraction(-18)}


@PROPERTIES
@given(REPORTS)
@example({})
@example([])
@example({"": [], "a": {}, "b": [{}, [[]]]})
@example({"quote\"back\\slash\x01": "ünïcødé \U0001d53d", "n": -(10 ** 40)})
def test_the_writer_gives_the_bytes_of_json_dumps(value):
    assert written(value) == json.dumps(value, indent=2)


@PROPERTIES
@given(LIBRARY_REPORTS)
@example(COUNTEREXAMPLE)
@example({"results": [{"suite": "theoremC", "points": 3107, "ok": False,
                       "counterexample": COUNTEREXAMPLE}]})
def test_library_values_are_written_as_the_literals_encode_gives(value):
    assert written(value) == json.dumps(cli._encode(value), indent=2)


@settings(PROPERTIES, max_examples=100)
@given(st.dictionaries(TEXT, SCALARS, max_size=5),
       st.lists(st.dictionaries(TEXT, st.one_of(SCALARS, st.lists(SCALARS, max_size=3)),
                                max_size=4), max_size=3),
       TEXT, TEXT)
def test_a_report_is_the_json_dumps_of_its_four_keys(inputs, rows, subcommand, status):
    report = {"subcommand": subcommand, "inputs": inputs, "results": rows, "status": status}
    assert cli.render_report(subcommand, inputs, rows, status, "json") == json.dumps(
        report, indent=2)


class Level(enum.IntEnum):
    HIGH = 7


class Name(str):
    pass


def test_a_subclass_of_str_int_or_dict_is_written_as_json_dumps_writes_it():
    value = {"level": Level.HIGH, "name": Name("a\"b"), "more": type("Row", (dict,), {})(x=1)}
    assert written(value) == json.dumps(value, indent=2)


def test_an_int_past_the_digit_limit_raises_value_error_on_both_sides():
    limit = sys.get_int_max_str_digits()
    if not limit:
        pytest.skip("this Python has no int-to-text limit")
    value = {"results": [{"h0": 10 ** limit}]}
    with pytest.raises(ValueError):
        json.dumps(value, indent=2)
    with pytest.raises(ValueError):
        written(value)
    with pytest.raises(ValueError):
        cli.render_report("coh", {}, value["results"], "ok", "json")


@pytest.mark.parametrize("value", [object(), 1.5, {"x": [object()]}, b"bytes", [1, {2}]],
                         ids=["object", "float", "nested object", "bytes", "set"])
def test_what_the_cli_never_encoded_raises_type_error(value):
    with pytest.raises(TypeError):
        cli._encode(value)
    with pytest.raises(TypeError):
        written(value)


def test_a_key_that_is_not_a_str_is_refused():
    # every report's keys are str; json.dumps would write an int key as a str
    with pytest.raises(TypeError):
        written({1: "x"})
