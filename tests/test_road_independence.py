"""The four jumping-count roads share no code but the regime check.

verify's theoremC grid compares the closed form `jumping_count`, c2 of the
normalizing `twist`, `jumping_count_chi_oracle` and `grr_verify`.  Two
roads that read one formula agree on any fault in it, and the grid's row
then reads as if a third road were wrong.  So each road is traced with
sys.setprofile, and the package functions it enters, itself included,
must be pairwise disjoint across the roads, apart from
`_require_balanced_regime`, the argument check the three balanced-regime
roads share.  The profile events a call makes differ between Python
versions, so this test runs on each of them.
"""

import itertools
import sys
from pathlib import Path

import pytest

import ruledsurf
from ruledsurf.bundles import (
    BundleNumerics,
    grr_verify,
    jumping_count,
    jumping_count_chi_oracle,
    twist,
)
from ruledsurf.geometry import DivisorClass, SurfaceGeometry

PACKAGE = str(Path(ruledsurf.__file__).parent)
SHARED = {"_require_balanced_regime"}

# each road as verify's theoremC grid calls it at one point, with the shift -a*h
# the grid builds once per a
ROADS = {
    jumping_count: lambda bundle, a, shift: jumping_count(bundle, a),
    twist: lambda bundle, a, shift: twist(bundle, shift).c2,
    jumping_count_chi_oracle: lambda bundle, a, shift: jumping_count_chi_oracle(bundle, a),
    grr_verify: lambda bundle, a, shift: grr_verify(bundle, a).lhs_degree,
}


def entered(road, *args):
    """The names of the package functions that road(*args) enters."""
    names = set()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename.startswith(PACKAGE):
            names.add(frame.f_code.co_name)

    sys.setprofile(profile)
    try:
        road(*args)
    finally:
        sys.setprofile(None)
    return names


@pytest.mark.parametrize("e, r, a, b, c2", [
    (0, 2, -2, -5, -5), (1, 3, -2, 2, -1), (2, 4, 0, 3, 0), (3, 5, 1, -4, 7), (1, 2, 3, 0, 2),
])
def test_the_roads_enter_pairwise_disjoint_functions(e, r, a, b, c2):
    bundle = BundleNumerics(SurfaceGeometry(0, e), r, DivisorClass(r * a, b), c2)
    shift = DivisorClass(-a, 0)
    reached = {}
    for function, road in ROADS.items():
        reached[function.__name__] = entered(road, bundle, a, shift)
        # the trace sees the package: each road enters its own public function
        assert function.__name__ in reached[function.__name__]
    for (first, one), (second, other) in itertools.combinations(reached.items(), 2):
        assert not (one & other) - SHARED, (first, second, one & other)
