"""Every library function and input value class refuses an int argument that is not an int.

Each case below is a valid call; every argument in it that is an int is
replaced in turn by the equal float, Fraction and by True, and the call must
raise the TypeError of _value._require_int naming that type, before
anything else goes wrong.  The last test checks that the cases cover every
public callable of the four library modules that takes an int.
"""

import inspect
from fractions import Fraction

import pytest

from ruledsurf import bundles, cohomology, geometry, splitting, verify
from ruledsurf.bundles import BundleNumerics
from ruledsurf.cohomology import ConormalData, SplitBundle
from ruledsurf.geometry import DivisorClass, SurfaceGeometry
from ruledsurf.splitting import SplittingType

G = SurfaceGeometry(0, 1)
D = DivisorClass(2, 0)
B = BundleNumerics(G, 2, D, 3)  # balanced at a = 1
B3 = BundleNumerics(G, 3, D, 3)  # an extension with a = 1, x = 1
C = ConormalData(1, 3)
SB = SplitBundle((DivisorClass(0, 0), DivisorClass(1, 2)))


def run_serre(e_max):
    return verify.run_suite("serre", e_max=e_max)


# a valid call of each callable: its int arguments are the ones replaced
CALLS = [
    (geometry.SurfaceGeometry, (0, 1)),
    (geometry.DivisorClass, (1, -2)),
    (geometry.chern_character, (G, 2, D, 3)),
    (geometry.todd_curve, (0,)),
    (cohomology.CohomologyTable, (1, 0, 0)),
    (cohomology.ConormalData, (1, 3)),
    (cohomology.conormal_vanishing, (G, C, 2)),
    (cohomology.stabilization_index, (G, SB, C, 50)),
    (cohomology.endomorphism_growth, (G, SB, C, 3)),
    (splitting.rigid_type, (3, 2)),
    (splitting.jumping_type, (3, 1)),
    (splitting.formal_lift_obstructions, (SplittingType((2, 0, -1)), 1, 3)),
    (splitting.enumerate_types, (3, 2, 2)),
    (bundles.BundleNumerics, (G, 2, D, 3)),
    (bundles.ExtensionData, (G, 3, 1, 1, 0, 0)),
    (bundles.jumping_count, (B, 1)),
    (bundles.pushforward_degree, (B, 1)),
    (bundles.jumping_count_chi_oracle, (B, 1)),
    (bundles.grr_verify, (B, 1)),
    (bundles.extension_data_from_chern, (B3, 1, 1)),
    (run_serre, (1,)),
]

CASES = [
    pytest.param(f, args[:i] + (wrong,) + args[i + 1:], type(wrong).__name__,
                 id=f"{f.__name__}-{i}-{type(wrong).__name__}")
    for f, args in CALLS
    for i, value in enumerate(args) if type(value) is int
    for wrong in (float(value), Fraction(value), True)
]


def test_every_valid_call_answers():
    for f, args in CALLS:
        f(*args)


@pytest.mark.parametrize("f, args, name", CASES)
def test_a_value_that_is_not_an_int_is_refused(f, args, name):
    with pytest.raises(TypeError, match=f" must be integers, got {name}$"):
        f(*args)


def takes_an_int(module, name, obj):
    if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
        return False
    if not (inspect.isfunction(obj) or inspect.isclass(obj) and "__new__" in vars(obj)):
        return False
    return any(p.annotation == "int" for p in inspect.signature(obj).parameters.values())


def test_every_public_callable_that_takes_an_int_is_covered():
    takes_int = {obj for module in (geometry, cohomology, splitting, bundles)
                 for name, obj in vars(module).items() if takes_an_int(module, name, obj)}
    # GrrReport is a report grr_verify builds, not an input
    assert takes_int - {bundles.GrrReport} == {f for f, _ in CALLS} - {run_serre}
