"""The package's contract with its importers, each checked in a fresh interpreter.

Importing ruledsurf loads no layer; each export and each of the six layer
modules loads on first use; `from ruledsurf import *` binds the 56 exports
and the four library layers, as it did when the package imported them all.
perfbench reads every layer as an attribute of the package.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import ruledsurf

SRC = Path(ruledsurf.__file__).resolve().parents[1]
LAYERS = ("geometry", "cohomology", "splitting", "bundles", "verify", "cli")
STAR_NAMES = sorted("""
    BundleNumerics CohomologyTable ConormalData CurveCycle CycleClass DivisorClass
    ExtensionData FIBER GrrReport PositiveGenusError SECTION SplitBundle SplittingType
    StabilizationError SurfaceGeometry ZERO bundles canonical_class check_conormal
    chern_character cohomology conormal_vanishing curve_mul cycle_mul destabilizes
    endomorphism_growth enumerate_types euler_char euler_char_bundle extension_chern
    extension_data_from_chern fiber_degree formal_lift_obstructions geometry grr_verify
    h1_end h_line h_split_end intersect is_ample is_good_polarization is_rigid jumping_count
    jumping_count_chi_oracle jumping_type min_good_twist moduli_dimension_split
    pushforward_degree pushforward_to_curve rigid_type semicontinuity_oracle serre_dual
    slope specialization_chain specializes splitting stabilization_index todd_curve
    todd_surface twist
""".split())


def _fresh(probe):
    """The lines a fresh python prints while it runs probe, importing ruledsurf from src."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(probe)], env=env,
                          capture_output=True, text=True, timeout=60, check=True)
    return proc.stdout.splitlines()


def test_the_package_loads_its_layers_on_first_use():
    loaded, layers, star = _fresh(f"""
        import sys
        import ruledsurf
        print(*sorted(name for name in sys.modules if name.startswith("ruledsurf")))
        print(*(getattr(ruledsurf, layer).__name__ for layer in {LAYERS!r}))
        namespace = {{}}
        exec("from ruledsurf import *", namespace)
        print(*sorted(set(namespace) - {{"__builtins__"}}))
    """)
    assert loaded.split() == ["ruledsurf"]
    assert layers.split() == [f"ruledsurf.{layer}" for layer in LAYERS]
    assert star.split() == STAR_NAMES
    assert len(STAR_NAMES) == 60


def test_each_export_is_its_layers_own_object():
    for name in STAR_NAMES:
        value = getattr(ruledsurf, name)
        if name not in LAYERS:
            assert value is getattr(getattr(ruledsurf, ruledsurf._HOME[name]), name)
    assert set(STAR_NAMES) | set(LAYERS) <= set(dir(ruledsurf))
    with pytest.raises(AttributeError, match="module 'ruledsurf' has no attribute 'nothing'"):
        getattr(ruledsurf, "nothing")
