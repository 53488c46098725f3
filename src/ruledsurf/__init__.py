"""Exact-arithmetic toolkit for bundles on Hirzebruch and ruled surfaces.

Four layers: the numerical intersection ring of a ruled surface
(geometry), line-bundle cohomology on Hirzebruch surfaces and the counts
built from it (cohomology), the calculus of splitting types on the
projective line (splitting), and numerical vector-bundle operations
including jumping-fiber counts with independent oracles (bundles).  The
verify module runs the cross-checking property grids; cli exposes
everything on the command line.

Importing the package loads none of them.  Each of its exports, and each
of the six layer modules, is loaded on first use by the module
__getattr__ (PEP 562), so a command-line request loads only the layers its
op reaches.  `from ruledsurf import *` binds the exports and the four
library layers, all listed in __all__.
"""

import importlib

__version__ = "0.1.0"

# layer -> the names the package exports from it
_EXPORTS = {
    "bundles": (
        "BundleNumerics", "ExtensionData", "GrrReport", "destabilizes", "euler_char_bundle",
        "extension_chern", "extension_data_from_chern", "fiber_degree", "grr_verify",
        "jumping_count", "jumping_count_chi_oracle", "pushforward_degree", "slope", "twist",
    ),
    "cohomology": (
        "CohomologyTable", "ConormalData", "PositiveGenusError", "SplitBundle",
        "StabilizationError", "check_conormal", "conormal_vanishing", "endomorphism_growth",
        "euler_char", "h_line", "h_split_end", "moduli_dimension_split", "serre_dual",
        "stabilization_index",
    ),
    "geometry": (
        "FIBER", "SECTION", "ZERO", "CurveCycle", "CycleClass", "DivisorClass",
        "SurfaceGeometry", "canonical_class", "chern_character", "curve_mul", "cycle_mul",
        "intersect", "is_ample", "is_good_polarization", "min_good_twist",
        "pushforward_to_curve", "todd_curve", "todd_surface",
    ),
    "splitting": (
        "SplittingType", "enumerate_types", "formal_lift_obstructions", "h1_end",
        "is_rigid", "jumping_type", "rigid_type", "semicontinuity_oracle",
        "specialization_chain", "specializes",
    ),
}
_HOME = {name: layer for layer, names in _EXPORTS.items() for name in names}
_LAYERS = ("geometry", "cohomology", "splitting", "bundles", "verify", "cli")
__all__ = [*_HOME, *_EXPORTS]


def __getattr__(name):
    # import_module holds the import lock, so two threads' first uses load a layer once;
    # importing a layer binds it here, and an export is bound on its first use
    layer = name if name in _LAYERS else _HOME.get(name)
    if layer is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f".{layer}", __name__)
    if layer == name:
        return module
    value = globals()[name] = getattr(module, name)
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_LAYERS})
