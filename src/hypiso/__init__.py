"""Isometries of real hyperbolic space in the hyperboloid model:
classification, reversibility, conjugacy, and conjugacy-class geometry.

The quadratic form is Q(x) = x_0^2 + ... + x_{n-1}^2 - x_n^2 (time last);
H^n is the upper sheet of Q = -1, and the Moebius group M(n) of the
boundary n-sphere is identified with the sheet-preserving part of
O(n+1,1), with identity component M_o(n) = SO_o(n+1,1).
"""

from importlib import import_module

# ``classify`` names both a submodule and a function, and the function must
# win; importing it loads ``quadspace`` and ``spectral`` too.  Every other
# public name is resolved on first use (PEP 562, ``__getattr__`` below), so
# importing the package, or classifying, loads no other module.
from .classify import classify

# Each public name, once, under the module that defines it.
_NAMES = {
    "quadspace": (
        "CausalType", "Component", "LorentzMatrix", "QuadraticSpace", "causal_type",
        "classify_membership", "matrix_from_json", "matrix_to_json", "q_value",
        "subspace_type",
    ),
    "spectral": (
        "EigenStructure", "PlaneDecomposition", "RotationAngles", "eigen_structure",
        "is_regular", "is_semisimple", "plane_decomposition", "rotation_angles",
    ),
    "classify": (
        "ClassificationReport", "FixedPointClass", "boundary_fixed_points", "classify",
        "fixed_point_class", "poincare_extend", "stretch_factor",
    ),
    "classgeom": (
        "BoundaryPair", "FibrationDescriptor", "alpha", "class_descriptor",
        "d0", "descriptor_for", "dim_decomposition_space", "dim_rotation_class",
        "dim_spaces", "enumerate_fiber", "projection",
    ),
    "frames": ("NormalForm", "normal_form", "reconstruct_from_normal_form"),
    "conjugacy": (
        "ConjugacyAnswer", "InvariantTuple", "Relation", "conjugate_in_Mn",
        "conjugate_in_Mon", "find_conjugator", "invariant_tuple",
    ),
    "reality": (
        "OracleReport", "RealityCertificate", "is_real_Mo", "is_real_On",
        "is_real_SOn", "is_real_SOo_n1", "is_strongly_real_SOn",
        "reverser_oracle",
    ),
}
_ORIGIN = {name: module for module, names in _NAMES.items() for name in names}

__version__ = "0.1.0"

__all__ = sorted(_ORIGIN)


def __getattr__(name):
    """A public name of a module in ``_NAMES``: the module is imported on
    first use, and the name cached in the package globals.  The modules
    themselves resolve too, as when the package imported them eagerly."""
    if name in _NAMES:
        return import_module(f"{__name__}.{name}")
    module = _ORIGIN.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_NAMES) | set(_ORIGIN))
