"""Isometries of real hyperbolic space in the hyperboloid model:
classification, reversibility, conjugacy, and conjugacy-class geometry.

The quadratic form is Q(x) = x_0^2 + ... + x_{n-1}^2 - x_n^2 (time last);
H^n is the upper sheet of Q = -1, and the Moebius group M(n) of the
boundary n-sphere is identified with the sheet-preserving part of
O(n+1,1), with identity component M_o(n) = SO_o(n+1,1).
"""

from importlib import import_module

from .classify import (
    ClassificationReport,
    FixedPointClass,
    boundary_fixed_points,
    classify,
    fixed_point_class,
    poincare_extend,
    stretch_factor,
)
from .quadspace import (
    CausalType,
    Component,
    LorentzMatrix,
    QuadraticSpace,
    causal_type,
    classify_membership,
    matrix_from_json,
    matrix_to_json,
    q_value,
    subspace_type,
)
from .spectral import (
    EigenStructure,
    PlaneDecomposition,
    RotationAngles,
    eigen_structure,
    is_regular,
    is_semisimple,
    plane_decomposition,
    rotation_angles,
)

# The public names of the frame, reality, conjugacy and fibration modules
# are resolved on first use (PEP 562, ``__getattr__`` below), so importing
# the package, or classifying, does not load them.  ``classify`` stays
# eager: it names both a submodule and a function, and the function must win.
_LAZY = {
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
_ORIGIN = {name: module for module, names in _LAZY.items() for name in names}

__version__ = "0.1.0"

__all__ = [
    "BoundaryPair",
    "CausalType",
    "ClassificationReport",
    "Component",
    "ConjugacyAnswer",
    "EigenStructure",
    "FibrationDescriptor",
    "FixedPointClass",
    "InvariantTuple",
    "LorentzMatrix",
    "NormalForm",
    "OracleReport",
    "PlaneDecomposition",
    "QuadraticSpace",
    "RealityCertificate",
    "Relation",
    "RotationAngles",
    "alpha",
    "boundary_fixed_points",
    "causal_type",
    "class_descriptor",
    "classify",
    "classify_membership",
    "conjugate_in_Mn",
    "conjugate_in_Mon",
    "d0",
    "descriptor_for",
    "dim_decomposition_space",
    "dim_rotation_class",
    "dim_spaces",
    "eigen_structure",
    "enumerate_fiber",
    "find_conjugator",
    "fixed_point_class",
    "invariant_tuple",
    "is_real_Mo",
    "is_real_On",
    "is_real_SOn",
    "is_real_SOo_n1",
    "is_regular",
    "is_semisimple",
    "is_strongly_real_SOn",
    "matrix_from_json",
    "matrix_to_json",
    "normal_form",
    "plane_decomposition",
    "poincare_extend",
    "projection",
    "q_value",
    "reconstruct_from_normal_form",
    "reverser_oracle",
    "rotation_angles",
    "stretch_factor",
    "subspace_type",
]


def __getattr__(name):
    """A public name of a module in ``_LAZY``: the module is imported on
    first use, and the name cached in the package globals.  The modules
    themselves resolve too, as when the package imported them eagerly."""
    if name in _LAZY:
        return import_module(f"{__name__}.{name}")
    module = _ORIGIN.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY) | set(_ORIGIN))
