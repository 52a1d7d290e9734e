"""Combinatorial and dimensional data of the conjugacy-class fibrations.

A conjugacy class of a regular element fibers over a geometric base; this
module computes the base/fiber tags, their dimensions, the finite sheet
count d0(k) where the fiber is finite, and evaluates the projection maps
on concrete elements:

* regular k-rotations of E^{2k}  ->  plane-decomposition classes (alpha),
  a d0(k)-sheeted covering;
* regular k-rotations of E^n     ->  fixed subspace in the Grassmannian (mu);
* k-rotatory elliptics           ->  fixed sphere (epsilon), or the fixed
  point in H^{n+1} for the full-rotation case (psi);
* k-rotatory hyperbolics         ->  unordered boundary pair (rho);
* k-rotatory parabolics          ->  boundary fixed point (zeta).

The classes with a rotation angle pi share all code paths through a
``minus`` flag on the fiber tag; their dimensions agree with the plain
variant and only d0 changes.  An angle is pi exactly when it equals
``np.pi``, the value the spectral reading gives every -1 pair.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .classify import (
    ClassificationReport,
    EllipticPoint,
    EllipticSphere,
    FixedPointClass,
    HyperbolicPair,
    ParabolicPoint,
    classify,
)
from .errors import AngleMultiplicity, InvalidArg, NotRegular, OutOfRange
from .quadspace import LorentzMatrix
from .spectral import (
    DEFAULT_DELTA,
    PlaneDecomposition,
    assemble_rotation,
    plane_decomposition,
)


def d0(k: int, has_pi: bool) -> int:
    """Sheet count of the covering of decomposition classes by the
    conjugacy class of a regular k-rotation: 2^k k!, halved when pi
    occurs (the pi-plane admits a single block)."""
    if k < 0:
        raise InvalidArg("k must be nonnegative")
    if has_pi and k == 0:
        raise InvalidArg("a 0-rotation has no angle at all, let alone pi")
    c = 2 ** (k - 1) if has_pi else 2**k
    return c * math.factorial(k)


def dim_decomposition_space(k: int) -> int:
    """Dimension 2k(k-1) of the space of splittings of E^{2k} into
    ordered orthogonal 2-planes (a single point for k = 0)."""
    if k < 0:
        raise InvalidArg("k must be nonnegative")
    return 2 * k * (k - 1)


def dim_rotation_class(k: int, n: int) -> int:
    """Dimension of the conjugacy class of a regular k-rotation of E^n,
    composed as dim Grassmann(n-2k, n) + dim of the decomposition space."""
    if k < 0 or 2 * k > n:
        raise OutOfRange(f"need 0 <= 2k <= n, got k={k}, n={n}")
    return (n - 2 * k) * (2 * k) + dim_decomposition_space(k)


def dim_spaces(tag: str, *params: int) -> int:
    """Dimensions of the named base spaces.

    Tags: Grassmann(k, n), AffineGrassmann(k, n), SphereSpace(k, n),
    Sphere(n), BoundaryPairs(n), HyperbolicSpace(m), DecompositionSpace(k).
    """
    if tag == "Grassmann":
        k, n = params
        if not 0 <= k <= n:
            raise OutOfRange(f"Grassmann needs 0 <= k <= n, got {params}")
        return k * (n - k)
    if tag == "AffineGrassmann":
        k, n = params
        if not 0 <= k <= n:
            raise OutOfRange(f"AffineGrassmann needs 0 <= k <= n, got {params}")
        return (k + 1) * (n - k)
    if tag == "SphereSpace":
        k, n = params
        if not 0 <= k <= n:
            raise OutOfRange(f"SphereSpace needs 0 <= k <= n, got {params}")
        return (k + 2) * (n - k)
    if tag == "Sphere":
        (n,) = params
        if n < 0:
            raise OutOfRange("Sphere needs n >= 0")
        return n
    if tag == "BoundaryPairs":
        (n,) = params
        if n < 0:
            raise OutOfRange("BoundaryPairs needs n >= 0")
        return 2 * n
    if tag == "HyperbolicSpace":
        (m,) = params
        if m < 1:
            raise OutOfRange("HyperbolicSpace needs m >= 1")
        return m
    if tag == "DecompositionSpace":
        (k,) = params
        return dim_decomposition_space(k)
    raise OutOfRange(f"unknown space tag {tag!r}")


@dataclass(frozen=True)
class SpaceTag:
    tag: str
    params: tuple[int, ...]

    @property
    def dim(self) -> int:
        return dim_spaces(self.tag, *self.params)

    def to_json_dict(self) -> dict:
        return {"tag": self.tag, "params": list(self.params)}


@dataclass(frozen=True)
class FiberTag:
    """Fiber of a class fibration.

    Tags: FiniteSet (params: cardinality), O_k (params: k, n),
    O_k_times_punctured_affine, O_k_disjoint_union, O_k_times_stretches;
    ``minus`` marks the rotation-angle-pi variant (same dimensions).
    """

    tag: str
    params: tuple[int, ...]
    minus: bool = False

    @property
    def dim(self) -> int:
        if self.tag == "FiniteSet":
            return 0
        k, n = self.params
        base = dim_rotation_class(k, n)
        if self.tag == "O_k":
            return base
        if self.tag == "O_k_times_punctured_affine":
            return base + n
        if self.tag == "O_k_disjoint_union":
            return base
        if self.tag == "O_k_times_stretches":
            return base + 1
        raise OutOfRange(f"unknown fiber tag {self.tag!r}")

    @property
    def cardinality(self) -> Optional[int]:
        return self.params[0] if self.tag == "FiniteSet" else None

    def to_json_dict(self) -> dict:
        return {"tag": self.tag, "params": list(self.params), "minus": self.minus}


@dataclass(frozen=True)
class FibrationDescriptor:
    base: SpaceTag
    fiber: FiberTag
    sheet_count: Optional[int]
    total_dimension: int

    def to_json_dict(self) -> dict:
        return {
            "base": self.base.to_json_dict(),
            "fiber": self.fiber.to_json_dict(),
            "sheet_count": self.sheet_count,
            "total_dimension": self.total_dimension,
        }


def descriptor_for(
    class_tag: str,
    k: int,
    n: int,
    has_pi: bool = False,
    fix_stretch: bool = True,
) -> FibrationDescriptor:
    """Fibration descriptor from symbolic data.

    ``class_tag`` is one of "rotation" (conjugacy class of a regular
    k-rotation of E^n), "elliptic", "parabolic", "hyperbolic" (regular
    k-rotatory isometries of H^{n+1}, n the boundary dimension).  For
    hyperbolic classes, ``fix_stretch`` selects between the fixed-stretch
    class (finite disjoint-union fiber factor) and the class of all
    stretches.
    """
    if k < 0:
        raise OutOfRange("k must be nonnegative")
    if class_tag == "rotation":
        if 2 * k > n:
            raise OutOfRange(f"a k-rotation of E^n needs 2k <= n, got k={k}, n={n}")
        if 2 * k == n:
            base = SpaceTag("DecompositionSpace", (k,))
            fiber = FiberTag("FiniteSet", (d0(k, has_pi),), minus=has_pi)
            return FibrationDescriptor(base, fiber, d0(k, has_pi), base.dim)
        base = SpaceTag("Grassmann", (n - 2 * k, n))
        fiber = FiberTag("O_k", (k, 2 * k), minus=has_pi)
        return FibrationDescriptor(base, fiber, None, base.dim + fiber.dim)
    if class_tag == "elliptic":
        if 2 * k == n + 1:
            if n % 2 == 0:
                raise OutOfRange("full-rotation elliptics need odd boundary dimension")
            base = SpaceTag("HyperbolicSpace", (n + 1,))
            fiber = FiberTag("O_k", (k, n + 1), minus=has_pi)
            return FibrationDescriptor(base, fiber, None, base.dim + fiber.dim)
        if 2 * k > n:
            raise OutOfRange(f"elliptic classes need 2k <= n or 2k = n+1, got k={k}, n={n}")
        base = SpaceTag("SphereSpace", (n - 2 * k, n))
        fiber = FiberTag("O_k", (k, 2 * k), minus=has_pi)
        return FibrationDescriptor(base, fiber, None, base.dim + fiber.dim)
    if class_tag == "parabolic":
        # dimension formulas compose for all 2k <= n, although at 2k = n no
        # isometry realizes the class (the rotation part of a translation
        # keeps an eigenvalue 1, forcing 2k <= n - 1)
        if 2 * k > n:
            raise OutOfRange(f"parabolic classes need 2k <= n, got k={k}, n={n}")
        base = SpaceTag("Sphere", (n,))
        fiber = FiberTag("O_k_times_punctured_affine", (k, n), minus=has_pi)
        return FibrationDescriptor(base, fiber, None, base.dim + fiber.dim)
    if class_tag == "hyperbolic":
        if 2 * k > n:
            raise OutOfRange(f"hyperbolic classes need 2k <= n, got k={k}, n={n}")
        base = SpaceTag("BoundaryPairs", (n,))
        tag = "O_k_disjoint_union" if fix_stretch else "O_k_times_stretches"
        fiber = FiberTag(tag, (k, n), minus=has_pi)
        return FibrationDescriptor(base, fiber, None, base.dim + fiber.dim)
    raise OutOfRange(f"unknown class tag {class_tag!r}")


def class_descriptor(report: ClassificationReport) -> FibrationDescriptor:
    """Descriptor of the conjugacy-class fibration of a classified regular
    isometry over its boundary dimension; a hyperbolic's is the class of
    its stretch."""
    if not report.regular:
        raise NotRegular("class fibrations are canonical for regular elements only")
    tags = {
        FixedPointClass.ELLIPTIC: "elliptic",
        FixedPointClass.PARABOLIC: "parabolic",
        FixedPointClass.HYPERBOLIC: "hyperbolic",
    }
    return descriptor_for(
        tags[report.fixed_class], report.k, report.boundary_dim, report.angles.has_pi
    )


# ---------------------------------------------------------------------------
# projection maps on concrete elements
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class BoundaryPair:
    """Unordered pair of distinct boundary points (null rays, time = 1)."""

    first: np.ndarray
    second: np.ndarray

    def __post_init__(self):
        if float(np.max(np.abs(self.first - self.second))) <= 1e-12:
            raise InvalidArg("boundary pair must consist of distinct points")

    def as_sorted(self) -> tuple[np.ndarray, np.ndarray]:
        a, b = self.first, self.second
        return (a, b) if tuple(a) <= tuple(b) else (b, a)

    def same_pair(self, other: "BoundaryPair") -> bool:
        """The two unordered pairs agree to 1e-8 in the max norm."""
        a1, b1 = self.as_sorted()
        a2, b2 = other.as_sorted()
        direct = max(
            float(np.max(np.abs(a1 - a2))), float(np.max(np.abs(b1 - b2)))
        )
        swapped = max(
            float(np.max(np.abs(a1 - b2))), float(np.max(np.abs(b1 - a2)))
        )
        return min(direct, swapped) <= 1e-8


def alpha(a, delta: float = DEFAULT_DELTA) -> PlaneDecomposition:
    """Decomposition class of a regular k-rotation of E^{2k}: the canonical
    representative (planes by descending angle) of its unique invariant
    plane splitting."""
    decomp = plane_decomposition(a, delta)
    if decomp.fixed_subspace.shape[1] != 0:
        raise InvalidArg("alpha is defined for k-rotations of E^{2k} (no fixed part)")
    return decomp


def subspace_projector(frame: np.ndarray) -> np.ndarray:
    return frame @ frame.T


def same_decomposition_class(d1: PlaneDecomposition, d2: PlaneDecomposition) -> bool:
    """Equality in the permutation quotient: the plane *sets* agree, each
    projector to 1e-8 in the max norm."""
    if d1.k != d2.k:
        return False
    projs1 = [subspace_projector(p) for p in d1.planes]
    projs2 = [subspace_projector(p) for p in d2.planes]
    used = [False] * len(projs2)
    for p1 in projs1:
        hit = False
        for i, p2 in enumerate(projs2):
            if not used[i] and float(np.max(np.abs(p1 - p2))) <= 1e-8:
                used[i] = hit = True
                break
        if not hit:
            return False
    return True


def enumerate_fiber(decomp: PlaneDecomposition, angles) -> list[np.ndarray]:
    """The complete finite fiber over a decomposition class: every
    k-rotation with the given distinct angles whose plane splitting is the
    given one.  All angle-to-plane assignments (k! permutations) times the
    two orientations of each plane whose angle is not ``np.pi``; length
    d0(k, np.pi in angles).
    """
    angles = [float(a) for a in angles]
    k = len(angles)
    if k != decomp.k:
        raise AngleMultiplicity("need exactly one angle per plane")
    for i in range(k):
        for jj in range(i + 1, k):
            if abs(angles[i] - angles[jj]) <= 1e-12:
                raise AngleMultiplicity("fiber enumeration needs distinct angles")
    out = []
    for perm in itertools.permutations(range(k)):
        assigned = [angles[perm[i]] for i in range(k)]
        sign_slots = [i for i in range(k) if assigned[i] != np.pi]
        for signs in itertools.product((1.0, -1.0), repeat=len(sign_slots)):
            oriented = list(assigned)
            for slot, sg in zip(sign_slots, signs):
                oriented[slot] = sg * assigned[slot]
            out.append(
                assemble_rotation(decomp.planes, oriented, decomp.fixed_subspace)
            )
    return out


ProjectionResult = Union[EllipticSphere, EllipticPoint, BoundaryPair, np.ndarray]


def projection(x, delta: float = DEFAULT_DELTA) -> ProjectionResult:
    """Base point of the class fibration through a classified regular
    element.

    Lorentz input: the fixed sphere frame (elliptic), fixed hyperbolic
    point (full rotation), unordered boundary pair (hyperbolic), or
    boundary fixed point as a null ray (parabolic).  Orthogonal input:
    the pointwise-fixed subspace frame, a Grassmannian point.
    """
    if isinstance(x, LorentzMatrix):
        report = classify(x, delta)
        if not report.regular:
            raise NotRegular("projection maps are defined for regular elements")
        data = report.fixed_data
        if isinstance(data, HyperbolicPair):
            return BoundaryPair(data.attracting, data.repelling)
        if isinstance(data, ParabolicPoint):
            return data.point
        return data  # EllipticSphere or EllipticPoint
    decomp = plane_decomposition(x, delta)  # checks orthogonality + regularity
    return decomp.fixed_subspace


def fiber_elements_match_class(
    elements, decomp: PlaneDecomposition, delta: float = DEFAULT_DELTA
) -> bool:
    """Every enumerated element maps back to the same decomposition class."""
    return all(
        same_decomposition_class(plane_decomposition(m, delta), decomp)
        for m in elements
    )
