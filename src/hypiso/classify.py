"""Fixed-point classification of hyperbolic-space isometries.

A validated sheet-preserving matrix T in O(m,1) acts on the hyperboloid
model of H^m whose conformal boundary is S^{m-1}, identified with the
extended Euclidean space E^{m-1} + {inf}.  Throughout, ``n`` denotes the
boundary dimension m - 1.

Exactly one of three classes applies:

* hyperbolic -- a real eigenvalue r > 1 exists (paired with 1/r); two
  boundary fixed points; boundary normal form x -> r A x;
* parabolic  -- all eigenvalues on the unit circle but T is not
  semisimple (the eigenvalue 1 carries one size-3 Jordan block); a single
  boundary fixed point; boundary normal form x -> A x + b with the
  translation part along ker(A - I) nonzero;
* elliptic   -- semisimple with unit spectrum; a fixed point inside H^m
  exists (equivalently a time-like 1-eigenvector).

Model chain, fixed once: the boundary point p in E^n lifts to the null ray
``lift(p) = (p, (1-|p|^2)/2, (1+|p|^2)/2)`` and infinity to the ray
``(0, ..., 0, -1, 1)``; boundary points are represented by null vectors
normalized to time coordinate 1.  Upper-half-space similarities
``x -> rAx + b`` transfer to the hyperboloid through light-cone
coordinates (l+ , l-) = (x_time + x_pole, x_time - x_pole), in which the
transfer is linear with matrix

    [[ A,       b/r,      0 ],
     [ 0,       1/r,      0 ],
     [ 2 b^T A, |b|^2/r,  r ]].

Only conjugation-invariant outputs (class, angle multiset, stretch, fixed
point data up to the group action) are contractual; the chain itself is
pinned by the round-trip tests.
"""

from __future__ import annotations

from enum import Enum
from typing import Optional, Union

import numpy as np

from .errors import (
    Borderline,
    HypisoError,
    InvalidArg,
    NonpositiveScale,
    NotHyperbolic,
    NotOrthogonal,
)
from .quadspace import (
    DEFAULT_EPS,
    LorentzMatrix,
    QuadraticSpace,
    _Record,
    _set,
    classify_membership,
    is_orthogonal,
    j_inner,
)
from .spectral import (
    DEFAULT_DELTA,
    RotationAngles,
    _distinct,
    _LorentzSpectrum,
    _lorentz_angles,
)

class FixedPointClass(Enum):
    ELLIPTIC = "Elliptic"
    PARABOLIC = "Parabolic"
    HYPERBOLIC = "Hyperbolic"


class HyperbolicPair(_Record):
    """Unordered boundary fixed-point pair (attracting ray listed first
    internally; serialization orders lexicographically)."""

    __slots__ = _fields = ("attracting", "repelling")

    def __init__(self, attracting: np.ndarray, repelling: np.ndarray):
        _set(self, "attracting", attracting)
        _set(self, "repelling", repelling)

    def as_sorted(self) -> tuple[np.ndarray, np.ndarray]:
        a, b = self.attracting, self.repelling
        return (a, b) if tuple(a) <= tuple(b) else (b, a)

    def to_json_dict(self) -> dict:
        a, b = self.as_sorted()
        return {"variant": "Hyperbolic", "points": [a.tolist(), b.tolist()]}


class ParabolicPoint(_Record):
    __slots__ = _fields = ("point",)

    def __init__(self, point: np.ndarray):
        _set(self, "point", point)

    def to_json_dict(self) -> dict:
        return {"variant": "Parabolic", "point": self.point.tolist()}


class EllipticSphere(_Record):
    """Frame of ker(T - I); its null rays form the pointwise-fixed sphere."""

    __slots__ = _fields = ("frame", "sphere_dim")

    def __init__(self, frame: np.ndarray, sphere_dim: int):
        _set(self, "frame", frame)
        _set(self, "sphere_dim", sphere_dim)

    def to_json_dict(self) -> dict:
        return {
            "variant": "EllipticSphere",
            "frame": self.frame.T.tolist(),
            "sphere_dim": self.sphere_dim,
        }


class EllipticPoint(_Record):
    """Unique fixed point in H^{n+1} of a full-rotation elliptic (n odd)."""

    __slots__ = _fields = ("point",)

    def __init__(self, point: np.ndarray):
        _set(self, "point", point)

    def to_json_dict(self) -> dict:
        return {"variant": "EllipticPoint", "point": self.point.tolist()}


FixedPointData = Union[HyperbolicPair, ParabolicPoint, EllipticSphere, EllipticPoint]


class ClassificationReport(_Record):
    __slots__ = _fields = ("fixed_class", "k", "angles", "regular", "stretch", "fixed_data",
                           "boundary_dim")

    def __init__(self, fixed_class: FixedPointClass, k: int, angles: RotationAngles,
                 regular: bool, stretch: Optional[float], fixed_data: FixedPointData,
                 boundary_dim: int):
        _set(self, "fixed_class", fixed_class)
        _set(self, "k", k)
        _set(self, "angles", angles)
        _set(self, "regular", regular)
        _set(self, "stretch", stretch)
        _set(self, "fixed_data", fixed_data)
        _set(self, "boundary_dim", boundary_dim)

    def to_json_dict(self) -> dict:
        return {
            "class": self.fixed_class.value,
            "k": self.k,
            "angles": list(self.angles.angles),
            "regular": self.regular,
            "stretch": self.stretch,
            "fixed_data": self.fixed_data.to_json_dict(),
        }


# ---------------------------------------------------------------------------
# model chain
# ---------------------------------------------------------------------------


def lift_boundary_point(space: QuadraticSpace, p) -> np.ndarray:
    """Null vector of the ray over p in E^{n}, with l+ component 1."""
    p = np.asarray(p, dtype=float)
    if p.shape != (space.n - 1,):
        raise InvalidArg(
            f"boundary point must have length {space.n - 1}, got {p.shape}"
        )
    sq = float(np.dot(p, p))
    return np.concatenate([p, [(1.0 - sq) / 2.0, (1.0 + sq) / 2.0]])


def boundary_point_of_ray(space: QuadraticSpace, v):
    """Inverse of the lift; ``None`` encodes the point at infinity, where
    l+ vanishes to 1e-12 relative to the ray's largest entry."""
    v = np.asarray(v, dtype=float)
    lplus = v[-1] + v[-2]
    if abs(lplus) <= 1e-12 * max(1.0, float(np.max(np.abs(v)))):
        return None
    return v[:-2] / lplus


def _similarity_lightcone(r: float, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    nb = a.shape[0]
    m = np.zeros((nb + 2, nb + 2))
    m[:nb, :nb] = a
    m[:nb, nb] = b / r
    m[nb, nb] = 1.0 / r
    m[nb + 1, :nb] = 2.0 * (a.T @ b)
    m[nb + 1, nb] = float(np.dot(b, b)) / r
    m[nb + 1, nb + 1] = r
    return m


def poincare_extend(
    r: float, a, b=None, eps: float = DEFAULT_EPS
) -> LorentzMatrix:
    """Extend the boundary similarity x -> rAx + b to the hyperboloid model.

    Parameters
    ----------
    r : positive scale factor.
    a : orthogonal n x n matrix.
    b : translation vector in E^n (defaults to zero).

    Returns the validated Lorentz matrix of the extension acting on
    H^{n+1}; the corresponding upper-half-space action is
    ``(x, t) -> (rAx + b, rt)``.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise NotOrthogonal("boundary rotation must be a square matrix")
    if not is_orthogonal(a, max(eps, 1e-9)):
        raise NotOrthogonal("boundary rotation part is not orthogonal")
    if not (r > 0):
        raise NonpositiveScale(f"scale must be positive, got {r}")
    nb = a.shape[0]
    b = np.zeros(nb) if b is None else np.asarray(b, dtype=float)
    if b.shape != (nb,):
        raise InvalidArg("translation length does not match the rotation size")
    c, cinv = np.eye(nb + 2), np.eye(nb + 2)
    c[nb:, nb:] = [[1.0, 1.0], [-1.0, 1.0]]  # (x', pole, time) -> (x', l+, l-)
    cinv[nb:, nb:] = c[nb:, nb:].T / 2.0
    ext = cinv @ _similarity_lightcone(float(r), a, b) @ c
    return classify_membership(QuadraticSpace(nb + 1), ext, max(eps, 1e-9))


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------


def _require_sheet_preserving(t):
    """Refuse an element, or the record of its pass, off the
    sheet-preserving components."""
    if not t.sheet_preserving:
        raise InvalidArg(
            "classification is defined for sheet-preserving isometries only"
        )


def _spectrum(t: LorentzMatrix, delta: float) -> _LorentzSpectrum:
    """The spectral pass of a sheet-preserving isometry."""
    _require_sheet_preserving(t)
    return _LorentzSpectrum.of(t, delta)


def _fixed_point_class(sp: _LorentzSpectrum) -> FixedPointClass:
    if sp.band:
        raise Borderline(
            "kernel of T - I is threshold-ambiguous; semisimplicity marginal"
        )
    if sp.square_band:
        raise Borderline(
            "a singular value of (T - I)^2 lies just under tau^2; the rank that "
            "finds a Jordan block at 1 is threshold-ambiguous"
        )
    if sp.defective:
        g = _fixed_axis(sp, "parabolic")[1]
        if g < -1e-8:
            raise Borderline(
                f"the kernel axis of a parabolic reading has Q = {g:.3e}, time-like "
                "beyond the 1e-8 gate of a null ray: the kernel of an elliptic"
            )
        return FixedPointClass.PARABOLIC
    if sp.rmax > 1.0 + sp.delta:
        # a Jordan block's scattered spectrum can pass for a stretch pair
        lam = sp.lam
        if abs(lam.imag) > sp.delta * abs(lam):
            raise Borderline(
                f"dominant eigenvalue is not real: |Im lambda| = {abs(lam.imag):.3e} "
                f"exceeds delta * |lambda| = {sp.delta * abs(lam):.3e}"
            )
        if sp.unpaired:
            raise Borderline(
                f"dominant eigenvalue modulus {sp.rmax} has no eigenvalue near its "
                f"inverse {1.0 / sp.rmax}: a stretch without its pair is not a hyperbolic's"
            )
        return FixedPointClass.HYPERBOLIC
    if sp.rmax > 1.0 + sp.delta / 4.0:
        raise Borderline(
            f"dominant eigenvalue modulus {sp.rmax} is inside the tolerance gap"
        )
    return FixedPointClass.ELLIPTIC


def fixed_point_class(
    t: LorentzMatrix, delta: float = DEFAULT_DELTA
) -> FixedPointClass:
    """Elliptic / parabolic / hyperbolic trichotomy.

    The defective-eigenvalue-1 test runs first because it rests on
    singular values, which perturb linearly; the eigenvalues of a
    unipotent block scatter like the cube root of the backward error and
    would fool a plain modulus threshold.  Among non-defective inputs a
    real eigenvalue is simple and well conditioned, so modulus > 1 + delta
    decides hyperbolic.  Every refusal of the class is made here, as
    ``Borderline``: a kernel of T - I, or a rank of (T - I)^2, that is
    threshold-ambiguous; a defective reading whose kernel axis is
    time-like, an elliptic's kernel; a modulus over 1 + delta whose
    eigenvalue is not real or has no eigenvalue near its inverse; a
    dominant modulus inside (1 + delta/4, 1 + delta].
    """
    return _fixed_point_class(_spectrum(t, delta))


def _stretch(sp: _LorentzSpectrum) -> float:
    """Modulus of the dominant eigenvalue of a hyperbolic isometry; a
    non-real one is refused by the class reading (:func:`fixed_point_class`)."""
    lam = sp.lam
    if lam.real <= 0:
        raise HypisoError("dominant eigenvalue of a hyperbolic isometry must be real positive")
    # |lam| of the scalar, not rmax: numpy's complex abs over an array may
    # round the last bit differently
    return float(abs(lam))


def stretch_factor(t: LorentzMatrix, delta: float = DEFAULT_DELTA) -> float:
    """Unit-normalized stretch r > 1 of a hyperbolic isometry."""
    sp = _spectrum(t, delta)
    if _fixed_point_class(sp) is not FixedPointClass.HYPERBOLIC:
        raise NotHyperbolic("stretch factor is defined for hyperbolic isometries")
    return _stretch(sp)


def _hyperbolic_rays(sp: _LorentzSpectrum) -> tuple[np.ndarray, np.ndarray]:
    """Null eigenvectors for (r, 1/r), each normalized to time coordinate 1:
    the rays the pass stores for a real positive dominant eigenvalue."""
    _stretch(sp)  # refuses any other dominant eigenvalue, which has no rays
    out = []
    for v in sp.rays:
        if abs(v[-1]) < 1e-10:
            raise HypisoError("null eigenvector has vanishing time coordinate")
        out.append(v / v[-1])
    return out[0], out[1]


def _fixed_axis(sp: _LorentzSpectrum, kind: str) -> tuple[np.ndarray, float]:
    """(K z, g): the one direction of ker(T - I) on which Q is not 1, and
    the value g of Q on its unit vector K z / |z|.

    The kernel K has Euclidean-orthonormal columns (rows of an SVD's vt),
    so with J = diag(1, ..., 1, -1) its Gram K^T J K is I - 2 z z^T, z the
    time row of K: eigenvalue g = 1 - 2 |z|^2 along z, and exactly 1 on the
    rest of the fixed space.  (K z)[n] = |z|^2 is never negative.
    """
    kernel = sp.kernel
    if kernel.shape[1] == 0:
        raise HypisoError(f"{kind} isometry with empty fixed space")
    z = kernel[-1]
    return kernel @ z, 1.0 - 2.0 * float(z @ z)


def _parabolic_ray(sp: _LorentzSpectrum) -> np.ndarray:
    """The unique boundary fixed ray: the radical of Q on ker(T - I).

    ker(T - I) of a parabolic splits as (null line) + (space-like part),
    so the restricted Gram is positive semidefinite with a one-dimensional
    kernel, which is the fixed ray: the axis K z, where g vanishes.  A
    time-like axis is refused by the class reading (:func:`fixed_point_class`).
    """
    u, g = _fixed_axis(sp, "parabolic")
    if not abs(g) <= 1e-8:  # a NaN fails too
        raise HypisoError("fixed space of a parabolic must have a 1-dim radical")
    return u / u[-1]


def _elliptic_fixed_vector(sp: _LorentzSpectrum) -> np.ndarray:
    """Time-like unit 1-eigenvector on the upper sheet: the axis K z, on
    which Q is negative."""
    v, g = _fixed_axis(sp, "elliptic")
    if not g < 0:
        raise HypisoError("fixed space of an elliptic isometry must be time-like")
    return v / np.sqrt(-j_inner(sp.space.form_signs, v, v))


def _check_kernel_width(sp: _LorentzSpectrum, width: int) -> None:
    """Refuse a kernel of T - I at tau whose width is not the ``width``
    that the reading of the spectrum counts: one of the two readings has
    put an eigenvalue near 1 on the wrong side of its threshold."""
    if sp.kernel.shape[1] != width:
        raise Borderline(
            f"ker(T - I) at tau = {sp.delta * sp.scale:.3e} has width "
            f"{sp.kernel.shape[1]}, the reading of the spectrum counts {width}"
        )


def _fixed_data(sp: _LorentzSpectrum, cls: FixedPointClass, ang: RotationAngles) -> FixedPointData:
    """Hyperbolic: the unordered pair of null eigenrays; parabolic: the
    single fixed ray; elliptic: the frame of ker(T - I), whose null rays
    form the fixed sphere, or, for a full rotation (2k = n), the fixed
    point in H^m.  An elliptic's kernel is its time-like fixed vector and
    its space-like +1 eigenspace, of width dim - 2k - reflection by the
    angles; a kernel of another width is refused."""
    if cls is FixedPointClass.HYPERBOLIC:
        return HyperbolicPair(*_hyperbolic_rays(sp))
    if cls is FixedPointClass.PARABOLIC:
        return ParabolicPoint(_parabolic_ray(sp))
    width = sp.space.dim - 2 * ang.k - ang.reflection
    _check_kernel_width(sp, width)
    if 2 * ang.k == sp.space.n:
        return EllipticPoint(_elliptic_fixed_vector(sp))
    return EllipticSphere(sp.kernel, width - 2)


def boundary_fixed_points(
    t: LorentzMatrix, delta: float = DEFAULT_DELTA
) -> FixedPointData:
    """Fixed-point data on the boundary (or in H^m for full rotations):
    that of the classification report, ``classify(t, delta).fixed_data``.
    Rays are normalized to time coordinate 1."""
    return classify(t, delta).fixed_data


def _classify(sp: _LorentzSpectrum) -> ClassificationReport:
    """The report of one pass: class, angles and stretch read from the
    pass, then the fixed data."""
    cls = _fixed_point_class(sp)
    stretch = _stretch(sp) if cls is FixedPointClass.HYPERBOLIC else None
    ang = _lorentz_angles(sp)
    return ClassificationReport(
        fixed_class=cls,
        k=ang.k,
        angles=ang,
        regular=_distinct(ang.angles, sp.delta),
        stretch=stretch,
        fixed_data=_fixed_data(sp, cls, ang),
        boundary_dim=sp.space.n - 1,
    )


def classify(t: LorentzMatrix, delta: float = DEFAULT_DELTA) -> ClassificationReport:
    """Full classification report: class, rotation data, stretch, fixed data."""
    return _classify(_spectrum(t, delta))
