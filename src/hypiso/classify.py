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

from dataclasses import dataclass
from enum import Enum
from typing import Optional, Union

import numpy as np

from . import frames
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
    classify_membership,
    is_orthogonal,
)
from .spectral import (
    DEFAULT_DELTA,
    RotationAngles,
    _distinct,
    _LorentzSpectrum,
    _lorentz_angles,
    rotation_matrix,
)

class FixedPointClass(Enum):
    ELLIPTIC = "Elliptic"
    PARABOLIC = "Parabolic"
    HYPERBOLIC = "Hyperbolic"


@dataclass(frozen=True, eq=False)
class HyperbolicPair:
    """Unordered boundary fixed-point pair (attracting ray listed first
    internally; serialization orders lexicographically)."""

    attracting: np.ndarray
    repelling: np.ndarray

    def as_sorted(self) -> tuple[np.ndarray, np.ndarray]:
        a, b = self.attracting, self.repelling
        return (a, b) if tuple(a) <= tuple(b) else (b, a)

    def to_json_dict(self) -> dict:
        a, b = self.as_sorted()
        return {"variant": "Hyperbolic", "points": [a.tolist(), b.tolist()]}


@dataclass(frozen=True, eq=False)
class ParabolicPoint:
    point: np.ndarray

    def to_json_dict(self) -> dict:
        return {"variant": "Parabolic", "point": self.point.tolist()}


@dataclass(frozen=True, eq=False)
class EllipticSphere:
    """Frame of ker(T - I); its null rays form the pointwise-fixed sphere."""

    frame: np.ndarray
    sphere_dim: int

    def to_json_dict(self) -> dict:
        return {
            "variant": "EllipticSphere",
            "frame": self.frame.T.tolist(),
            "sphere_dim": self.sphere_dim,
        }


@dataclass(frozen=True, eq=False)
class EllipticPoint:
    """Unique fixed point in H^{n+1} of a full-rotation elliptic (n odd)."""

    point: np.ndarray

    def to_json_dict(self) -> dict:
        return {"variant": "EllipticPoint", "point": self.point.tolist()}


FixedPointData = Union[HyperbolicPair, ParabolicPoint, EllipticSphere, EllipticPoint]


@dataclass(frozen=True, eq=False)
class ClassificationReport:
    fixed_class: FixedPointClass
    k: int
    angles: RotationAngles
    regular: bool
    stretch: Optional[float]
    fixed_data: FixedPointData
    boundary_dim: int

    def to_json_dict(self) -> dict:
        return {
            "class": self.fixed_class.value,
            "k": self.k,
            "angles": list(self.angles.angles),
            "regular": self.regular,
            "stretch": self.stretch,
            "fixed_data": self.fixed_data.to_json_dict(),
        }


@dataclass(frozen=True, eq=False)
class KRotation:
    """Elliptic standard position: fixed point at the hyperboloid apex,
    boundary sphere action by an orthogonal matrix."""

    matrix: np.ndarray
    angles: tuple[float, ...]


@dataclass(frozen=True, eq=False)
class KRotatoryTranslation:
    """Parabolic standard position: fixed point at infinity, boundary
    action x -> Ax + b."""

    rotation: np.ndarray
    translation: np.ndarray
    angles: tuple[float, ...]


@dataclass(frozen=True, eq=False)
class KRotatoryStretch:
    """Hyperbolic standard position: fixed points at 0 and infinity,
    boundary action x -> rAx with r > 1."""

    stretch: float
    rotation: np.ndarray
    angles: tuple[float, ...]


@dataclass(frozen=True, eq=False)
class NormalForm:
    variant: Union[KRotation, KRotatoryTranslation, KRotatoryStretch]
    conjugator: LorentzMatrix  # W with W T W^-1 in standard position


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


def boundary_point_of_ray(space: QuadraticSpace, v, tol: float = 1e-12):
    """Inverse of the lift; ``None`` encodes the point at infinity."""
    v = np.asarray(v, dtype=float)
    lplus = v[-1] + v[-2]
    if abs(lplus) <= tol * max(1.0, float(np.max(np.abs(v)))):
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


def _spectra(ts: list, delta: float) -> list:
    """:func:`_spectrum` of each entry of ``ts`` (Lorentz matrices of one
    size), from one stacked pass.

    An entry that is an exception passes through; an entry whose pass
    fails holds the exception ``_spectrum`` raises for it.  A stacked
    kernel fails for the whole stack, so then the pass is redone per
    matrix to find the one at fault.
    """
    out = list(ts)
    live = []
    for i, t in enumerate(ts):
        if isinstance(t, Exception):
            continue
        try:
            _require_sheet_preserving(t)
            live.append(i)
        except InvalidArg as exc:
            out[i] = exc
    try:
        passes = _LorentzSpectrum.stack([ts[i] for i in live], delta)
    except (np.linalg.LinAlgError, HypisoError):
        passes = []
        for i in live:
            try:
                passes.append(_LorentzSpectrum.of(ts[i], delta))
            except Exception as exc:  # noqa: BLE001 - kept in place of its pass
                passes.append(exc)
    for i, sp in zip(live, passes):
        out[i] = sp
    return out


def _fixed_point_class(sp: _LorentzSpectrum) -> FixedPointClass:
    if sp.band:
        raise Borderline(
            "kernel of T - I is threshold-ambiguous; semisimplicity marginal"
        )
    if sp.defective:
        return FixedPointClass.PARABOLIC
    if sp.rmax > 1.0 + sp.delta:
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
    decides hyperbolic.  ``Borderline`` is raised when the dominant
    modulus falls inside (1 + delta/4, 1 + delta] or when the kernel of
    T - I is itself threshold-ambiguous.
    """
    return _fixed_point_class(_spectrum(t, delta))


def _stretch(sp: _LorentzSpectrum) -> float:
    """Modulus of the dominant eigenvalue of a hyperbolic isometry."""
    lam = sp.lam
    # a non-real dominant eigenvalue puts the hyperbolic reading itself in
    # doubt (the scattered spectrum of a Jordan block can pass for a
    # stretch pair): a refusal, not an internal error
    # |lam| of the scalar, not rmax: numpy's complex abs over an array may
    # round the last bit differently
    if abs(lam.imag) > sp.delta * abs(lam):
        raise Borderline(
            f"dominant eigenvalue is not real: |Im lambda| = {abs(lam.imag):.3e} "
            f"exceeds delta * |lambda| = {sp.delta * abs(lam):.3e}"
        )
    if lam.real <= 0:
        raise HypisoError("dominant eigenvalue of a hyperbolic isometry must be real positive")
    return float(abs(lam))


def stretch_factor(t: LorentzMatrix, delta: float = DEFAULT_DELTA) -> float:
    """Unit-normalized stretch r > 1 of a hyperbolic isometry."""
    sp = _spectrum(t, delta)
    if _fixed_point_class(sp) is not FixedPointClass.HYPERBOLIC:
        raise NotHyperbolic("stretch factor is defined for hyperbolic isometries")
    return _stretch(sp)


def _fixed_stage(hyperbolic: list, forms: list) -> None:
    """The LAPACK work of the fixed-point data of passes of one size, run
    stacked over the passes that do not yet store it, and stored on each.

    One SVD of the (2H, d, d) stack [T - r I; T - r^-1 I] over the H passes
    of ``hyperbolic`` (each with a real positive dominant eigenvalue r)
    gives each its ``rays``: the right singular vectors of the smallest
    singular values, the null eigenvectors for r and 1/r.  One ``eigh``
    per kernel width over the Gram matrices K^T J K of ker(T - I) of the
    passes of ``forms`` gives each its ``form`` (w, e), the eigen-
    decomposition of Q on its fixed space; empty kernels are skipped.

    numpy runs the same LAPACK routine on each matrix of a stack, so each
    result is bit-identical to that of a stack of one.  A stacked call
    that fails raises and stores nothing for its stack; each reader runs
    the stage on its own pass alone, which then redoes only what is missing.
    """
    hyperbolic = [sp for sp in hyperbolic if sp.rays is None]
    if hyperbolic:
        h = len(hyperbolic)
        m = np.array([sp.entries for sp in hyperbolic] * 2)
        r = np.array([_stretch(sp) for sp in hyperbolic])
        lam = np.concatenate([r, 1.0 / r])
        vt = np.linalg.svd(m - lam[:, None, None] * np.eye(m.shape[-1]))[2]
        for i, sp in enumerate(hyperbolic):
            rays = vt[[i, h + i], -1]
            rays.setflags(write=False)
            sp.rays = rays
    by_width: dict[int, list] = {}
    for sp in forms:
        if sp.form is None and sp.kernel.shape[1]:
            by_width.setdefault(sp.kernel.shape[1], []).append(sp)
    for group in by_width.values():
        j = group[0].space.form_signs
        w, e = np.linalg.eigh(np.array([sp.kernel.T @ (j[:, None] * sp.kernel) for sp in group]))
        for sp, wi, ei in zip(group, w, e):
            wi.setflags(write=False)
            ei.setflags(write=False)
            sp.form = (wi, ei)


def _hyperbolic_rays(sp: _LorentzSpectrum) -> tuple[np.ndarray, np.ndarray]:
    """Null eigenvectors for (r, 1/r), each normalized to time coordinate 1."""
    _stretch(sp)
    _fixed_stage([sp], [])
    out = []
    for v in sp.rays:
        if abs(v[-1]) < 1e-10:
            raise HypisoError("null eigenvector has vanishing time coordinate")
        out.append(v / v[-1])
    return out[0], out[1]


def _fixed_space_form(sp: _LorentzSpectrum, kind: str):
    """(kernel, w, e): ker(T - I) and the eigen-decomposition w, e of Q on it."""
    kernel = sp.kernel
    if kernel.shape[1] == 0:
        raise HypisoError(f"{kind} isometry with empty fixed space")
    _fixed_stage([], [sp])
    w, e = sp.form
    return kernel, w, e


def _parabolic_ray(sp: _LorentzSpectrum) -> np.ndarray:
    """The unique boundary fixed ray: the radical of Q on ker(T - I).

    ker(T - I) of a parabolic splits as (null line) + (space-like part),
    so the restricted Gram is positive semidefinite with a one-dimensional
    kernel, which is the fixed ray.
    """
    kernel, w, e = _fixed_space_form(sp, "parabolic")
    order = np.argsort(np.abs(w))
    if abs(w[order[0]]) > 1e-8 or (len(w) > 1 and abs(w[order[1]]) < 1e-8):
        raise HypisoError("fixed space of a parabolic must have a 1-dim radical")
    u = kernel @ e[:, order[0]]
    if abs(u[-1]) < 1e-10:
        raise HypisoError("parabolic fixed ray has vanishing time coordinate")
    return u / u[-1]


def _elliptic_fixed_vector(sp: _LorentzSpectrum) -> np.ndarray:
    """Time-like unit 1-eigenvector on the upper sheet."""
    kernel, w, e = _fixed_space_form(sp, "elliptic")
    if w[0] >= 0:
        raise HypisoError("fixed space of an elliptic isometry must be time-like")
    v = kernel @ e[:, 0]
    j = sp.space.form_signs
    v = v / np.sqrt(-frames.j_inner(j, v, v))
    return v if v[-1] > 0 else -v


def _boundary_fixed_points(
    sp: _LorentzSpectrum, cls: FixedPointClass
) -> FixedPointData:
    if cls is FixedPointClass.HYPERBOLIC:
        att, rep = _hyperbolic_rays(sp)
        return HyperbolicPair(att, rep)
    if cls is FixedPointClass.PARABOLIC:
        return ParabolicPoint(_parabolic_ray(sp))
    return EllipticSphere(sp.kernel, sp.kernel.shape[1] - 2)


def boundary_fixed_points(
    t: LorentzMatrix, delta: float = DEFAULT_DELTA
) -> FixedPointData:
    """Fixed-point data on the boundary (or in H^m for full rotations).

    Hyperbolic: the unordered pair of null eigenrays; parabolic: the
    single fixed ray; elliptic: the frame of ker(T - I), whose null rays
    form the fixed sphere.  Rays are normalized to time coordinate 1.
    """
    sp = _spectrum(t, delta)
    return _boundary_fixed_points(sp, _fixed_point_class(sp))


def _report_head(sp: _LorentzSpectrum) -> tuple:
    """Class, angles and stretch: the part of a report read from the pass."""
    cls = _fixed_point_class(sp)
    ang = _lorentz_angles(sp)
    stretch = _stretch(sp) if cls is FixedPointClass.HYPERBOLIC else None
    return cls, ang, stretch


def _full_rotation(sp: _LorentzSpectrum, cls: FixedPointClass, ang: RotationAngles) -> bool:
    """An elliptic rotating every space-like direction: its fixed data is
    the time-like fixed vector."""
    return cls is FixedPointClass.ELLIPTIC and 2 * ang.k == sp.space.n


def _report(sp: _LorentzSpectrum, cls, ang, stretch) -> ClassificationReport:
    if _full_rotation(sp, cls, ang):
        fixed: FixedPointData = EllipticPoint(_elliptic_fixed_vector(sp))
    else:
        fixed = _boundary_fixed_points(sp, cls)
    return ClassificationReport(
        fixed_class=cls,
        k=ang.k,
        angles=ang,
        regular=_distinct(ang.angles, sp.delta),
        stretch=stretch,
        fixed_data=fixed,
        boundary_dim=sp.space.n - 1,
    )


def _classify_stack(passes: list) -> list:
    """The report of each entry of ``passes`` (passes of one size), or the
    exception its classification raises; an entry that is an exception
    passes through.

    Class, angles and stretch are read from each pass; then one
    :func:`_fixed_stage` covers every pass whose fixed data needs LAPACK
    work (hyperbolic, parabolic, full-rotation elliptic), and each report
    reads its stored result.  A failing stacked call stores nothing, so the
    reports of that stack redo the stage one pass at a time and each meets
    its own exception, as with the stacked pass (:func:`_spectra`).
    """
    out = list(passes)
    heads = {}
    for i, sp in enumerate(passes):
        if isinstance(sp, Exception):
            continue
        try:
            heads[i] = _report_head(sp)
        except Exception as exc:  # noqa: BLE001 - kept in place of its report
            out[i] = exc
    hyperbolic = [passes[i] for i, (cls, _, _) in heads.items() if cls is FixedPointClass.HYPERBOLIC]
    forms = [
        passes[i] for i, (cls, ang, _) in heads.items()
        if cls is FixedPointClass.PARABOLIC or _full_rotation(passes[i], cls, ang)
    ]
    try:
        _fixed_stage(hyperbolic, forms)
    except np.linalg.LinAlgError:
        pass  # redone per pass by the reports below
    for i, head in heads.items():
        try:
            out[i] = _report(passes[i], *head)
        except Exception as exc:  # noqa: BLE001 - kept in place of its report
            out[i] = exc
    return out


def _classify(sp: _LorentzSpectrum) -> ClassificationReport:
    """The report of one pass: the stack of one."""
    report = _classify_stack([sp])[0]
    if isinstance(report, Exception):
        raise report
    return report


def classify(t: LorentzMatrix, delta: float = DEFAULT_DELTA) -> ClassificationReport:
    """Full classification report: class, rotation data, stretch, fixed data."""
    return _classify(_spectrum(t, delta))


# ---------------------------------------------------------------------------
# normal forms
# ---------------------------------------------------------------------------


def normal_form(
    t: LorentzMatrix, delta: float = DEFAULT_DELTA
) -> NormalForm:
    """Conjugate T into standard position and read the boundary parameters.

    W is the stored adapted frame moved to standard position by a fixed
    signed permutation: a validated sheet-preserving Lorentz matrix (not
    necessarily in the identity component, and not canonical) with
    W T W^-1 in standard position.  Re-extending the returned parameters
    and conjugating back reproduces T.
    """
    return _normal_form(_spectrum(t, delta), t.tolerance)


def _normal_form(sp: _LorentzSpectrum, tolerance: float) -> NormalForm:
    # reality imports this module, so its splitting is imported at call time
    from .reality import _lorentz_structure

    space = sp.space
    d = space.dim
    st = _lorentz_structure(sp)
    angles = _lorentz_angles(sp).angles
    elliptic = st.cls is FixedPointClass.ELLIPTIC
    parabolic = st.cls is FixedPointClass.PARABOLIC
    k = st.special_dim
    # W = P Phi*, P sending the adapted frame to standard position; row i of
    # W is the frame coordinate that becomes standard coordinate i
    if elliptic:
        order = list(range(1, d)) + [0]  # v -> time, the rest -> (x', pole)
    else:
        # parabolic f1 -> x'_0; the rest -> x'; s or f2 -> -pole; t or f3 -> time
        order = [0] * parabolic + list(range(k, d)) + [k - 2, k - 1]
    w = frames.frame_pinv(st.frame, st.signs, space.form_signs)[order]
    if not elliptic:
        w[-2] = -w[-2]
    b = st.blocks
    rot = np.diag([1.0] * (d - k + parabolic - b.b) + [-1.0] * b.b)
    for i, (theta, _) in enumerate(b.planes):
        at = parabolic + 2 * i
        rot[at : at + 2, at : at + 2] = rotation_matrix(theta)
    variant: Union[KRotation, KRotatoryTranslation, KRotatoryStretch]
    if elliptic:
        variant = KRotation(matrix=rot, angles=angles)
    elif parabolic:
        c = st.unipotent_c
        if c <= 0:
            raise HypisoError("unipotent parameter of a parabolic must be positive")
        variant = KRotatoryTranslation(rotation=rot, translation=c * np.eye(d - 2)[0], angles=angles)
    else:
        variant = KRotatoryStretch(stretch=_stretch(sp), rotation=rot, angles=angles)
    conj = classify_membership(space, w, max(tolerance, 1e-9))
    return NormalForm(variant=variant, conjugator=conj)


def standard_position_matrix(space: QuadraticSpace, variant) -> np.ndarray:
    """Hyperboloid matrix of a normal-form variant in standard position."""
    if isinstance(variant, KRotation):
        out = np.eye(space.dim)
        out[:-1, :-1] = variant.matrix
        return out
    if isinstance(variant, KRotatoryTranslation):
        return np.asarray(
            poincare_extend(1.0, variant.rotation, variant.translation).entries
        )
    if isinstance(variant, KRotatoryStretch):
        return np.asarray(poincare_extend(variant.stretch, variant.rotation).entries)
    raise InvalidArg(f"unknown normal-form variant {type(variant).__name__}")


def reconstruct_from_normal_form(nf: NormalForm) -> np.ndarray:
    """Undo the conjugation: W^-1 (standard matrix) W."""
    space = nf.conjugator.space
    std = standard_position_matrix(space, nf.variant)
    winv = nf.conjugator.inverse().entries
    return winv @ std @ nf.conjugator.entries
