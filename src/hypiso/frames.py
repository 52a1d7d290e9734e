"""The adapted frame of an isometry: its splitting, every map read from
it, and the gates its reversers and conjugators pass.

A *frame* is a matrix whose columns are J-orthonormal for the diagonal
form J = diag(1, ..., 1, -1), or J = I; ``signs`` records Q(f_j) = +-1 per
column, and ``j`` the form signs, so the same code serves both cases.  The
left inverse of a frame is ``F* = diag(signs) @ F.T @ J``, so block
operators are assembled without solving linear systems, and the
space-like complement needs no eigensolve: its basis has
Euclidean-orthonormal columns, so its J-Gram is I - 2 z z^T (z the basis's
time row), whose inverse square root is read in closed form.

The adapted splitting (:class:`_LorentzStructure`) is a square frame Phi
in which T is block diagonal: the special time-like block, the invariant
rotation planes, then +1, then -1.  Only this module reads that layout.
Each reverser, in every group and in the oracle's exact mode, is the
frame map Phi D Phi* with D a +-1 diagonal (:func:`_reverser`); the
conjugator of a pair of one class is Phi_2 M Phi_1* (:func:`_conjugator`);
the normal form's conjugator is Phi* in standard order.  Both certificates
pass their gates here, at one tolerance, and a miss that a rotation read
as +-1 explains is refused by name (:func:`_certificate_failure`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from . import lapack
from .classify import (
    FixedPointClass, _check_kernel_width, _elliptic_fixed_vector, _fixed_point_class,
    _hyperbolic_rays, _parabolic_ray, _require_sheet_preserving, _spectrum, _stretch,
    poincare_extend,
)
from .errors import Borderline, HypisoError, InvalidArg
from .quadspace import (
    Component, LorentzMatrix, QuadraticSpace, _component, _constants, classify_membership,
    form_residual, group_inverse, j_inner,
)
from .spectral import (
    DEFAULT_DELTA, _LorentzSpectrum, _lorentz_angles, _OrthogonalBlocks, invariant_plane_frames,
    null_space_at, rotation_matrix,
)

# absolute singular-value threshold of the kernel a space-like complement
# is read from
COMPLEMENT_THRESHOLD = 1e-10
CERTIFICATE_TOL = 1e-8  # every reverser and conjugator residual
CONJUGATOR_MEMBERSHIP_TOL = 1e-7  # relative to max(1, max|S|^2)


def frame_pinv(frame: np.ndarray, signs: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Left inverse of a J-orthonormal frame: diag(signs) F^T J."""
    return (signs[:, None] * frame.T) * j[None, :]


def frame_map(
    out: np.ndarray, m: np.ndarray, inp: np.ndarray, signs: np.ndarray, j: np.ndarray
) -> np.ndarray:
    """The operator F_out M F_in*: M in frame coordinates, read from the
    frame ``inp`` (Q-signs ``signs``) and written to the frame ``out``.

    A diagonal M may be given as its diagonal, a vector or a list: F_out M
    is then F_out with its columns scaled, which for entries +-1 is exact
    and equal to the product."""
    pinv = frame_pinv(inp, signs, j)
    if isinstance(m, list) or m.ndim == 1:
        return (out * m) @ pinv
    return out @ m @ pinv


def restrict_to_frame(
    m: np.ndarray, frame: np.ndarray, signs: np.ndarray, j: np.ndarray
) -> np.ndarray:
    """Matrix of m on an invariant subspace, in frame coordinates."""
    return frame_pinv(frame, signs, j) @ m @ frame


def spacelike_complement(frame: np.ndarray, j: np.ndarray) -> np.ndarray:
    """J-orthonormal frame of the J-orthocomplement of span(frame).

    Only valid when the complement is space-like (the time direction sits
    inside ``frame``).  The kernel basis B from the SVD has Euclidean-
    orthonormal columns, so its J-Gram is G = I - 2 z z^T, z the time row
    of B: the eigenvalue g = 1 - 2 |z|^2 along z and 1 across it.  Then
    B G^(-1/2) = B + (B z)(c z)^T with c = (g^(-1/2) - 1) / |z|^2, written
    as 2 / (sqrt(g) (1 + sqrt(g))) (as 1 - g = 2 |z|^2), which stays defined
    at z = 0.  Raises unless g > 0, that is unless the complement is
    space-like.
    """
    basis = null_space_at(frame.T * j[None, :], COMPLEMENT_THRESHOLD)
    z = basis[-1]
    g = 1.0 - 2.0 * float(z @ z)
    if not g > 0:  # a NaN fails too
        raise HypisoError("subspace is not space-like; cannot orthonormalize")
    root = math.sqrt(g)
    return basis + (basis @ z)[:, None] * ((2.0 / (root * (1.0 + root))) * z)


# ---------------------------------------------------------------------------
# the adapted splitting
# ---------------------------------------------------------------------------


_UNIPOTENT_SIGNS = np.array([1.0, 1.0, -1.0])


def _standard_unipotent(c: float) -> np.ndarray:
    """exp(c X) for the translation generator fixing the ray (0, 1, 1)."""
    return np.array(
        [
            [1.0, -c, c],
            [c, 1.0 - c * c / 2.0, c * c / 2.0],
            [c, -c * c / 2.0, 1.0 + c * c / 2.0],
        ]
    )


def _parabolic_frame(sp: _LorentzSpectrum) -> tuple[np.ndarray, float]:
    """J-orthonormal frame (f1, f2, f3) of the invariant 3-dim time-like
    block of a parabolic element, in which T restricts to the standard
    unipotent exp(c X), c > 0; returns (frame, c)."""
    space = sp.space
    j = space.form_signs
    n1 = sp.entries - space.identity
    u = _parabolic_ray(sp)  # time coordinate 1
    # minimal-norm Jordan chain top: orthogonal to ker((T-I)^2), hence
    # free of rotation-plane components
    w = lapack.lstsq(n1 @ n1, u, 1e-9)
    c_uw = j_inner(j, u, w)
    if abs(c_uw) < 1e-10:
        raise HypisoError("degenerate pairing in the unipotent block")
    # second null direction inside span(u, Nw, w)
    beta = -j_inner(j, w, w) / (2.0 * c_uw)
    u2 = w + beta * u
    u2 = u2 * (-2.0 / j_inner(j, u, u2))
    f2 = (u - u2) / 2.0
    f3 = (u + u2) / 2.0
    y = n1 @ w
    y = y - j_inner(j, y, f2) * f2 + j_inner(j, y, f3) * f3
    qy = j_inner(j, y, y)
    if qy <= 0:
        raise HypisoError("unipotent block frame is not space-like where expected")
    f1 = y / np.sqrt(qy)
    frame = np.column_stack([f1, f2, f3])
    block = restrict_to_frame(sp.entries, frame, _UNIPOTENT_SIGNS, j)
    # the mean of the four entries +-c: one alone errs more on wide input,
    # and the c^2/2 entries magnify that error
    c = float((block[1, 0] + block[2, 0] - block[0, 1] + block[0, 2]) / 4.0)
    if float(np.abs(block - _standard_unipotent(c)).max()) > 1e-7:
        raise HypisoError("parabolic block did not reduce to the standard unipotent")
    if c <= 0:
        raise HypisoError("unipotent parameter of a parabolic must be positive")
    return frame, c


@dataclass(frozen=True, eq=False)
class _LorentzStructure:
    """Adapted splitting: special time-like block + space-like complement.

    ``frame`` is the square J-orthonormal frame Phi in which T is
    blockdiag(special block, B(t_1), ..., B(t_p), I_a, -I_b), ``signs``
    its Q-signs and ``j`` the form signs; Phi* = diag(signs) Phi^T J is its
    inverse.  Its columns, in order: the ``special_dim`` special
    columns (elliptic: the fixed time-like unit v, sign -1; hyperbolic:
    s, t with att = s + t the r-eigenray, signs +1, -1; parabolic: f1, f2,
    f3 of the standard unipotent exp(c X), c = ``unipotent_c``, signs +1,
    +1, -1), then the frame of ``blocks`` carried to the space-like
    complement: the plane frames by descending angle, ker(T_o - I) and
    ker(T_o + I), all sign +1, T_o being the orthogonal restriction of T
    to that complement.  The frame is built once, read-only; its
    orientation is left to its one reader, the conjugator.

    An orthogonal T has the same record with no special block: ``cls``
    None, the frame of its invariant blocks, ``signs`` and ``j`` all +1.
    """

    cls: Optional[FixedPointClass]  # None in O(n)
    blocks: _OrthogonalBlocks  # invariant blocks of T_o
    unipotent_c: Optional[float]  # parabolic only
    frame: np.ndarray
    signs: np.ndarray
    j: np.ndarray

    def __post_init__(self):
        self.frame.setflags(write=False)

    @property
    def special_dim(self) -> int:
        b = self.blocks
        return len(self.signs) - 2 * b.p - b.a - b.b


def _orthogonal_structure(t: np.ndarray, delta: float) -> _LorentzStructure:
    """The splitting record of an orthogonal T: no special block, the frame
    of its invariant blocks, signs and form signs all +1."""
    blocks = invariant_plane_frames(t, delta)
    ones = np.ones(len(t))
    return _LorentzStructure(None, blocks, None, blocks.frame, ones, ones)


def _lorentz_structure(sp: _LorentzSpectrum) -> _LorentzStructure:
    """The adapted splitting of the element of ``sp``, built once and kept
    on that record."""
    st = sp.structure
    if st is None:
        st = sp.structure = _build_lorentz_structure(sp)
    return st


def _build_lorentz_structure(sp: _LorentzSpectrum) -> _LorentzStructure:
    _require_sheet_preserving(sp)
    j = sp.space.form_signs
    cls = _fixed_point_class(sp)
    c = None
    if cls is FixedPointClass.ELLIPTIC:
        v = _elliptic_fixed_vector(sp)
        special = v[:, None]
        signs = [-1.0]
    elif cls is FixedPointClass.HYPERBOLIC:
        att, rep = _hyperbolic_rays(sp)
        gamma = j_inner(j, att, rep)
        if gamma >= 0:
            raise HypisoError("fixed rays of a hyperbolic element must pair negatively")
        # both rays scaled alike, to <att, rep> = -2: rescaling one alone
        # grows the frame like 1/<att, rep> when the endpoints are close
        k = np.sqrt(-2.0 / gamma)
        special = np.column_stack([(att - rep) * (k / 2.0), (att + rep) * (k / 2.0)])
        signs = [1.0, -1.0]
    else:
        special, c = _parabolic_frame(sp)
        signs = _UNIPOTENT_SIGNS.tolist()
    w_frame = spacelike_complement(special, j)
    t_o = (w_frame.T * j) @ sp.entries @ w_frame  # W* = W^T J: W's signs are all +1
    blocks = invariant_plane_frames(t_o, sp.delta)
    # ker(T - I) at tau is T_o's +1 eigenspace, plus the fixed time-like
    # vector or null ray of an elliptic or parabolic: one kernel, read twice
    _check_kernel_width(sp, blocks.a + (cls is not FixedPointClass.HYPERBOLIC))
    frame = np.concatenate([special, w_frame @ blocks.frame], axis=1)
    frame_signs = np.array(signs + [1.0] * w_frame.shape[1])
    return _LorentzStructure(cls, blocks, c, frame, frame_signs, j)


# ---------------------------------------------------------------------------
# the maps read from the splitting
# ---------------------------------------------------------------------------


# (det, sheet, signs) choices of a reverser on the special block of each class
_SPECIAL_REVERSERS = {
    None: [(1, 1, [])],
    FixedPointClass.ELLIPTIC: [(1, 1, [1.0]), (-1, -1, [-1.0])],
    FixedPointClass.HYPERBOLIC: [(-1, 1, [-1.0, 1.0]), (-1, -1, [1.0, -1.0])],
    FixedPointClass.PARABOLIC: [(-1, 1, [-1.0, 1.0, 1.0]), (1, -1, [1.0, -1.0, -1.0])],
}


def _reverser(st: _LorentzStructure, det: int, sheet: int = 1) -> Optional[np.ndarray]:
    """The involutive reverser Phi D Phi* with determinant ``det`` on
    ``sheet``, or None when that component has none.

    Phi is the frame of ``st``.  D is +-1: the special-block signs of the
    requested sheet (none for O(n) and SO(n)), (1, -1) on each plane, and
    +1 on the +-1 eigenspaces, with one flip on the first of their columns
    where the determinant parity needs it.  D goes to the frame map as its
    diagonal, a list.
    """
    blocks = st.blocks
    for sp_det, sp_sheet, special in _SPECIAL_REVERSERS[st.cls]:
        if sp_sheet != sheet:
            continue
        pm = [1.0] * (blocks.a + blocks.b)
        if det * sp_det * (-1) ** blocks.p == -1:
            if not pm:
                return None
            pm[0] = -1.0
        d = special + [1.0, -1.0] * blocks.p + pm
        return frame_map(st.frame, d, st.frame, st.signs, st.j)
    return None


def _conjugator(st1: _LorentzStructure, st2: _LorentzStructure, flip: bool) -> np.ndarray:
    """The one frame map S = Phi_2 M Phi_1* of two splittings of one class
    with the same reading, so that S T1 S^-1 = T2.

    M is the identity but in two places.  On the special block of a
    parabolic, the boost of rapidity log(c2 / c1) in the plane of its null
    ray takes the unipotent exp(c1 X) to exp(c2 X); fixed points and
    stretch pairs of equal stretch have equal blocks.  With ``flip``, M
    has a -1 on the first +-1 column, which commutes with T1.  So det M is
    -1 with ``flip`` and 1 without.
    """
    m = np.eye(len(st1.signs))
    if st1.cls is FixedPointClass.PARABOLIC:
        rho = np.log(st2.unipotent_c / st1.unipotent_c)
        ch, sh = np.cosh(rho), np.sinh(rho)
        m[1:3, 1:3] = [[ch, sh], [sh, ch]]
    if flip:
        i = st1.special_dim + 2 * st1.blocks.p
        m[i, i] = -1.0
    return frame_map(st2.frame, m, st1.frame, st1.signs, st1.j)


# ---------------------------------------------------------------------------
# the certificate gates
# ---------------------------------------------------------------------------


def _group_reversal_residual(s: np.ndarray, t: np.ndarray, j: np.ndarray):
    """max-norm of S T S^-1 - T^-1, per S of a stack, with group inverses in
    place of ``np.linalg.inv``, whose rounding grows with the condition
    number; valid once S and T are known to lie in the group."""
    return np.abs(s @ t @ group_inverse(s, j) - group_inverse(t, j)).max(axis=(-2, -1))


def _certificate_failure(message: str, delta: float, out, inp=None) -> HypisoError:
    """The error for a certificate that missed ``CERTIFICATE_TOL``, built on
    the splittings ``out`` and ``inp`` (``inp`` defaults to ``out``).

    A rotation by theta <= delta is read as +-1, and the construction then
    fixes its plane pointwise.  In frame coordinates that leaves a residual
    near 2 theta, which the +-1 columns of the two frames carry over with a
    gain of at most the product of their 2-norms (1 in O(n)).  When that
    exceeds the gate, the miss is a refusal naming theta, delta and the
    gate; any other miss is an internal error.
    """
    theta, gain = 0.0, 1.0
    for side in (out, out if inp is None else inp):
        blocks = side.blocks
        theta = max(theta, blocks.near_pm_one)
        if side.cls is not None and blocks.a + blocks.b:
            gain *= float(np.linalg.norm(side.frame[:, side.special_dim + 2 * blocks.p :], 2))
    if 2.0 * theta * gain > CERTIFICATE_TOL:
        return Borderline(
            f"{message}: a rotation by {theta:.3e}, within delta = {delta:g} of +-1, "
            f"was read as +-1, which leaves a residual up to {2.0 * theta * gain:.1e}, "
            f"over the gate {CERTIFICATE_TOL:g}"
        )
    return HypisoError(message)


def _check_certificate(s: np.ndarray, t: np.ndarray, st: _LorentzStructure, delta: float) -> None:
    """Raise unless S is an involutive reverser of T in its group, read from
    ``st``, the splitting S was built on; ``st`` and delta name the refusals
    of :func:`_certificate_failure`."""
    j = st.j
    # written "not r <= gate" so that a NaN residual fails its gate
    if not form_residual(s, j) <= CERTIFICATE_TOL:
        group = "Lorentz" if j[-1] < 0 else "orthogonal"
        message = f"constructed reverser left the {group} group"
    elif not _group_reversal_residual(s, t, j) <= CERTIFICATE_TOL:
        message = "constructed reverser failed its residual check"
    elif not np.abs(s @ s - _constants(len(s))["identity"]).max() <= CERTIFICATE_TOL:
        message = "constructed reverser is not an involution"
    else:
        return
    raise _certificate_failure(message, delta, st)


def _component_of(s: np.ndarray) -> Component:
    """The component of a certificate S that its gate has put in O(n,1),
    read from its entries, as ``classify_membership`` would read it."""
    return _component(s[-1, -1], lapack.det(s[:-1, :-1]))


def _check_conjugator(s: np.ndarray, sp1, st1, sp2, st2, component: Component) -> None:
    """Raise unless S, built on the splittings ``st1`` and ``st2`` of the
    passes ``sp1`` and ``sp2``, conjugates T1 to T2 (S T1 - T2 S, no
    inverse formed) and lies in ``component``: a group element at the
    relative gate ``CONJUGATOR_MEMBERSHIP_TOL``, whose component is then
    read from its entries."""
    resid = float(np.abs(s @ sp1.entries - sp2.entries @ s).max())
    if not resid <= CERTIFICATE_TOL:  # a NaN residual fails too
        message = f"conjugator residual {resid:.2e} exceeds tolerance"
        raise _certificate_failure(message, sp1.delta, st2, st1)
    form = float(form_residual(s, st1.j))
    gate = CONJUGATOR_MEMBERSHIP_TOL * max(1.0, float(np.abs(s).max()) ** 2)
    if not form <= gate:  # a NaN residual fails too
        raise HypisoError(f"conjugator form residual {form:.3e} exceeds its gate {gate:.3e}")
    if _component_of(s) is not component:
        raise HypisoError("conjugator left the identity component")


# ---------------------------------------------------------------------------
# normal forms
# ---------------------------------------------------------------------------


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
    w = frame_pinv(st.frame, st.signs, space.form_signs)[order]
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
        translation = st.unipotent_c * np.eye(d - 2)[0]
        variant = KRotatoryTranslation(rotation=rot, translation=translation, angles=angles)
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
