"""Reality (reversibility) deciders with explicit reverser construction.

An element g of a group G is *real* in G when some h in G satisfies
h g h^-1 = g^-1, and *strongly real* when it is a product of two
involutions in G.  Deciders are provided for O(n), SO(n), SO_o(n,1) and
the Moebius identity component M_o(n) = SO_o(n+1,1).

Every positive decision ships a verified reverser; all constructions here
produce involutions, so reality and strong reality coincide on everything
this module emits (which is also what the theory guarantees).  Each
reverser, in every group and in the oracle's exact mode, is one frame map
Phi D Phi* read from a splitting record (:class:`_LorentzStructure`, for
Lorentz and orthogonal elements alike): Phi its square frame, Phi* =
diag(signs) Phi^T J (J = I in O(n)) and D a +-1 diagonal chosen by
:func:`_reverser`.

Decision logic, uniform across classes: a reverser is forced to act with
determinant -1 on every invariant rotation plane with angle in (0, pi),
with determinant -1 on the invariant time-like block of a hyperbolic or
parabolic element, and trivially on the fixed time-like direction of an
elliptic one; it is free on the eigenspaces for +1 and -1.  Reality in the
identity component therefore reduces to parity bookkeeping over those
blocks, which reproduces the mod-4 case analysis of the classification
theorems.

For hyperbolic elements the "eigenvalue 1 or -1" condition is read on the
space-like spectrum (the time-like plane contributes the stretch pair
r, 1/r), matching the proof rather than the looser theorem wording.

The randomized oracle never proves non-reality; its mode (a) enumeration
is exact for regular elements.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from . import frames
from .classify import (
    FixedPointClass,
    _elliptic_fixed_vector,
    _fixed_point_class,
    _hyperbolic_rays,
    _parabolic_ray,
    _require_sheet_preserving,
)
from .errors import (
    Borderline,
    BudgetExhausted,
    HypisoError,
    InvalidArg,
    NotInIdentityComponent,
    NotOrthogonal,
    NotSpecialOrthogonal,
)
from .quadspace import (
    Component,
    LorentzMatrix,
    _component,
    form_residual,
    group_inverse,
    is_orthogonal,
    matrix_to_document,
)
from .spectral import (
    DEFAULT_DELTA,
    _distinct,
    _LorentzSpectrum,
    _lorentz_angles,
)

RESIDUAL_TOL = 1e-8
NEWTON_ITERS = 50  # steps of the oracle's hyperbolic Newton projection

GROUP_O = "O_n"
GROUP_SO = "SO_n"
GROUP_SOO = "SO_o_n1"
GROUP_MO = "M_o_n"


@dataclass(frozen=True, eq=False)
class RealityCertificate:
    group: str
    decision: bool
    clause: str
    reverser: Optional[np.ndarray]
    involution: bool

    def to_json_dict(self) -> dict:
        return {
            "group": self.group,
            "decision": self.decision,
            "clause": self.clause,
            "reverser": None if self.reverser is None else matrix_to_document(self.reverser),
            "involution": self.involution,
        }


def reversal_residual(s: np.ndarray, t: np.ndarray) -> float:
    """max-norm of S T S^-1 - T^-1, with both inverses formed explicitly
    by ``np.linalg.inv``."""
    return float(np.abs(s @ t @ np.linalg.inv(s) - np.linalg.inv(t)).max())


def _group_reversal_residual(s: np.ndarray, t: np.ndarray, j: np.ndarray):
    """max-norm of S T S^-1 - T^-1, per S of a stack, with group inverses in
    place of ``np.linalg.inv``, whose rounding grows with the condition
    number; valid once S and T are known to lie in the group."""
    return np.abs(s @ t @ group_inverse(s, j) - group_inverse(t, j)).max(axis=(-2, -1))


def _certificate_failure(
    message: str, delta: float, out, inp=None, gate: float = RESIDUAL_TOL
) -> HypisoError:
    """The error for a certificate that missed its gate, built on the
    splittings ``out`` and ``inp`` (``inp`` defaults to ``out``).

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
    if 2.0 * theta * gain > gate:
        return Borderline(
            f"{message}: a rotation by {theta:.3e}, within delta = {delta:g} of +-1, "
            f"was read as +-1, which leaves a residual up to {2.0 * theta * gain:.1e}, "
            f"over the gate {gate:g}"
        )
    return HypisoError(message)


def _check_certificate(s: np.ndarray, t: np.ndarray, st: "_LorentzStructure", delta: float) -> None:
    """Raise unless S is an involutive reverser of T in its group, read from
    ``st``, the splitting S was built on; ``st`` and delta name the refusals
    of :func:`_certificate_failure`."""
    j = st.j
    # written "not r <= gate" so that a NaN residual fails its gate
    if not form_residual(s, j) <= RESIDUAL_TOL:
        group = "Lorentz" if j[-1] < 0 else "orthogonal"
        message = f"constructed reverser left the {group} group"
    elif not _group_reversal_residual(s, t, j) <= RESIDUAL_TOL:
        message = "constructed reverser failed its residual check"
    elif not np.abs(s @ s - np.eye(len(s))).max() <= RESIDUAL_TOL:
        message = "constructed reverser is not an involution"
    else:
        return
    raise _certificate_failure(message, delta, st)


# ---------------------------------------------------------------------------
# orthogonal groups
# ---------------------------------------------------------------------------


def _orthogonal_structure(t: np.ndarray, delta: float) -> "_LorentzStructure":
    """The splitting record of an orthogonal T: no special block, the frame
    of its invariant blocks, signs and form signs all +1."""
    blocks = frames.invariant_plane_frames(t, delta)
    ones = np.ones(len(t))
    return _LorentzStructure(None, blocks, None, blocks.frame, ones, ones, None)


def _orthogonal_data(t, delta: float, eps: float, special: bool = True):
    t = np.asarray(t, dtype=float)
    if not is_orthogonal(t, eps):
        raise NotOrthogonal("input is not orthogonal within tolerance")
    if special and np.linalg.det(t) < 0:
        raise NotSpecialOrthogonal("input has determinant -1")
    return t, _orthogonal_structure(t, delta)


def is_real_On(
    t, delta: float = DEFAULT_DELTA, eps: float = 1e-9
) -> RealityCertificate:
    """Every orthogonal element is (strongly) real; returns an involutive
    reverser built from per-plane reflections."""
    t, st = _orthogonal_data(t, delta, eps, special=False)
    s = _reverser(st, (-1) ** st.blocks.p)
    _check_certificate(s, t, st, delta)
    return RealityCertificate(GROUP_O, True, "W", s, True)


def is_real_SOn(
    t, delta: float = DEFAULT_DELTA, eps: float = 1e-9
) -> RealityCertificate:
    """Reality in SO(n): true iff n is not 2 mod 4 or T has eigenvalue +-1.

    On a negative decision the clause names the determinant-parity
    obstruction (n = 2 mod 4 with no +-1 eigenvalue forces every
    orthogonal reverser to have determinant -1).
    """
    t, st = _orthogonal_data(t, delta, eps)
    n = t.shape[0]
    has_pm1 = st.blocks.a + st.blocks.b >= 1
    decision = (n % 4 != 2) or has_pm1
    if not decision:
        return RealityCertificate(GROUP_SO, False, "Thm3.5-mod4", None, False)
    clause = "Thm3.5-mod4" if n % 4 != 2 else "Thm3.5-pm1"
    s = _reverser(st, 1)
    if s is None:
        raise HypisoError("decision true but construction failed; inconsistent")
    _check_certificate(s, t, st, delta)
    return RealityCertificate(GROUP_SO, True, clause, s, True)


def is_strongly_real_SOn(
    t, delta: float = DEFAULT_DELTA, eps: float = 1e-9
) -> RealityCertificate:
    """Strong reality in SO(n): true iff n is not 2 mod 4 or some
    orthogonally indecomposable invariant summand is odd-dimensional
    (equivalently, T has an eigenvalue +-1).

    The decision provably equals :func:`is_real_SOn`'s, as the agreement
    test in ``tests/test_reality.py`` checks, so it is that certificate
    under the clause tag "KN": the +-1 eigenspaces split into lines, the
    odd-dimensional summands.
    """
    return replace(is_real_SOn(t, delta, eps), clause="KN")


# ---------------------------------------------------------------------------
# Lorentzian structure
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
    unipotent; returns (frame, c)."""
    space = sp.space
    j = space.form_signs
    n1 = sp.entries - space.identity
    u = _parabolic_ray(sp)  # time coordinate 1
    # minimal-norm Jordan chain top: orthogonal to ker((T-I)^2), hence
    # free of rotation-plane components
    w, *_ = np.linalg.lstsq(n1 @ n1, u, rcond=1e-9)
    c_uw = frames.j_inner(j, u, w)
    if abs(c_uw) < 1e-10:
        raise HypisoError("degenerate pairing in the unipotent block")
    # second null direction inside span(u, Nw, w)
    beta = -frames.j_inner(j, w, w) / (2.0 * c_uw)
    u2 = w + beta * u
    if frames.j_inner(j, u, u2) > 0:
        u2 = -u2
    u2 = u2 * (-2.0 / frames.j_inner(j, u, u2))
    f2 = (u - u2) / 2.0
    f3 = (u + u2) / 2.0
    y = n1 @ w
    y = y - frames.j_inner(j, y, f2) * f2 + frames.j_inner(j, y, f3) * f3
    qy = frames.j_inner(j, y, y)
    if qy <= 0:
        raise HypisoError("unipotent block frame is not space-like where expected")
    f1 = y / np.sqrt(qy)
    frame = np.column_stack([f1, f2, f3])
    block = frames.restrict_to_frame(sp.entries, frame, _UNIPOTENT_SIGNS, j)
    # the mean of the four entries +-c: one alone errs more on wide input,
    # and the c^2/2 entries magnify that error
    c = float((block[1, 0] + block[2, 0] - block[0, 1] + block[0, 2]) / 4.0)
    if float(np.abs(block - _standard_unipotent(c)).max()) > 1e-7:
        raise HypisoError("parabolic block did not reduce to the standard unipotent")
    return frame, c


@dataclass(frozen=True, eq=False)
class _LorentzStructure:
    """Adapted splitting: special time-like block + space-like complement.

    ``frame`` is the square J-orthonormal frame Phi in which T is
    blockdiag(special block, B(t_1), ..., B(t_p), I_a, -I_b), ``signs``
    its Q-signs and ``j`` the form signs; Phi* = diag(signs) Phi^T J is its
    inverse, and every reverser Phi D Phi* and conjugator Phi_2 M Phi_1* is
    read from it.  Its columns, in order: the ``special_dim`` special
    columns (elliptic: the fixed time-like unit v, sign -1; hyperbolic:
    s, t with att = s + t the r-eigenray, signs +1, -1; parabolic: f1, f2,
    f3 of the standard unipotent exp(c X), c = ``unipotent_c``, signs +1,
    +1, -1), then the frame of ``blocks`` carried to the space-like
    complement: the plane frames by descending angle, ker(T_o - I) and
    ker(T_o + I), all sign +1, T_o being the orthogonal restriction of T
    to that complement.  ``orientation`` is det Phi > 0, read once when
    the frame is built; a frame with det Phi < 0 and a +-1 column gets its
    first +-1 column negated, so every frame with one has det Phi > 0.

    An orthogonal T has the same record with no special block: ``cls``
    None, the frame of its invariant blocks, ``signs`` and ``j`` all +1,
    and ``orientation`` None, as no conjugator reads it.
    """

    cls: Optional[FixedPointClass]  # None in O(n)
    blocks: frames._OrthogonalBlocks  # invariant blocks of T_o
    unipotent_c: Optional[float]  # parabolic only
    frame: np.ndarray
    signs: np.ndarray
    j: np.ndarray
    orientation: Optional[bool]

    @property
    def special_dim(self) -> int:
        b = self.blocks
        return len(self.signs) - 2 * b.p - b.a - b.b


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
        gamma = frames.j_inner(j, att, rep)
        if gamma >= 0:
            raise HypisoError("fixed rays of a hyperbolic element must pair negatively")
        rep2 = rep * (-2.0 / gamma)
        s_vec = (att - rep2) / 2.0
        t_vec = (att + rep2) / 2.0
        special = np.column_stack([s_vec, t_vec])
        signs = [1.0, -1.0]
    else:
        special, c = _parabolic_frame(sp)
        signs = _UNIPOTENT_SIGNS.tolist()
    w_frame = frames.spacelike_complement(special, j)
    ones = sp.space.ones[: w_frame.shape[1]]
    t_o = frames.restrict_to_frame(sp.entries, w_frame, ones, j)
    blocks = frames.invariant_plane_frames(t_o, sp.delta)
    # ker(T - I) at tau is T_o's +1 eigenspace, plus the fixed time-like
    # vector or null ray of an elliptic or parabolic: one kernel, read twice
    width = blocks.a + (cls is not FixedPointClass.HYPERBOLIC)
    if sp.kernel.shape[1] != width:
        raise Borderline(
            f"ker(T - I) at tau = {sp.delta * sp.scale:.3e} has width "
            f"{sp.kernel.shape[1]}, the reading of the spectrum counts {width}"
        )
    frame = np.concatenate([special, w_frame @ blocks.frame], axis=1)
    # a -1 on a +-1 column commutes with T, so negating the first one
    # orients the frame; a product read from the frame carries both signs
    orientation = bool(np.linalg.det(frame) > 0)
    if not orientation and blocks.a + blocks.b:
        i = len(signs) + 2 * blocks.p
        frame[:, i] = -frame[:, i]
        orientation = True
    frame_signs = np.array(signs + [1.0] * len(ones))
    return _LorentzStructure(cls, blocks, c, frame, frame_signs, j, orientation)


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
        return frames.frame_map(st.frame, d, st.frame, st.signs, st.j)
    return None


def _theorem_clause(n: int, cls: FixedPointClass, a: int, b: int) -> tuple[bool, str]:
    """Decision and clause tag of the reality theorem for SO_o(n,1)."""
    if n % 4 in (0, 3):
        return True, "Thm1.1-1"
    if n % 4 == 1:
        decision = (cls is not FixedPointClass.HYPERBOLIC) or (a + b >= 1)
        return decision, "Thm1.1-2"
    # n = 2 mod 4
    if cls is FixedPointClass.HYPERBOLIC:
        return True, "Thm1.1-3i"
    if b >= 1:
        return True, "Thm1.1-3ii"
    return a >= 1, "Thm1.1-3iii"


def is_real_SOo_n1(
    t: LorentzMatrix, delta: float = DEFAULT_DELTA
) -> RealityCertificate:
    """Reality in the identity component SO_o(n,1).

    Decision per the mod-4 case analysis; on a positive decision the
    reverser is an involution in SO_o(n,1) assembled from the adapted
    block splitting (so strong reality holds whenever reality does).
    """
    if not t.identity_component:
        raise NotInIdentityComponent("element is outside SO_o(n,1)")
    st = _lorentz_structure(_LorentzSpectrum.of(t, delta))
    decision, clause = _theorem_clause(t.space.n, st.cls, st.blocks.a, st.blocks.b)
    if not decision:
        return RealityCertificate(GROUP_SOO, False, clause, None, False)
    s = _reverser(st, det=1, sheet=1)
    if s is None:
        raise HypisoError("positive decision without achievable reverser; inconsistent")
    _check_certificate(s, t.entries, st, delta)
    # the check just passed puts S in O(n,1) to 1e-8, so its component is
    # read from its entries, as classify_membership would read it
    if _component(s[-1, -1], np.linalg.det(s[:-1, :-1])) is not Component.SO_o:
        raise HypisoError("constructed reverser left the identity component")
    return RealityCertificate(GROUP_SOO, True, clause, s, True)


def is_real_Mo(t: LorentzMatrix, delta: float = DEFAULT_DELTA) -> RealityCertificate:
    """Reality in M_o(n) via the identification M_o(n) = SO_o(n+1,1);
    the element acts on H^{n+1} and n denotes the boundary dimension."""
    inner = is_real_SOo_n1(t, delta)
    return RealityCertificate(GROUP_MO, inner.decision, inner.clause, inner.reverser, inner.involution)


# ---------------------------------------------------------------------------
# independent oracle
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class OracleReport:
    """Achievable reverser components.

    ``exact`` lists every achievable (det, sheet) pair for a regular input
    (complete enumeration); ``sampled`` lists pairs found by randomized
    search, which proves existence only.  ``sheet`` is +1 for orthogonal
    groups.
    """

    group: str
    regular: bool
    exact: Optional[frozenset]
    exact_witnesses: dict
    sampled: frozenset
    sampled_witnesses: dict
    samples_used: int
    exhausted: bool

    def to_json_dict(self) -> dict:
        return {
            "group": self.group,
            "regular": self.regular,
            "exact": sorted(list(self.exact)) if self.exact is not None else None,
            "sampled": sorted(list(self.sampled)),
            "samples_used": self.samples_used,
            "exhausted": self.exhausted,
        }


def _reverser_solution_basis(t: np.ndarray) -> np.ndarray:
    """Basis of the linear space {X : X T = T^-1 X} (columns are vecs)."""
    n = t.shape[0]
    tinv = np.linalg.inv(t)
    k = np.kron(t.T, np.eye(n)) - np.kron(np.eye(n), tinv)
    _, svals, vt = np.linalg.svd(k)
    tol = max(1.0, svals[0]) * 1e-10
    small = np.ones(n * n, dtype=bool)
    small[: len(svals)] = svals <= tol
    return vt[small].T


def _project_orthogonal_batch(xs: np.ndarray) -> np.ndarray:
    u, _, vt = np.linalg.svd(xs)
    return u @ vt


def _project_lorentz_batch(xs: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Hyperbolic Newton iteration Y <- (Y + J Y^-T J)/2, batched; diverged
    samples come back as NaN.  The iteration preserves the linear solution
    space of X T = T^-1 X, so limits of solution-space samples are group
    reversers."""
    ys = xs.copy()
    jl = j[None, :, None]
    jr = j[None, None, :]
    for _ in range(NEWTON_ITERS):
        with np.errstate(invalid="ignore", over="ignore"):
            dets = np.linalg.det(ys)
        bad = ~np.isfinite(dets) | (np.abs(dets) < 1e-12)
        ys[bad] = np.nan
        good = ~bad
        if not np.any(good):
            break
        inv_t = np.transpose(np.linalg.inv(ys[good]), (0, 2, 1))
        ys[good] = 0.5 * (ys[good] + jl * inv_t * jr)
    return ys


def reverser_oracle(
    t,
    group: str,
    budget: int = 2000,
    seed: int = 0,
    delta: float = DEFAULT_DELTA,
    require: Optional[set] = None,
) -> OracleReport:
    """Survey achievable reverser components by two independent strategies.

    Mode (a), exact: for regular input, enumerate per-block reverser
    choices and read the achievable (det, sheet) set exactly.  Mode (b),
    randomized: sample the linear solution space of X T = T^-1 X, project
    to the group (polar factor, or the hyperbolic Newton iteration for
    Lorentz groups), and record the components of verified witnesses.

    With ``require``, raises :class:`BudgetExhausted` if sampling ends
    before every required component was seen (mode (a) hits are counted).
    The Lorentz groups take elements of the identity component only, as
    :func:`is_real_SOo_n1` does, and raise ``NotInIdentityComponent``
    before any analysis otherwise; an unknown group or a negative budget
    raises ``InvalidArg`` first.
    """
    if group not in (GROUP_O, GROUP_SO, GROUP_SOO, GROUP_MO):
        raise InvalidArg(f"unknown group {group!r}")
    if budget < 0:
        raise InvalidArg(f"negative budget {budget}")
    lorentzian = group in (GROUP_SOO, GROUP_MO)
    if lorentzian:
        if not isinstance(t, LorentzMatrix):
            raise NotInIdentityComponent("Lorentz oracle needs a validated matrix")
        if not t.identity_component:
            raise NotInIdentityComponent("element is outside SO_o(n,1)")
        mat = t.entries
        j = t.space.form_signs
        sp = _LorentzSpectrum.of(t, delta)
        ang = _lorentz_angles(sp).angles
    else:
        mat = np.asarray(t, dtype=float)
        if not is_orthogonal(mat):
            raise NotOrthogonal("orthogonal oracle needs an orthogonal matrix")
        if group == GROUP_SO and np.linalg.det(mat) < 0:
            raise NotSpecialOrthogonal("input has determinant -1")
        st = _orthogonal_structure(mat, delta)
        j = st.j
        ang = st.blocks.angles.angles
    regular = _distinct(ang, delta)

    exact = None
    exact_witnesses: dict = {}
    if regular:
        if lorentzian:  # the splitting of a non-regular element is not built
            st = _lorentz_structure(sp)
        for det, sheet in itertools.product((1, -1), (1, -1)):
            s = _reverser(st, det, sheet)
            if s is not None:
                exact_witnesses[(det, sheet)] = s
        for s in exact_witnesses.values():
            if not (form_residual(s, j) <= RESIDUAL_TOL
                    and _group_reversal_residual(s, mat, j) <= RESIDUAL_TOL):
                raise _certificate_failure(
                    "exact enumeration produced an invalid witness", delta, st
                )
        exact = frozenset(exact_witnesses)

    found: dict = {}
    used = 0
    basis = _reverser_solution_basis(mat) if budget > 0 else np.zeros((0, 0))
    if basis.shape[1] > 0:
        rng = np.random.default_rng(seed)
        dim = mat.shape[0]
        batch = 512
        while used < budget:
            take = min(batch, budget - used)
            coeffs = rng.standard_normal((basis.shape[1], take))
            used += take
            vecs = basis @ coeffs  # column-major vecs, one sample per column
            # the column-major vec of each sample, read back as its matrix
            xs = vecs.T.reshape(take, dim, dim).transpose(0, 2, 1)
            ss = _project_lorentz_batch(xs, j) if lorentzian else _project_orthogonal_batch(xs)
            finite = np.isfinite(ss).all(axis=(1, 2))
            ss = ss[finite]
            if ss.shape[0] == 0:
                continue
            ss = ss[(form_residual(ss, j) <= 1e-9)
                    & (_group_reversal_residual(ss, mat, j) <= RESIDUAL_TOL)]
            # (det, sheet) of each verified witness, from one stacked det;
            # the sheet is +1 in an orthogonal group
            dets = np.where(np.linalg.det(ss) > 0, 1, -1).tolist()
            sheets = np.where(ss[:, -1, -1] > 0, 1, -1).tolist() if lorentzian else [1] * len(ss)
            for s, key in zip(ss, zip(dets, sheets)):
                found.setdefault(key, s)
            if require is not None and require <= (set(found) | set(exact_witnesses)):
                break
    exhausted = used >= budget
    if require is not None and not require <= (set(found) | set(exact_witnesses)):
        raise BudgetExhausted(
            f"required components {require} not all found in {used} samples"
        )
    return OracleReport(
        group=group,
        regular=regular,
        exact=exact,
        exact_witnesses=exact_witnesses,
        sampled=frozenset(found),
        sampled_witnesses=found,
        samples_used=used,
        exhausted=exhausted,
    )
