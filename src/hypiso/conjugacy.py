"""Conjugacy in the Moebius group M(n) and its identity component M_o(n).

M(n)-conjugacy of sheet-preserving Lorentz matrices is decided from the
characteristic polynomial together with the fixed-point class (which
carries the only possible Jordan-structure difference, the size-3 block at
1 of a parabolic).  When a pair is conjugate, an explicit conjugator is
composed out of the two normal forms plus a frame-matching block map.

Whether the M(n)-conjugacy descends to M_o(n) is settled by the
centralizer: if the found conjugator has determinant -1, some commuting
element of determinant -1 must be spliced in.  Such an element exists
exactly when T has a space-like +-1 eigenvector; for regular elements
without one, block enumeration shows the centralizer meets only the
identity component, so the answer is ConjugateInMOnly.  For non-regular
elements without +-1 the implemented criteria cannot settle the question
and the honest answer is Undecided, with the M(n) conjugator attached.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

from . import frames
from .classify import (
    KRotation,
    KRotatoryStretch,
    KRotatoryTranslation,
    _fixed_point_class,
    _normal_form,
    classify,
    poincare_extend,
    reflection_fixing_hyperplane,
)
from .errors import HypisoError, NotConjugate, NotInIdentityComponent, Undecided
from .quadspace import Component, LorentzMatrix, classify_membership
from .reality import _lorentz_structure
from .spectral import (
    DEFAULT_DELTA,
    _distinct,
    _LorentzSpectrum,
    _lorentz_angles,
    null_space_at,
)

CONJUGATOR_TOL = 1e-8
CHARPOLY_TOL = 1e-7

ANGLE_DECIMALS = 6
STRETCH_DECIMALS = 6


class Relation(Enum):
    CONJUGATE_IN_MO = "ConjugateInMo"
    CONJUGATE_IN_M_ONLY = "ConjugateInMOnly"
    NOT_CONJUGATE = "NotConjugate"
    UNDECIDED = "Undecided"


@dataclass(frozen=True)
class InvariantTuple:
    """Canonically rounded conjugacy invariants; equal tuples compare equal
    as values (hashable)."""

    fixed_class: str
    angles: tuple[float, ...]
    k: int
    stretch: Optional[float]


@dataclass(frozen=True, eq=False)
class ConjugacyAnswer:
    related: Relation
    conjugator: Optional[np.ndarray]
    method: str

    def to_json_dict(self) -> dict:
        conj = None
        if self.conjugator is not None:
            conj = {
                "n": self.conjugator.shape[0] - 1,
                "matrix": [float(x) for x in self.conjugator.ravel()],
            }
        return {
            "related": self.related.value,
            "conjugator": conj,
            "method": self.method,
        }


def invariant_tuple(t: LorentzMatrix, delta: float = DEFAULT_DELTA) -> InvariantTuple:
    """Conjugation-invariant tuple (class, angle multiset, k, unit stretch)."""
    report = classify(t, delta)
    angles = tuple(round(a, ANGLE_DECIMALS) for a in report.angles.angles)
    stretch = (
        round(report.stretch, STRETCH_DECIMALS) if report.stretch is not None else None
    )
    return InvariantTuple(report.fixed_class.value, angles, report.k, stretch)


def _char_polys_match(t1: np.ndarray, t2: np.ndarray) -> bool:
    c1 = np.poly(t1)
    c2 = np.poly(t2)
    scale = max(1.0, float(np.max(np.abs(c1))), float(np.max(np.abs(c2))))
    return float(np.max(np.abs(c1 - c2))) <= CHARPOLY_TOL * scale


# ---------------------------------------------------------------------------
# frame matching inside O(m)
# ---------------------------------------------------------------------------


def _block_frame(a: np.ndarray, delta: float, kernel_first: Optional[np.ndarray] = None):
    """Orthogonal frame in which `a` is blockdiag(B(t_1),...,B(t_k), I, -I),
    planes ordered by descending angle.  ``kernel_first`` (a unit vector in
    ker(a - I)) becomes the first fixed-space column when given.

    Returns (frame, angle list, dim ker(a - I), dim ker(a + I)).
    """
    n = a.shape[0]
    blocks = frames.invariant_plane_frames(a, delta)
    fix, neg = blocks.fix_frame, blocks.neg_frame
    if kernel_first is not None and fix.shape[1] > 0:
        # orthonormal completion of the preferred kernel direction inside
        # the fixed space (SVD; unpivoted QR can leak spurious columns)
        g = kernel_first / np.linalg.norm(kernel_first)
        rest = fix - np.outer(g, g @ fix)
        u, svals, _ = np.linalg.svd(rest, full_matrices=False)
        cols = [g] + [u[:, i] for i in range(len(svals)) if svals[i] > 1e-9]
        fix = np.column_stack(cols)
        if fix.shape[1] != np.linalg.matrix_rank(
            np.column_stack([g[:, None], rest]), tol=1e-9
        ):
            raise HypisoError("kernel-aligned frame completion lost rank")
    cols = [fr for _, fr in blocks.planes] + ([fix] if fix.size else []) + (
        [neg] if neg.size else []
    )
    frame = np.column_stack(cols) if cols else np.zeros((n, 0))
    if frame.shape[1] != n:
        raise HypisoError("orthogonal block frame is incomplete; refine delta")
    return frame, [th for th, _ in blocks.planes], fix.shape[1], neg.shape[1]


def _match_orthogonal(
    a1: np.ndarray, a2: np.ndarray, delta: float,
    kernel_first1: Optional[np.ndarray] = None,
    kernel_first2: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Orthogonal M with M a1 M^-1 = a2, for inputs sharing block data."""
    f1, ang1, a1fix, a1neg = _block_frame(a1, delta, kernel_first1)
    f2, ang2, a2fix, a2neg = _block_frame(a2, delta, kernel_first2)
    if len(ang1) != len(ang2) or a1fix != a2fix or a1neg != a2neg:
        raise NotConjugate("orthogonal parts have different block data")
    if ang1 and float(np.max(np.abs(np.array(ang1) - np.array(ang2)))) > 1e-6:
        raise NotConjugate("orthogonal parts have different rotation angles")
    return f2 @ f1.T


# ---------------------------------------------------------------------------
# conjugator construction through normal forms
# ---------------------------------------------------------------------------


def _kernel_component(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    kernel = null_space_at(a - np.eye(a.shape[0]), 1e-9)
    return kernel @ (kernel.T @ b)


def _mn_conjugator(sp1: _LorentzSpectrum, sp2: _LorentzSpectrum) -> np.ndarray:
    """Sheet-preserving S with S T1 S^-1 = T2 for a conjugate pair."""
    t1, t2, delta = sp1.t, sp2.t, sp1.delta
    space = t1.space
    if float(np.max(np.abs(t1.entries - t2.entries))) <= 1e-12:
        return np.eye(space.dim)
    nf1, nf2 = _normal_form(sp1), _normal_form(sp2)
    v1, v2 = nf1.variant, nf2.variant
    if isinstance(v1, KRotation) and isinstance(v2, KRotation):
        mo = _match_orthogonal(v1.matrix, v2.matrix, delta)
        m = np.eye(space.dim)
        m[:-1, :-1] = mo
    elif isinstance(v1, KRotatoryStretch) and isinstance(v2, KRotatoryStretch):
        if abs(v1.stretch - v2.stretch) > 1e-6 * max(1.0, v1.stretch):
            raise NotConjugate("stretch factors differ")
        mo = _match_orthogonal(v1.rotation, v2.rotation, delta)
        m = np.eye(space.dim)
        m[:-2, :-2] = mo
    elif isinstance(v1, KRotatoryTranslation) and isinstance(v2, KRotatoryTranslation):
        beta1 = _kernel_component(v1.rotation, v1.translation)
        beta2 = _kernel_component(v2.rotation, v2.translation)
        n1, n2 = float(np.linalg.norm(beta1)), float(np.linalg.norm(beta2))
        if n1 <= 1e-12 or n2 <= 1e-12:
            raise HypisoError("parabolic normal form without a translation part")
        c = _match_orthogonal(
            v1.rotation, v2.rotation, delta,
            kernel_first1=beta1 / n1, kernel_first2=beta2 / n2,
        )
        scale = n2 / n1
        # solve (I - A2) d = b2 - scale * C b1 on the complement of
        # ker(A2 - I); the cutoff is absolute (singular values of I - A2
        # are at most 2), else pure-translation cases divide by noise
        rhs = v2.translation - scale * (c @ v1.translation)
        a2 = v2.rotation
        u, svals, vt = np.linalg.svd(np.eye(a2.shape[0]) - a2)
        inv = np.where(svals > 1e-9, 1.0 / np.maximum(svals, 1e-300), 0.0)
        d = vt.T @ (inv * (u.T @ rhs))
        m = np.asarray(poincare_extend(scale, c, d).entries)
    else:
        raise NotConjugate("normal forms are of different kinds")
    w1 = nf1.conjugator.entries
    w2inv = nf2.conjugator.inverse().entries
    s = w2inv @ m @ w1
    resid = float(np.max(np.abs(s @ t1.entries @ np.linalg.inv(s) - t2.entries)))
    if resid > CONJUGATOR_TOL:
        raise HypisoError(f"conjugator residual {resid:.2e} exceeds tolerance")
    return s


def _commuting_reflection(sp: _LorentzSpectrum) -> Optional[np.ndarray]:
    """A determinant -1, sheet-preserving element commuting with T, if the
    structure provides one (space-like +-1 eigenvector)."""
    st = _lorentz_structure(sp)
    g = None
    if st.blocks.b >= 1:
        g = st.w_frame @ st.blocks.neg_frame[:, 0]
    elif st.blocks.a >= 1:
        g = st.w_frame @ st.blocks.fix_frame[:, 0]
    if g is None:
        return None
    return reflection_fixing_hyperplane(sp.t.space, g)


def _refine_to_mo(
    sp1: _LorentzSpectrum, sp2: _LorentzSpectrum, s: np.ndarray
) -> ConjugacyAnswer:
    t1, t2 = sp1.t, sp2.t
    comp = classify_membership(t1.space, s, 1e-7).component
    if comp is Component.SO_o:
        return ConjugacyAnswer(Relation.CONJUGATE_IN_MO, s, "normalform")
    z = _commuting_reflection(sp2)
    if z is not None:
        s2 = z @ s
        resid = float(np.max(np.abs(s2 @ t1.entries @ np.linalg.inv(s2) - t2.entries)))
        if resid > CONJUGATOR_TOL:
            raise HypisoError("conjugator flip failed its residual check")
        if classify_membership(t1.space, s2, 1e-7).component is not Component.SO_o:
            raise HypisoError("conjugator flip left the identity component")
        return ConjugacyAnswer(Relation.CONJUGATE_IN_MO, s2, "reality-clause")
    if _distinct(_lorentz_angles(sp2).angles, sp2.delta):
        # exact for regular elements: the centralizer splits over the
        # invariant blocks, and without +-1 eigendirections every
        # sheet-preserving commuting element has determinant +1
        return ConjugacyAnswer(Relation.CONJUGATE_IN_M_ONLY, s, "centralizer-enum")
    return ConjugacyAnswer(Relation.UNDECIDED, s, "normalform")


def conjugate_in_Mn(
    t1: LorentzMatrix, t2: LorentzMatrix, delta: float = DEFAULT_DELTA
) -> ConjugacyAnswer:
    """Conjugacy in M(n), refined with the M_o(n) component information.

    NotConjugate is certified by differing characteristic polynomials or
    differing Jordan structure; a positive answer always carries a
    verified conjugator.
    """
    for t in (t1, t2):
        if not t.sheet_preserving:
            raise NotInIdentityComponent("conjugacy needs sheet-preserving inputs")
    if t1.space.n != t2.space.n:
        raise NotConjugate("elements act on different spaces")
    if not _char_polys_match(t1.entries, t2.entries):
        return ConjugacyAnswer(Relation.NOT_CONJUGATE, None, "kg-thm1.2")
    sp1, sp2 = _LorentzSpectrum.of(t1, delta), _LorentzSpectrum.of(t2, delta)
    if _fixed_point_class(sp1) is not _fixed_point_class(sp2):
        return ConjugacyAnswer(Relation.NOT_CONJUGATE, None, "kg-thm1.2")
    s = _mn_conjugator(sp1, sp2)
    return _refine_to_mo(sp1, sp2, s)


def conjugate_in_Mon(
    t1: LorentzMatrix, t2: LorentzMatrix, delta: float = DEFAULT_DELTA
) -> ConjugacyAnswer:
    """Conjugacy in M_o(n); both elements must lie in the identity component."""
    for t in (t1, t2):
        if not t.identity_component:
            raise NotInIdentityComponent("M_o conjugacy needs identity-component inputs")
    return conjugate_in_Mn(t1, t2, delta)


def find_conjugator(
    t1: LorentzMatrix,
    t2: LorentzMatrix,
    group: str = "Mn",
    delta: float = DEFAULT_DELTA,
) -> np.ndarray:
    """Explicit verified conjugator in the requested group ("Mn" or "Mon").

    Raises ``NotConjugate`` when the pair is not conjugate and
    ``Undecided`` when a Mon conjugator is requested but the component
    question cannot be settled.
    """
    answer = conjugate_in_Mn(t1, t2, delta)
    if answer.related is Relation.NOT_CONJUGATE:
        raise NotConjugate("pair is not conjugate")
    if group == "Mn":
        return answer.conjugator
    if group != "Mon":
        raise HypisoError(f"unknown group {group!r}")
    if answer.related is Relation.CONJUGATE_IN_MO:
        return answer.conjugator
    if answer.related is Relation.CONJUGATE_IN_M_ONLY:
        raise NotConjugate("pair is conjugate in M(n) but not in M_o(n)")
    raise Undecided("M_o(n) conjugacy could not be settled for this pair")
