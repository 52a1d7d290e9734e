"""Conjugacy in the Moebius group M(n) and its identity component M_o(n).

M(n)-conjugacy of sheet-preserving Lorentz matrices is decided from the
characteristic polynomial together with the fixed-point class (which
carries the only possible Jordan-structure difference, the size-3 block at
1 of a parabolic).  When a pair is conjugate, an explicit conjugator is
read from the adapted frame of each element (the special time-like block
plus the invariant blocks of the orthogonal part, the frame the reality
deciders read their reversers from): the one frame map Phi_2 M Phi_1*,
with M the identity but for a boost matching the unipotent parameters of
parabolics.

Whether the M(n)-conjugacy descends to M_o(n) is settled by the
centralizer.  det M = 1, so the map has the sign of det Phi_2 det Phi_1,
the orientations of the two frames.  A commuting element of determinant
-1 exists when T2 has a space-like +-1 eigenvector: a -1 on that line.
The splitting applies it where it orients a frame, negating the first
+-1 column of a frame with det Phi < 0, so the orientations of a pair
differ only for elements without one.  For regular elements without one, block enumeration shows the centralizer meets only
the identity component, so the answer is ConjugateInMOnly.  For
non-regular elements without +-1 the implemented criteria cannot settle
the question and the honest answer is Undecided, with the M(n)
conjugator attached.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

from . import frames
from .classify import (
    FixedPointClass,
    _fixed_point_class,
    _stretch,
    classify,
)
from .errors import (
    Borderline,
    HypisoError,
    InvalidArg,
    NotConjugate,
    NotInIdentityComponent,
    Undecided,
)
from .quadspace import Component, LorentzMatrix, _component, form_residual, matrix_to_document
from .reality import _certificate_failure, _lorentz_structure, _LorentzStructure
from .spectral import DEFAULT_DELTA, _distinct, _LorentzSpectrum

CONJUGATOR_TOL = 1e-8
CONJUGATOR_MEMBERSHIP_TOL = 1e-7  # relative to max(1, max|S|^2)
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
        return {
            "related": self.related.value,
            "conjugator": None if self.conjugator is None else matrix_to_document(self.conjugator),
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


def _char_poly(vals: np.ndarray) -> list:
    """Coefficients of prod (x - lambda) over the spectrum ``vals``, the
    leading 1 first, by Vieta's recurrence on Python scalars."""
    c = [1.0]
    for lam in vals.tolist():
        c = [a - lam * b for a, b in zip(c + [0.0], [0.0] + c)]
    return c


def _reciprocity_defect(c: list, det_sign: int) -> float:
    """max |c_k - sigma c_(d-k)|, sigma = (-1)^d det T.  The spectrum of an
    element of O(n,1) is closed under inversion, so its characteristic
    polynomial is self-reciprocal, c_(d-k) = sigma c_k, and the defect of
    the computed coefficients from that symmetry estimates their rounding."""
    sigma = (-1) ** (len(c) - 1) * det_sign
    return max(abs(a - sigma * b) for a, b in zip(c, reversed(c)))


def _char_polys_match(
    t1: LorentzMatrix, sp1: _LorentzSpectrum, t2: LorentzMatrix, sp2: _LorentzSpectrum
) -> bool:
    """Characteristic polynomials, from the two spectra, equal within
    CHARPOLY_TOL relative to their largest coefficient.

    A difference over that tolerance certifies that the pair is not
    conjugate only when it also clears the rounding of the coefficients:
    d times the sum of the two reciprocity defects, d the degree, as each
    coefficient sums up to d eigenvalue errors of the size the defect
    shows.  Under that floor (a stretch near 1e10 loses the spectrum to
    rounding) it raises ``Borderline`` naming both numbers.
    """
    c1, c2 = _char_poly(sp1.eigvals), _char_poly(sp2.eigvals)
    scale = max(1.0, max(map(abs, c1)), max(map(abs, c2)))
    diff = max(abs(a - b) for a, b in zip(c1, c2))
    if diff <= CHARPOLY_TOL * scale:
        return True
    floor = (len(c1) - 1) * (
        _reciprocity_defect(c1, t1.component.det_sign)
        + _reciprocity_defect(c2, t2.component.det_sign)
    )
    if diff <= floor:
        raise Borderline(
            f"characteristic polynomials differ by {diff / scale:.1e} (relative), "
            f"under their rounding floor {floor / scale:.1e}, read from the defect "
            "of each from self-reciprocity"
        )
    return False


# ---------------------------------------------------------------------------
# conjugator construction from the adapted splittings
# ---------------------------------------------------------------------------


def _conjugator_residual(s: np.ndarray, t1: np.ndarray, t2: np.ndarray) -> float:
    """max-norm of S T1 - T2 S: the conjugacy equation, no inverse formed."""
    return float(np.abs(s @ t1 - t2 @ s).max())


def _special_map(st1: _LorentzStructure, st2: _LorentzStructure) -> np.ndarray:
    """Map of the special block of a parabolic T1 onto that of T2, in their
    frames: the unipotent exp(c1 X) goes to exp(c2 X) under the boost of
    rapidity log(c2 / c1) in the plane of its null ray.  (Fixed points and
    stretch pairs of equal stretch have equal blocks, mapped by I.)
    """
    c1, c2 = st1.unipotent_c, st2.unipotent_c
    if c1 <= 0 or c2 <= 0:
        raise HypisoError("unipotent parameter of a parabolic must be positive")
    rho = np.log(c2 / c1)
    ch, sh = np.cosh(rho), np.sinh(rho)
    return np.array([[1.0, 0.0, 0.0], [0.0, ch, sh], [0.0, sh, ch]])


def _mn_conjugator(
    sp1: _LorentzSpectrum, st1: _LorentzStructure,
    sp2: _LorentzSpectrum, st2: _LorentzStructure,
) -> ConjugacyAnswer:
    """The answer for a pair of one class, read from its one conjugator
    S = Phi_2 M Phi_1* with S T1 S^-1 = T2: M the special map and the
    identity on the orthogonal blocks.  Its component is predicted by the
    orientations of the two frames, which differ only when neither has a
    +-1 column (each frame with one is oriented to det Phi > 0)."""
    hyperbolic = st1.cls is FixedPointClass.HYPERBOLIC
    r1, r2 = (_stretch(sp1), _stretch(sp2)) if hyperbolic else (None, None)
    b1, b2 = st1.blocks, st2.blocks
    # the characteristic polynomials and the classes agree, so a difference
    # here is one of the readings, not of the pair
    if ((b1.p, b1.a, b1.b) != (b2.p, b2.a, b2.b)
            or (hyperbolic and abs(r1 - r2) > 1e-6 * max(1.0, r1))
            or (b1.p and max(abs(x - y) for (x, _), (y, _) in zip(b1.planes, b2.planes)) > 1e-6)):
        raise Borderline(
            f"the two readings differ: {_reading(r1, b1)} against {_reading(r2, b2)}"
        )
    space = sp1.space
    m = space.identity
    if st1.cls is FixedPointClass.PARABOLIC:
        m = m.copy()
        m[:3, :3] = _special_map(st1, st2)
    s = frames.frame_map(st2.frame, m, st1.frame, st1.signs, space.form_signs)
    resid = _conjugator_residual(s, sp1.entries, sp2.entries)
    if not resid <= CONJUGATOR_TOL:  # a NaN residual fails too
        raise _certificate_failure(
            f"conjugator residual {resid:.2e} exceeds tolerance", sp1.delta, st2, st1,
            gate=CONJUGATOR_TOL,
        )
    # S is checked as a group element at the conjugator membership gate; it
    # then lies in O(n,1), and its component is read from its entries, as
    # is_real_SOo_n1 reads its reverser's
    form = float(form_residual(s, space.form_signs))
    gate = CONJUGATOR_MEMBERSHIP_TOL * max(1.0, float(np.abs(s).max()) ** 2)
    if not form <= gate:  # a NaN residual fails too
        raise HypisoError(f"conjugator form residual {form:.3e} exceeds its gate {gate:.3e}")
    same = st1.orientation is st2.orientation
    expected = Component.SO_o if same else Component.O_minus_preserving
    if _component(s[-1, -1], np.linalg.det(s[:-1, :-1])) is not expected:
        raise HypisoError("conjugator left the identity component")
    if same:
        return ConjugacyAnswer(Relation.CONJUGATE_IN_MO, s, "normalform")
    if _distinct([th for th, _ in b2.planes], sp2.delta):
        # exact for regular elements: the centralizer splits over the
        # invariant blocks, and without +-1 eigendirections every
        # sheet-preserving commuting element has determinant +1
        return ConjugacyAnswer(Relation.CONJUGATE_IN_M_ONLY, s, "centralizer-enum")
    return ConjugacyAnswer(Relation.UNDECIDED, s, "normalform")


def _reading(stretch: Optional[float], blocks: frames._OrthogonalBlocks) -> str:
    """What the conjugator reads of one element, for a refusal message."""
    angles = ", ".join(f"{th:.9g}" for th, _ in blocks.planes)
    head = "" if stretch is None else f"stretch {stretch:.9g}, "
    return f"{head}angles ({angles}), +1 x {blocks.a}, -1 x {blocks.b}"


def conjugate_in_Mn(
    t1: LorentzMatrix, t2: LorentzMatrix, delta: float = DEFAULT_DELTA
) -> ConjugacyAnswer:
    """Conjugacy in M(n), refined with the M_o(n) component information.

    NotConjugate is certified by differing characteristic polynomials or
    differing fixed-point classes (the Jordan structure), the only way
    this answer is given; polynomials that differ only within their
    rounding floor raise ``Borderline``.  A positive answer always carries
    a verified conjugator.  Once those agree, any difference the conjugator meets
    (stretch, block counts or angles) is one of the readings, so it
    raises ``Borderline`` naming both.
    """
    for t in (t1, t2):
        if not t.sheet_preserving:
            raise NotInIdentityComponent("conjugacy needs sheet-preserving inputs")
    if t1.space.n != t2.space.n:
        raise NotConjugate("elements act on different spaces")
    sp1, sp2 = _LorentzSpectrum.of(t1, delta), _LorentzSpectrum.of(t2, delta)
    if not _char_polys_match(t1, sp1, t2, sp2):
        return ConjugacyAnswer(Relation.NOT_CONJUGATE, None, "kg-thm1.2")
    if _fixed_point_class(sp1) is not _fixed_point_class(sp2):
        return ConjugacyAnswer(Relation.NOT_CONJUGATE, None, "kg-thm1.2")
    if float(np.abs(t1.entries - t2.entries).max()) <= 1e-12:
        return ConjugacyAnswer(Relation.CONJUGATE_IN_MO, np.eye(t1.space.dim), "normalform")
    return _mn_conjugator(sp1, _lorentz_structure(sp1), sp2, _lorentz_structure(sp2))


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

    Raises ``InvalidArg`` for any other group, before any analysis,
    ``NotConjugate`` when the pair is not conjugate and ``Undecided`` when
    a Mon conjugator is requested but the component question cannot be
    settled.
    """
    if group not in ("Mn", "Mon"):
        raise InvalidArg(f"unknown group {group!r}")
    answer = conjugate_in_Mn(t1, t2, delta)
    if answer.related is Relation.NOT_CONJUGATE:
        raise NotConjugate("pair is not conjugate")
    if group == "Mn":
        return answer.conjugator
    if answer.related is Relation.CONJUGATE_IN_MO:
        return answer.conjugator
    if answer.related is Relation.CONJUGATE_IN_M_ONLY:
        raise NotConjugate("pair is conjugate in M(n) but not in M_o(n)")
    raise Undecided("M_o(n) conjugacy could not be settled for this pair")
