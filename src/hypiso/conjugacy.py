"""Conjugacy in the Moebius group M(n) and its identity component M_o(n).

M(n)-conjugacy of sheet-preserving Lorentz matrices is decided from the
characteristic polynomial together with the fixed-point class (which
carries the only possible Jordan-structure difference, the size-3 block at
1 of a parabolic).  When a pair is conjugate, an explicit conjugator is
read from the adapted frame of each element by :mod:`hypiso.frames`,
which gates it, its component included, before handing it over.

Whether the M(n)-conjugacy descends to M_o(n) is settled by the
centralizer, and only here are the frames' orientations read.  The frame
map S = Phi_2 M Phi_1* with det M = 1 has the sign of det Phi_2 det
Phi_1.  When the two differ and the pair has a space-like +-1
eigenvector, a -1 on that line commutes with T1 and has determinant -1:
M takes it on the first +-1 column, and the map lies in M_o(n).  Without
one, every sheet-preserving element that commutes with T2 preserves each
of its eigenspaces: on the special block it is a boost, exp(tX) or the
identity, and on the eigenspace of an angle theta of multiplicity m it
is unitary for the complex structure T2 gives it, so it lies in U(m) in
SO(2m).  The centralizer therefore lies in the identity component, for
regular and non-regular elements alike, no det -1 conjugator can be
corrected to det +1, and the answer is ConjugateInMOnly, with the M(n)
conjugator attached (O'Farrell and Short, Reversibility in Dynamics and
Group Theory, 2015).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

from . import lapack
from .classify import FixedPointClass, _fixed_point_class, _stretch, classify
from .errors import Borderline, InvalidArg, NotConjugate, NotInIdentityComponent
from .frames import _conjugator, _lorentz_structure, _LorentzStructure
from .quadspace import Component, LorentzMatrix, matrix_to_document
from .spectral import DEFAULT_DELTA, _LorentzSpectrum, _OrthogonalBlocks

CHARPOLY_TOL = 1e-7

ANGLE_DECIMALS = 6
STRETCH_DECIMALS = 6


class Relation(Enum):
    CONJUGATE_IN_MO = "ConjugateInMo"
    CONJUGATE_IN_M_ONLY = "ConjugateInMOnly"
    NOT_CONJUGATE = "NotConjugate"


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


def _mn_conjugator(
    sp1: _LorentzSpectrum, st1: _LorentzStructure,
    sp2: _LorentzSpectrum, st2: _LorentzStructure,
) -> ConjugacyAnswer:
    """The answer for a pair of one class, read from its one conjugator
    S with S T1 S^-1 = T2, the frame map of the splittings ``st1`` and
    ``st2``: with a -1 on the first +-1 column where that evens out the
    orientations of the two frames."""
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
    # the map without the flip has the sign of det Phi_2 det Phi_1; a -1 on
    # the first +-1 column commutes with T1 and evens out signs that differ
    same = (lapack.det(st1.frame) > 0) == (lapack.det(st2.frame) > 0)
    flip = not same and b1.a + b1.b > 0
    same = same or flip
    expected = Component.SO_o if same else Component.O_minus_preserving
    s = _conjugator(sp1, st1, sp2, st2, flip, expected)
    if same:
        return ConjugacyAnswer(Relation.CONJUGATE_IN_MO, s, "normalform")
    # without +-1 eigendirections every sheet-preserving commuting element
    # keeps each eigenspace, so has determinant +1 (module docstring)
    return ConjugacyAnswer(Relation.CONJUGATE_IN_M_ONLY, s, "centralizer-enum")


def _reading(stretch: Optional[float], blocks: _OrthogonalBlocks) -> str:
    """What the conjugator reads of one element, for a refusal message."""
    angles = ", ".join(f"{th:.9g}" for th, _ in blocks.planes)
    head = "" if stretch is None else f"stretch {stretch:.9g}, "
    return f"{head}angles ({angles}), +1 x {blocks.a}, -1 x {blocks.b}"


def conjugate_in_Mn(
    t1: LorentzMatrix, t2: LorentzMatrix, delta: float = DEFAULT_DELTA
) -> ConjugacyAnswer:
    """Conjugacy in M(n), refined with the M_o(n) component information.

    Two elements whose entries agree to 1e-12 are conjugate by the
    identity, answered once both passes have run, before any reading of
    either: a refused class does not refuse an element against itself.
    NotConjugate is certified by differing characteristic polynomials or
    differing fixed-point classes (the Jordan structure), the only way
    this answer is given; polynomials that differ only within their
    rounding floor, or a class refused for either element, raise
    ``Borderline``.  A positive answer always carries
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
    if float(np.abs(t1.entries - t2.entries).max()) <= 1e-12:
        return ConjugacyAnswer(Relation.CONJUGATE_IN_MO, np.eye(t1.space.dim), "normalform")
    if not _char_polys_match(t1, sp1, t2, sp2):
        return ConjugacyAnswer(Relation.NOT_CONJUGATE, None, "kg-thm1.2")
    if _fixed_point_class(sp1) is not _fixed_point_class(sp2):
        return ConjugacyAnswer(Relation.NOT_CONJUGATE, None, "kg-thm1.2")
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

    Raises ``InvalidArg`` for any other group, before any analysis, and
    ``NotConjugate`` when the pair is not conjugate in that group: a Mon
    conjugator of a pair conjugate in M(n) only does not exist.  A Mon
    request goes through :func:`conjugate_in_Mon`, so it raises
    ``NotInIdentityComponent`` for an input outside M_o(n).
    """
    if group not in ("Mn", "Mon"):
        raise InvalidArg(f"unknown group {group!r}")
    decide = conjugate_in_Mon if group == "Mon" else conjugate_in_Mn
    answer = decide(t1, t2, delta)
    if answer.related is Relation.NOT_CONJUGATE:
        raise NotConjugate("pair is not conjugate")
    if group == "Mon" and answer.related is Relation.CONJUGATE_IN_M_ONLY:
        raise NotConjugate("pair is conjugate in M(n) but not in M_o(n)")
    return answer.conjugator
