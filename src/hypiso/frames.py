"""Frame utilities for the diagonal form J = diag(1,...,1,-1) (or J = I).

A *frame* is a matrix whose columns are J-orthonormal vectors; ``signs``
records Q(f_j) = +-1 per column.  For a full J-orthonormal system the
pseudo-inverse of a frame is ``F* = diag(signs) @ F.T @ J``, which lets
block operators be assembled without solving linear systems: every
reverser and conjugator is one frame map ``F_out @ M @ F_in*``.

The frame helpers take ``j`` as a vector of form signs so the same code
serves the Euclidean case (all ones) and the Lorentzian case.  The
invariant-plane extractor is Euclidean-only: it splits an orthogonal
matrix, such as the rotation part of a Lorentz element, with one ``eig``
(the reading), one SVD (the polar factor of the planes, whose complement
is the +-1 eigenspaces) and at most one ``eigh`` (to split +1 from -1).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import spectral
from .errors import HypisoError


def j_inner(j: np.ndarray, x: np.ndarray, y: np.ndarray) -> float:
    """Polarized form x^T J y for real vectors."""
    return float(np.dot(x * j, y))


def frame_pinv(frame: np.ndarray, signs: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Left inverse of a J-orthonormal frame: diag(signs) F^T J."""
    return (signs[:, None] * frame.T) * j[None, :]


def frame_map(
    out: np.ndarray, m: np.ndarray, inp: np.ndarray, signs: np.ndarray, j: np.ndarray
) -> np.ndarray:
    """The operator F_out M F_in*: M in frame coordinates, read from the
    frame ``inp`` (Q-signs ``signs``) and written to the frame ``out``."""
    return out @ m @ frame_pinv(inp, signs, j)


def restrict_to_frame(
    m: np.ndarray, frame: np.ndarray, signs: np.ndarray, j: np.ndarray
) -> np.ndarray:
    """Matrix of m on an invariant subspace, in frame coordinates."""
    return frame_pinv(frame, signs, j) @ m @ frame


def orthonormalize_spacelike(basis: np.ndarray, j: np.ndarray) -> np.ndarray:
    """J-orthonormalize a basis of a space-like subspace (symmetric style).

    The restricted Gram must be positive definite; raises otherwise.
    """
    gram = basis.T @ (j[:, None] * basis)
    w, e = np.linalg.eigh(gram)
    if np.any(w <= 0):
        raise HypisoError("subspace is not space-like; cannot orthonormalize")
    return (basis @ e) * (1.0 / np.sqrt(w)) @ e.T


def spacelike_complement(
    frame: np.ndarray, j: np.ndarray, threshold: float = 1e-10
) -> np.ndarray:
    """J-orthonormal frame of the J-orthocomplement of span(frame).

    Only valid when the complement is space-like (the time direction sits
    inside ``frame``).
    """
    a = frame.T * j[None, :]
    basis = spectral.null_space_at(a, threshold)
    if basis.shape[1] == 0:
        return basis
    return orthonormalize_spacelike(basis, j)


@dataclass(frozen=True, eq=False)
class _OrthogonalBlocks:
    """Invariant blocks of an orthogonal matrix."""

    planes: list  # (angle, frame) with angle in (0, pi), descending
    fix_frame: np.ndarray  # ker(A - I)
    neg_frame: np.ndarray  # ker(A + I)
    near_pm_one: float  # largest |Im lambda| the reading counted as +-1

    @property
    def frame(self) -> np.ndarray:
        """The square frame: plane frames by descending angle, then
        ker(A - I), then ker(A + I); A is block diagonal in it."""
        return np.column_stack([fr for _, fr in self.planes] + [self.fix_frame, self.neg_frame])

    @property
    def angles(self) -> "spectral.RotationAngles":
        """The angle multiset, from the same reading as the blocks."""
        return spectral._angle_multiset([theta for theta, _ in self.planes], self.b)

    @property
    def p(self) -> int:
        return len(self.planes)

    @property
    def a(self) -> int:
        return self.fix_frame.shape[1]

    @property
    def b(self) -> int:
        return self.neg_frame.shape[1]


def invariant_plane_frames(m: np.ndarray, delta: float) -> _OrthogonalBlocks:
    """Invariant 2-planes and +-1 eigenspaces of an orthogonal matrix.

    The spectrum is read once, by :func:`spectral._unit_circle` at radius
    delta.  Each member u of a rotation cluster at e^{i angle} gives the
    columns (Re u, -Im u), in which m is B(+angle), by descending angle.
    Their polar factor U[:, :2p] Vt (one SVD) is orthonormal, and as their
    Gram commutes with every block the planes stay invariant (for repeated
    angles the split into planes is arbitrary, as the constructions allow).
    The other columns of U are the +-1 eigenspaces as the reading counts
    them, so the frame fills the dimension, orthonormal to rounding.  With
    two or more, one ``eigh`` of the symmetric part of m splits +1 from -1,
    each ordered from the eigenvalue farthest from +-1: the first +-1
    column, which a det fix-up flips, then lies in the plane of any
    rotation pair the reading counted as +-1.
    """
    vals, vecs = np.linalg.eig(m)
    pairs, plus, minus = spectral._unit_circle(vals, delta)
    near = float(np.abs(vals[plus + minus].imag).max(initial=0.0))
    a, b = len(plus), len(minus)
    pairs.sort(key=lambda t: -t[0])
    thetas = [theta for theta, idx in pairs for _ in idx]
    u = vecs[:, [i for _, idx in pairs for i in idx]]
    q = 2 * len(thetas)
    cols = np.empty((m.shape[0], q))
    cols[:, 0::2], cols[:, 1::2] = u.real, -u.imag
    left, _, vt = np.linalg.svd(cols)
    polar, rest = left[:, :q] @ vt, left[:, q:]
    if a + b > 1:
        e = np.linalg.eigh(rest.T @ (m + m.T) @ rest)[1]  # ascending, -1 ones first
        rest = rest @ np.column_stack([e[:, b:], e[:, :b][:, ::-1]])
    planes = [(theta, polar[:, 2 * i : 2 * i + 2]) for i, theta in enumerate(thetas)]
    return _OrthogonalBlocks(planes, rest[:, :a], rest[:, a:], near)
