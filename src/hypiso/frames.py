"""Frame utilities for the diagonal form J = diag(1,...,1,-1) (or J = I).

A *frame* is a matrix whose columns are J-orthonormal vectors; ``signs``
records Q(f_j) = +-1 per column.  For a full J-orthonormal system the
pseudo-inverse of a frame is ``F* = diag(signs) @ F.T @ J``, which lets
block operators be assembled without solving linear systems: every
reverser and conjugator is one frame map ``F_out @ M @ F_in*``.

The frame helpers take ``j`` as a vector of form signs so the same code
serves the Euclidean case (all ones) and the Lorentzian case.  The
invariant-plane extractor is Euclidean-only: it splits an orthogonal
matrix, such as the rotation part of a Lorentz element.
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
    return basis @ e @ np.diag(1.0 / np.sqrt(w)) @ e.T


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
    delta.  One (angle, frame) pair per member of each rotation cluster,
    frames orthonormal and oriented so the restriction of m is B(+angle).
    For repeated angles the split into planes is an arbitrary
    (non-canonical) choice, which is all the reverser and conjugator
    constructions need.  ker(A - I) and ker(A + I) are the right singular
    vectors of A -+ I for the smallest singular values, as many as the
    reading counts +1 and -1, so the blocks add up to the dimension; an
    eigenvalue the reading does not count gets an (n, 0) frame and no SVD.
    """
    n = m.shape[0]
    vals, vecs = np.linalg.eig(m)
    pairs, plus, minus = spectral._unit_circle(vals, delta)
    planes: list[tuple[float, np.ndarray]] = []
    for theta, idx in pairs:
        ortho: list[np.ndarray] = []  # Hermitian Gram-Schmidt inside the cluster
        for v in vecs[:, idx].T:
            for u in ortho:
                v = v - np.dot(np.conj(u), v) * u
            nrm = np.real(np.dot(np.conj(v), v))
            if nrm <= 0:
                raise HypisoError("rotation eigenvectors are linearly dependent")
            ortho.append(v / np.sqrt(nrm))
            frame = np.sqrt(2.0) * np.column_stack([ortho[-1].real, ortho[-1].imag])
            if frame[:, 1] @ m @ frame[:, 0] < 0:
                frame[:, 1] = -frame[:, 1]
            planes.append((theta, frame))
    planes.sort(key=lambda t: -t[0])

    def kernel(shifted, count):
        return np.linalg.svd(shifted)[2][n - count :].T if count else np.empty((n, 0))

    return _OrthogonalBlocks(planes, kernel(m - np.eye(n), plus), kernel(m + np.eye(n), minus))
