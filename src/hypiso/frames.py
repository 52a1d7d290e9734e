"""Frame utilities for the diagonal form J = diag(1,...,1,-1) (or J = I).

A *frame* is a matrix whose columns are J-orthonormal vectors; ``signs``
records Q(f_j) = +-1 per column.  For a full J-orthonormal system the
pseudo-inverse of a frame is ``F* = diag(signs) @ F.T @ J``, which lets
block operators be assembled without solving linear systems: every
reverser and conjugator is one frame map ``F_out @ M @ F_in*``.

The frame helpers take ``j`` as a vector of form signs so the same code
serves the Euclidean case (all ones) and the Lorentzian case.  The
space-like complement needs no eigensolve: its basis has Euclidean-
orthonormal columns, so with J = diag(1, ..., 1, -1) its Gram is
I - 2 z z^T (z the basis's time row), whose inverse square root is read
in closed form.  The invariant-plane extractor is Euclidean-only: it
splits an orthogonal matrix, such as the rotation part of a Lorentz
element, with one ``eig`` (the reading), one SVD when there is a rotation
pair (the polar factor of the planes, whose complement is the +-1
eigenspaces) and one ``eigh`` only when the +-1 columns need splitting or
ordering: both signs present, or a rotation pair read as +-1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import lapack, spectral
from .errors import HypisoError

# absolute singular-value threshold of the kernel a space-like complement
# is read from
COMPLEMENT_THRESHOLD = 1e-10


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
    basis = spectral.null_space_at(frame.T * j[None, :], COMPLEMENT_THRESHOLD)
    z = basis[-1]
    g = 1.0 - 2.0 * float(z @ z)
    if not g > 0:  # a NaN fails too
        raise HypisoError("subspace is not space-like; cannot orthonormalize")
    root = math.sqrt(g)
    return basis + (basis @ z)[:, None] * ((2.0 / (root * (1.0 + root))) * z)


@dataclass(frozen=True, eq=False)
class _OrthogonalBlocks:
    """Invariant blocks of an orthogonal matrix A.  ``frame`` is the square
    frame, in which A is block diagonal: the plane frames by descending
    angle, then ker(A - I), then ker(A + I); the block frames are its
    column slices."""

    planes: list  # (angle, frame) with angle in (0, pi), descending
    fix_frame: np.ndarray  # ker(A - I)
    neg_frame: np.ndarray  # ker(A + I)
    near_pm_one: float  # largest |Im lambda| the reading counted as +-1
    frame: np.ndarray

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
    no rotation pair there is no SVD: U is then I, as numpy returns it for
    an n x 0 matrix.  When both signs are present, or the reading counted a
    rotation pair as +-1 (an eigenvalue with a non-zero imaginary part;
    ``eig`` returns real ones with an imaginary part of exactly 0), one
    ``eigh`` of the symmetric part of m splits +1 from -1, each ordered
    from the eigenvalue farthest from +-1: the first +-1 column, which a
    reverser's parity flip and a conjugator's orientation sign negate,
    lies in the plane of any rotation pair the reading counted as +-1.
    Otherwise those columns already are an orthonormal basis of the one
    eigenspace, and no ``eigh`` runs.
    """
    vals, vecs = lapack.eig(m)
    pairs, plus, minus = spectral._unit_circle(vals, delta)
    scalars = vals.tolist()
    near = max((abs(scalars[i].imag) for i in plus + minus), default=0.0)
    a, b = len(plus), len(minus)
    pairs.sort(key=lambda t: -t[0])
    thetas = [theta for theta, idx in pairs for _ in idx]
    u = vecs[:, [i for _, idx in pairs for i in idx]]
    q = 2 * len(thetas)
    cols = np.empty((m.shape[0], q))
    cols[:, 0::2], cols[:, 1::2] = u.real, -u.imag
    if q:
        left, _, vt = lapack.svd(cols)
        polar, rest = left[:, :q] @ vt, left[:, q:]
    else:  # numpy's U for an n x 0 frame
        polar, rest = cols, np.eye(m.shape[0])
    if (a and b) or near > 0:
        e = np.linalg.eigh(rest.T @ (m + m.T) @ rest)[1]  # ascending, -1 ones first
        rest = rest @ np.concatenate([e[:, b:], e[:, :b][:, ::-1]], axis=1)
    frame = np.concatenate([polar, rest], axis=1)
    planes = [(theta, frame[:, 2 * i : 2 * i + 2]) for i, theta in enumerate(thetas)]
    return _OrthogonalBlocks(planes, frame[:, q : q + a], frame[:, q + a :], near, frame)
