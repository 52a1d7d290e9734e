"""Eigenstructure analysis: rotation angles, regularity, invariant 2-planes.

Rotation angles live in the canonical interval (0, pi]: each conjugate
eigenvalue pair {e^{i t}, e^{-i t}} with 0 < t < pi contributes t once per
pair multiplicity, and the eigenvalue -1 contributes the angle pi with pair
multiplicity floor(m/2) where m is its algebraic multiplicity.  An odd m
(possible only for determinant -1 inputs) is reported through a separate
``reflection`` flag rather than as an angle; this extension beyond the
special-orthogonal setting is our own convention and is relied on by the
reality deciders.

With this convention an element and its inverse have the same angle
multiset, and the multiset is a conjugation invariant.

Eigenvalues are clustered at radius ``delta`` (default 1e-7, deliberately
coarser than the membership tolerance because eigenvalues lose roughly half
the input precision).  Two surviving clusters closer than ``2 * delta``
raise :class:`ClusterAmbiguity` instead of guessing.  The angles and the
invariant blocks are both read from the clusters by :func:`_unit_circle`.

A Lorentz matrix is analysed once per element and delta: the record of
the pass (:class:`_LorentzSpectrum`) is stored on the ``LorentzMatrix``,
and every decider receives that record itself, so the trichotomy, the
angles, the stretch and the fixed data of every later call on that
element read it.  Besides the spectrum and the kernel of T - I, the
record holds the facts the trichotomy and the stretch read (the dominant
eigenvalue, its modulus and the two band flags) and what the
deciders read of the element (its entries, space and sheet flag).  The
pass runs stacked over any number of matrices of one size
(:meth:`_LorentzSpectrum.stack`); a single matrix is the stack of one.
The LAPACK work of the fixed-point data (``classify._fixed_stage``) and
the adapted splitting are stored on the same record.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np

from . import frames
from .errors import ClusterAmbiguity, InvalidArg, NotOrthogonal, NotRegular
from .quadspace import LorentzMatrix, QuadraticSpace, is_orthogonal

DEFAULT_DELTA = 1e-7

# Smallest delta the Lorentz pass accepts.  It reads rank (T - I)^2 at
# tau^2 = (delta * scale)^2, and the singular values of (T - I)^2 that are
# zero in exact arithmetic sit at a rounding floor of about n * u * scale^2
# (u the unit roundoff), so below about sqrt(n * u) a parabolic's Jordan
# block goes unseen and it reads as elliptic.  On random_isometry
# parabolics at n = 3, 5, 9 (conjugator scale 0.5, seed 0) the largest
# delta one needed was 1.7e-8; 7 of 120 misread at 1e-8 and all at 2e-9,
# while elliptic and hyperbolic controls stayed right down to 1e-9.
DELTA_MIN = 3e-8

EPS = sys.float_info.epsilon  # machine epsilon, 2.2e-16


@dataclass(frozen=True)
class EigenCluster:
    value: complex
    algebraic: int
    geometric: int


@dataclass(frozen=True)
class EigenStructure:
    clusters: tuple[EigenCluster, ...]
    dim: int


@dataclass(frozen=True)
class RotationAngles:
    """Multiset of rotation angles, descending, with repetition.

    ``reflection`` marks a leftover odd -1 eigenvalue (determinant -1
    inputs only); it is not part of the angle multiset.
    """

    angles: tuple[float, ...]
    reflection: bool = False

    @property
    def k(self) -> int:
        return len(self.angles)

    @property
    def has_pi(self) -> bool:
        return any(abs(a - np.pi) <= 1e-12 for a in self.angles)


@dataclass(frozen=True, eq=False)
class PlaneDecomposition:
    """Invariant 2-planes of a regular rotation plus its fixed subspace.

    ``planes[i]`` is an (n, 2) orthonormal frame spanning the invariant
    plane for ``angles[i]``; planes are ordered by descending angle and
    oriented so the restriction of the source rotation is B(+angle)
    whenever the angle is not pi.  ``fixed_subspace`` is an (n, n-2k)
    orthonormal frame of the pointwise-fixed subspace.
    """

    planes: tuple[np.ndarray, ...]
    angles: tuple[float, ...]
    fixed_subspace: np.ndarray

    def __post_init__(self):
        for p in self.planes:
            p.setflags(write=False)
        self.fixed_subspace.setflags(write=False)

    @property
    def k(self) -> int:
        return len(self.planes)

    @property
    def dim(self) -> int:
        return self.planes[0].shape[0] if self.planes else self.fixed_subspace.shape[0]


def _cluster_eigenvalues(vals: np.ndarray, delta: float) -> list[list[int]]:
    """Union-find clustering of eigenvalues at merge radius delta.

    The distances are taken on Python scalars (``vals.tolist()``), whose
    complex ``abs`` rounds as numpy's does, at a fraction of the cost.
    """
    vals = vals.tolist()
    m = len(vals)
    parent = list(range(m))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(m):
        for j in range(i + 1, m):
            if abs(vals[i] - vals[j]) <= delta:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[ri] = rj
    groups: dict[int, list[int]] = {}
    for i in range(m):
        groups.setdefault(find(i), []).append(i)
    clusters = list(groups.values())
    # refuse to decide when two surviving clusters nearly touch
    for a in range(len(clusters)):
        for b in range(a + 1, len(clusters)):
            d = min(
                abs(vals[i] - vals[j]) for i in clusters[a] for j in clusters[b]
            )
            if d < 2 * delta:
                raise ClusterAmbiguity(
                    f"clusters separated by {d:.3e}, inside [delta, 2*delta); "
                    "refine delta"
                )
    return clusters


def _rank_at(m: np.ndarray, threshold: float) -> int:
    svals = np.linalg.svd(m, compute_uv=False)
    return int(np.sum(svals > threshold))


def null_space_at(m: np.ndarray, threshold: float) -> np.ndarray:
    """Orthonormal basis of the numerical kernel at an absolute threshold."""
    _, s, vt = np.linalg.svd(m)
    small = np.ones(m.shape[1], dtype=bool)
    small[: len(s)] = s <= threshold
    return vt[small].T


@dataclass(eq=False, slots=True)
class _LorentzSpectrum:
    """The one spectral analysis of a Lorentz matrix T that deciders share,
    stored on T (``LorentzMatrix._analyses``) per delta.

    ``scale`` is max(1, ||T||_2), read from the corner entry T[n, n];
    ranks are read at tau = delta * scale.
    One SVD of T - I gives its singular values ``svals`` and ``kernel``,
    an orthonormal frame of ker(T - I) at tau; ``band`` is some singular
    value inside (tau/2, 2 tau), where the kernel is threshold-ambiguous.
    ``defective`` is rank (T - I)^2 < rank (T - I): a Jordan block at 1,
    and ``square_band`` is some singular value of (T - I)^2 inside
    (max(tau^2/4, d EPS scale^2), tau^2], counted as zero by that rank but
    above its rounding floor (d the size), where the Jordan block is
    threshold-ambiguous.
    ``lam`` is the dominant eigenvalue (the first of largest modulus) and
    ``rmax`` = |lam|, the largest modulus of the spectrum.  ``rays`` and
    ``form`` are the results of the fixed-data stage
    (``classify._fixed_stage``), and ``structure`` the adapted splitting
    (``reality._lorentz_structure``), each kept here once computed.

    ``entries`` is T's own read-only array, and ``space`` and
    ``sheet_preserving`` are T's; the record holds no reference back to
    T, which keeps T free of reference cycles.  Its arrays are read-only,
    as every later call on T reads them.
    """

    entries: np.ndarray
    space: QuadraticSpace
    delta: float
    sheet_preserving: bool
    scale: float
    eigvals: np.ndarray
    svals: np.ndarray
    kernel: np.ndarray
    defective: bool
    lam: object  # np.float64, or np.complex128 for a non-real spectrum
    rmax: float
    band: bool
    square_band: bool
    rays: np.ndarray = None
    form: tuple = None
    structure: object = None

    def __post_init__(self):
        for a in (self.eigvals, self.svals, self.kernel):
            a.setflags(write=False)

    @classmethod
    def of(cls, t: LorentzMatrix, delta: float) -> "_LorentzSpectrum":
        """The pass of t at delta: the stored one, else a new one, stored."""
        sp = t._analyses.get(delta)
        return cls.stack([t], delta)[0] if sp is None else sp

    @classmethod
    def stack(cls, ts: list[LorentzMatrix], delta: float) -> list["_LorentzSpectrum"]:
        """The pass of each of ``ts`` (all of one size).  Passes not yet
        stored are computed, then stored, in three LAPACK calls on their
        (N, d, d) stack: the SVD of T - I, the singular values of (T - I)^2
        and the eigenvalues of T.  The facts read by the trichotomy and the
        stretch (``band``, ``lam`` and ``rmax``) are reduced over the same
        stack; ``square_band`` is read per matrix from the sorted singular
        values of its square.

        The scale needs no SVD.  T in O(n,1) is K1 B(s) K2 with K1, K2
        orthogonal and B(s) a boost (the Cartan form), so with
        c = |T[n, n]| = cosh s, ||T||_2 = e^s = c + sqrt(c - 1) sqrt(c + 1),
        and c <= 1 (rounding) gives 1.  It differs from the top singular
        value by the rounding of T[n, n] over sinh s: about 1e-14 relative
        on the benchmark's elements, and up to about 1e-7 where c is within
        rounding of 1.  So tau moves by a small fraction of itself, and a
        rank read at it differs from one read at the top singular value
        only for a singular value of T - I that close to tau, inside the
        ``band`` (tau/2, 2 tau), or one of (T - I)^2 that close to tau^2,
        which ``square_band`` flags on the side that counts it as zero
        (above the rounding floor); either refuses.

        numpy runs the same LAPACK routine on each matrix of a stack, and
        the same elementwise loop on each row, so every field is
        bit-identical to that of a one-matrix stack.  Raises ``InvalidArg``
        when delta is below ``DELTA_MIN``.
        """
        if not delta >= DELTA_MIN:
            raise InvalidArg(
                f"delta {delta:g} is below delta_min = {DELTA_MIN:g}, the floor "
                "under which the rank of (T - I)^2 is lost to rounding"
            )
        todo = [t for t in ts if delta not in t._analyses]
        if todo:
            m = np.array([t.entries for t in todo])
            c = np.abs(m[:, -1, -1])
            scale = np.maximum(1.0, c + np.sqrt(np.maximum(c - 1.0, 0.0)) * np.sqrt(c + 1.0))
            tau = delta * scale
            n1 = m - np.eye(m.shape[-1])
            _, svals, vt = np.linalg.svd(n1)
            rank1 = (svals > tau[:, None]).sum(axis=1)
            # the square is ranked at tau^2 since small singular values square too
            d = m.shape[-1]
            sq = np.linalg.svd(n1 @ n1, compute_uv=False)
            rank2 = (sq > (tau * tau)[:, None]).sum(axis=1)
            band = ((svals > (tau / 2.0)[:, None]) & (svals < (2.0 * tau)[:, None])).any(axis=1)
            eigvals = np.linalg.eigvals(m)
            # as eigvals of one matrix, a real spectrum comes back real
            real = ~eigvals.imag.any(axis=1)
            modulus = np.abs(eigvals)
            top = modulus.argmax(axis=1)
            rmax = modulus.max(axis=1)
            for i, t in enumerate(todo):
                vals = eigvals[i].real if real[i] else eigvals[i]
                kernel = vt[i][svals[i] <= tau[i]].T
                # singular values come sorted, so the largest one the rank
                # of the square reads as zero decides its band
                t2 = float(tau[i]) * float(tau[i])
                zero = float(sq[i][rank2[i]]) if rank2[i] < d else 0.0
                square_band = zero > max(t2 / 4.0, d * EPS * float(scale[i]) ** 2)
                t._analyses[delta] = cls(
                    t.entries, t.space, delta, t.sheet_preserving,
                    float(scale[i]), vals, svals[i], kernel, bool(rank2[i] < rank1[i]),
                    vals[top[i]], float(rmax[i]), bool(band[i]), square_band,
                )
        return [t._analyses[delta] for t in ts]


def eigen_structure(m, delta: float = DEFAULT_DELTA) -> EigenStructure:
    """Cluster the spectrum and attach algebraic/geometric multiplicities."""
    m = np.asarray(m, dtype=float)
    vals = np.linalg.eigvals(m)
    clusters = _cluster_eigenvalues(vals, delta)
    scale = max(1.0, float(np.linalg.norm(m, 2)))
    out = []
    for idx in clusters:
        center = complex(vals[idx].sum() / len(idx))
        alg = len(idx)
        geo = m.shape[0] - _rank_at(m - center * np.eye(m.shape[0]), delta * scale)
        out.append(EigenCluster(center, alg, max(geo, 1)))
    out.sort(key=lambda c: (-c.value.real, -abs(c.value.imag)))
    return EigenStructure(tuple(out), m.shape[0])


def is_semisimple(m, delta: float = DEFAULT_DELTA) -> bool:
    """True when no eigenvalue cluster carries a nontrivial Jordan block,
    tested as rank(M - cI) == rank((M - cI)^2) per cluster."""
    m = np.asarray(m, dtype=float)
    vals = np.linalg.eigvals(m)
    tau = delta * max(1.0, float(np.linalg.norm(m, 2)))
    for idx in _cluster_eigenvalues(vals, delta):
        c = complex(vals[idx].sum() / len(idx))
        if abs(c.imag) < tau:
            a = m - c.real * np.eye(m.shape[0])
        else:  # complex cluster: work over C
            a = m - c * np.eye(m.shape[0], dtype=complex)
        # a Jordan block drops the rank of the square, read at tau^2 since
        # small singular values square too (as in the Lorentz pass)
        if _rank_at(a, tau) != _rank_at(a @ a, tau * tau):
            return False
    return True


def _unit_circle(vals: np.ndarray, delta: float, unit_only: bool = False):
    """The one reading of a clustered spectrum on the unit circle: by its
    center c, at radius delta alone, each cluster of ``vals`` is the upper
    member of a rotation pair (Im c > delta, angle arg c), the lower one
    (Im c < -delta, skipped), or else +1 or -1 by the sign of Re c.
    ``unit_only`` skips clusters off the unit circle (a Lorentz stretch
    pair).  Returns (pairs, plus, minus): (angle, member indices) per
    rotation cluster and the indices of the members read as +1 and as -1,
    whose counts for an orthogonal matrix add up to its dimension (pairs
    counted twice)."""
    pairs: list[tuple[float, list[int]]] = []
    plus: list[int] = []
    minus: list[int] = []
    for idx in _cluster_eigenvalues(vals, delta):
        center = complex(vals[idx].sum() / len(idx))
        if unit_only and abs(abs(center) - 1.0) > delta:
            continue
        if center.imag > delta:
            pairs.append((float(np.arctan2(center.imag, center.real)), idx))
        elif center.imag < -delta:
            continue
        elif center.real > 0:
            plus += idx
        else:
            minus += idx
    return pairs, plus, minus


def _angle_multiset(thetas, minus: int) -> RotationAngles:
    """The angles (0, pi) of the rotation pairs, with pi once per two -1
    eigenvalues and a leftover odd -1 as ``reflection``."""
    angles = list(thetas) + [float(np.pi)] * (minus // 2)
    angles.sort(reverse=True)
    return RotationAngles(tuple(angles), reflection=bool(minus % 2))


def _angles_of(vals: np.ndarray, delta: float, unit_only: bool) -> RotationAngles:
    """Angle multiset of a clustered spectrum, read by :func:`_unit_circle`."""
    pairs, _, minus = _unit_circle(vals, delta, unit_only)
    return _angle_multiset([theta for theta, idx in pairs for _ in idx], len(minus))


def _lorentz_angles(sp: _LorentzSpectrum) -> RotationAngles:
    """Angles of a Lorentz matrix from its unit-modulus non-real spectrum.

    Eigenvalues of a Jordan block scatter like the cube root of the
    backward error, so for a defective T - I the computed spectrum near 1
    is meaningless inside that radius; it is dropped before clustering,
    otherwise its random spread trips the ambiguity check.
    """
    vals = sp.eigvals
    if sp.defective:
        one_fuzz = 10.0 * float((2.3e-16 * sp.scale**3) ** (1.0 / 3.0))
        vals = vals[np.abs(vals - 1.0) > one_fuzz]
    return _angles_of(vals, sp.delta, unit_only=True)


def rotation_angles(
    a, delta: float = DEFAULT_DELTA, eps: float = 1e-9
) -> RotationAngles:
    """Rotation angle multiset of an orthogonal matrix or a Lorentz matrix.

    For a Lorentz matrix the angles are read from the unit-modulus
    non-real spectrum, which matches the associated rotation acting on the
    space-like part.
    """
    if isinstance(a, LorentzMatrix):
        return _lorentz_angles(_LorentzSpectrum.of(a, delta))
    m = np.asarray(a, dtype=float)
    if not is_orthogonal(m, eps):
        raise NotOrthogonal("rotation angles need an orthogonal or Lorentz matrix")
    return _angles_of(np.linalg.eigvals(m), delta, unit_only=False)


def _distinct(angles, delta: float) -> bool:
    """Descending angles pairwise more than delta apart (regularity)."""
    return all(angles[i] - angles[i + 1] > delta for i in range(len(angles) - 1))


def is_regular(a, delta: float = DEFAULT_DELTA, eps: float = 1e-9) -> bool:
    """All rotation angles pairwise distinct, each of pair multiplicity one."""
    return _distinct(rotation_angles(a, delta, eps).angles, delta)


def plane_decomposition(
    a, delta: float = DEFAULT_DELTA, eps: float = 1e-9
) -> PlaneDecomposition:
    """Unique invariant-plane decomposition of a regular orthogonal matrix.

    Refused for non-regular input, where the eigenspace decomposition is
    no longer unique.  The plane of the angle pi is ker(A + I).
    """
    m = np.asarray(a, dtype=float)
    if not is_orthogonal(m, eps):
        raise NotOrthogonal("plane decomposition needs an orthogonal matrix")
    blocks = frames.invariant_plane_frames(m, delta)
    ra = blocks.angles
    if not _distinct(ra.angles, delta):
        raise NotRegular("plane decomposition is only canonical for regular rotations")
    if ra.reflection:
        raise NotRegular("decomposition with a leftover reflection line is not representable")
    planes = [frame for _, frame in blocks.planes]
    if blocks.b:  # b = 2 here: the plane of pi, the largest angle
        planes.insert(0, blocks.neg_frame)
    return PlaneDecomposition(tuple(planes), ra.angles, blocks.fix_frame)


def rotation_matrix(theta: float) -> np.ndarray:
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])


def assemble_rotation(
    planes, angles, fixed_subspace: np.ndarray
) -> np.ndarray:
    """Rebuild the block rotation B(t_1) + ... + B(t_k) + I from frames."""
    n = fixed_subspace.shape[0] if fixed_subspace.size else planes[0].shape[0]
    out = np.zeros((n, n))
    for frame, theta in zip(planes, angles):
        out += frame @ rotation_matrix(theta) @ frame.T
    if fixed_subspace.size:
        out += fixed_subspace @ fixed_subspace.T
    return out
