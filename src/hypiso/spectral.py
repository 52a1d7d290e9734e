"""Eigenstructure analysis: rotation angles, regularity, invariant 2-planes.

Rotation angles live in the canonical interval (0, pi]: each conjugate
eigenvalue pair {e^{i t}, e^{-i t}} with 0 < t < pi contributes t once per
pair multiplicity, and the eigenvalue -1 contributes the angle pi with pair
multiplicity floor(m/2) where m is its algebraic multiplicity.  An angle
is pi exactly when it equals ``np.pi``, the value every -1 pair is read
as; a rotation pair is read as one only more than delta off the real
axis, so its angle stays short of pi by more than delta.  An odd m
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
deciders read of the element (its entries, space and sheet flag), and
the null eigenrays of a stretch: the fixed rays of a hyperbolic, the
pair of boundary points its class fibres over.  The pass runs stacked
over any number of matrices of one size (:meth:`_LorentzSpectrum.stack`);
a single matrix is the stack of one.  The CLI runs it once per dimension
over the documents of every Lorentz command (``cli._store_passes``) and
stores it, before any decider reads it.  A stack of at least
``STACKED_READING_MIN`` passes is read as arrays and stores each
element's rotation angles too; a smaller one, a single element's
included, is read row by row, and its angles when a decider asks.  Both
readings give the same bits; the row-by-row one is the reference, which
the array one leaves the angles to wherever their reading might refuse.
The adapted splitting is stored
on the same record.  The kernel of T - I has Euclidean-orthonormal
columns, so its J-Gram is I - 2 z z^T (z its time row), and the fixed
data of an elliptic or a parabolic is read from it in closed form, with
no eigensolve.

Every ``svd``, ``eig``, ``eigvals`` and ``det`` of the package, the pass's
among them, goes through :mod:`hypiso.lapack`, which calls numpy's LAPACK
gufuncs without the Python dispatch of the ``numpy.linalg`` wrappers and
returns bit-identical results.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_left, bisect_right

import numpy as np

from . import lapack
from .errors import Borderline, ClusterAmbiguity, InvalidArg, NotOrthogonal, NotRegular
from .quadspace import LorentzMatrix, QuadraticSpace, _Record, _set, _ValueRecord, is_orthogonal

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

# Radius, over the scale, of the rounding scatter of a Jordan block's
# eigenvalues around 1 (see _lorentz_angles): 10 (u scale^3)^(1/3), no cube.
JORDAN_RADIUS = 10.0 * 2.3e-16 ** (1.0 / 3.0)

# Smallest number of passes that one call of _LorentzSpectrum.stack reads
# as arrays (_stacked_reading) rather than row by row (_scalar_reading).
# Timed per element, pass and angles, on cli_items documents (2-core x86-64,
# one BLAS thread), the array reading's fixed cost of numpy calls makes it
# dearer up to 8 passes and as cheap at 12 (n = 9) to 16 (n = 3); at 342 it
# is 22 % (n = 9) to 32 % (n = 3) cheaper.
STACKED_READING_MIN = 16


class EigenCluster(_ValueRecord):
    __slots__ = _fields = ("value", "algebraic", "geometric")

    def __init__(self, value: complex, algebraic: int, geometric: int):
        _set(self, "value", value)
        _set(self, "algebraic", algebraic)
        _set(self, "geometric", geometric)


class EigenStructure(_ValueRecord):
    __slots__ = _fields = ("clusters", "dim")

    def __init__(self, clusters: tuple[EigenCluster, ...], dim: int):
        _set(self, "clusters", clusters)
        _set(self, "dim", dim)


class RotationAngles(_ValueRecord):
    """Multiset of rotation angles, descending, with repetition.

    ``reflection`` marks a leftover odd -1 eigenvalue (determinant -1
    inputs only); it is not part of the angle multiset.
    """

    __slots__ = _fields = ("angles", "reflection")

    def __init__(self, angles: tuple[float, ...], reflection: bool = False):
        _set(self, "angles", angles)
        _set(self, "reflection", reflection)

    @property
    def k(self) -> int:
        return len(self.angles)

    @property
    def has_pi(self) -> bool:
        return np.pi in self.angles


class PlaneDecomposition(_Record):
    """Invariant 2-planes of a regular rotation plus its fixed subspace.

    ``planes[i]`` is an (n, 2) orthonormal frame spanning the invariant
    plane for ``angles[i]``; planes are ordered by descending angle and
    oriented so the restriction of the source rotation is B(+angle)
    whenever the angle is not pi.  ``fixed_subspace`` is an (n, n-2k)
    orthonormal frame of the pointwise-fixed subspace.
    """

    __slots__ = _fields = ("planes", "angles", "fixed_subspace")

    def __init__(self, planes: tuple[np.ndarray, ...], angles: tuple[float, ...],
                 fixed_subspace: np.ndarray):
        for p in planes:
            p.setflags(write=False)
        fixed_subspace.setflags(write=False)
        _set(self, "planes", planes)
        _set(self, "angles", angles)
        _set(self, "fixed_subspace", fixed_subspace)

    @property
    def k(self) -> int:
        return len(self.planes)

    @property
    def dim(self) -> int:
        return self.planes[0].shape[0] if self.planes else self.fixed_subspace.shape[0]


def _require_finite_delta(delta: float) -> None:
    if not 0.0 < delta < math.inf:  # NaN fails too
        raise InvalidArg(f"delta {delta:g} is not a finite number > 0")


def _cluster_eigenvalues(vals: np.ndarray, delta: float) -> list[list[int]]:
    """Union-find clustering of eigenvalues at merge radius delta.

    Each pairwise distance is taken once, on Python scalars
    (``vals.tolist()``), whose complex ``abs`` rounds as ``np.hypot`` does
    (numpy's complex ``abs`` can differ in the last bit), at a fraction of
    the cost.  A pair at most delta apart is merged; a pair
    inside (delta, 2 delta) is kept, and if one ends in two clusters, those
    nearly touch and the call refuses.  Clusters come in the order of their
    first member, each listing its members in order.  A delta that is not
    a finite number > 0 is refused (``InvalidArg``), and so is one below
    d * u (d eigenvalues, u = ``EPS``), the rounding of ``eig`` itself: at
    such a delta a repeated eigenvalue split by rounding reads as two.
    """
    _require_finite_delta(delta)
    vals = vals.tolist()
    m = len(vals)
    if delta < m * EPS:
        raise InvalidArg(
            f"delta {delta:g} is below the floor {m * EPS:g} = d * u for d = {m} "
            "eigenvalues, under which eig's rounding splits a repeated eigenvalue"
        )
    parent = list(range(m))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    two = 2 * delta
    near = []
    for i in range(m):
        vi = vals[i]
        for j in range(i + 1, m):
            d = abs(vi - vals[j])
            if d <= delta:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[ri] = rj
            elif d < two:
                near.append((i, j, d))
    groups: dict[int, list[int]] = {}
    for i in range(m):
        groups.setdefault(find(i), []).append(i)
    clusters = list(groups.values())
    if near:
        label = [0] * m
        for c, idx in enumerate(clusters):
            for i in idx:
                label[i] = c
        # the first pair of clusters that nearly touch, and their distance
        cross = [
            (min(label[i], label[j]), max(label[i], label[j]), d)
            for i, j, d in near
            if label[i] != label[j]
        ]
        if cross:
            raise ClusterAmbiguity(
                f"clusters separated by {min(cross)[2]:.3e}, inside [delta, 2*delta); "
                "refine delta"
            )
    return clusters


def _rank_at(m: np.ndarray, threshold: float) -> int:
    svals = lapack.svd(m, compute_uv=False)
    return int(np.sum(svals > threshold))


def null_space_at(m: np.ndarray, threshold: float) -> np.ndarray:
    """Orthonormal basis of the numerical kernel at an absolute threshold:
    the rows of vt past the rank, as the singular values come sorted."""
    _, s, vt = lapack.svd(m)
    rank = sum(x > threshold for x in s.tolist())
    return vt[rank:].T


def _scalar_reading(m, svals, sq, eigvals, modulus, delta):
    """Each row's facts, read from its Python scalars (``tolist``): (scale,
    rank (T - I), rank (T - I)^2, band, square_band, lam, rmax, unpaired,
    real, None), the last the angles, which this reading leaves to
    :func:`_lorentz_angles`."""
    d = m.shape[-1]
    # singular values come sorted (descending); read ascending, each rank
    # and the band are counts by bisection
    rows = zip(
        m[:, -1, -1].tolist(), svals[:, ::-1].tolist(), sq[:, ::-1].tolist(),
        eigvals.tolist(), modulus.tolist(),
    )
    for corner, up, sq_up, ev, mod in rows:
        c = abs(corner)
        scale = max(1.0, c + math.sqrt(max(c - 1.0, 0.0)) * math.sqrt(c + 1.0))
        tau = delta * scale
        rank1 = d - bisect_right(up, tau)
        band = bisect_left(up, 2.0 * tau) > bisect_right(up, tau / 2.0)
        # the square is ranked at tau^2 since small singular values square
        # too; the largest one it reads as zero decides its band
        t2 = tau * tau
        zeros = bisect_right(sq_up, t2)
        zero = sq_up[zeros - 1] if zeros else 0.0
        square_band = zero > max(t2 / 4.0, d * EPS * (scale * scale))
        rmax = max(mod)
        unpaired = rmax > 1.0 + delta and (
            min(abs(v - 1.0 / rmax) for v in ev) > max(delta, d * EPS * scale)
        )
        real = not any(v.imag for v in ev)
        yield (scale, rank1, d - zeros, band, square_band, ev[mod.index(rmax)], rmax,
               unpaired, real, None)


def _stacked_reading(m, svals, sq, eigvals, modulus, delta):
    """The rows of :func:`_scalar_reading`, read as (N,) arrays, and each
    row's angles as :func:`_lorentz_angles` reads them, bit for bit.  Each
    comparison is the scalar one; a complex modulus is ``np.hypot``, which
    rounds as Python's ``abs`` does (numpy's complex ``abs`` need not), and
    ``np.abs`` is taken where the scalar reading takes it.  A row whose
    angle reading might refuse (a defective row whose Jordan radius drops
    another count, a pair of eigenvalues inside (delta, 2 delta), a
    non-real cluster off the unit circle) gets None, and
    :func:`_lorentz_angles` reads it as the reference does."""
    n, d = len(m), m.shape[-1]
    with np.errstate(all="ignore"):  # overflow is inf, as with Python floats
        c = np.abs(m[:, -1, -1])
        scale = np.maximum(1.0, c + np.sqrt(np.maximum(c - 1.0, 0.0)) * np.sqrt(c + 1.0))
        tau = (delta * scale)[:, None]
        rank1 = (svals > tau).sum(1)
        band = ((svals > tau / 2.0) & (svals < 2.0 * tau)).any(1)
        t2 = tau * tau
        zero = sq <= t2
        rank2 = d - zero.sum(1)
        square_band = np.where(zero, sq, 0.0).max(1) > np.maximum(
            t2[:, 0] / 4.0, d * EPS * (scale * scale))
        rmax = modulus.max(1)
        lam = eigvals[np.arange(n), modulus.argmax(1)]
        re, im = eigvals.real, eigvals.imag
        unpaired = (rmax > 1.0 + delta) & (
            np.hypot(re - (1.0 / rmax)[:, None], im).min(1) > np.maximum(delta, d * EPS * scale))
        real = (im == 0).all(1)
        # the angles: the Jordan radius drop, then clusters as the closure of
        # the pairs at most delta apart, each labelled by its first member
        defective = rank2 < rank1
        keep = ~defective[:, None] | (np.abs(eigvals - 1.0) > (JORDAN_RADIUS * scale)[:, None])
        ok = ~defective | (d - keep.sum(1) == d - rank1 + 2)
        gap = np.hypot(re[:, :, None] - re[:, None, :], im[:, :, None] - im[:, None, :])
        both = keep[:, :, None] & keep[:, None, :]
        ok &= ~((gap > delta) & (gap < 2 * delta) & both).any((1, 2))
        reach = ((gap <= delta) & both).astype(float)
        for _ in range(d.bit_length()):  # paths of up to 2^(bit length) > d steps
            reach = np.minimum(reach @ reach, 1.0)
        linked = reach > 0.0
        size = linked.sum(2)
        first = linked.argmax(2)
        head = keep & (first == np.arange(d))
        center = eigvals.astype(complex)
        for r, i in zip(*np.nonzero(head & (size > 1) & ok[:, None])):
            vals = (eigvals[r].real if real[r] else eigvals[r])[linked[r, i]]
            center[r, i] = vals.sum() / len(vals)
        cre, cim = center.real, center.imag
        off = np.abs(np.hypot(cre, cim) - 1.0) > delta
        ok &= ~(head & off & (np.abs(cim) > delta)).any(1)
        live = head & ~off
        upper = live & (cim > delta)
        minus = np.where(live & ~upper & ~(cim < -delta) & ~(cre > 0), size, 0).sum(1)
        theta = np.full(center.shape, -np.inf)
        theta[upper] = np.arctan2(cim[upper], cre[upper])
        # each member of a rotation cluster contributes its angle, which is
        # short of pi (module docstring): ascending, the angles end the row
        member = np.take_along_axis(theta, first, 1)
        member[~keep] = -np.inf
        member.sort(1)
        counts = (member > -np.inf).sum(1)
    angles = [
        RotationAngles(tuple([np.pi] * (b // 2) + row[d - k:][::-1]), bool(b % 2))
        if good else None
        for good, row, k, b in zip(ok.tolist(), member.tolist(), counts.tolist(), minus.tolist())
    ]
    return zip(scale.tolist(), rank1.tolist(), rank2.tolist(), band.tolist(),
               square_band.tolist(), lam.tolist(), rmax.tolist(), unpaired.tolist(),
               real.tolist(), angles)


class _LorentzSpectrum(_Record):
    """The one spectral analysis of a Lorentz matrix T that deciders share,
    stored on T (``LorentzMatrix._analyses``) per delta.

    ``scale`` is max(1, ||T||_2), read from the corner entry T[n, n];
    ranks are read at tau = delta * scale.
    One SVD of T - I gives ``kernel``, an orthonormal frame of ker(T - I)
    at tau; ``band`` is some singular value of T - I inside (tau/2, 2 tau),
    where the kernel is threshold-ambiguous.
    ``defective`` is rank (T - I)^2 < rank (T - I): a Jordan block at 1,
    and ``square_band`` is some singular value of (T - I)^2 inside
    (max(tau^2/4, d EPS scale^2), tau^2], counted as zero by that rank but
    above its rounding floor (d the size), where the Jordan block is
    threshold-ambiguous.
    ``lam`` is the dominant eigenvalue (the first of largest modulus) and
    ``rmax`` = |lam|, the largest modulus of the spectrum; ``unpaired`` is
    rmax > 1 + delta with no eigenvalue within max(delta, d EPS scale) of
    1 / rmax, a stretch without the inverse every stretch of O(n,1) pairs
    with.  ``rays``, a hyperbolic's fixed rays, are the null eigenvectors
    for r = |lam| and 1/r, as rows, read wherever Re lam > 0, rmax > 1 +
    delta and T is not ``defective`` (else None).  ``angles``, the
    rotation angles, are set where a large stack read them
    (:func:`_stacked_reading`) and else None, for :func:`_lorentz_angles`
    to read from the spectrum.  ``structure``, the
    adapted splitting (``frames._lorentz_structure``), is kept once built.  The
    fixed data of an elliptic or a parabolic is read from ``kernel``
    itself: its J-Gram is I - 2 z z^T, z the time row of ``kernel``, with
    the eigenvalue g = 1 - 2 |z|^2 along z and 1 across it.

    ``entries`` is T's own read-only array, and ``space`` and
    ``sheet_preserving`` are T's; the record holds no reference back to
    T, which keeps T free of reference cycles.  Its arrays are read-only,
    as every later call on T reads them.
    """

    __slots__ = _fields = (
        "entries", "space", "delta", "sheet_preserving", "scale", "eigvals", "kernel",
        "defective", "lam", "rmax", "band", "square_band", "unpaired", "rays", "structure",
        "angles")
    # the one mutable record: ``rays`` and ``structure`` are set late
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__

    def __init__(self, entries: np.ndarray, space: QuadraticSpace, delta: float,
                 sheet_preserving: bool, scale: float, eigvals: np.ndarray,
                 kernel: np.ndarray, defective: bool, lam, rmax: float, band: bool,
                 square_band: bool, unpaired: bool, rays: np.ndarray = None,
                 structure=None, angles: RotationAngles = None):
        eigvals.setflags(write=False)
        kernel.setflags(write=False)
        _set(self, "entries", entries)
        _set(self, "space", space)
        _set(self, "delta", delta)
        _set(self, "sheet_preserving", sheet_preserving)
        _set(self, "scale", scale)
        _set(self, "eigvals", eigvals)
        _set(self, "kernel", kernel)
        _set(self, "defective", defective)
        _set(self, "lam", lam)  # float, or complex for a non-real spectrum
        _set(self, "rmax", rmax)
        _set(self, "band", band)
        _set(self, "square_band", square_band)
        _set(self, "unpaired", unpaired)
        _set(self, "rays", rays)
        _set(self, "structure", structure)
        _set(self, "angles", angles)

    @classmethod
    def of(cls, t: LorentzMatrix, delta: float) -> "_LorentzSpectrum":
        """The pass of t at delta: the stored one, else a new one, stored."""
        sp = t._analyses.get(delta)
        return cls.stack([t], delta)[0] if sp is None else sp

    @classmethod
    def stack(cls, ts: list[LorentzMatrix], delta: float) -> list["_LorentzSpectrum"]:
        """The pass of each of ``ts`` (all of one size).  Passes not yet
        stored are computed in three LAPACK calls on their (N, d, d) stack:
        the SVD of T - I, the singular values of (T - I)^2 and the
        eigenvalues of T, whose moduli are taken over the stack too.  The
        rest is at most d^2 numbers per matrix: the scale, the two ranks and
        ``band``, ``square_band``, ``lam``, ``rmax`` and ``unpaired``; they
        are Python floats and bools, and ``lam`` a float or a complex.
        Fewer than ``STACKED_READING_MIN`` passes, a single element's
        among them, read these from their Python scalars, row by row
        (:func:`_scalar_reading`, bisection on the sorted singular values).
        A larger stack reads them as (N,) arrays, and its rotation angles
        too (:func:`_stacked_reading`): the same numbers bit for bit, at a
        fixed cost of numpy calls that only a larger stack repays.  One more
        SVD, of T - r I and T - r^-1 I for each row given ``rays``, reads
        them.  The passes are stored once every call has returned: a failed
        call stores nothing.

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
        when delta is below ``DELTA_MIN`` or infinite.
        """
        if not delta >= DELTA_MIN:
            raise InvalidArg(
                f"delta {delta:g} is below delta_min = {DELTA_MIN:g}, the floor "
                "under which the rank of (T - I)^2 is lost to rounding"
            )
        _require_finite_delta(delta)
        todo = [t for t in ts if delta not in t._analyses]
        if todo:
            m = np.array([t.entries for t in todo])
            eye = todo[0].space.identity
            n1 = m - eye
            _, svals, vt = lapack.svd(n1)
            sq = lapack.svd(n1 @ n1, compute_uv=False)
            eigvals = lapack.eigvals(m)
            modulus = np.abs(eigvals)
            read = _stacked_reading if len(todo) >= STACKED_READING_MIN else _scalar_reading
            done, stretched = [], []
            rows = zip(todo, read(m, svals, sq, eigvals, modulus, delta))
            for i, (t, (scale, rank1, rank2, band, square_band, lam, rmax, unpaired, real,
                        angles)) in enumerate(rows):
                # as eigvals of one matrix, a real spectrum comes back real
                vals = eigvals[i]
                if real:
                    vals, lam = vals.real, lam.real
                sp = cls(
                    t.entries, t.space, delta, t.sheet_preserving, scale, vals,
                    vt[i, rank1:].T, rank2 < rank1, lam, rmax, band, square_band,
                    unpaired, angles=angles,
                )
                if lam.real > 0 and rmax > 1.0 + delta and not sp.defective:
                    stretched.append(i)
                done.append(sp)
            if stretched:  # the null eigenrays for r and 1/r, r = |lam| of the scalar
                h = len(stretched)
                r = [float(abs(done[i].lam)) for i in stretched]
                shift = np.array(r + [1.0 / x for x in r])
                rays = lapack.svd(m[stretched * 2] - shift[:, None, None] * eye)[2]
                for j, i in enumerate(stretched):
                    pair = rays[[j, h + j], -1]
                    pair.setflags(write=False)
                    done[i].rays = pair
            for t, sp in zip(todo, done):
                t._analyses[delta] = sp
        return [t._analyses[delta] for t in ts]


def eigen_structure(m, delta: float = DEFAULT_DELTA) -> EigenStructure:
    """Cluster the spectrum and attach algebraic/geometric multiplicities."""
    m = np.asarray(m, dtype=float)
    vals = lapack.eigvals(m)
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
    vals = lapack.eigvals(m)
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
    ``unit_only`` skips real clusters off the unit circle (a Lorentz
    stretch pair) and raises ``Borderline`` for a non-real one, a rotation
    pair whose modulus rounding has pushed more than delta off 1.  Returns
    (pairs, plus, minus): (angle, member indices) per rotation cluster and
    the indices of the members read as +1 and as -1, whose counts for an
    orthogonal matrix add up to its dimension (pairs counted twice).

    A one-member cluster's center is its member, read from the Python
    scalar; a larger one's is ``vals[idx].sum() / len(idx)``."""
    pairs: list[tuple[float, list[int]]] = []
    plus: list[int] = []
    minus: list[int] = []
    scalars = vals.tolist()
    for idx in _cluster_eigenvalues(vals, delta):
        if len(idx) == 1:
            center = complex(scalars[idx[0]])
        else:
            center = complex(vals[idx].sum() / len(idx))
        if unit_only and abs(abs(center) - 1.0) > delta:
            if abs(center.imag) > delta:
                raise Borderline(
                    f"non-real eigenvalue of modulus {abs(center):.12g} is off the "
                    f"unit circle by more than delta = {delta:g}; its rotation "
                    "angle is lost to rounding"
                )
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
    otherwise its random spread trips the ambiguity check.  A radius that
    drops another count than the kernel width of T - I plus 2 (the rest of
    the Jordan block) has swallowed an angle, and refuses.  The angles a
    large stack read (``sp.angles``) are returned as they are.
    """
    if sp.angles is not None:
        return sp.angles
    vals = sp.eigvals
    if sp.defective:
        one_fuzz = JORDAN_RADIUS * sp.scale
        keep = np.abs(vals - 1.0) > one_fuzz
        dropped, ones = len(vals) - int(keep.sum()), sp.kernel.shape[1] + 2
        if dropped != ones:
            raise Borderline(
                f"the Jordan block's rounding radius {one_fuzz:.3e} around 1 holds {dropped} "
                f"eigenvalues, where ker(T - I) and the Jordan block hold {ones}"
            )
        vals = vals[keep]
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
    return _angles_of(lapack.eigvals(m), delta, unit_only=False)


def _distinct(angles, delta: float) -> bool:
    """Descending angles pairwise more than delta apart (regularity)."""
    return all(angles[i] - angles[i + 1] > delta for i in range(len(angles) - 1))


def is_regular(a, delta: float = DEFAULT_DELTA, eps: float = 1e-9) -> bool:
    """All rotation angles pairwise distinct, each of pair multiplicity one."""
    return _distinct(rotation_angles(a, delta, eps).angles, delta)


class _OrthogonalBlocks(_Record):
    """Invariant blocks of an orthogonal matrix A.  ``frame`` is the square
    frame, in which A is block diagonal: the plane frames by descending
    angle, then ker(A - I), then ker(A + I); the block frames are its
    column slices."""

    __slots__ = _fields = ("planes", "fix_frame", "neg_frame", "near_pm_one", "frame")

    def __init__(self, planes: list, fix_frame: np.ndarray, neg_frame: np.ndarray,
                 near_pm_one: float, frame: np.ndarray):
        _set(self, "planes", planes)  # (angle, frame) with angle in (0, pi), descending
        _set(self, "fix_frame", fix_frame)  # ker(A - I)
        _set(self, "neg_frame", neg_frame)  # ker(A + I)
        _set(self, "near_pm_one", near_pm_one)  # largest |Im lambda| the reading counted as +-1
        _set(self, "frame", frame)

    @property
    def angles(self) -> RotationAngles:
        """The angle multiset, from the same reading as the blocks."""
        return _angle_multiset([theta for theta, _ in self.planes], self.b)

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

    The spectrum is read once, by :func:`_unit_circle` at radius
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
    pairs, plus, minus = _unit_circle(vals, delta)
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
    blocks = invariant_plane_frames(m, delta)
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
