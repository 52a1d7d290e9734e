"""Seeded random element generation.

Orthogonal matrices come from QR orthonormalization of Gaussian matrices
(sign-fixed, Haar); Lorentz elements of the identity component from the
exponential of a random element of the Lie algebra so(n,1), which lands in
SO_o by connectedness, so no component correction is needed afterwards.
Classified elements are built in standard position and conjugated by a
random group element.

Rotation angles are sampled on a 1e-3 grid, pairwise separated and kept
away from 0 and pi, so generated elements are regular by construction and
their invariants survive canonical rounding bit-exactly.
"""

from __future__ import annotations

import numpy as np

from .classify import poincare_extend
from .errors import InvalidArg, OutOfRange
from .quadspace import LorentzMatrix, QuadraticSpace, classify_membership
from .spectral import rotation_matrix


def random_orthogonal(rng: np.random.Generator, n: int) -> np.ndarray:
    """Haar-ish orthogonal matrix from QR of a Gaussian sample."""
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def _expm(x: np.ndarray) -> np.ndarray:
    """Matrix exponential by scaling and squaring: the degree-18 Taylor
    polynomial, whose remainder 1/19! is below rounding once the 1-norm
    is scaled to at most 1."""
    squarings = int(np.ceil(np.log2(max(np.abs(x).sum(axis=0).max(), 1.0))))
    a = x / 2.0**squarings
    ident = np.eye(x.shape[0])
    r = ident
    for k in range(18, 0, -1):
        r = ident + (a @ r) / k
    for _ in range(squarings):
        r = r @ r
    return r


def random_soo(rng: np.random.Generator, n: int, scale: float = 0.5) -> np.ndarray:
    """Element of SO_o(n,1) as exp of a random Lie-algebra element."""
    skew = rng.standard_normal((n, n)) * scale
    x = np.zeros((n + 1, n + 1))
    x[:n, :n] = (skew - skew.T) / 2.0
    b = rng.standard_normal(n) * scale
    x[:n, n] = b
    x[n, :n] = b
    return _expm(x)


def random_angles(
    rng: np.random.Generator, k: int, include_pi: bool = False
) -> list[float]:
    """k distinct grid-rounded angles in (0, pi), optionally one exact pi."""
    out: list[float] = [float(np.pi)] if include_pi else []
    lo, hi = 0.15, float(np.pi) - 0.15
    while len(out) < k:
        cand = round(float(rng.uniform(lo, hi)), 3)
        if all(abs(cand - a) > 0.02 for a in out):
            out.append(cand)
    return sorted(out, reverse=True)


def rotation_with_angles(angles, n: int) -> np.ndarray:
    """Block rotation B(t_1) + ... + B(t_k) + I_{n-2k}."""
    k = len(angles)
    if 2 * k > n:
        raise InvalidArg(f"cannot fit {k} rotation planes into E^{n}")
    a = np.eye(n)
    for i, theta in enumerate(angles):
        a[2 * i : 2 * i + 2, 2 * i : 2 * i + 2] = rotation_matrix(theta)
    return a


def random_regular_special_orthogonal(rng: np.random.Generator, n: int) -> np.ndarray:
    """Regular element of SO(n): distinct angles, pair multiplicity one, a
    plane of pi in about 30 % of draws, conjugated by a random orthogonal
    matrix."""
    include_pi = n >= 2 and bool(rng.random() < 0.3)
    kmax = (n - 2) // 2 if include_pi else n // 2
    k_rest = int(rng.integers(0, kmax + 1))
    angles = random_angles(rng, k_rest + (1 if include_pi else 0), include_pi)
    std = rotation_with_angles(angles, n)
    w = random_orthogonal(rng, n)
    return w @ std @ w.T


def _boost(space_dim: int, s: float) -> np.ndarray:
    """Boost of rapidity s in the (pole, time) plane of R^{space_dim+1}."""
    m = np.eye(space_dim + 1)
    m[-2, -2] = m[-1, -1] = np.cosh(s)
    m[-2, -1] = m[-1, -2] = np.sinh(s)
    return m


def standard_isometry(
    rng: np.random.Generator, n: int, cls: str, k: int | None = None
) -> np.ndarray:
    """Standard-position element of SO_o(n,1) of the requested class, with
    k rotation planes (drawn when None)."""
    if k is not None and k < 0:
        raise OutOfRange(f"k must be at least 0, got {k}")
    if cls == "elliptic":
        kmax = n // 2
        k = int(rng.integers(0, kmax + 1)) if k is None else k
        if k > kmax:
            raise InvalidArg(f"elliptic class in SO_o({n},1) needs k <= {kmax}")
        std = np.eye(n + 1)
        std[:n, :n] = rotation_with_angles(random_angles(rng, k), n)
        return std
    if cls == "hyperbolic":
        kmax = (n - 1) // 2
        k = int(rng.integers(0, kmax + 1)) if k is None else k
        if k > kmax:
            raise InvalidArg(f"hyperbolic class in SO_o({n},1) needs k <= {kmax}")
        s = round(float(rng.uniform(0.25, 1.4)), 3)
        std = _boost(n, s)
        std[: n - 1, : n - 1] = rotation_with_angles(random_angles(rng, k), n - 1)
        return std
    if cls == "parabolic":
        if n < 2:
            raise InvalidArg("parabolic elements need n >= 2")
        kmax = (n - 2) // 2
        k = int(rng.integers(0, kmax + 1)) if k is None else k
        if k > kmax:
            raise InvalidArg(f"parabolic class in SO_o({n},1) needs k <= {kmax}")
        a = rotation_with_angles(random_angles(rng, k), n - 1)
        b = np.zeros(n - 1)
        b[-1] = round(float(rng.uniform(0.5, 1.5)), 3)
        return np.asarray(poincare_extend(1.0, a, b).entries)
    raise InvalidArg(f"unknown class {cls!r}")


def random_isometry(
    rng: np.random.Generator,
    n: int,
    cls: str | None = None,
    k: int | None = None,
) -> LorentzMatrix:
    """Random classified element of SO_o(n,1): standard position composed
    with a random identity-component conjugator (``random_soo`` at scale
    0.5), validated at membership tolerance 1e-8."""
    if cls is None:
        cls = ["elliptic", "parabolic", "hyperbolic"][int(rng.integers(0, 3))]
        if n < 2 and cls == "parabolic":
            cls = "elliptic"
    std = standard_isometry(rng, n, cls, k)
    w = random_soo(rng, n)
    winv = np.linalg.inv(w)
    return classify_membership(QuadraticSpace(n), w @ std @ winv, 1e-8)
