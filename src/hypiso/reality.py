"""Reality (reversibility) deciders with explicit reverser construction.

An element g of a group G is *real* in G when some h in G satisfies
h g h^-1 = g^-1, and *strongly real* when it is a product of two
involutions in G.  Deciders are provided for O(n), SO(n), SO_o(n,1) and
the Moebius identity component M_o(n) = SO_o(n+1,1).

Every positive decision ships a verified reverser; all constructions here
produce involutions, so reality and strong reality coincide on everything
this module emits (which is also what the theory guarantees).  Each
reverser is read from the adapted splitting of its element by
:mod:`hypiso.frames`, which hands it over only once it has passed its
gates, its component (det, sheet) among them in the Lorentz groups; this
module checks no certificate itself.

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

from . import lapack
from .classify import FixedPointClass
from .errors import (
    BudgetExhausted, HypisoError, InvalidArg, NotInIdentityComponent, NotOrthogonal,
    NotSpecialOrthogonal,
)
from .frames import (
    CERTIFICATE_TOL, _group_reversal_residual, _lorentz_structure, _orthogonal_structure,
    _reverser,
)
from .quadspace import (
    DEFAULT_EPS, LorentzMatrix, form_residual, group_inverse, is_orthogonal, matrix_to_document,
)
from .spectral import DEFAULT_DELTA, _distinct, _LorentzSpectrum, _lorentz_angles

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


# ---------------------------------------------------------------------------
# orthogonal groups
# ---------------------------------------------------------------------------


def _orthogonal_data(t, delta: float, eps: float, special: bool = True):
    t = np.asarray(t, dtype=float)
    if not is_orthogonal(t, eps):
        raise NotOrthogonal("input is not orthogonal within tolerance")
    if special and lapack.det(t) < 0:
        raise NotSpecialOrthogonal("input has determinant -1")
    return t, _orthogonal_structure(t, delta)


def is_real_On(
    t, delta: float = DEFAULT_DELTA, eps: float = 1e-9
) -> RealityCertificate:
    """Every orthogonal element is (strongly) real; returns an involutive
    reverser built from per-plane reflections."""
    t, st = _orthogonal_data(t, delta, eps, special=False)
    s = _reverser(st, t, delta, (-1) ** st.blocks.p)
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
    s = _reverser(st, t, delta, 1)
    if s is None:
        raise HypisoError("decision true but construction failed; inconsistent")
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
    s = _reverser(st, t.entries, delta, det=1, sheet=1)
    if s is None:
        raise HypisoError("positive decision without achievable reverser; inconsistent")
    return RealityCertificate(GROUP_SOO, True, clause, s, True)


def is_real_Mo(t: LorentzMatrix, delta: float = DEFAULT_DELTA) -> RealityCertificate:
    """Reality in M_o(n) via the identification M_o(n) = SO_o(n+1,1);
    the element acts on H^{n+1} and n denotes the boundary dimension."""
    return replace(is_real_SOo_n1(t, delta), group=GROUP_MO)


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


def _reverser_solution_basis(t: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Basis of the linear space {X : X T = T^-1 X} (columns are vecs) of a
    group element T with form signs j."""
    n = t.shape[0]
    tinv = group_inverse(t, j)
    k = np.kron(t.T, np.eye(n)) - np.kron(np.eye(n), tinv)
    _, svals, vt = lapack.svd(k)
    tol = max(1.0, svals[0]) * 1e-10
    small = np.ones(n * n, dtype=bool)
    small[: len(svals)] = svals <= tol
    return vt[small].T


def _project_orthogonal_batch(xs: np.ndarray) -> np.ndarray:
    u, _, vt = lapack.svd(xs)
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
            dets = lapack.det(ys)
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
    eps: float = DEFAULT_EPS,
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
    raises ``InvalidArg`` first.  An orthogonal input is checked at
    ``eps``, as :func:`is_real_On` checks it.
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
        mat, st = _orthogonal_data(t, delta, eps, special=group == GROUP_SO)
        j = st.j
        ang = st.blocks.angles.angles
    regular = _distinct(ang, delta)

    exact = None
    exact_witnesses: dict = {}
    if regular:
        if lorentzian:  # the splitting of a non-regular element is not built
            st = _lorentz_structure(sp)
        for det, sheet in itertools.product((1, -1), (1, -1)):
            s = _reverser(st, mat, delta, det, sheet)
            if s is not None:
                exact_witnesses[(det, sheet)] = s
        exact = frozenset(exact_witnesses)

    found: dict = {}
    used = 0
    basis = _reverser_solution_basis(mat, j) if budget > 0 else np.zeros((0, 0))
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
                    & (_group_reversal_residual(ss, mat, j) <= CERTIFICATE_TOL)]
            # (det, sheet) of each verified witness, from one stacked det;
            # the sheet is +1 in an orthogonal group
            dets = np.where(lapack.det(ss) > 0, 1, -1).tolist()
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
