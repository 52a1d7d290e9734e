"""Lorentzian linear algebra over (V, Q) with signature (n, 1).

Conventions, fixed once for the whole package:

* the ambient space is R^(n+1) with the quadratic form
  ``Q(x) = x_0^2 + ... + x_{n-1}^2 - x_n^2`` (time coordinate last),
  i.e. the form matrix is ``J = diag(1, ..., 1, -1)``;
* the hyperbolic space H^n is the sheet ``{Q(v) = -1, v_n > 0}``;
* an isometry is *sheet-preserving* when it maps that sheet to itself,
  which for a form-preserving matrix M is decided by the sign of
  ``(M e_n)_n = M[n, n]``.

O(n,1) has four components, labelled here by determinant sign and sheet
behaviour.  The isometry group of H^{n+1} (the Moebius group M(n) of the
n-sphere) is identified with the two sheet-preserving components of
O(n+1,1); its identity component M_o(n) is SO_o(n+1,1).  Orientation-
reversing isometries of H^{n+1} are the sheet-preserving matrices of
determinant -1.  No further restriction is applied.

All values are immutable after construction and every operation is a pure
function, so concurrent use needs no coordination.  (A Lorentz matrix
stores its analysis on first use, a deterministic function of its
entries: two threads may both compute it, and store equal results.)
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from enum import Enum
from functools import cache

import numpy as np

from . import lapack
from .errors import (
    AmbiguousComponent,
    DependentBasis,
    DimensionMismatch,
    HypisoError,
    InvalidArg,
    NotAnIsometry,
    ZeroVector,
)

# Relative tolerance for form-preservation residuals.  The residual of a
# product grows with the factors' norms, so every test below scales eps by
# max(1, ||M||_inf^2); causal typing scales by ||v||^2.
DEFAULT_EPS = 1e-9


class CausalType(Enum):
    """Sign class of Q on a vector or subspace.

    ``DEGENERATE`` never applies to a single nonzero vector; it is the
    fourth subspace tag (singular restricted Gram that is not identically
    zero), which the vector trichotomy cannot produce.
    """

    TIME_LIKE = "TimeLike"
    SPACE_LIKE = "SpaceLike"
    LIGHT_LIKE = "LightLike"
    DEGENERATE = "Degenerate"


class Component(Enum):
    """Connected component of O(n,1), labelled (det sign, sheet behaviour)."""

    SO_o = ("SO_o", 1, 1)
    SO_swap = ("SO_swap", 1, -1)
    O_minus_preserving = ("O_minus_preserving", -1, 1)
    O_minus_swapping = ("O_minus_swapping", -1, -1)

    def __init__(self, label: str, det_sign: int, sheet_sign: int):
        self.label = label
        self.det_sign = det_sign
        self.sheet_sign = sheet_sign

    @property
    def sheet_preserving(self) -> bool:
        return self.sheet_sign == 1

    @staticmethod
    def from_signs(det_sign: int, sheet_sign: int) -> "Component":
        try:
            return _COMPONENTS[det_sign, sheet_sign]
        except KeyError:
            raise ValueError(f"no component for signs ({det_sign}, {sheet_sign})") from None

    def compose(self, other: "Component") -> "Component":
        """Component of a product, i.e. the Klein four-group law."""
        return Component.from_signs(
            self.det_sign * other.det_sign, self.sheet_sign * other.sheet_sign
        )


_COMPONENTS = {(c.det_sign, c.sheet_sign): c for c in Component}


@dataclass(frozen=True)
class QuadraticSpace:
    """R^(n+1) with the diagonal form diag(1, ..., 1, -1)."""

    n: int
    # the constant arrays diag(J) = (1, ..., 1, -1), J, I and a vector of
    # dim ones: read-only, built once per dimension and shared by every
    # space of it, set as plain attributes in one dict update (a
    # cached_property takes a lock on first use)
    form_signs: np.ndarray = field(init=False, repr=False, compare=False)
    form_matrix: np.ndarray = field(init=False, repr=False, compare=False)
    identity: np.ndarray = field(init=False, repr=False, compare=False)
    ones: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.n < 1:
            raise DimensionMismatch(f"spatial dimension must be >= 1, got {self.n}")
        self.__dict__.update(_constants(self.n + 1))

    @property
    def dim(self) -> int:
        return self.n + 1


@cache
def _constants(dim: int) -> dict:
    """The constant arrays of R^dim by their ``QuadraticSpace`` names,
    read-only."""
    ones = np.ones(dim)
    signs = ones.copy()
    signs[-1] = -1.0
    out = {"form_signs": signs, "form_matrix": np.diag(signs), "identity": np.eye(dim),
           "ones": ones}
    for a in out.values():
        a.setflags(write=False)
    return out


def _as_vector(space: QuadraticSpace, v) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    if v.shape != (space.dim,):
        raise DimensionMismatch(
            f"expected vector of length {space.dim}, got shape {v.shape}"
        )
    if not np.all(np.isfinite(v)):
        raise InvalidArg("vector entries must be finite")
    return v


def q_value(space: QuadraticSpace, v) -> float:
    """Evaluate Q(v) = x_0^2 + ... + x_{n-1}^2 - x_n^2."""
    v = _as_vector(space, v)
    return float(np.dot(v[:-1], v[:-1]) - v[-1] ** 2)


def causal_type(space: QuadraticSpace, v, eps: float = DEFAULT_EPS) -> CausalType:
    """Causal trichotomy of a nonzero vector at relative tolerance eps."""
    v = _as_vector(space, v)
    scale = float(np.dot(v, v))
    if scale == 0.0:
        raise ZeroVector("causal type of the zero vector is undefined")
    q = q_value(space, v)
    if q < -eps * scale:
        return CausalType.TIME_LIKE
    if q > eps * scale:
        return CausalType.SPACE_LIKE
    return CausalType.LIGHT_LIKE


def subspace_type(
    space: QuadraticSpace, basis, eps: float = DEFAULT_EPS
) -> CausalType:
    """Causal type of span(basis) from the restricted Gram matrix.

    Time-like means non-degenerate indefinite, space-like positive
    definite, light-like identically zero.  A singular Gram that is not
    identically zero is reported as ``DEGENERATE`` rather than coerced
    into the trichotomy.
    """
    b = np.column_stack([_as_vector(space, v) for v in basis])
    with np.errstate(over="ignore", invalid="ignore"):
        scale = float(_squared_scale(b))
        gram = b.T @ space.form_matrix @ b
    if not (np.isfinite(scale) and np.all(np.isfinite(gram))):
        raise InvalidArg(
            f"restricted Gram matrix overflows at basis entry {np.max(np.abs(b)):.3e}"
        )
    if np.linalg.matrix_rank(b, tol=eps * max(1.0, np.linalg.norm(b, 2))) < b.shape[1]:
        raise DependentBasis("basis vectors are linearly dependent")
    if np.max(np.abs(gram)) <= eps * scale:
        return CausalType.LIGHT_LIKE
    eigs = np.linalg.eigvalsh(gram)
    tol = eps * scale
    n_pos = int(np.sum(eigs > tol))
    n_neg = int(np.sum(eigs < -tol))
    n_zero = len(eigs) - n_pos - n_neg
    if n_zero > 0:
        return CausalType.DEGENERATE
    if n_neg == 0:
        return CausalType.SPACE_LIKE
    return CausalType.TIME_LIKE


@dataclass(frozen=True, eq=False)
class LorentzMatrix:
    """A validated element of O(n,1) with its component label.

    Construct through :func:`classify_membership`; the constructor itself
    does not re-check the form residual.

    The element carries its own analysis: ``_analyses`` maps delta to the
    record of its spectral pass (``spectral._LorentzSpectrum``), computed
    on first use and read by every later decider call, which also keeps
    the adapted splitting (``frames._lorentz_structure``).  The record
    shares ``entries`` but holds no reference back to the element, so the
    element is freed by reference counting.  This is sound only because
    ``entries`` never changes: every construction in the package
    (``classify_membership``, ``inverse``, ``@``) hands over a freshly
    built array that no one else holds, and it is made read-only here.
    """

    entries: np.ndarray
    component: Component
    tolerance: float
    space: QuadraticSpace = field(repr=False)
    _analyses: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        self.entries.setflags(write=False)

    @property
    def n(self) -> int:
        return self.space.n

    @property
    def sheet_preserving(self) -> bool:
        return self.component.sheet_preserving

    @property
    def identity_component(self) -> bool:
        return self.component is Component.SO_o

    def inverse(self) -> "LorentzMatrix":
        """Group inverse J M^T J (exact up to rounding; same component)."""
        inv = group_inverse(self.entries, self.space.form_signs)
        return LorentzMatrix(inv, self.component, self.tolerance, self.space)

    def __matmul__(self, other: "LorentzMatrix") -> "LorentzMatrix":
        if self.space.n != other.space.n:
            raise DimensionMismatch("cannot compose matrices of different sizes")
        return LorentzMatrix(
            self.entries @ other.entries,
            self.component.compose(other.component),
            max(self.tolerance, other.tolerance),
            self.space,
        )

    def __array__(self, dtype=None, copy=None):
        return np.array(self.entries, dtype=dtype)


def j_inner(j: np.ndarray, x: np.ndarray, y: np.ndarray) -> float:
    """Polarized form x^T J y for real vectors, j = diag(J)."""
    return float(np.dot(x * j, y))


def group_inverse(m: np.ndarray, j: np.ndarray) -> np.ndarray:
    """M^-1 = J M^T J of a group element, or of each of a stack; j = diag(J)
    are the form signs, all ones in O(n), where it is M^T."""
    return (j[:, None] * np.swapaxes(m, -1, -2)) * j[None, :]


def form_residual(m: np.ndarray, j: np.ndarray):
    """max-norm of M^T J M - J, per matrix of a stack (M^T M - I for all-ones
    ``j``); inf or nan where the products overflow (numpy warns of that
    unless under ``np.errstate``).  M^T J is M^T with its columns signed,
    in C order, as the product M^T @ J would leave it: then (M^T J) @ M is
    that product's BLAS call, bit for bit."""
    mtj = np.multiply(np.swapaxes(m, -1, -2), j, order="C")
    form = _constants(len(j))["form_matrix" if j[-1] < 0 else "identity"]  # I for all ones
    return np.abs(mtj @ m - form).max(axis=(-2, -1))


def classify_membership(
    space: QuadraticSpace, m, eps: float = DEFAULT_EPS
) -> LorentzMatrix:
    """Validate membership in O(n,1) and assign the component label.

    Raises ``NotAnIsometry`` when the form residual exceeds
    ``eps * max(1, ||M||_inf^2)``, and ``AmbiguousComponent`` when the
    sheet entry ``M[n, n]`` is too close to zero to carry a sign: its
    square, which the (n, n) entry of the form residual bounds, is within
    that tolerance.  Every element of O(n,1) has M[n, n]^2 >= 1, so this
    signals corrupt input.
    """
    m = np.asarray(m, dtype=float)
    if m.shape != (space.dim, space.dim):
        raise DimensionMismatch(
            f"expected {space.dim}x{space.dim} matrix, got shape {m.shape}"
        )
    (result,) = classify_membership_many(space, m[None], eps)
    if isinstance(result, HypisoError):
        raise result
    return result


def classify_membership_many(
    space: QuadraticSpace, ms, eps: float = DEFAULT_EPS
) -> list[LorentzMatrix | HypisoError]:
    """:func:`classify_membership` of each matrix of an (N, d, d) stack.

    The checks run vectorized over the stack; each entry of the result is
    the matrix's ``LorentzMatrix`` or the exception
    ``classify_membership`` raises for it.  An ``eps`` that is not >= 0,
    NaN among them (which no residual exceeds), raises ``InvalidArg``.
    """
    if not eps >= 0:
        raise InvalidArg(f"eps {eps!r} must be a number >= 0")
    ms = np.asarray(ms, dtype=float)
    if ms.ndim != 3 or ms.shape[1:] != (space.dim, space.dim):
        raise DimensionMismatch(
            f"expected a stack of {space.dim}x{space.dim} matrices, got shape {ms.shape}"
        )
    token = lapack.errstate_var.set(lapack.IGNORE_ALL)
    try:
        # NaN and inf propagate through the max, so it also decides
        # whether the entries are finite
        top = np.abs(ms).max(axis=(1, 2))
        resid = form_residual(ms, space.form_signs)
        # det M = det(M[:n, :n]) / M[n, n] on O(n,1) (Cramer's rule with
        # M^-1 = J M^T J); the block's condition number is |M[n, n]|, not
        # ||M||^2, so its sign survives entries where det M loses it
        det = lapack.det(ms[:, :-1, :-1])  # read only where the residual passes
    finally:
        lapack.errstate_var.reset(token)
    out: list[LorentzMatrix | HypisoError] = []
    rows = zip(ms, top.tolist(), resid.tolist(), det.tolist(), ms[:, -1, -1].tolist())
    for m, mx, r, d, sheet_entry in rows:
        s = max(1.0, mx * mx)  # max(1, ||M||_inf^2), inf where the square overflows
        if not math.isfinite(mx):
            out.append(NotAnIsometry("matrix entries must be finite"))
        elif not (math.isfinite(s) and math.isfinite(r)):
            out.append(NotAnIsometry(f"form residual overflows at matrix scale {s:.3e}"))
        elif r > eps * s:
            out.append(NotAnIsometry(
                f"form residual {r:.3e} exceeds tolerance {eps * s:.3e}"
            ))
        elif sheet_entry * sheet_entry <= eps * s:
            out.append(AmbiguousComponent(
                f"sheet entry {sheet_entry:.3e} is indistinguishable from zero"
            ))
        else:
            out.append(LorentzMatrix(np.array(m), _component(sheet_entry, d), eps, space))
    return out


def _component(sheet_entry: float, block_det: float) -> Component:
    """The component of an element M of O(n,1) from M[n, n] and
    det(M[:n, :n]), whose quotient is det M."""
    sheet = 1 if sheet_entry > 0 else -1
    return Component.from_signs(1 if block_det * sheet > 0 else -1, sheet)


def _squared_scale(m: np.ndarray):
    """max(1, ||M||_inf^2) per matrix of a stack; inf where the square
    overflows (call under ``np.errstate(over="ignore")``)."""
    mx = np.abs(m).max(axis=(-2, -1))
    return np.maximum(1.0, mx * mx)


def is_orthogonal(m: np.ndarray, eps: float = DEFAULT_EPS) -> bool:
    """M^T M = I within eps * max(1, ||M||_inf^2); False when the residual
    or the scale is not finite."""
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        return False
    with np.errstate(over="ignore", invalid="ignore"):
        scale = _squared_scale(m)
        resid = float(form_residual(m, _constants(len(m))["ones"]))
    return bool(np.isfinite(scale) and np.isfinite(resid) and resid <= eps * scale)


# ---------------------------------------------------------------------------
# Matrix interchange format, shared by every module and the CLI: a JSON
# document {"n": <int>, "matrix": <row-major list of (n+1)^2 floats>}.
# Python's float repr round-trips doubles exactly, which meets the
# full-double-precision requirement for writers.
# ---------------------------------------------------------------------------


def matrix_to_document(m) -> dict:
    m = np.asarray(m, dtype=float)
    n = m.shape[0] - 1
    return {"n": n, "matrix": [float(x) for x in m.ravel(order="C")]}


def matrix_to_json(m) -> str:
    return json.dumps(matrix_to_document(m))


_JSON_NUMBERS = frozenset((int, float))
# the space of a dimension is immutable, so the documents of one n share it
# rather than each paying for its construction
_space = cache(QuadraticSpace)


def matrix_from_document(doc: dict) -> tuple[QuadraticSpace, np.ndarray]:
    """The space and matrix of a document: ``n`` a JSON integer, ``matrix``
    a flat list of JSON numbers (strings, booleans and nested lists are
    malformed; ``ValueError`` names the problem)."""
    try:
        n = doc["n"]
        if type(n) is not int:  # a JSON integer; bool is an int subclass
            raise TypeError(f"n must be an integer, got {n!r}")
        flat = doc["matrix"]
        if type(flat) is not list:
            raise TypeError(f"matrix must be a list of numbers, got {type(flat).__name__}")
        # one C-level pass over the entries; bool is not a JSON number
        kinds = set(map(type, flat))
        if not kinds <= _JSON_NUMBERS:
            names = ", ".join(sorted(k.__name__ for k in kinds - _JSON_NUMBERS))
            raise TypeError(f"matrix entries must be JSON numbers, got {names}")
        flat = np.array(flat, dtype=float)  # OverflowError: an integer past the doubles
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"malformed matrix document: {exc}") from exc
    dim = n + 1
    if flat.shape != (dim * dim,):
        raise ValueError(
            f"matrix field has {flat.size} entries, expected {dim * dim}"
        )
    return _space(n), flat.reshape(dim, dim)


def matrix_from_json(text: str) -> tuple[QuadraticSpace, np.ndarray]:
    return matrix_from_document(json.loads(text))
