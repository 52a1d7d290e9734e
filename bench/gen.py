"""Seeded input generator for the benchmark (numpy only).

Elements of SO_o(n,1) are built in standard position from closed forms
(block rotations, a boost in the (pole, time) plane, the standard
unipotent block) and conjugated by ``g = R1 B(s) R2``, two random
rotations around a boost of rapidity ``s``.  The rapidity is fixed by
the input's position, not drawn, so every seed has the same conditioning
mix and about the same cost; the seed draws angles, parameters and the
rotations.  Nothing here imports
``hypiso``: the library's own sampler may change its output bit for bit
without changing the workloads.  Every generated matrix is checked for
J-orthogonality with this module's arithmetic.

Each element carries its ground truth: class, angle multiset, stretch,
the number of space-like +1 eigendirections, and the expected reality
decision and conjugacy relation.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional

import numpy as np

CLASSES = ("elliptic", "parabolic", "hyperbolic")
DIMS = (3, 5, 9)

# conjugator rapidities, cycled by position: well conditioned, and the
# wide conditioning tail on which the library is known to fail sometimes
WELL_RAPIDITIES = (0.1, 0.25, 0.4, 0.55, 0.7)
TAIL_RAPIDITIES = (1.5, 2.0, 2.5, 3.0, 3.5)

_LORENTZ_TOL = 1e-12


class GeneratorError(Exception):
    """A generated matrix failed the generator's own J-orthogonality check."""


def signs(n: int) -> np.ndarray:
    j = np.ones(n + 1)
    j[-1] = -1.0
    return j


def j_inverse(m: np.ndarray) -> np.ndarray:
    """Inverse J M^T J of a J-orthogonal matrix, without solving."""
    j = signs(m.shape[0] - 1)
    return (j[:, None] * m.T) * j[None, :]


def lorentz_residual(m: np.ndarray) -> float:
    j = signs(m.shape[0] - 1)
    return float(np.max(np.abs(m.T @ (j[:, None] * m) - np.diag(j))))


def _checked(m: np.ndarray) -> np.ndarray:
    scale = max(1.0, float(np.max(np.abs(m)))) ** 2
    resid = lorentz_residual(m)
    if resid > _LORENTZ_TOL * scale:
        raise GeneratorError(f"J-orthogonality residual {resid:.2e}")
    return m


def _rotation(rng: np.random.Generator, n: int) -> np.ndarray:
    """Random element of SO(n) embedded in the spatial block of R^(n+1)."""
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    out = np.eye(n + 1)
    out[:n, :n] = q
    return out


def _boost(n: int, s: float) -> np.ndarray:
    """Boost of rapidity s in the (pole, time) plane."""
    m = np.eye(n + 1)
    m[-2, -2] = m[-1, -1] = np.cosh(s)
    m[-2, -1] = m[-1, -2] = np.sinh(s)
    return m


def conjugator(
    rng: np.random.Generator, n: int, rapidity: float, det_minus: bool
) -> np.ndarray:
    """Sheet-preserving conjugator; det -1 when ``det_minus``."""
    g = _rotation(rng, n) @ _boost(n, rapidity) @ _rotation(rng, n)
    if det_minus:
        g = g.copy()
        g[:, 0] = -g[:, 0]
    return _checked(g)


def _angles(rng: np.random.Generator, k: int) -> list[float]:
    """k distinct grid angles in (0, pi), pairwise more than 0.02 apart."""
    out: list[float] = []
    while len(out) < k:
        cand = round(float(rng.uniform(0.15, np.pi - 0.15)), 3)
        if all(abs(cand - a) > 0.02 for a in out):
            out.append(cand)
    return sorted(out, reverse=True)


def _place_rotation(m: np.ndarray, angles) -> None:
    for i, theta in enumerate(angles):
        c, s = np.cos(theta), np.sin(theta)
        m[2 * i : 2 * i + 2, 2 * i : 2 * i + 2] = [[c, -s], [s, c]]


@dataclass(frozen=True)
class Standard:
    cls: str
    angles: tuple[float, ...]
    stretch: Optional[float]
    param: float  # rapidity (hyperbolic) or translation (parabolic)
    matrix: np.ndarray

    @property
    def fixed_dims(self) -> int:
        """Space-like +1 eigendirections outside the special block."""
        n = self.matrix.shape[0] - 1
        special = {"elliptic": 0, "hyperbolic": 1, "parabolic": 2}[self.cls]
        return n - special - 2 * len(self.angles)


def _kmax(n: int, cls: str) -> int:
    return {"elliptic": n // 2, "hyperbolic": (n - 1) // 2, "parabolic": (n - 2) // 2}[cls]


def standard(cls: str, n: int, angles, param: float) -> Standard:
    """Standard-position element with the given angles and parameter."""
    m = np.eye(n + 1)
    _place_rotation(m, angles)
    stretch = None
    if cls == "hyperbolic":
        m[-2:, -2:] = _boost(1, param)
        stretch = float(np.exp(param))
    elif cls == "parabolic":
        c = param
        # exp(cX) of the translation generator on (e_{n-2}, pole, time)
        m[-3:, -3:] = [
            [1.0, -c, c],
            [c, 1.0 - c * c / 2.0, c * c / 2.0],
            [c, -c * c / 2.0, 1.0 + c * c / 2.0],
        ]
    return Standard(cls, tuple(angles), stretch, param, _checked(m))


def k_values(n: int, cls: str) -> range:
    """Admissible numbers of rotation planes; elliptic k = 0 would be the
    identity."""
    return range(1 if cls == "elliptic" else 0, _kmax(n, cls) + 1)


def random_standard(rng: np.random.Generator, n: int, cls: str, k: int) -> Standard:
    angles = _angles(rng, k)
    if cls == "hyperbolic":
        param = round(float(rng.uniform(0.25, 1.4)), 3)
    elif cls == "parabolic":
        param = round(float(rng.uniform(0.5, 1.5)), 3)
    else:
        param = 0.0
    return standard(cls, n, angles, param)


def control_partner(rng: np.random.Generator, std: Standard) -> Optional[Standard]:
    """A same-class element that is certainly not conjugate to ``std``:
    another stretch, or one angle moved by more than 0.05."""
    n = std.matrix.shape[0] - 1
    if std.cls == "hyperbolic":
        return standard(std.cls, n, std.angles, std.param + 0.1)
    if not std.angles:
        return None
    rest = list(std.angles[1:])
    while True:
        cand = round(float(rng.uniform(0.15, np.pi - 0.15)), 3)
        if abs(cand - std.angles[0]) > 0.05 and all(abs(cand - a) > 0.02 for a in rest):
            break
    return standard(std.cls, n, sorted(rest + [cand], reverse=True), std.param)


def expected_real(n: int, cls: str, fixed_dims: int) -> bool:
    """Reality in SO_o(n,1) by the mod-4 theorem.  Generated angles avoid
    pi, so the only +-1 eigendirections are the fixed ones."""
    if n % 4 in (0, 3):
        return True
    if n % 4 == 1:
        return cls != "hyperbolic" or fixed_dims >= 1
    return cls == "hyperbolic" or fixed_dims >= 1


@dataclass(frozen=True)
class Item:
    """One element with its ground truth and a conjugacy partner."""

    n: int
    std: Standard
    matrix: np.ndarray  # g0 std g0^-1
    partner: np.ndarray  # g matrix g^-1, or a control
    control: bool
    g_det: int
    tail: bool

    @property
    def cls(self) -> str:
        return self.std.cls

    @property
    def expected_real(self) -> bool:
        return expected_real(self.n, self.cls, self.std.fixed_dims)

    @property
    def expected_relation(self) -> str:
        if self.control:
            return "NotConjugate"
        if self.g_det == 1 or self.std.fixed_dims >= 1:
            return "ConjugateInMo"
        # regular, no space-like +-1 direction: the centralizer lies in
        # the identity component, so a det -1 conjugator cannot be fixed
        return "ConjugateInMOnly"


def make_item(
    rng: np.random.Generator,
    n: int,
    cls: str,
    k: int,
    i: int,
    *,
    tail: bool = False,
    det_minus: bool = False,
    control: bool = False,
) -> Item:
    """The ``i``-th input of its cell: T = g0 std g0^-1, and its partner
    g T g^-1 (or a control).  ``i`` fixes both rapidities."""
    std = random_standard(rng, n, cls, k)
    other = control_partner(rng, std) if control else None
    if control and other is None:  # no angle or stretch to move
        control = False
    g0_rapidity = (TAIL_RAPIDITIES if tail else WELL_RAPIDITIES)[i % 5]
    g0 = conjugator(rng, n, g0_rapidity, det_minus=False)
    t = _checked(g0 @ std.matrix @ j_inverse(g0))
    g = conjugator(rng, n, WELL_RAPIDITIES[(i + 2) % 5], det_minus)
    base = other.matrix if control else std.matrix
    partner = _checked(g @ (g0 @ base @ j_inverse(g0)) @ j_inverse(g))
    return Item(n, std, t, partner, control, -1 if det_minus else 1, tail)


def _cell_k(n: int, cls: str, i: int) -> int:
    """The i-th input of a cell cycles through every admissible k, so the
    mix of structures, and with it the cost, is the same for every seed."""
    ks = k_values(n, cls)
    return ks[i % len(ks)]


def cli_items(seed: int, count: int) -> list[Item]:
    """Equal thirds of each class and of n = 3, 5, 9, well conditioned."""
    rng = np.random.default_rng([seed, 1])
    cells = [(n, c) for n in DIMS for c in CLASSES]
    out = []
    for i in range(count):
        n, cls = cells[i % len(cells)]
        pos = i // len(cells)
        out.append(make_item(rng, n, cls, _cell_k(n, cls, pos), pos))
    return out


def _pairs(rng: np.random.Generator, per_cell: int, tail: bool, controls) -> list[Item]:
    """Per (n, class) cell: conjugators alternating between SO_o and the
    det -1 sheet-preserving component, each sign meeting every k.
    Shuffled."""
    items = [
        make_item(
            rng, n, cls, _cell_k(n, cls, i // 2), i,
            tail=tail, det_minus=i % 2 == 1, control=i in controls,
        )
        for n in DIMS
        for cls in CLASSES
        for i in range(per_cell)
    ]
    order = rng.permutation(len(items))
    return [items[i] for i in order]


def certify_items(seed: int, per_cell: int = 114) -> list[Item]:
    """Well-conditioned pairs, two per cell non-conjugate controls, one
    under either sign."""
    return _pairs(np.random.default_rng([seed, 2]), per_cell, False, (2, 9))


def tail_items(seed: int, per_cell: int = 20) -> list[Item]:
    """Conjugate pairs whose T is conjugated by a wide boost (rapidity 1.5
    to 3.5): the conditioning tail, where the library may fail."""
    return _pairs(np.random.default_rng([seed, 3]), per_cell, True, ())


def setup_item(seed: int) -> Item:
    """The input of the set-up probe: the same cell (n = 5, hyperbolic,
    one rotation plane) for every seed."""
    return make_item(np.random.default_rng([seed, 4]), 5, "hyperbolic", 1, 2)


def matrix_document(m: np.ndarray) -> str:
    """The CLI's interchange format; json writes doubles exactly."""
    return json.dumps({"n": m.shape[0] - 1, "matrix": m.ravel().tolist()})
