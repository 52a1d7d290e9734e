"""The linear-algebra kernels of one certify op, pinned per class at
n = 3, 5 and 9.

Spies on ``svd``, ``eig``, ``eigvals``, ``det`` and ``lstsq`` of
``hypiso.lapack``, the package's one route to those kernels, and on every
other public function of ``numpy.linalg`` count the calls that
``is_real_SOo_n1(T)`` and ``conjugate_in_Mn(T, T2)`` make on fresh
elements (their membership calls are made before the spies go in).  A
change that makes the op cheaper either keeps these counts, when its
saving is in the glue around the kernels (per-call numpy work on a few
numbers), or lowers them, when it skips a kernel that does no work: no
``eigh`` is left, as every J-Gram of an orthonormal basis is read in
closed form, and the splitting of an element with no rotation plane
(n = 3, parabolic) makes no SVD of its empty plane frame.

The same op, membership included, builds no ``np.errstate``: the error
states of ``hypiso.lapack`` and of membership's overflow guard are built
once, at import.
"""

import inspect
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import spy
from hypiso import lapack
from hypiso.conjugacy import conjugate_in_Mn
from hypiso.quadspace import QuadraticSpace, classify_membership
from hypiso.reality import is_real_SOo_n1

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import gen  # noqa: E402  (the benchmark's numpy-only input generator)

LAPACK = ("svd", "eig", "eigvals", "det", "lstsq")  # counted where the package calls them

ELLIPTIC = {"det": 4, "eig": 2, "eigvals": 2, "svd": 8}
PARABOLIC = {"det": 4, "eig": 2, "eigvals": 2, "lstsq": 2, "svd": 8}
HYPERBOLIC = {"det": 4, "eig": 2, "eigvals": 2, "svd": 10}

# (n, class) -> (linalg calls by name, reality decision, relation, method)
EXPECTED = {
    (3, "elliptic"): (ELLIPTIC, True, "ConjugateInMo", "normalform"),
    (3, "parabolic"): (dict(PARABOLIC, svd=6), True, "ConjugateInMo", "normalform"),
    (3, "hyperbolic"): (HYPERBOLIC, True, "ConjugateInMOnly", "centralizer-enum"),
    (5, "elliptic"): (ELLIPTIC, True, "ConjugateInMo", "normalform"),
    (5, "parabolic"): (PARABOLIC, True, "ConjugateInMo", "normalform"),
    (5, "hyperbolic"): (dict(HYPERBOLIC, det=3), False, "ConjugateInMOnly", "centralizer-enum"),
    (9, "elliptic"): (ELLIPTIC, True, "ConjugateInMo", "normalform"),
    (9, "parabolic"): (PARABOLIC, True, "ConjugateInMo", "normalform"),
    (9, "hyperbolic"): (dict(HYPERBOLIC, det=3), False, "ConjugateInMOnly", "centralizer-enum"),
}


def certify_item(n, cls):
    """The largest k of the cell, and a det -1 conjugator for the partner."""
    rng = np.random.default_rng([n, len(cls)])
    return gen.make_item(rng, n, cls, gen.k_values(n, cls)[-1], 1, det_minus=True)


@pytest.mark.parametrize("n,cls", EXPECTED)
def test_linalg_calls_of_one_certify_op(monkeypatch, n, cls):
    item = certify_item(n, cls)
    space = QuadraticSpace(n)
    t, t2 = classify_membership(space, item.matrix), classify_membership(space, item.partner)
    spies = {
        name: spy(monkeypatch, lapack if name in LAPACK else np.linalg, name)
        for name in np.linalg.__all__
        if callable(getattr(np.linalg, name)) and not inspect.isclass(getattr(np.linalg, name))
    }
    cert = is_real_SOo_n1(t)
    answer = conjugate_in_Mn(t, t2)
    calls = {name: s.call_count for name, s in spies.items() if s.call_count}
    assert (calls, cert.decision, answer.related.value, answer.method) == EXPECTED[n, cls]


@pytest.mark.parametrize("n,cls", EXPECTED)
def test_one_certify_op_builds_no_errstate(monkeypatch, n, cls):
    item = certify_item(n, cls)
    errstate = spy(monkeypatch, np, "errstate")
    space = QuadraticSpace(n)
    t, t2 = classify_membership(space, item.matrix), classify_membership(space, item.partner)
    cert, answer = is_real_SOo_n1(t), conjugate_in_Mn(t, t2)
    _, decision, relation, _ = EXPECTED[n, cls]
    assert (errstate.call_count, cert.decision, answer.related.value) == (0, decision, relation)
