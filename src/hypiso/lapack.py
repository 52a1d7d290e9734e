"""The package's one boundary to LAPACK for ``svd``, ``eig``, ``eigvals``
and ``det``.

Each function calls the gufunc of ``numpy.linalg._umath_linalg`` that the
``numpy.linalg`` function of the same name calls, with the same type
signature, so every result is bit-identical to numpy's.  What is left out
is the wrappers' Python dispatch (array-function protocol, type promotion,
result wrapping), which on the 4x4 to 10x10 matrices of this package costs
about as much as the LAPACK work.  What the package relies on is kept:

* ``eig`` and ``eigvals`` return a real result when the whole spectrum (of
  the whole stack) is real, and raise ``LinAlgError("Array must not contain
  infs or NaNs")`` on a non-finite input;
* a routine that does not converge raises ``LinAlgError("SVD did not
  converge")`` or ``LinAlgError("Eigenvalues did not converge")`` through
  the floating-point error state, with no ``RuntimeWarning``;
* ``det`` of a matrix with a NaN entry is NaN; it sets the invalid flag,
  which the caller's error state handles (the sampled oracle ignores it).

Every input is a float64 array of one matrix or a stack; ``svd`` also
takes complex128, as ``spectral`` ranks a complex shift.  The package calls
the functions by attribute (``lapack.svd(m)``), so a test can count or
replace them; ``tests/test_lapack.py`` pins each behaviour above against
``numpy.linalg``.  The other ``numpy.linalg`` functions (``lstsq``,
``eigh``, ``inv``, ``norm``, ``qr``, ``matrix_rank``, ``eigvalsh``) run off
the per-element path or rarely on it, and stay on numpy.
"""

from __future__ import annotations

import numpy as np

try:
    from numpy.linalg import _umath_linalg

    _svd_f, _svd_values = _umath_linalg.svd_f, _umath_linalg.svd
    _eig, _eigvals, _det = _umath_linalg.eig, _umath_linalg.eigvals, _umath_linalg.det
except (ImportError, AttributeError) as exc:  # numpy 1.x names its SVD gufuncs otherwise
    raise ImportError(
        "hypiso calls the numpy.linalg._umath_linalg gufuncs svd_f, svd, eig, "
        f"eigvals and det, as numpy >= 2 names them; numpy {np.__version__} is installed"
    ) from exc


def _svd_failed(err, flag):
    raise np.linalg.LinAlgError("SVD did not converge")


def _eig_failed(err, flag):
    raise np.linalg.LinAlgError("Eigenvalues did not converge")


def _raising(failed):
    """The error state numpy's wrappers run LAPACK under: a routine that
    does not converge sets the invalid flag, which calls ``failed``."""
    return np.errstate(call=failed, invalid="call", over="ignore", divide="ignore",
                       under="ignore")


def _assert_finite(a: np.ndarray) -> None:
    if not np.isfinite(a).all():
        raise np.linalg.LinAlgError("Array must not contain infs or NaNs")


def svd(a: np.ndarray, compute_uv: bool = True):
    """Full SVD ``(u, s, vh)``, or the singular values (descending) alone,
    as ``np.linalg.svd(a, compute_uv=compute_uv)``."""
    c = a.dtype.kind == "c"
    with _raising(_svd_failed):
        if compute_uv:
            return _svd_f(a, signature="D->DdD" if c else "d->ddd")
        return _svd_values(a, signature="D->d" if c else "d->d")


def eig(a: np.ndarray):
    """Eigenvalues and right eigenvectors ``(w, v)``, as ``np.linalg.eig(a)``:
    real when every eigenvalue of the stack is."""
    _assert_finite(a)
    with _raising(_eig_failed):
        w, v = _eig(a, signature="d->DD")
    if not w.imag.any():
        return w.real, v.real
    return w, v


def eigvals(a: np.ndarray) -> np.ndarray:
    """Eigenvalues, as ``np.linalg.eigvals(a)``: real when every eigenvalue
    of the stack is."""
    _assert_finite(a)
    with _raising(_eig_failed):
        w = _eigvals(a, signature="d->D")
    return w if w.imag.any() else w.real


def det(a: np.ndarray):
    """Determinant, as ``np.linalg.det(a)``; NaN for a matrix with a NaN."""
    return _det(a, signature="d->d")
