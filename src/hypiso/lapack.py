"""The package's one boundary to LAPACK for ``svd``, ``eig``, ``eigvals``,
``det`` and ``lstsq``.

Each function calls the gufunc of ``numpy.linalg._umath_linalg`` that the
``numpy.linalg`` function of the same name calls, with the same type
signature and error state, so every result is bit-identical to numpy's.
What is left out is the wrappers' Python dispatch (array-function
protocol, type promotion, result wrapping, a new ``np.errstate`` per
call), which on the 4x4 to 10x10 matrices of this package costs about as
much as the LAPACK work: each error state is built once, at import, and
entered by setting numpy's error-state context variable, which is reset
on return and on raise.  What the package relies on is kept:

* ``eig`` and ``eigvals`` return a real result when the whole spectrum (of
  the whole stack) is real; they and ``lstsq`` raise ``LinAlgError("Array
  must not contain infs or NaNs")`` on a non-finite input, on some of which
  numpy's ``lstsq`` never returns (diag(1, nan, 1, 1));
* a routine that does not converge raises ``LinAlgError("SVD did not
  converge")``, ``LinAlgError("Eigenvalues did not converge")`` or
  ``LinAlgError("SVD did not converge in Linear Least Squares")`` through
  the floating-point error state, with no ``RuntimeWarning``;
* ``det`` of a matrix with a NaN entry is NaN; it sets the invalid flag,
  which the caller's error state handles (the sampled oracle ignores it).

Every input is a float64 array of one matrix or a stack (``lstsq``: one
matrix, for the Jordan chain of every parabolic splitting); ``svd`` also
takes complex128, as ``spectral`` ranks a complex shift.  The package
calls the functions by attribute (``lapack.svd(m)``), so a test can count
or replace them; ``tests/test_lapack.py`` pins each behaviour above
against ``numpy.linalg``.  The other ``numpy.linalg`` functions (``eigh``,
``inv``, ``norm``, ``qr``, ``matrix_rank``, ``eigvalsh``) run off the
per-element path or rarely on it, and stay on numpy.  ``IGNORE_ALL`` is
the state, entered the same way, of a caller that reads inf and NaN itself.
"""

from __future__ import annotations

import numpy as np

try:
    from numpy._core.umath import _extobj_contextvar as errstate_var, _make_extobj
    from numpy.linalg import _umath_linalg

    _svd_f, _svd_values = _umath_linalg.svd_f, _umath_linalg.svd
    _eig, _eigvals, _det = _umath_linalg.eig, _umath_linalg.eigvals, _umath_linalg.det
    _lstsq = _umath_linalg.lstsq
except (ImportError, AttributeError) as exc:  # numpy 1.x has neither by these names
    raise ImportError(
        "hypiso calls the numpy.linalg._umath_linalg gufuncs svd_f, svd, eig, eigvals, det "
        "and lstsq, and enters error states through numpy._core.umath's _extobj_contextvar "
        f"and _make_extobj, as numpy >= 2 names them; numpy {np.__version__} is installed"
    ) from exc


def _raising(message):
    """The error state numpy's wrappers run LAPACK under: a routine that
    does not converge sets the invalid flag, which raises
    ``LinAlgError(message)``."""
    def failed(err, flag):
        raise np.linalg.LinAlgError(message)
    return _make_extobj(call=failed, invalid="call", over="ignore", divide="ignore",
                        under="ignore")


_SVD_FAILED = _raising("SVD did not converge")
_EIG_FAILED = _raising("Eigenvalues did not converge")
_LSTSQ_FAILED = _raising("SVD did not converge in Linear Least Squares")
IGNORE_ALL = _make_extobj(all="ignore")


def _run(state, gufunc, *args, signature):
    """``gufunc(*args)`` under the prebuilt error ``state``; the caller's
    state is back when it returns or raises."""
    token = errstate_var.set(state)
    try:
        return gufunc(*args, signature=signature)
    finally:
        errstate_var.reset(token)


def _assert_finite(a: np.ndarray) -> None:
    if not np.isfinite(a).all():
        raise np.linalg.LinAlgError("Array must not contain infs or NaNs")


def svd(a: np.ndarray, compute_uv: bool = True):
    """Full SVD ``(u, s, vh)``, or the singular values (descending) alone,
    as ``np.linalg.svd(a, compute_uv=compute_uv)``."""
    c = a.dtype.kind == "c"
    if compute_uv:
        return _run(_SVD_FAILED, _svd_f, a, signature="D->DdD" if c else "d->ddd")
    return _run(_SVD_FAILED, _svd_values, a, signature="D->d" if c else "d->d")


def eig(a: np.ndarray):
    """Eigenvalues and right eigenvectors ``(w, v)``, as ``np.linalg.eig(a)``:
    real when every eigenvalue of the stack is."""
    _assert_finite(a)
    w, v = _run(_EIG_FAILED, _eig, a, signature="d->DD")
    if not w.imag.any():
        return w.real, v.real
    return w, v


def eigvals(a: np.ndarray) -> np.ndarray:
    """Eigenvalues, as ``np.linalg.eigvals(a)``: real when every eigenvalue
    of the stack is."""
    _assert_finite(a)
    w = _run(_EIG_FAILED, _eigvals, a, signature="d->D")
    return w if w.imag.any() else w.real


def det(a: np.ndarray):
    """Determinant, as ``np.linalg.det(a)``; NaN for a matrix with a NaN."""
    return _det(a, signature="d->d")


def lstsq(a: np.ndarray, b: np.ndarray, rcond: float) -> np.ndarray:
    """The least-squares solution x of a x = b, for one matrix a and a
    vector b, as ``np.linalg.lstsq(a, b, rcond)[0]``, for a finite a."""
    _assert_finite(a)
    return _run(_LSTSQ_FAILED, _lstsq, a, b[:, None], rcond, signature="ddd->ddid")[0][:, 0]
