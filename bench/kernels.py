"""Linear-algebra kernel counter for the traced run.

``KernelCounter`` replaces the public functions of ``numpy.linalg`` and
``scipy.linalg`` with counting wrappers while it is installed, and puts
the originals back on exit.  The library calls both modules through their
attributes (``np.linalg.svd``, ``scipy.linalg.eig``), so every call at
that boundary is seen; calls made inside numpy or scipy (``np.poly``
reaching ``eigvals``, ``matrix_rank`` reaching ``svd``) are not.

Per call it records one call, the number of matrices (the product of the
leading dimensions of a stacked argument) and whether the kernel is an
SVD: ``svd``, ``svdvals``, ``matrix_rank``, ``pinv``, ``cond`` and the
2-norms of a matrix all are.
"""

from __future__ import annotations

import importlib
import inspect
import math

_MODULES = ("numpy.linalg", "scipy.linalg")
_SVD_NAMES = {"svd", "svdvals", "matrix_rank", "pinv", "cond", "null_space", "orth"}


def _matrices(arg) -> int:
    shape = getattr(arg, "shape", None)
    if shape is None or len(shape) <= 2:
        return 1
    return math.prod(shape[:-2])


def _is_svd(name: str, args, kwargs) -> bool:
    if name in _SVD_NAMES:
        return True
    if name in ("norm", "matrix_norm"):
        order = kwargs.get("ord", args[1] if len(args) > 1 else None)
        ndim = getattr(args[0], "ndim", 0) if args else 0
        return ndim >= 2 and order in (2, -2, "nuc")
    return False


class KernelCounter:
    """Context manager counting linalg calls, matrices and SVDs."""

    def __init__(self):
        self.calls = 0
        self.mats = 0
        self.svds = 0
        self._saved: list[tuple[object, str, object]] = []

    def snapshot(self) -> tuple[int, int, int]:
        return self.calls, self.mats, self.svds

    def _wrap(self, name: str, fn):
        counter = self

        def wrapper(*args, **kwargs):
            counter.calls += 1
            counter.mats += _matrices(args[0]) if args else 1
            if _is_svd(name, args, kwargs):
                counter.svds += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def __enter__(self) -> "KernelCounter":
        for modname in _MODULES:
            try:
                mod = importlib.import_module(modname)
            except ImportError:
                continue
            for name in getattr(mod, "__all__", []):
                fn = getattr(mod, name, None)
                if callable(fn) and not inspect.isclass(fn):
                    self._saved.append((mod, name, fn))
                    setattr(mod, name, self._wrap(name, fn))
        return self

    def __exit__(self, *exc) -> None:
        for mod, name, fn in reversed(self._saved):
            setattr(mod, name, fn)
        self._saved.clear()
