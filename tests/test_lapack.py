"""``hypiso.lapack``, the package's one route to ``svd``, ``eig``, ``eigvals``,
``det`` and ``lstsq``, against ``numpy.linalg``.

The module calls the gufuncs that ``numpy.linalg`` calls, so every result
must be bit-identical to numpy's, with the same dtype and layout, and
every failure the same exception with the same message.  Its error states
are built once and entered per call, so the caller's error state must be
back after every call, returned or raised.  A numpy release that changes
one of these behaviours fails here, not in an answer.
"""

import ast
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from hypiso import lapack, spectral
from hypiso.quadspace import QuadraticSpace, classify_membership_many
from hypiso.sampling import random_isometry, random_orthogonal

SRC = Path(__file__).resolve().parents[1] / "src" / "hypiso"
KERNELS = ("svd", "eig", "eigvals", "det", "lstsq")
RCOND = 1e-9  # the splitting's, for the Jordan chain of a parabolic


def rhs(a):
    """A right-hand side for a least-squares solve with a."""
    return np.linspace(-1.0, 2.0, a.shape[0])


CALLS = {
    "svd": (lapack.svd, np.linalg.svd),
    "svd values": (lambda a: lapack.svd(a, compute_uv=False),
                   lambda a: np.linalg.svd(a, compute_uv=False)),
    "eig": (lapack.eig, np.linalg.eig),
    "eigvals": (lapack.eigvals, np.linalg.eigvals),
    "det": (lapack.det, np.linalg.det),
    "lstsq": (lambda a: lapack.lstsq(a, rhs(a), RCOND),
              lambda a: np.linalg.lstsq(a, rhs(a), RCOND)[0]),
}
SQUARE_ONLY = ("eig", "eigvals", "det")
ONE_MATRIX = ("lstsq",)  # numpy's lstsq takes no stack


def outcome(f, a):
    """The arrays f returns, or the type and message of what it raises."""
    try:
        out = f(a)
    except Exception as exc:  # noqa: BLE001 - compared, not handled
        return type(exc), str(exc)
    return [(type(x), x.dtype, x.shape, np.asarray(x).strides, np.asarray(x).tobytes())
            for x in (out if isinstance(out, tuple) else (out,))]


def assert_same(name, a):
    ours, numpy_ = CALLS[name]
    assert outcome(ours, a) == outcome(numpy_, a)


def family(d):
    """float64 d x d matrices with real, complex and repeated-1 spectra."""
    rng = np.random.default_rng(d)
    g = rng.standard_normal((d, d))
    q = random_orthogonal(rng, d)
    return {
        "general": g,
        "symmetric": g + g.T,
        "orthogonal": q,
        "identity": np.eye(d),
        "jordan": np.eye(d) + np.eye(d, k=1),  # one eigenvalue 1 of multiplicity d
        "conjugated ones": q @ np.diag([1.0] * (d - d // 2) + [-1.0] * (d // 2)) @ q.T,
    }


def lorentz_family(n):
    rng = np.random.default_rng(n)
    return {cls: np.array(random_isometry(rng, n, cls).entries)
            for cls in ("elliptic", "parabolic", "hyperbolic")}


@pytest.mark.parametrize("d", range(1, 11))
@pytest.mark.parametrize("name", CALLS)
def test_single_and_stacked_results_are_numpys(name, d):
    mats = family(d)
    for m in mats.values():
        assert_same(name, m)
    if name in ONE_MATRIX:
        return
    assert_same(name, np.stack(list(mats.values())))  # real and complex spectra mixed
    real = np.stack([mats["symmetric"], mats["identity"], mats["jordan"]])
    assert_same(name, real)  # a stack whose whole spectrum is real comes back real


@pytest.mark.parametrize("n", (2, 3, 5, 9))
@pytest.mark.parametrize("name", CALLS)
def test_lorentz_elements_and_their_shifts_are_numpys(name, n):
    mats = lorentz_family(n)
    for m in mats.values():
        assert_same(name, m)
        assert_same(name, m - np.eye(n + 1))
        assert_same(name, (m - np.eye(n + 1)) @ (m - np.eye(n + 1)))
    if name not in ONE_MATRIX:
        assert_same(name, np.stack(list(mats.values())))


@pytest.mark.parametrize("d", range(2, 11))
@pytest.mark.parametrize("k", (1, 2, 3))
def test_frame_shaped_svds_are_numpys(d, k):
    # null_space_at sees k x d (a frame's transpose times the form signs),
    # invariant_plane_frames d x 2p; both take the full SVD
    rng = np.random.default_rng([d, k])
    frame = rng.standard_normal((d, k))
    j = np.ones(d)
    j[-1] = -1.0
    for m in (frame.T * j[None, :], frame, np.stack([frame, 2.0 * frame])):
        assert_same("svd", m)
        assert_same("svd values", m)


@pytest.mark.parametrize("d", range(1, 11))
def test_complex_shifts_rank_as_numpys(d):
    # _rank_at ranks m - c I over C for a complex eigenvalue cluster c
    for m in family(d).values():
        shifted = m - (0.3 + 0.8j) * np.eye(d, dtype=complex)
        assert shifted.dtype == np.complex128
        assert_same("svd values", shifted)
        assert_same("svd", shifted)
        assert spectral._rank_at(shifted, 1e-9) == np.linalg.matrix_rank(shifted, tol=1e-9)


@pytest.mark.parametrize("bad", (np.nan, np.inf, -np.inf))
@pytest.mark.parametrize("name", SQUARE_ONLY)
def test_non_finite_input_fails_as_numpys(name, bad):
    a = np.eye(4)
    a[1, 2] = bad
    for m in (a, np.stack([np.eye(4), a])):
        got = outcome(CALLS[name][0], m)
        assert got == outcome(CALLS[name][1], m)
        if name != "det":
            assert got == (np.linalg.LinAlgError, "Array must not contain infs or NaNs")


@pytest.mark.parametrize("name", ("svd", "svd values"))
def test_svd_of_nan_fails_as_numpys(name):
    # no inf here: numpy's SVD of a matrix with an inf entry may not return
    a = np.eye(4)
    a[1, 2] = np.nan
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = outcome(CALLS[name][0], a)
    assert got == outcome(CALLS[name][1], a) == (np.linalg.LinAlgError, "SVD did not converge")


@pytest.mark.parametrize("entries", ("nan", "inf", "all-nan"))
def test_lstsq_of_non_finite_input_fails_before_lapack(entries):
    # numpy's own lstsq never returns on some matrices with a single NaN
    # entry, such as this one; with inf it fails to converge
    a = np.eye(4)
    if entries == "all-nan":
        a[:] = np.nan
    else:
        a[1, 2] = float(entries)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = outcome(CALLS["lstsq"][0], a)
    assert got == (np.linalg.LinAlgError, "Array must not contain infs or NaNs")


def caller_sees_its_own_state(call):
    """Run ``call`` under a caller's error state; that state must read the
    same after it, whether it returned or raised ``LinAlgError``."""
    def handler(err, flag):
        pass
    with np.errstate(under="raise", call=handler):
        before = np.geterr()
        try:
            call()
        except np.linalg.LinAlgError:
            pass
        assert np.geterr() == before and before["under"] == "raise"
        assert np.geterrcall() is handler


@pytest.mark.parametrize("name", CALLS)
def test_the_callers_error_state_is_back_after_each_call(name):
    nan = np.full((4, 4), np.nan)
    ours = CALLS[name][0]
    caller_sees_its_own_state(lambda: ours(family(4)["general"]))
    if name != "det":  # NaN: det returns NaN, each other raises
        with pytest.raises(np.linalg.LinAlgError):
            ours(nan)
        caller_sees_its_own_state(lambda: ours(nan))


def test_the_callers_error_state_is_back_after_membership():
    stack = np.stack([np.eye(4), np.full((4, 4), np.inf), 1e200 * np.ones((4, 4))])
    caller_sees_its_own_state(lambda: classify_membership_many(QuadraticSpace(3), stack))


def test_det_of_a_nan_stack_is_nan_under_the_callers_errstate():
    # the sampled oracle's Newton loop reads a NaN determinant as a diverged sample
    stack = np.stack([np.eye(3), np.full((3, 3), np.nan)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with np.errstate(invalid="ignore"):
            ours, numpy_ = lapack.det(stack), np.linalg.det(stack)
    assert ours.tobytes() == numpy_.tobytes()
    assert ours[0] == 1.0 and np.isnan(ours[1])


def test_import_fails_by_name_without_the_gufuncs():
    code = ("import numpy.linalg._umath_linalg as u\n"
            "del u.svd_f\n"
            "import hypiso")
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=str(SRC.parent)), timeout=60)
    assert run.returncode == 1
    assert f"numpy {np.__version__} is installed" in run.stderr.splitlines()[-1]


@pytest.mark.parametrize("entry", ("_make_extobj", "_extobj_contextvar"))
def test_import_fails_by_name_without_the_error_state_entry_points(entry):
    code = ("import numpy._core.umath as u\n"
            f"del u.{entry}\n"
            "import hypiso")
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=str(SRC.parent)), timeout=60)
    assert run.returncode == 1
    last = run.stderr.splitlines()[-1]
    assert last.startswith("ImportError") and entry in last
    assert f"numpy {np.__version__} is installed" in last


def kernel_names(tree):
    """(line, text) of each use of numpy.linalg's svd, eig, eigvals, det or
    lstsq, as an attribute or an import, and of its private gufunc module."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            owner = node.value
            owner_name = owner.attr if isinstance(owner, ast.Attribute) else getattr(owner, "id", None)
            if (owner_name == "linalg" and node.attr in KERNELS) or node.attr == "_umath_linalg":
                found.append((node.lineno, ast.unparse(node)))
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("numpy"):
            names = {a.name for a in node.names}
            if (node.module.endswith("linalg") and names & {*KERNELS, "_umath_linalg"}) or (
                "_umath_linalg" in node.module
            ):
                found.append((node.lineno, ast.unparse(node)))
        elif isinstance(node, ast.Import):
            found += [(node.lineno, a.name) for a in node.names if "_umath_linalg" in a.name]
    return found


def test_only_the_lapack_module_names_the_four_kernels():
    uses = {
        path.name: kernel_names(ast.parse(path.read_text()))
        for path in sorted(SRC.glob("*.py"))
        if path.name != "lapack.py"
    }
    assert {name: found for name, found in uses.items() if found} == {}


@pytest.mark.parametrize("source", (
    "np.linalg.svd(m)",
    "numpy.linalg.det(m)",
    "w, *_ = np.linalg.lstsq(a, b, rcond=1e-9)",
    "x = np.linalg.eigvals",
    "from numpy.linalg import eig",
    "from numpy.linalg import _umath_linalg",
    "import numpy.linalg._umath_linalg",
))
def test_the_guard_sees_each_form(source):
    assert kernel_names(ast.parse(source))
