"""Stacked kernels equal their one-matrix forms, the array reading of a
large stack equals the row-by-row one, the delta floor of the Lorentz
pass, and typed errors where a float used to overflow."""

import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from conftest import block_rotation, spy
from hypiso import spectral
from hypiso.classify import classify
from hypiso.cli import _store_passes, main
from hypiso.conjugacy import conjugate_in_Mn
from hypiso.errors import HypisoError, InvalidArg, NotAnIsometry, RefusedToDecide
from hypiso.quadspace import (
    LorentzMatrix,
    QuadraticSpace,
    classify_membership,
    classify_membership_many,
    matrix_to_json,
    subspace_type,
)
from hypiso.reality import is_real_SOo_n1
from hypiso.sampling import random_isometry, random_soo
from hypiso.spectral import (
    DEFAULT_DELTA,
    DELTA_MIN,
    STACKED_READING_MIN,
    _LorentzSpectrum,
    _lorentz_angles,
)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import gen  # noqa: E402  (the benchmark's numpy-only input generator)

CLASSES = ("elliptic", "parabolic", "hyperbolic")


def sample(n, count=4, seed=0):
    rng = np.random.default_rng(seed)
    return [random_isometry(rng, n, cls) for cls in CLASSES for _ in range(count)]


def outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:  # noqa: BLE001
        return exc


class TestStackedMembership:
    @pytest.mark.parametrize("n", (3, 5, 9))
    def test_equals_one_matrix_membership(self, n):
        good = [np.array(t.entries) for t in sample(n, 2)]
        nan = good[0].copy()
        nan[0, 1] = np.nan
        swap = np.diag([1.0] * n + [-1.0])
        flip = np.diag([-1.0] + [1.0] * n) @ good[1]
        stack = good + [2 * good[0], 1e300 * good[1], nan, swap, flip, np.zeros((n + 1, n + 1))]
        space = QuadraticSpace(n)
        batch = classify_membership_many(space, np.array(stack))
        assert len(batch) == len(stack)
        for m, got in zip(stack, batch):
            want = outcome(classify_membership, space, m)
            if isinstance(want, Exception):
                assert type(got) is type(want) and str(got) == str(want)
            else:
                assert np.array_equal(got.entries, want.entries)
                assert got.component is want.component and got.tolerance == want.tolerance

    @pytest.mark.parametrize("n", (3, 5))
    def test_non_finite_and_overflowing_entries(self, n):
        # one abs-max decides finiteness and the scale: inf, -inf and a NaN
        # in the sheet entry propagate through it; 1e200 is finite, but its
        # square overflows the scale
        good = np.array(sample(n, 1)[2].entries)
        cases = {
            (0, 1, np.inf): "matrix entries must be finite",
            (1, 0, -np.inf): "matrix entries must be finite",
            (n, n, np.nan): "matrix entries must be finite",
            (0, n, 1e200): "form residual overflows at matrix scale inf",
        }
        stack = []
        for i, j, value in cases:
            m = good.copy()
            m[i, j] = value
            stack.append(m)
        space = QuadraticSpace(n)
        batch = classify_membership_many(space, np.array(stack + [good]))
        assert not isinstance(batch[-1], Exception)
        for m, got, message in zip(stack, batch, cases.values()):
            want = outcome(classify_membership, space, m)
            assert type(got) is type(want) is NotAnIsometry
            assert str(got) == str(want) == message

    def test_stack_shape_is_checked(self):
        with pytest.raises(HypisoError):
            classify_membership_many(QuadraticSpace(3), np.eye(4))


class TestStackedPass:
    def test_empty_stack(self):
        assert _LorentzSpectrum.stack([], 1e-7) == []

    def test_spectra_keep_each_failure_in_place(self):
        ts = sample(3, 1)
        swap = classify_membership(QuadraticSpace(3), np.diag([1.0, 1.0, 1.0, -1.0]))
        err = ValueError("unreadable")
        assert _store_passes([ts[0], swap, err, ts[1]], 1e-7) is None
        assert 1e-7 in ts[0]._analyses and 1e-7 in ts[1]._analyses
        assert swap._analyses == {}
        with pytest.raises(InvalidArg):
            classify(swap, 1e-7)


def reading_inputs():
    """The matrices of ``cli_items(7, 1026)``, T and partner of each item
    of ``certify_items(7)`` and ``tail_items(101..103)``, and elliptics
    with a repeated rotation angle, which the generator does not draw, by
    n."""
    mats = [it.matrix for it in gen.cli_items(7, 1026)]
    pairs = gen.certify_items(7) + [it for seed in (101, 102, 103) for it in gen.tail_items(seed)]
    mats += [m for it in pairs for m in (it.matrix, it.partner)]
    rng = np.random.default_rng(7)
    for angles in ((np.pi,), (1.1, 1.1), (2.0, 2.0, np.pi), (0.4, 0.4, 0.4, 0.4)):
        n = 2 * len(angles) + 1
        rotation = np.eye(n + 1)
        rotation[:n, :n] = block_rotation(*angles, pad=1)
        w = random_soo(rng, n, 0.5)
        mats.append(w @ rotation @ np.linalg.inv(w))
    return {n: np.stack([m for m in mats if len(m) == n + 1]) for n in (3, 5, 9)}


def live_members(n, mats):
    members = classify_membership_many(QuadraticSpace(n), mats, 1e-8)
    return [t for t in members if isinstance(t, LorentzMatrix) and t.sheet_preserving]


class TestStackedReading:
    """A stack of at least ``STACKED_READING_MIN`` passes still to compute
    is read as arrays (``spectral._stacked_reading``); every field of each
    pass equals that of the pass of the element alone, read row by row, and
    so do its angles, which the array reading leaves unset exactly where
    the row-by-row reading refuses."""

    def test_equals_the_pass_of_each_element_alone(self):
        stored = 0
        for n, mats in reading_inputs().items():
            stacked = _LorentzSpectrum.stack(live_members(n, mats), DEFAULT_DELTA)
            assert len(stacked) >= STACKED_READING_MIN
            for sp, t in zip(stacked, live_members(n, mats), strict=True):
                one = _LorentzSpectrum.stack([t], DEFAULT_DELTA)[0]
                assert one.angles is None
                for a, b in ((sp.eigvals, one.eigvals), (sp.kernel, one.kernel)):
                    assert a.dtype == b.dtype and a.shape == b.shape
                    assert a.tobytes() == b.tobytes()
                assert (sp.rays is None) == (one.rays is None)
                assert sp.rays is None or sp.rays.tobytes() == one.rays.tobytes()
                for field in ("lam", "scale", "rmax", "defective", "band", "square_band",
                              "unpaired"):
                    a, b = getattr(sp, field), getattr(one, field)
                    assert type(a) is type(b) and a == b, (n, field)
                if sp.angles is None:
                    with pytest.raises(RefusedToDecide):
                        _lorentz_angles(one)
                else:
                    assert _lorentz_angles(one) == sp.angles
                    stored += 1
        assert stored > 0

    def test_a_single_element_reads_row_by_row(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a single element took the array reading")

        monkeypatch.setattr(spectral, "_stacked_reading", refuse)
        for t in sample(5, 1):
            classify(classify_membership(t.space, t.entries))
            is_real_SOo_n1(classify_membership(t.space, t.entries))
            conjugate_in_Mn(classify_membership(t.space, t.entries), t.inverse())

    def test_the_array_reading_starts_at_its_size(self, monkeypatch):
        reader = spy(monkeypatch, spectral, "_stacked_reading")
        rng = np.random.default_rng(3)
        ts = [random_isometry(rng, 3, CLASSES[i % 3]) for i in range(STACKED_READING_MIN)]
        _LorentzSpectrum.stack(ts[1:], DEFAULT_DELTA)
        _LorentzSpectrum.stack(ts, DEFAULT_DELTA)  # one pass still to compute
        assert reader.call_count == 0
        _LorentzSpectrum.stack([classify_membership(t.space, t.entries) for t in ts], DEFAULT_DELTA)
        assert reader.call_count == 1


class TestDeltaFloor:
    @pytest.mark.parametrize("n", (3, 5, 9))
    def test_parabolics_refused_below_the_floor(self, n):
        rng = np.random.default_rng(0)
        for _ in range(5):
            t = random_isometry(rng, n, "parabolic")
            with pytest.raises(InvalidArg, match="delta_min = 3e-08"):
                classify(t, 1e-9)
            with pytest.raises(InvalidArg):
                is_real_SOo_n1(t, 1e-9)
            with pytest.raises(InvalidArg):
                conjugate_in_Mn(t, t, 1e-9)
            assert classify(t).fixed_class.value == "Parabolic"
            assert classify(t, DELTA_MIN).fixed_class.value == "Parabolic"

    def test_non_conjugate_pair_refused_below_the_floor(self):
        # both passes run before the characteristic polynomials are compared
        rng = np.random.default_rng(0)
        t1, t2 = random_isometry(rng, 5, "elliptic"), random_isometry(rng, 5, "hyperbolic")
        assert conjugate_in_Mn(t1, t2).related.value == "NotConjugate"
        with pytest.raises(InvalidArg, match="delta_min = 3e-08"):
            conjugate_in_Mn(t1, t2, 1e-9)

    @pytest.mark.parametrize("delta", (1e-9, 0.0, -1.0, float("nan")))
    def test_cli_exits_2(self, tmp_path, capsys, delta):
        rng = np.random.default_rng(0)
        path = tmp_path / "p.jsonl"
        path.write_text("".join(
            matrix_to_json(random_isometry(rng, n, "parabolic").entries) + "\n" for n in (3, 5, 9)
        ))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no NaN vector on the way
            code = main(["classify", str(path), "--delta", repr(delta)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("error: delta") and "delta_min = 3e-08" in captured.err


class TestSubspaceTypeOverflow:
    def test_huge_basis_is_a_typed_error(self):
        with pytest.raises(InvalidArg):
            subspace_type(QuadraticSpace(2), [np.array([1e200, 0, 0])])

    def test_gram_overflow_is_a_typed_error(self):
        big = 1.2e154  # its square is finite, the Gram entries are not
        with pytest.raises(InvalidArg):
            subspace_type(QuadraticSpace(2), [np.array([big, big, 0.0])])
