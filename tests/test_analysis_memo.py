"""The analysis of an element is computed once per delta and kept on it.

Spies count the passes that are computed (``_LorentzSpectrum.stack``, the
only place that runs the LAPACK kernels of the pass) and the adapted
splittings that are built (``frames._build_lorentz_structure``).
"""

import gc
import json
import weakref

import numpy as np
import pytest

from conftest import spy
from hypiso import frames, lapack
from hypiso.classify import classify
from hypiso.conjugacy import conjugate_in_Mn, invariant_tuple
from hypiso.errors import InvalidArg
from hypiso.frames import normal_form
from hypiso.quadspace import QuadraticSpace, classify_membership
from hypiso.reality import GROUP_SOO, is_real_SOo_n1, reverser_oracle
from hypiso.sampling import random_isometry, random_soo
from hypiso.spectral import DELTA_MIN, _LorentzSpectrum

CASES = [(n, cls) for n in (3, 5) for cls in ("elliptic", "parabolic", "hyperbolic")]


def pair(n, cls, seed=0):
    """A fresh element and a fresh conjugate partner."""
    rng = np.random.default_rng([seed, n, len(cls)])
    t = random_isometry(rng, n, cls, k=(n - 2 if cls == "parabolic" else n - 1) // 2)
    w = random_soo(rng, n, 0.5)
    partner = classify_membership(QuadraticSpace(n), w @ t.entries @ np.linalg.inv(w), 1e-8)
    return t, partner


def fresh(t):
    return classify_membership(t.space, np.array(t.entries), t.tolerance)


@pytest.mark.parametrize("n,cls", CASES)
def test_conjugacy_after_reality_analyses_the_partner_only(monkeypatch, n, cls):
    t, partner = pair(n, cls)
    is_real_SOo_n1(t)
    stack = spy(monkeypatch, _LorentzSpectrum, "stack")
    eigvals = spy(monkeypatch, lapack, "eigvals")
    builds = spy(monkeypatch, frames, "_build_lorentz_structure")
    conjugate_in_Mn(t, partner)
    assert [c.args[0] for c in stack.call_args_list] == [[partner]]
    assert eigvals.call_count == 1
    assert [c.args[0] for c in builds.call_args_list] == [partner._analyses[1e-7]]


@pytest.mark.parametrize("n,cls", CASES)
def test_reality_after_classify_runs_no_second_pass(monkeypatch, n, cls):
    t, _ = pair(n, cls)
    classify(t)
    stack = spy(monkeypatch, _LorentzSpectrum, "stack")
    eigvals = spy(monkeypatch, lapack, "eigvals")
    is_real_SOo_n1(t)
    assert stack.call_count == 0 and eigvals.call_count == 0


def test_second_delta_computes_a_second_pass(monkeypatch):
    t, _ = pair(5, "hyperbolic")
    classify(t, 1e-7)
    eigvals = spy(monkeypatch, lapack, "eigvals")
    classify(t, 1e-6)
    classify(t, 1e-6)
    assert eigvals.call_count == 1
    assert sorted(t._analyses) == [1e-7, 1e-6]
    a, b = _LorentzSpectrum.of(t, 1e-7), _LorentzSpectrum.of(t, 1e-6)
    assert a is t._analyses[1e-7] and b is t._analyses[1e-6] and a.delta == 1e-7 and b.delta == 1e-6


def test_two_memberships_of_one_matrix_share_nothing(monkeypatch):
    t, _ = pair(5, "parabolic")
    m = np.array(t.entries)
    t1 = classify_membership(t.space, m)
    t2 = classify_membership(t.space, m)
    assert not np.shares_memory(t1.entries, t2.entries)
    assert not np.shares_memory(t1.entries, m)
    is_real_SOo_n1(t1)
    assert t1._analyses and not t2._analyses
    eigvals = spy(monkeypatch, lapack, "eigvals")
    is_real_SOo_n1(t2)
    assert eigvals.call_count == 1
    assert t1._analyses[1e-7] is not t2._analyses[1e-7]


def test_stored_arrays_cannot_be_written_through_a_report():
    t, _ = pair(5, "elliptic")
    frame = classify(t).fixed_data.frame
    with pytest.raises(ValueError, match="read-only"):
        frame[0, 0] = 1.0
    assert np.array_equal(classify(t).fixed_data.frame, frame)


def test_failed_pass_raises_again():
    t, _ = pair(3, "elliptic")
    for _ in range(2):
        with pytest.raises(InvalidArg, match="below delta_min"):
            classify(t, DELTA_MIN / 2)
    assert not t._analyses


def test_failed_structure_is_not_stored():
    # the splitting of a sheet-swapping element is refused; the pass itself
    # succeeds and is kept
    swap = classify_membership(QuadraticSpace(3), np.diag([1.0, 1.0, -1.0, -1.0]))
    for _ in range(2):
        with pytest.raises(InvalidArg, match="sheet-preserving"):
            frames._lorentz_structure(_LorentzSpectrum.of(swap, 1e-7))
    assert swap._analyses[1e-7].structure is None


def stack_sample(n, count=4, seed=0):
    """The inputs of the stacked-pass tests: ``count`` elements per class."""
    rng = np.random.default_rng(seed)
    return [random_isometry(rng, n, cls)
            for cls in ("elliptic", "parabolic", "hyperbolic") for _ in range(count)]


@pytest.mark.parametrize("delta", (1e-7, 1e-6))
@pytest.mark.parametrize("n", (3, 5, 9))
def test_stacked_passes_equal_the_pass_of_a_fresh_element(n, delta):
    # a one-matrix pass of a fresh copy, so the stored stacked pass is
    # compared bit for bit with a pass computed on its own
    ts = stack_sample(n)
    stacked = _LorentzSpectrum.stack(ts, delta)
    for t, got in zip(ts, stacked):
        assert got is t._analyses[delta] and _LorentzSpectrum.of(t, delta) is got
        want = _LorentzSpectrum.of(fresh(t), delta)
        assert got.scale == want.scale and got.defective == want.defective
        for field in ("eigvals", "kernel"):
            a, b = getattr(got, field), getattr(want, field)
            assert a.dtype == b.dtype and np.array_equal(a, b)
        # the scalar facts are Python scalars, read per matrix: equal in
        # type and in every bit
        for field in ("band", "square_band", "rmax", "lam"):
            a, b = getattr(got, field), getattr(want, field)
            assert type(a) is type(b) and np.array(a).tobytes() == np.array(b).tobytes()
        assert type(got.lam) is (float if got.eigvals.dtype == float else complex)
        assert (type(got.band), type(got.square_band), type(got.rmax)) == (bool, bool, float)


DECIDERS = {
    "classify": lambda t, p: classify(t).to_json_dict(),
    "reality": lambda t, p: is_real_SOo_n1(t).to_json_dict(),
    "conjugacy": lambda t, p: conjugate_in_Mn(t, p).to_json_dict(),
    "invariant_tuple": lambda t, p: list(invariant_tuple(t).__dict__.values()),
    "normal_form": lambda t, p: normal_form(t).conjugator.entries.tolist(),
    "oracle": lambda t, p: reverser_oracle(t, GROUP_SOO, budget=0).to_json_dict(),
}


@pytest.mark.parametrize("n,cls", CASES)
def test_outputs_do_not_depend_on_call_order(n, cls):
    t, partner = pair(n, cls, seed=1)
    want = {k: json.dumps(f(fresh(t), fresh(partner))) for k, f in DECIDERS.items()}
    for order in (list(DECIDERS), list(DECIDERS)[::-1]):
        one, other = fresh(t), fresh(partner)
        classify(other)
        got = {k: json.dumps(DECIDERS[k](one, other)) for k in order}
        assert got == want


def test_analysed_element_is_freed_by_reference_counting():
    t, partner = pair(5, "parabolic")
    gc.disable()
    try:
        for f in DECIDERS.values():
            f(t, partner)
        assert t._analyses[1e-7].structure is not None
        refs = [weakref.ref(t), weakref.ref(partner)]
        del t, partner
        assert [r() for r in refs] == [None, None]
    finally:
        gc.enable()

