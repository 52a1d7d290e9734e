"""Each element gets one spectral analysis, shared by every decider.

Spies count the linear-algebra kernels a public call makes, so a decider
that recomputes the spectrum, or a caller that re-runs the analysis per
step, shows up as a higher count.
"""

from unittest.mock import Mock

import numpy as np
import pytest

from hypiso import spectral
from hypiso.classify import classify
from hypiso.conjugacy import Relation, conjugate_in_Mn
from hypiso.quadspace import QuadraticSpace, classify_membership
from hypiso.reality import is_real_SOo_n1
from hypiso.sampling import random_isometry, random_soo

CASES = [(n, cls) for n in (3, 5, 9) for cls in ("elliptic", "parabolic", "hyperbolic")]


def element(n, cls):
    rng = np.random.default_rng(1000 * n + len(cls))
    return random_isometry(rng, n, cls), rng


def spy(monkeypatch, owner, name):
    """Replace owner.name with a mock that counts calls and forwards them."""
    mock = Mock(wraps=getattr(owner, name))
    monkeypatch.setattr(owner, name, mock)
    return mock


def two_norm_calls(norm):
    return sum(
        1 for c in norm.call_args_list
        if np.ndim(c.args[0]) >= 2
        and c.kwargs.get("ord", c.args[1] if len(c.args) > 1 else None) in (2, -2)
    )


@pytest.mark.parametrize("n,cls", CASES)
def test_classify_reads_the_spectrum_once(monkeypatch, n, cls):
    t, _ = element(n, cls)
    eigvals = spy(monkeypatch, np.linalg, "eigvals")
    svds = spy(monkeypatch, np.linalg, "svd")
    norms = spy(monkeypatch, np.linalg, "norm")
    passes = spy(monkeypatch, spectral._LorentzSpectrum, "of")
    report = classify(t)
    assert report.fixed_class.value.lower() == cls
    assert eigvals.call_count == 1
    assert svds.call_count + two_norm_calls(norms) <= 5
    assert passes.call_count == 1


@pytest.mark.parametrize("n,cls", CASES)
def test_reality_computes_no_rotation_angles(monkeypatch, n, cls):
    t, _ = element(n, cls)
    angles = spy(monkeypatch, spectral, "_angles_of")
    passes = spy(monkeypatch, spectral._LorentzSpectrum, "of")
    is_real_SOo_n1(t)
    assert angles.call_count == 0
    assert passes.call_count == 1


@pytest.mark.parametrize("det", (1, -1))
@pytest.mark.parametrize("n,cls", CASES)
def test_conjugacy_runs_one_pass_per_input(monkeypatch, n, cls, det):
    t, rng = element(n, cls)
    w = random_soo(rng, n, 0.5)
    if det < 0:
        w = w @ np.diag([-1.0] + [1.0] * n)
    partner = classify_membership(QuadraticSpace(n), w @ t.entries @ np.linalg.inv(w), 1e-8)
    passes = spy(monkeypatch, spectral._LorentzSpectrum, "of")
    answer = conjugate_in_Mn(t, partner)
    assert answer.related is not Relation.NOT_CONJUGATE
    assert answer.conjugator is not None
    assert passes.call_count == 2
