"""Every reverser and conjugator is one frame map F_out M F_in*.

A spy on ``frames.frame_map`` counts the assemblies a public call makes:
one per certificate, one per conjugator and one per achievable oracle
component.  A conjugator's M is the identity off the special block of
a parabolic, but for a -1 on the first +-1 column where it evens out the
orientations of the two frames, which only the conjugator reads.
"""

import numpy as np
import pytest

from conftest import lorentz, maxabs, spy
from hypiso import frames
from hypiso.conjugacy import Relation, conjugate_in_Mn
from hypiso.frames import _lorentz_structure
from hypiso.reality import (
    GROUP_O,
    GROUP_SO,
    GROUP_SOO,
    is_real_On,
    is_real_SOn,
    is_real_SOo_n1,
    reverser_oracle,
)
from hypiso.sampling import (
    random_isometry,
    random_orthogonal,
    random_regular_special_orthogonal,
    random_soo,
)
from hypiso.spectral import DEFAULT_DELTA, _LorentzSpectrum

CASES = [(n, cls) for n in (3, 4, 5, 9) for cls in ("elliptic", "parabolic", "hyperbolic")]


def element(n, cls, seed=0):
    rng = np.random.default_rng([seed, n, len(cls)])
    return random_isometry(rng, n, cls), rng


@pytest.mark.parametrize("n", (2, 3, 4, 5, 6, 9))
def test_orthogonal_certificates_assemble_once(monkeypatch, n):
    rng = np.random.default_rng(n)
    maps = spy(monkeypatch, frames, "frame_map")
    is_real_On(random_orthogonal(rng, n))
    assert maps.call_count == 1
    maps.reset_mock()
    cert = is_real_SOn(random_regular_special_orthogonal(rng, n))
    assert maps.call_count == (1 if cert.decision else 0)


@pytest.mark.parametrize("n,cls", CASES)
def test_lorentz_certificate_assembles_once(monkeypatch, n, cls):
    t, _ = element(n, cls)
    maps = spy(monkeypatch, frames, "frame_map")
    cert = is_real_SOo_n1(t)
    assert maps.call_count == (1 if cert.decision else 0)


@pytest.mark.parametrize("n,cls", CASES)
def test_reverser_is_diagonal_in_the_adapted_frame(n, cls):
    # Phi* S Phi = D with D a +-1 diagonal
    t, _ = element(n, cls)
    cert = is_real_SOo_n1(t)
    if not cert.decision:
        return
    st = _lorentz_structure(_LorentzSpectrum.of(t, DEFAULT_DELTA))
    d = frames.frame_pinv(st.frame, st.signs, t.space.form_signs) @ cert.reverser @ st.frame
    assert maxabs(np.abs(d) - np.eye(t.space.dim)) <= 1e-8


@pytest.mark.parametrize("n,cls", CASES)
def test_oracle_assembles_once_per_component(monkeypatch, n, cls):
    t, rng = element(n, cls)
    q, r = random_orthogonal(rng, n), random_regular_special_orthogonal(rng, n)
    for group, x in ((GROUP_SOO, t), (GROUP_O, q), (GROUP_SO, r)):
        maps = spy(monkeypatch, frames, "frame_map")
        report = reverser_oracle(x, group, budget=0)
        assert report.regular
        assert maps.call_count == len(report.exact) >= 1
        monkeypatch.undo()


@pytest.mark.parametrize("det", (1, -1))
@pytest.mark.parametrize("n,cls", CASES)
def test_conjugator_assembles_once_or_twice(monkeypatch, n, cls, det):
    t, rng = element(n, cls, seed=1)
    w = random_soo(rng, n, 0.5)
    if det < 0:
        w = w @ np.diag([-1.0] + [1.0] * n)
    partner = lorentz(w @ t.entries @ np.linalg.inv(w))
    maps = spy(monkeypatch, frames, "frame_map")
    answer = conjugate_in_Mn(t, partner)
    assert answer.related is not Relation.NOT_CONJUGATE
    assert maps.call_count == 1
    # M is the identity off the parabolic block and the orientation sign
    e = maps.call_args.args[1] - np.eye(t.space.dim)
    if cls == "parabolic":
        e[:3, :3] = 0.0
    st1, st2 = (_lorentz_structure(_LorentzSpectrum.of(x, DEFAULT_DELTA)) for x in (t, partner))
    if (np.linalg.det(st1.frame) > 0) != (np.linalg.det(st2.frame) > 0) and st1.blocks.a + st1.blocks.b:
        i = st1.special_dim + 2 * st1.blocks.p
        assert e[i, i] == -2.0
        e[i, i] = 0.0
    assert not e.any()
