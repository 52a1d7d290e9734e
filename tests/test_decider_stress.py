"""Stress tests of the three-outcome contract near the eigenvalues +-1.

Every decider call on a well-conditioned input with a rotation angle
within a few delta of 0 or pi must give a verified answer (each returned
reverser or conjugator meets its 1e-8 gate), an honest refusal
(``RefusedToDecide``) or a typed domain error: never the plain
``HypisoError`` of a failed self-check, and never "not conjugate" for a
conjugate pair.

Orthogonal inputs come from the ``near_pm_one`` strategy.  Lorentz inputs
are conjugate pairs: an elliptic or hyperbolic element in standard
position with one angle within 3 delta of 0 or pi, conjugated by two
``random_soo(., 0.5)``.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import boost_matrix, lorentz, maxabs
from hypiso.classify import fixed_point_class
from hypiso.conjugacy import Relation, _mn_conjugator, conjugate_in_Mn
from hypiso.errors import Borderline, HypisoError, NotConjugate, RefusedToDecide
from hypiso.frames import _lorentz_structure
from hypiso.reality import (
    GROUP_O,
    GROUP_SOO,
    is_real_On,
    is_real_SOn,
    is_real_SOo_n1,
    reverser_oracle,
)
from hypiso.sampling import random_angles, random_soo, rotation_with_angles
from hypiso.spectral import _LorentzSpectrum
from test_near_pm_one import near_pm_one

GATE = 1e-8


def outcome(call, *args, **kwargs):
    """The call's result, or None for a refusal or a typed domain error."""
    try:
        return call(*args, **kwargs)
    except RefusedToDecide:
        return None
    except HypisoError as exc:
        assert type(exc) is not HypisoError, f"internal error: {exc}"
        assert not isinstance(exc, NotConjugate), f"conjugate pair: {exc}"
        return None


def assert_reverser(s, t, j=None):
    """S is an involution in the group (O(n), or O(n,1) for form signs j)
    with S T S^-1 = T^-1, each within the gate."""
    jj = np.eye(len(t)) if j is None else np.diag(j)
    s_inv = jj @ s.T @ jj
    assert maxabs(s.T @ jj @ s - jj) <= GATE
    assert maxabs(s @ t @ s_inv - jj @ t.T @ jj) <= GATE
    assert maxabs(s @ s - np.eye(len(s))) <= GATE


@settings(max_examples=120, derandomize=True, deadline=None)
@given(near_pm_one())
def test_orthogonal_deciders_answer_or_refuse(case):
    a, delta = case
    for decide in (is_real_On, is_real_SOn):
        if decide is is_real_SOn and np.linalg.det(a) < 0:
            continue
        cert = outcome(decide, a, delta)
        if cert is not None and cert.decision:
            assert_reverser(cert.reverser, a)
    report = outcome(reverser_oracle, a, GROUP_O, budget=0, delta=delta)
    if report is not None:
        for s in report.exact_witnesses.values():
            assert maxabs(s.T @ s - np.eye(len(a))) <= GATE
            assert maxabs(s @ a @ s.T - a.T) <= GATE


@st.composite
def conjugate_pairs(draw):
    """(T1, T2, delta): an elliptic or hyperbolic element of SO_o(n,1) with
    one angle within [0, 3 delta] of 0 or pi, under two conjugators."""
    delta = draw(st.sampled_from((1e-7, 1e-6)))
    n = draw(st.integers(3, 9))
    hyperbolic = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rot_n = n - 1 if hyperbolic else n
    angles = random_angles(rng, draw(st.integers(1, rot_n // 2)))
    offset = draw(st.floats(0.0, 3 * delta))
    angles[draw(st.integers(0, len(angles) - 1))] = draw(st.sampled_from((offset, np.pi - offset)))
    std = boost_matrix(n, round(float(rng.uniform(0.25, 1.4)), 3)) if hyperbolic else np.eye(n + 1)
    std[:rot_n, :rot_n] = rotation_with_angles(angles, rot_n)
    j = np.append(np.ones(n), -1.0)
    pair = []
    for _ in range(2):
        w = random_soo(rng, n, 0.5)
        pair.append(lorentz(w @ std @ ((j[:, None] * w.T) * j[None, :])))
    return pair[0], pair[1], delta


@settings(max_examples=120, derandomize=True, deadline=None)
@given(conjugate_pairs())
def test_lorentz_deciders_answer_or_refuse(case):
    t1, t2, delta = case
    j = t1.space.form_signs
    cert = outcome(is_real_SOo_n1, t1, delta)
    if cert is not None and cert.decision:
        assert_reverser(cert.reverser, t1.entries, j)
    report = outcome(reverser_oracle, t1, GROUP_SOO, budget=0, delta=delta)
    if report is not None:
        for s in report.exact_witnesses.values():
            assert maxabs(s.T @ np.diag(j) @ s - np.diag(j)) <= GATE
    answer = outcome(conjugate_in_Mn, t1, t2, delta)
    if answer is not None:
        assert answer.related is not Relation.NOT_CONJUGATE
        s = answer.conjugator
        assert maxabs(s @ t1.entries - t2.entries @ s) <= GATE


@pytest.mark.parametrize("theta", (2e-8, 9e-8))
def test_angle_in_the_gate_gap_is_refused_by_name(theta):
    # a rotation by theta <= delta is read as +1; the reverser fixes its
    # plane, which leaves a residual near 2 theta, over the gate
    a = rotation_with_angles([1.1, theta], 5)
    with pytest.raises(RefusedToDecide, match="within delta = 1e-07 of \\+-1"):
        is_real_On(a, 1e-7)


def test_kernel_wider_than_the_reading_is_refused():
    # ker(T - I) is read at tau = delta * ||T|| = 4.06 delta, which swallows
    # the plane of angle 1.5 delta that the reading at radius delta keeps
    m = boost_matrix(3, 1.4)
    m[:2, :2] = rotation_with_angles([1.5e-6], 2)
    t = lorentz(m)
    for decide in (is_real_SOo_n1, lambda t, d: reverser_oracle(t, GROUP_SOO, budget=0, delta=d)):
        with pytest.raises(Borderline, match="has width 2, the reading of the spectrum counts 0"):
            decide(t, 1e-6)


def boost_along(axis, s):
    """Boost of rapidity s in the (x_axis, time) plane of R^(3,1)."""
    m = np.eye(4)
    m[axis, axis] = m[3, 3] = np.cosh(s)
    m[axis, 3] = m[3, axis] = np.sinh(s)
    return m


def test_square_rank_inside_its_band_is_refused():
    # a rotation by 0.9 delta under boosts along x0 and x1: T - I has no
    # singular value near tau, but (T - I)^2 has one at 0.81 tau^2; the rank
    # alone reads T as defective, a parabolic whose fixed space has no
    # 1-dim radical
    w = boost_along(0, 0.6) @ boost_along(1, 1.0)
    std = np.eye(4)
    std[:2, :2] = rotation_with_angles([0.9e-6], 2)
    j = np.array([1.0, 1.0, 1.0, -1.0])
    t = lorentz(w @ std @ ((j[:, None] * w.T) * j[None, :]))
    with pytest.raises(Borderline, match=r"\(T - I\)\^2 lies just under tau\^2"):
        fixed_point_class(t, 1e-6)


def test_disagreeing_readings_of_a_pair_are_refused():
    # once the characteristic polynomials and the classes agree, different
    # angles can only come from the readings: a refusal, not "not conjugate"
    m = np.eye(5)
    m[:2, :2] = rotation_with_angles([0.7], 2)
    sp = _LorentzSpectrum.of(lorentz(m), 1e-7)
    st1 = _lorentz_structure(sp)
    moved = [(theta + 1e-5, frame) for theta, frame in st1.blocks.planes]
    st2 = replace(st1, blocks=replace(st1.blocks, planes=moved))
    named = r"readings differ: angles \(0.7\), \+1 x 2, -1 x 0 against angles \(0.70001\)"
    with pytest.raises(Borderline, match=named):
        _mn_conjugator(sp, st1, sp, st2)
