from unittest.mock import Mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import block_rotation, boost_matrix, lorentz, maxabs
from hypiso.classify import poincare_extend
from hypiso.conjugacy import (
    Relation,
    conjugate_in_Mn,
    conjugate_in_Mon,
    find_conjugator,
    invariant_tuple,
)
from hypiso.errors import (
    HypisoError,
    InvalidArg,
    NotConjugate,
    NotInIdentityComponent,
    RefusedToDecide,
)
from hypiso.quadspace import Component, classify_membership
from hypiso.reality import is_real_SOo_n1
from hypiso.sampling import (
    CLASSES,
    max_planes,
    random_angles,
    random_isometry,
    random_orthogonal,
    random_soo,
    rotation_with_angles,
    standard_isometry,
)
from hypiso.spectral import _LorentzSpectrum

PI = np.pi


def conj_residual(s, t1, t2):
    return maxabs(s @ np.asarray(t1) @ np.linalg.inv(s) - np.asarray(t2))


def conjugate(t, w, eps=1e-8):
    return lorentz(w @ np.asarray(t) @ np.linalg.inv(w), eps)


class TestInvariantTuple:
    def test_conjugation_invariance(self, rng):
        for cls in ("elliptic", "parabolic", "hyperbolic"):
            t = random_isometry(rng, 4, cls)
            for _ in range(3):
                w = random_soo(rng, 4)
                assert invariant_tuple(conjugate(t.entries, w)) == invariant_tuple(t)

    def test_unit_stretch_normalization(self):
        t = lorentz(boost_matrix(2, 0.8))
        ti = lorentz(boost_matrix(2, -0.8))
        assert invariant_tuple(t) == invariant_tuple(ti)

    def test_different_angles_differ(self):
        a = np.eye(4)
        a[:2, :2] = block_rotation(PI / 3)
        b = np.eye(4)
        b[:2, :2] = block_rotation(PI / 4)
        assert invariant_tuple(lorentz(a)) != invariant_tuple(lorentz(b))

    def test_inverse_has_equal_tuple(self, rng):
        t = random_isometry(rng, 5)
        assert invariant_tuple(t.inverse()) == invariant_tuple(t)


class TestConjugateInMn:
    def test_element_and_inverse_conjugate(self, rng):
        for cls in ("elliptic", "parabolic", "hyperbolic"):
            t = random_isometry(rng, 4, cls)
            ans = conjugate_in_Mn(t, t.inverse())
            assert ans.related in (Relation.CONJUGATE_IN_MO, Relation.CONJUGATE_IN_M_ONLY)
            assert conj_residual(ans.conjugator, t.entries, t.inverse().entries) <= 1e-8

    def test_different_classes_not_conjugate(self):
        e = np.eye(5)
        e[:2, :2] = block_rotation(0.7)
        h = boost_matrix(4, 0.7)
        ans = conjugate_in_Mn(lorentz(e), lorentz(h))
        assert ans.related is Relation.NOT_CONJUGATE
        assert ans.method == "kg-thm1.2"

    def test_parabolic_vs_elliptic_same_charpoly(self):
        # both have characteristic polynomial (x-1)^4, different minimal
        # polynomial structure: the Jordan test must separate them
        parab = poincare_extend(1.0, np.eye(2), np.array([1.0, 0.0]))
        ident = lorentz(np.eye(4))
        ans = conjugate_in_Mn(parab, ident)
        assert ans.related is Relation.NOT_CONJUGATE

    def test_random_conjugate_pair_with_witness(self, rng):
        for _ in range(10):
            t = random_isometry(rng, 4)
            w = random_soo(rng, 4)
            t2 = conjugate(t.entries, w)
            ans = conjugate_in_Mn(t, t2)
            assert ans.related is Relation.CONJUGATE_IN_MO
            assert conj_residual(ans.conjugator, t.entries, t2.entries) <= 1e-8

    def test_sheet_swapping_input_is_refused(self):
        swap = lorentz(np.diag([1.0, 1.0, 1.0, -1.0]))
        for pair in ((swap, lorentz(np.eye(4))), (lorentz(np.eye(4)), swap)):
            with pytest.raises(NotInIdentityComponent, match="sheet-preserving inputs"):
                conjugate_in_Mn(*pair)

    def test_different_spaces_are_not_conjugate(self):
        with pytest.raises(NotConjugate, match="act on different spaces"):
            conjugate_in_Mn(lorentz(np.eye(4)), lorentz(np.eye(5)))


class TestConjugateInMon:
    def test_unipotent_vs_inverse_breaks(self):
        u = poincare_extend(1.0, np.eye(1), np.array([1.0]))
        ans = conjugate_in_Mon(u, u.inverse())
        assert ans.related is Relation.CONJUGATE_IN_M_ONLY
        assert ans.method == "centralizer-enum"
        # the witness exists in M(n), outside the identity component
        assert conj_residual(ans.conjugator, u.entries, u.inverse().entries) <= 1e-8
        comp = classify_membership(u.space, ans.conjugator, 1e-7).component
        assert comp is Component.O_minus_preserving

    def test_every_pair_in_so31_descends(self, rng):
        # boundary dimension 2: every element is real, so T ~ T^-1 in M_o
        for _ in range(5):
            t = random_isometry(rng, 3)
            ans = conjugate_in_Mon(t, t.inverse())
            assert ans.related is Relation.CONJUGATE_IN_MO
            comp = classify_membership(t.space, ans.conjugator, 1e-7).component
            assert comp is Component.SO_o

    def test_identity_component_witness_for_random_pairs(self, rng):
        t = random_isometry(rng, 4, "parabolic")
        w = random_soo(rng, 4)
        t2 = conjugate(t.entries, w)
        ans = conjugate_in_Mon(t, t2)
        assert ans.related is Relation.CONJUGATE_IN_MO
        assert conj_residual(ans.conjugator, t.entries, t2.entries) <= 1e-8

    def test_rejects_wrong_component(self):
        m = np.diag([-1.0, 1.0, 1.0, 1.0])
        with pytest.raises(NotInIdentityComponent):
            conjugate_in_Mon(lorentz(m), lorentz(np.eye(4)))

    def test_symmetry_of_answers(self, rng):
        t = random_isometry(rng, 4)
        w = random_soo(rng, 4)
        t2 = conjugate(t.entries, w)
        a12 = conjugate_in_Mon(t, t2)
        a21 = conjugate_in_Mon(t2, t)
        assert a12.related is a21.related


class TestFindConjugator:
    def test_equal_elements_give_identity(self, rng):
        t = random_isometry(rng, 4)
        s = find_conjugator(t, t)
        assert maxabs(s - np.eye(5)) < 1e-12

    def test_standard_position_hyperbolics(self, rng):
        # equal stretch and angles, different plane placements
        r = float(np.exp(0.65))
        a1 = block_rotation(0.9, pad=1)
        perm = np.eye(3)[[2, 0, 1]]
        a2 = perm @ a1 @ perm.T
        t1 = poincare_extend(r, a1)
        t2 = poincare_extend(r, a2)
        s = find_conjugator(t1, t2)
        assert conj_residual(s, t1.entries, t2.entries) <= 1e-8

    def test_equal_tuple_elliptics_in_h3(self, rng):
        # elliptics of H^3 (boundary dimension 2) with the same angle
        base = np.eye(4)
        base[:2, :2] = block_rotation(1.234)
        w1, w2 = random_soo(rng, 3), random_soo(rng, 3)
        t1 = conjugate(base, w1)
        t2 = conjugate(base, w2)
        s = find_conjugator(t1, t2, group="Mon")
        assert conj_residual(s, t1.entries, t2.entries) <= 1e-8
        assert classify_membership(t1.space, s, 1e-7).component is Component.SO_o

    def test_raises_for_non_conjugate(self):
        e = np.eye(4)
        e[:2, :2] = block_rotation(0.7)
        with pytest.raises(NotConjugate):
            find_conjugator(lorentz(e), lorentz(np.eye(4)))

    def test_mon_request_on_broken_class(self):
        u = poincare_extend(1.0, np.eye(1), np.array([1.0]))
        with pytest.raises(NotConjugate):
            find_conjugator(u, u.inverse(), group="Mon")

    def test_mon_request_on_a_non_regular_m_only_pair(self, rng):
        # a repeated angle and no +-1: the centralizer lies in det +1, so
        # the det -1 conjugator of M(n) is the only kind there is
        base = np.eye(5)
        base[:4, :4] = block_rotation(0.9, 0.9)
        t = conjugate(base, random_soo(rng, 4))
        g = np.diag([-1.0, 1.0, 1.0, 1.0, 1.0])
        t2 = lorentz(g @ t.entries @ g)
        s = find_conjugator(t, t2)
        assert conj_residual(s, t.entries, t2.entries) <= 1e-8
        assert classify_membership(t.space, s, 1e-7).component is Component.O_minus_preserving
        with pytest.raises(NotConjugate, match="in M\\(n\\) but not in M_o\\(n\\)"):
            find_conjugator(t, t2, group="Mon")

    def test_unknown_group_is_invalid_before_any_analysis(self, rng, monkeypatch):
        t = random_isometry(rng, 4)
        analyse = Mock(wraps=_LorentzSpectrum.of)
        monkeypatch.setattr(_LorentzSpectrum, "of", analyse)
        with pytest.raises(InvalidArg, match="unknown group 'Mo'"):
            find_conjugator(t, t, group="Mo")
        assert analyse.call_count == 0


class TestEquivalenceSanity:
    def test_reflexive_symmetric_transitive(self, rng):
        t = random_isometry(rng, 4, "elliptic")
        w1, w2 = random_soo(rng, 4), random_soo(rng, 4)
        t1 = conjugate(t.entries, w1)
        t2 = conjugate(t1.entries, w2)
        assert conjugate_in_Mn(t, t).related is Relation.CONJUGATE_IN_MO
        assert conjugate_in_Mn(t, t1).related is Relation.CONJUGATE_IN_MO
        assert conjugate_in_Mn(t1, t2).related is Relation.CONJUGATE_IN_MO
        assert conjugate_in_Mn(t, t2).related is Relation.CONJUGATE_IN_MO


def wide_conjugator(rng, n, rapidity):
    """R1 B(rapidity) R2 with random rotations R1, R2 of space."""
    out = []
    for _ in range(2):
        r = np.eye(n + 1)
        r[:n, :n] = random_orthogonal(rng, n)
        out.append(r)
    return out[0] @ boost_matrix(n, rapidity) @ out[1]


class TestIllConditionedPairs:
    @pytest.mark.parametrize("n", (3, 5, 9))
    def test_certified_or_refused(self, n):
        # T conjugated by a wide boost; the answer is a conjugator that
        # satisfies S T1 = T2 S at the gate, a refusal, or the build's
        # residual gate: the det -1 fix-up and the unipotent reading of a
        # parabolic must not fail here
        rng = np.random.default_rng(300 + n)
        answered = 0
        for i in range(24):
            cls = ("elliptic", "parabolic", "hyperbolic")[i % 3]
            g0 = wide_conjugator(rng, n, (2.5, 3.0, 3.5)[i % 3])
            t = conjugate(standard_isometry(rng, n, cls), g0)
            w = random_soo(rng, n, 0.5)
            if i % 2:
                w = w @ np.diag([-1.0] + [1.0] * n)
            t2 = conjugate(t.entries, w)
            try:
                ans = conjugate_in_Mn(t, t2)
            except RefusedToDecide:
                continue
            except HypisoError as exc:
                assert str(exc).startswith("conjugator residual"), str(exc)
                continue
            answered += 1
            assert ans.related is not Relation.NOT_CONJUGATE
            s = ans.conjugator
            assert maxabs(s @ t.entries - t2.entries @ s) <= 1e-8
        assert answered > 0


class TestCharacteristicPolynomial:
    def test_from_the_pass_equals_from_the_matrix(self, rng):
        for n in (3, 5, 9):
            for cls in ("elliptic", "parabolic", "hyperbolic"):
                t = random_isometry(rng, n, cls)
                sp = _LorentzSpectrum.of(t, 1e-7)
                assert np.array_equal(np.poly(sp.eigvals), np.poly(t.entries))


@st.composite
def elements(draw):
    """An element of SO_o(n,1), n = 2..9, of any class, conjugated by
    ``random_soo``.  The draws lean to the most rotation planes the class
    has and to repeated angles, where no +-1 eigenvector is left and the
    M_o(n) question is not settled by the orientation of a +-1 column."""
    n = draw(st.integers(2, 9))
    cls = draw(st.sampled_from(CLASSES))
    kmax = max_planes(cls, n)
    k = kmax - draw(st.integers(0, kmax))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    distinct = draw(st.integers(1, k)) if k else 0
    pool = random_angles(rng, distinct, include_pi=distinct > 0 and draw(st.booleans()))
    angles = sorted((pool[i % distinct] for i in range(k)), reverse=True)
    if cls == "elliptic":
        std = np.eye(n + 1)
        std[:n, :n] = rotation_with_angles(angles, n)
    elif cls == "hyperbolic":
        std = boost_matrix(n, round(float(rng.uniform(0.25, 1.4)), 3))
        std[: n - 1, : n - 1] = rotation_with_angles(angles, n - 1)
    else:
        b = np.zeros(n - 1)
        b[-1] = round(float(rng.uniform(0.5, 1.5)), 3)
        std = poincare_extend(1.0, rotation_with_angles(angles, n - 1), b).entries
    return conjugate(std, random_soo(rng, n))


@settings(max_examples=600, derandomize=True, deadline=None)
@given(elements())
def test_reality_is_conjugacy_to_the_inverse_in_Mon(t):
    # T is real when T ~ T^-1 in M_o(n): the reality certificate and the
    # conjugacy answer are two routes to that one fact, and agree on
    # regular and non-regular elements alike
    cert = is_real_SOo_n1(t)
    answer = conjugate_in_Mon(t, t.inverse())
    want = Relation.CONJUGATE_IN_MO if cert.decision else Relation.CONJUGATE_IN_M_ONLY
    assert answer.related is want
