from unittest.mock import Mock

import numpy as np
import pytest

from conftest import block_rotation, boost_matrix, lorentz, maxabs
from hypiso import lapack, reality
from hypiso.classify import poincare_extend
from hypiso.errors import (
    BudgetExhausted,
    InvalidArg,
    NotInIdentityComponent,
    NotOrthogonal,
    NotSpecialOrthogonal,
)
from hypiso.quadspace import form_residual
from hypiso.reality import (
    GROUP_MO,
    GROUP_O,
    GROUP_SO,
    GROUP_SOO,
    is_real_Mo,
    is_real_On,
    is_real_SOn,
    is_real_SOo_n1,
    is_strongly_real_SOn,
    reversal_residual,
    reverser_oracle,
)
from hypiso.sampling import (
    random_isometry,
    random_orthogonal,
    random_regular_special_orthogonal,
    random_soo,
)

PI = np.pi


def check_reverser(cert, t, j_signs=None):
    s = cert.reverser
    assert s is not None
    assert reversal_residual(s, np.asarray(t)) <= 1e-8
    if cert.involution:
        assert maxabs(s @ s - np.eye(s.shape[0])) <= 1e-8
    if j_signs is None:
        assert maxabs(s.T @ s - np.eye(s.shape[0])) <= 1e-8
    else:
        jj = np.diag(j_signs)
        assert maxabs(s.T @ jj @ s - jj) <= 1e-8


class TestOrthogonalGroup:
    def test_single_rotation_reversed_by_reflection(self):
        b = block_rotation(0.77)
        cert = is_real_On(b)
        assert cert.decision and cert.clause == "W" and cert.involution
        check_reverser(cert, b)
        # the classical reflection works too
        s = np.diag([1.0, -1.0])
        assert maxabs(s @ b @ s - np.linalg.inv(b)) < 1e-12

    def test_identity(self):
        cert = is_real_On(np.eye(3))
        assert cert.decision
        check_reverser(cert, np.eye(3))

    def test_random_o5(self, rng):
        for _ in range(10):
            t = random_orthogonal(rng, 5)
            check_reverser(is_real_On(t), t)

    def test_rejects_non_orthogonal(self):
        with pytest.raises(NotOrthogonal):
            is_real_On(np.diag([2.0, 1.0]))


class TestSpecialOrthogonalGroup:
    def test_quarter_turn_not_real_in_so2(self):
        cert = is_real_SOn(block_rotation(PI / 2))
        assert not cert.decision and cert.reverser is None
        assert cert.clause == "Thm3.5-mod4"

    def test_two_rotation_real_in_so4(self):
        t = block_rotation(PI / 3, PI / 2)
        cert = is_real_SOn(t)
        assert cert.decision and cert.clause == "Thm3.5-mod4"
        check_reverser(cert, t)
        assert np.linalg.det(cert.reverser) == pytest.approx(1.0)

    def test_odd_dimension_always_real(self, rng):
        for _ in range(10):
            t = random_regular_special_orthogonal(rng, 3)
            cert = is_real_SOn(t)
            assert cert.decision
            check_reverser(cert, t)

    def test_eigenvalue_rescue_in_so6(self):
        # n = 2 mod 4 but a fixed vector allows a determinant flip
        t = block_rotation(0.5, 1.3, pad=2)
        cert = is_real_SOn(t)
        assert cert.decision and cert.clause == "Thm3.5-pm1"
        check_reverser(cert, t)

    def test_rejects_det_minus_one(self):
        with pytest.raises(NotSpecialOrthogonal):
            is_real_SOn(np.diag([-1.0, 1.0]))


class TestStrongReality:
    def test_minus_identity_central(self):
        # -I in SO(2): n = 2 mod 4, but the -1 eigenspace frees the sign
        cert = is_strongly_real_SOn(-np.eye(2))
        assert cert.decision and cert.clause == "KN"
        check_reverser(cert, -np.eye(2))

    def test_regular_three_rotation_in_so6_fails(self):
        t = block_rotation(0.4, 1.0, 2.0)
        cert = is_strongly_real_SOn(t)
        assert not cert.decision

    def test_so4_two_rotation(self):
        t = block_rotation(0.9, 2.1)
        cert = is_strongly_real_SOn(t)
        assert cert.decision
        check_reverser(cert, t)

    def test_agreement_with_reality(self, rng):
        for n in (2, 3, 4, 5, 6):
            for _ in range(10):
                t = random_regular_special_orthogonal(rng, n)
                assert is_strongly_real_SOn(t).decision == is_real_SOn(t).decision

    def test_product_of_two_involutions(self, rng):
        t = random_regular_special_orthogonal(rng, 4)
        cert = is_strongly_real_SOn(t)
        if cert.decision:
            s = cert.reverser
            f2 = s @ t
            assert maxabs(f2 @ f2 - np.eye(4)) <= 1e-8  # second involution
            assert maxabs(s @ f2 - t) <= 1e-12


class TestLorentzReality:
    def test_every_element_real_for_n4(self, rng):
        for cls in ("elliptic", "parabolic", "hyperbolic"):
            for _ in range(5):
                t = random_isometry(rng, 4, cls)
                cert = is_real_SOo_n1(t)
                assert cert.decision and cert.clause == "Thm1.1-1"
                check_reverser(cert, t.entries, t.space.form_signs)

    def test_unipotent_not_real(self):
        u = poincare_extend(1.0, np.eye(1), np.array([1.0]))
        cert = is_real_SOo_n1(u)
        assert not cert.decision and cert.reverser is None

    def test_n5_hyperbolic_cases(self):
        s = 0.8
        bare = np.eye(6)
        bare[:2, :2] = block_rotation(0.7)
        bare[2:4, 2:4] = block_rotation(1.3)
        bare[4:, 4:] = boost_matrix(1, s)
        no_pm1 = lorentz(bare)
        assert not is_real_SOo_n1(no_pm1).decision
        with_one = np.eye(6)
        with_one[:2, :2] = block_rotation(0.7)
        with_one[4:, 4:] = boost_matrix(1, s)
        cert = is_real_SOo_n1(lorentz(with_one))
        assert cert.decision
        check_reverser(cert, with_one, lorentz(with_one).space.form_signs)

    def test_n2_elliptic_cases(self):
        # no space-like +-1 eigenvector: not real
        plain = np.eye(3)
        plain[:2, :2] = block_rotation(0.9)
        assert not is_real_SOo_n1(lorentz(plain)).decision
        # with eigenvalue -1 (angle pi): real
        flip = np.eye(3)
        flip[:2, :2] = -np.eye(2)
        cert = is_real_SOo_n1(lorentz(flip))
        assert cert.decision and cert.clause == "Thm1.1-3ii"

    def test_n6_elliptic_spacelike_fixed_vector(self):
        m = np.eye(7)
        m[:4, :4] = block_rotation(0.5, 1.7)
        # ker(T - I) contains space-like directions e4, e5
        cert = is_real_SOo_n1(lorentz(m))
        assert cert.decision and cert.clause == "Thm1.1-3iii"
        check_reverser(cert, m, lorentz(m).space.form_signs)

    def test_n6_full_elliptic_not_real(self):
        m = np.eye(7)
        m[:6, :6] = block_rotation(0.5, 1.2, 2.2)
        cert = is_real_SOo_n1(lorentz(m))
        assert not cert.decision and cert.clause == "Thm1.1-3iii"

    def test_rejects_other_components(self):
        m = np.diag([-1.0, 1.0, 1.0, 1.0])
        with pytest.raises(NotInIdentityComponent):
            is_real_SOo_n1(lorentz(m))

    def test_non_regular_construction(self, rng):
        # repeated angles: the per-plane construction still applies
        m = np.eye(6)
        m[:4, :4] = block_rotation(0.8, 0.8)
        w = random_soo(rng, 5)
        t = lorentz(w @ m @ np.linalg.inv(w))
        cert = is_real_SOo_n1(t)
        assert cert.decision
        check_reverser(cert, t.entries, t.space.form_signs)


class TestMoebiusReality:
    def test_boundary_dim_2_and_3_blanket(self, rng):
        for n_boundary in (2, 3):
            for _ in range(10):
                t = random_isometry(rng, n_boundary + 1)
                cert = is_real_Mo(t)
                assert cert.decision
                assert cert.group == "M_o_n"

    def test_unipotent_of_m1(self):
        u = poincare_extend(1.0, np.eye(1), np.array([1.0]))
        assert not is_real_Mo(u).decision


class TestOracle:
    @pytest.mark.parametrize("group,decide", ((GROUP_O, is_real_On), (GROUP_SO, is_real_SOn)))
    def test_orthogonal_input_is_validated_as_the_deciders_do(self, group, decide):
        bent = 1.001 * block_rotation(0.7)
        for call in (lambda: reverser_oracle(bent, group, budget=0), lambda: decide(bent)):
            with pytest.raises(NotOrthogonal, match="input is not orthogonal within tolerance"):
                call()
        flip = np.diag([-1.0, 1.0, 1.0])
        if group == GROUP_SO:
            with pytest.raises(NotSpecialOrthogonal, match="input has determinant -1"):
                reverser_oracle(flip, group, budget=0)
        else:
            assert reverser_oracle(flip, group, budget=0).exact

    def test_quarter_turn_only_reflections(self):
        rep = reverser_oracle(block_rotation(PI / 2), GROUP_O, budget=300, seed=2)
        assert rep.exact == frozenset({(-1, 1)})
        assert rep.sampled == frozenset({(-1, 1)})

    def test_minus_identity_everything_reverses(self):
        rep = reverser_oracle(-np.eye(2), GROUP_O, budget=300, seed=2)
        assert rep.exact == frozenset({(1, 1), (-1, 1)})

    def test_regular_two_rotation_in_o4(self):
        # forced per-plane reflections make the determinant (+1)^2 exactly;
        # no +-1 eigenspace is available to flip it
        t = block_rotation(PI / 3, PI / 2)
        rep = reverser_oracle(t, GROUP_O, budget=300, seed=2)
        assert rep.exact == frozenset({(1, 1)})
        assert rep.sampled == frozenset({(1, 1)})

    def test_exact_witnesses_verify(self, rng):
        t = random_regular_special_orthogonal(rng, 5)
        rep = reverser_oracle(t, GROUP_SO, budget=0, seed=2)
        for (det, sheet), s in rep.exact_witnesses.items():
            assert reversal_residual(s, t) <= 1e-8
            assert np.sign(np.linalg.det(s)) == det

    def test_lorentz_witnesses_verify(self, rng):
        t = random_isometry(rng, 4, "hyperbolic")
        rep = reverser_oracle(t, GROUP_SOO, budget=400, seed=2)
        assert (1, 1) in rep.exact
        for key, s in rep.exact_witnesses.items():
            assert reversal_residual(s, t.entries) <= 1e-8
            assert form_residual(s, t.space.form_signs) <= 1e-8
        assert rep.sampled <= rep.exact

    def test_decision_matches_exact_enumeration(self, rng):
        for n in (2, 3, 4, 5):
            for _ in range(8):
                t = random_isometry(rng, n)
                cert = is_real_SOo_n1(t)
                rep = reverser_oracle(t, GROUP_SOO, budget=0, seed=1)
                assert rep.regular
                assert cert.decision == ((1, 1) in rep.exact)

    def test_budget_exhausted(self):
        t = block_rotation(PI / 2)
        with pytest.raises(BudgetExhausted):
            reverser_oracle(t, GROUP_O, budget=50, seed=1, require={(1, 1)})

    def test_mode_b_finds_witness_for_non_regular(self, rng):
        # repeated angle: exact enumeration unavailable, sampling steps in
        t = block_rotation(0.8, 0.8)
        rep = reverser_oracle(t, GROUP_O, budget=400, seed=4)
        assert not rep.regular and rep.exact is None
        assert (1, 1) in rep.sampled  # real in SO(4)
        s = rep.sampled_witnesses[(1, 1)]
        assert reversal_residual(s, t) <= 1e-8

    def test_budget_zero_builds_no_sampling_data(self, rng, monkeypatch):
        t = random_isometry(rng, 9, "hyperbolic")
        basis = Mock(wraps=reality._reverser_solution_basis)
        inv = Mock(wraps=np.linalg.inv)
        monkeypatch.setattr(reality, "_reverser_solution_basis", basis)
        monkeypatch.setattr(np.linalg, "inv", inv)
        rep = reverser_oracle(t, GROUP_SOO, budget=0)
        assert rep.regular and rep.exact and rep.samples_used == 0
        assert basis.call_count == 0 and inv.call_count == 0

    def test_so_oracle_rejects_det_minus_one(self, monkeypatch):
        eig = Mock(wraps=lapack.eig)
        monkeypatch.setattr(lapack, "eig", eig)
        with pytest.raises(NotSpecialOrthogonal):
            reverser_oracle(np.diag([-1.0, 1.0, 1.0]), GROUP_SO, budget=0)
        assert eig.call_count == 0  # refused before any analysis
        assert reverser_oracle(np.diag([-1.0, 1.0, 1.0]), GROUP_O, budget=0).exact

    @pytest.mark.parametrize("group", (GROUP_SOO, GROUP_MO))
    def test_lorentz_oracle_rejects_other_components(self, group):
        m = np.diag([-1.0, 1.0, 1.0, 1.0])
        m[1:3, 1:3] = block_rotation(1.0)
        t = lorentz(m)
        with pytest.raises(NotInIdentityComponent, match="outside SO_o"):
            reverser_oracle(t, group, budget=0)
        assert not t._analyses  # refused before any analysis

    def test_unknown_group_is_invalid(self, rng):
        t = random_isometry(rng, 3, "elliptic")
        with pytest.raises(InvalidArg, match="unknown group 'SOo'"):
            reverser_oracle(t, "SOo", budget=0)

    def test_negative_budget_is_invalid_before_any_analysis(self, rng, monkeypatch):
        t = random_isometry(rng, 3, "elliptic")
        eig = Mock(wraps=lapack.eig)
        monkeypatch.setattr(lapack, "eig", eig)
        for x, group in ((t, GROUP_SOO), (np.eye(3), GROUP_O)):
            with pytest.raises(InvalidArg, match="negative budget -5"):
                reverser_oracle(x, group, budget=-5)
        assert eig.call_count == 0 and not t._analyses
