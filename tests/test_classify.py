import numpy as np
import pytest

from conftest import block_rotation, boost_matrix, lorentz, maxabs
from hypiso.classify import (
    EllipticPoint,
    EllipticSphere,
    FixedPointClass,
    HyperbolicPair,
    ParabolicPoint,
    boundary_fixed_points,
    boundary_point_of_ray,
    classify,
    fixed_point_class,
    lift_boundary_point,
    poincare_extend,
    stretch_factor,
)
from hypiso.errors import Borderline, NonpositiveScale, NotHyperbolic, NotOrthogonal
from hypiso.frames import (
    KRotation,
    KRotatoryStretch,
    KRotatoryTranslation,
    normal_form,
    reconstruct_from_normal_form,
    standard_position_matrix,
)
from hypiso.sampling import random_isometry, random_soo
from hypiso.spectral import null_space_at

PI = np.pi


def conjugate(t, w):
    return lorentz(w @ np.asarray(t) @ np.linalg.inv(w))


class TestFixedPointClass:
    def test_elliptic_block(self):
        t = lorentz(block_rotation(0.9, pad=2))  # fixes the time axis
        assert fixed_point_class(t) is FixedPointClass.ELLIPTIC

    def test_boost_is_hyperbolic(self):
        t = lorentz(boost_matrix(2, 0.5))
        assert fixed_point_class(t) is FixedPointClass.HYPERBOLIC

    def test_null_translation_is_parabolic(self):
        # extension of x -> x + e1; the (x-1)^3 block shows in the rank gap
        t = poincare_extend(1.0, np.eye(2), np.array([1.0, 0.0]))
        assert fixed_point_class(t) is FixedPointClass.PARABOLIC
        n1 = t.entries - np.eye(4)
        k1 = null_space_at(n1, 1e-9).shape[1]
        k2 = null_space_at(n1 @ n1, 1e-14).shape[1]
        assert (k1, k2) == (2, 3)  # one Jordan chain of length 3

    def test_parabolic_survives_conjugation(self, rng):
        t = poincare_extend(1.0, np.eye(2), np.array([1.0, 0.0]))
        for _ in range(5):
            w = random_soo(rng, 3)
            assert fixed_point_class(conjugate(t.entries, w)) is FixedPointClass.PARABOLIC

    def test_borderline_boost(self):
        t = lorentz(boost_matrix(2, 5e-8), eps=1e-6)
        with pytest.raises(Borderline):
            fixed_point_class(t)


class TestStretchFactor:
    def test_boost(self):
        assert stretch_factor(lorentz(boost_matrix(2, 0.5))) == pytest.approx(np.exp(0.5))

    def test_unit_normalization(self):
        # boost(-s) has the same stretch as boost(s)
        assert stretch_factor(lorentz(boost_matrix(2, -0.5))) == pytest.approx(np.exp(0.5))

    def test_commuting_rotation_block(self):
        t = lorentz(block_rotation(1.1, pad=2) @ boost_matrix(3, 0.8))
        assert stretch_factor(t) == pytest.approx(np.exp(0.8))

    def test_rejects_elliptic(self):
        with pytest.raises(NotHyperbolic):
            stretch_factor(lorentz(block_rotation(0.9, pad=2)))


class TestBoundaryFixedPoints:
    def test_boost_pair(self):
        t = lorentz(boost_matrix(2, 0.7))
        data = boundary_fixed_points(t)
        assert isinstance(data, HyperbolicPair)
        a, b = data.as_sorted()
        assert np.allclose(a, [0.0, -1.0, 1.0], atol=1e-10)
        assert np.allclose(b, [0.0, 1.0, 1.0], atol=1e-10)

    def test_parabolic_single_ray(self):
        t = poincare_extend(1.0, np.eye(2), np.array([1.0, 0.0]))
        data = boundary_fixed_points(t)
        assert isinstance(data, ParabolicPoint)
        assert np.allclose(data.point, [0.0, 0.0, -1.0, 1.0], atol=1e-9)
        assert data.point[-1] == pytest.approx(1.0)

    def test_elliptic_fixed_sphere(self):
        # rotation of H^2: fixed set = ker(T - I) = span(e2, e3), a 0-sphere
        t = lorentz(block_rotation(0.8, pad=2))
        data = boundary_fixed_points(t)
        assert isinstance(data, EllipticSphere)
        assert data.sphere_dim == 0
        proj = data.frame @ data.frame.T
        assert maxabs(proj - np.diag([0.0, 0.0, 1.0, 1.0])) < 1e-9

    def test_eigen_residuals(self, rng):
        t = random_isometry(rng, 4, "hyperbolic")
        data = boundary_fixed_points(t)
        r = stretch_factor(t)
        assert maxabs(t.entries @ data.attracting - r * data.attracting) <= 1e-8
        assert maxabs(t.entries @ data.repelling - data.repelling / r) <= 1e-8

    @pytest.mark.parametrize("n,seed", ((2, 0), (4, 0), (4, 1), (6, 2)))
    def test_full_rotation_is_the_reports_fixed_point(self, n, seed):
        t = random_isometry(np.random.default_rng(seed), n, "elliptic", n // 2)
        data = boundary_fixed_points(t)
        assert isinstance(data, EllipticPoint)
        assert data.to_json_dict() == classify(t).fixed_data.to_json_dict()
        assert maxabs(t.entries @ data.point - data.point) <= 1e-8


class TestClassify:
    def test_elliptic_of_h5(self):
        # two rotation planes + 2-dim fixed part in SO_o(5,1): n = 4, k = 2,
        # fixed sphere of dimension n - 2k = 0
        m = np.eye(6)
        m[:4, :4] = block_rotation(PI / 3, PI / 2)
        rep = classify(lorentz(m))
        assert rep.fixed_class is FixedPointClass.ELLIPTIC
        assert rep.k == 2 and rep.regular
        assert rep.angles.angles == pytest.approx((PI / 2, PI / 3))
        assert isinstance(rep.fixed_data, EllipticSphere)
        assert rep.fixed_data.sphere_dim == 0
        assert rep.stretch is None

    def test_hyperbolic_with_rotation(self):
        t = lorentz(block_rotation(1.0, pad=2) @ boost_matrix(3, 0.6))
        rep = classify(t)
        assert rep.fixed_class is FixedPointClass.HYPERBOLIC
        assert rep.k == 1 and rep.stretch == pytest.approx(np.exp(0.6))

    def test_parabolic_report(self):
        t = poincare_extend(1.0, np.eye(2), np.array([1.0, 0.0]))
        rep = classify(t)
        assert rep.fixed_class is FixedPointClass.PARABOLIC
        assert rep.k == 0 and rep.stretch is None

    def test_full_rotation_elliptic_point(self):
        # 2k = n+1 forces a unique interior fixed point (n odd)
        m = np.eye(5)
        m[:4, :4] = block_rotation(0.7, 1.9)
        rep = classify(lorentz(m))
        assert isinstance(rep.fixed_data, EllipticPoint)
        p = rep.fixed_data.point
        assert np.allclose(p, [0, 0, 0, 0, 1.0], atol=1e-10)

    def test_identity(self):
        rep = classify(lorentz(np.eye(4)))
        assert rep.fixed_class is FixedPointClass.ELLIPTIC
        assert rep.k == 0 and rep.regular

    def test_trichotomy_stable_under_conjugation(self, rng):
        for cls in ("elliptic", "parabolic", "hyperbolic"):
            t = random_isometry(rng, 4, cls)
            rep = classify(t)
            for _ in range(3):
                w = random_soo(rng, 4)
                rep2 = classify(conjugate(t.entries, w))
                assert rep2.fixed_class is rep.fixed_class
                assert rep2.k == rep.k
                assert rep2.angles.angles == pytest.approx(rep.angles.angles, abs=1e-8)

    def test_inverse_has_same_invariants(self, rng):
        t = random_isometry(rng, 5, "hyperbolic")
        rep, rep_inv = classify(t), classify(t.inverse())
        assert rep_inv.fixed_class is rep.fixed_class
        assert rep_inv.k == rep.k
        assert rep_inv.angles.angles == pytest.approx(rep.angles.angles, abs=1e-9)
        assert rep_inv.stretch == pytest.approx(rep.stretch)


class TestPoincareExtend:
    def test_identity(self):
        t = poincare_extend(1.0, np.eye(3))
        assert maxabs(t.entries - np.eye(5)) < 1e-12

    def test_pure_dilation_is_hyperbolic(self):
        t = poincare_extend(3.0, np.eye(2))
        rep = classify(t)
        assert rep.fixed_class is FixedPointClass.HYPERBOLIC
        assert rep.stretch == pytest.approx(3.0)
        assert rep.k == 0

    def test_dilation_below_one_normalizes(self):
        t = poincare_extend(0.25, np.eye(2))
        assert stretch_factor(t) == pytest.approx(4.0)

    def test_translation_is_parabolic(self):
        t = poincare_extend(1.0, np.eye(3), np.array([0.0, 1.0, 0.0]))
        rep = classify(t)
        assert rep.fixed_class is FixedPointClass.PARABOLIC and rep.k == 0

    def test_boundary_action_matches(self, rng):
        a = block_rotation(0.8, pad=1)
        b = np.array([0.4, -0.2, 1.1])
        r = 1.7
        t = poincare_extend(r, a, b)
        sp = t.space
        for _ in range(5):
            p = rng.standard_normal(3)
            image = t.entries @ lift_boundary_point(sp, p)
            q = boundary_point_of_ray(sp, image)
            assert np.allclose(q, r * (a @ p) + b, atol=1e-10)

    def test_infinity_ray_behavior(self):
        t = poincare_extend(2.0, np.eye(2))
        sp = t.space
        inf_ray = np.array([0.0, 0.0, -1.0, 1.0])
        image = t.entries @ inf_ray
        assert maxabs(image - 2.0 * inf_ray) < 1e-12  # attracting at infinity
        assert boundary_point_of_ray(sp, image) is None

    def test_rejects_bad_input(self):
        with pytest.raises(NotOrthogonal):
            poincare_extend(1.0, np.diag([2.0, 1.0]))
        with pytest.raises(NonpositiveScale):
            poincare_extend(-1.0, np.eye(2))

    def test_parabolic_translation_criterion(self):
        # Ax + b extends to a parabolic iff b meets ker(A - I)
        a = block_rotation(0.9, pad=1)
        parab = poincare_extend(1.0, a, np.array([0.0, 0.0, 1.0]))
        assert fixed_point_class(parab) is FixedPointClass.PARABOLIC
        # b inside the rotation plane: a fixed point exists, so elliptic
        ell = poincare_extend(1.0, a, np.array([0.3, -0.4, 0.0]))
        assert fixed_point_class(ell) is FixedPointClass.ELLIPTIC


class TestNormalForm:
    def test_standard_hyperbolic_reads_off(self):
        # standard position = the extension of x -> rAx (attracting at
        # infinity), where the conjugator commutes with T: it is not
        # canonical, and may turn inside the rotation plane
        t = poincare_extend(np.exp(0.7), block_rotation(1.2))
        nf = normal_form(t)
        assert isinstance(nf.variant, KRotatoryStretch)
        assert nf.variant.stretch == pytest.approx(np.exp(0.7))
        assert maxabs(nf.variant.rotation - block_rotation(1.2)) < 1e-9
        w, tm = nf.conjugator.entries, t.entries
        assert maxabs(w @ tm - tm @ w) <= 1e-12
        std = standard_position_matrix(t.space, nf.variant)
        assert maxabs(w @ tm @ nf.conjugator.inverse().entries - std) <= 1e-12

    def test_identity_is_empty_rotation(self):
        nf = normal_form(lorentz(np.eye(4)))
        assert isinstance(nf.variant, KRotation)
        assert nf.variant.angles == ()

    def test_round_trip_all_classes(self, rng):
        for cls in ("elliptic", "parabolic", "hyperbolic"):
            for _ in range(5):
                t = random_isometry(rng, 4, cls)
                nf = normal_form(t)
                rebuilt = reconstruct_from_normal_form(nf)
                assert maxabs(rebuilt - t.entries) <= 1e-8, cls

    def test_invariance_of_parameters(self, rng):
        t = random_isometry(rng, 5, "hyperbolic", k=2)
        nf = normal_form(t)
        for _ in range(3):
            w = random_soo(rng, 5)
            nf2 = normal_form(conjugate(t.entries, w))
            assert nf2.variant.stretch == pytest.approx(nf.variant.stretch)
            assert np.allclose(
                sorted(nf2.variant.angles), sorted(nf.variant.angles), atol=1e-8
            )

    def test_parabolic_translation_part_stays_nonzero(self, rng):
        for _ in range(5):
            t = random_isometry(rng, 4, "parabolic")
            nf = normal_form(t)
            assert isinstance(nf.variant, KRotatoryTranslation)
            a, b = nf.variant.rotation, nf.variant.translation
            kernel = null_space_at(a - np.eye(a.shape[0]), 1e-9)
            assert float(np.linalg.norm(kernel.T @ b)) > 1e-9
