import numpy as np
import pytest

from conftest import block_rotation, boost_matrix, lorentz, maxabs
from hypiso.errors import ClusterAmbiguity, InvalidArg, NotOrthogonal, NotRegular
from hypiso.sampling import random_orthogonal, random_soo
from hypiso.spectral import (
    RotationAngles,
    assemble_rotation,
    eigen_structure,
    is_regular,
    is_semisimple,
    plane_decomposition,
    rotation_angles,
    rotation_matrix,
)

PI = np.pi


def jordan3():
    return np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 1.0], [0.0, 0.0, 1.0]])


class TestEigenStructure:
    def test_identity(self):
        st = eigen_structure(np.eye(3))
        assert len(st.clusters) == 1
        c = st.clusters[0]
        assert (c.algebraic, c.geometric) == (3, 3)
        assert abs(c.value - 1.0) < 1e-12

    def test_quarter_rotation(self):
        st = eigen_structure(block_rotation(PI / 2))
        vals = sorted((c.value.imag, c.algebraic, c.geometric) for c in st.clusters)
        assert vals == [(-1.0, 1, 1), (1.0, 1, 1)]

    def test_jordan_block(self):
        # defective eigenvalues scatter like the cube root of machine
        # epsilon, so the caller picks delta above that scatter
        st = eigen_structure(jordan3(), delta=1e-4)
        assert len(st.clusters) == 1
        c = st.clusters[0]
        assert (c.algebraic, c.geometric) == (3, 1)

    def test_cluster_ambiguity(self):
        with pytest.raises(ClusterAmbiguity):
            eigen_structure(np.diag([1.0, 1.0 + 1.5e-7]), delta=1e-7)


class TestSemisimplicity:
    def test_orthogonal_matrices_are_semisimple(self, rng):
        for n in (2, 3, 5):
            assert is_semisimple(random_orthogonal(rng, n))

    def test_jordan_block_is_not(self):
        assert not is_semisimple(jordan3(), delta=1e-4)

    def test_diagonal_stretch(self):
        assert is_semisimple(np.diag([2.0, 0.5]))


class TestRotationAngles:
    def test_two_blocks(self):
        ra = rotation_angles(block_rotation(PI / 3, PI / 2))
        assert ra.angles == pytest.approx((PI / 2, PI / 3))
        assert ra.k == 2 and not ra.reflection

    def test_negative_angle_maps_into_canonical_interval(self):
        ra = rotation_angles(block_rotation(-PI / 3))
        assert ra.angles == pytest.approx((PI / 3,))

    def test_identity_is_zero_rotation(self):
        ra = rotation_angles(np.eye(4))
        assert ra.angles == () and ra.k == 0

    def test_minus_identity_pairs_into_pi(self):
        ra = rotation_angles(-np.eye(4))
        assert ra.angles == pytest.approx((PI, PI))
        assert not ra.reflection

    def test_odd_minus_one_sets_reflection_flag(self):
        ra = rotation_angles(np.diag([-1.0, 1.0, 1.0]))
        assert ra.angles == () and ra.reflection

    def test_rejects_non_orthogonal(self):
        with pytest.raises(NotOrthogonal):
            rotation_angles(np.diag([2.0, 0.5]))

    def test_lorentz_input_reads_unit_spectrum(self):
        t = lorentz(block_rotation(0.7, pad=2) @ boost_matrix(3, 0.9))
        ra = rotation_angles(t)
        assert ra.angles == pytest.approx((0.7,))

    def test_inverse_invariance(self, rng):
        for _ in range(10):
            a = random_orthogonal(rng, 5)
            assert rotation_angles(a).angles == pytest.approx(
                rotation_angles(a.T).angles
            )

    def test_conjugation_invariance(self, rng):
        a = block_rotation(1.1, 0.4, pad=1)
        for _ in range(10):
            r = random_orthogonal(rng, 5)
            assert rotation_angles(r @ a @ r.T).angles == pytest.approx(
                rotation_angles(a).angles, abs=1e-9
            )

    def test_lorentz_conjugation_invariance(self, rng):
        t = block_rotation(1.2, pad=2) @ boost_matrix(3, 0.6)
        for _ in range(10):
            w = random_soo(rng, 3)
            conj = lorentz(w @ t @ np.linalg.inv(w))
            assert rotation_angles(conj).angles == pytest.approx(
                (1.2,), abs=1e-9
            )


class TestPiRule:
    """An angle is pi exactly when it equals np.pi, the value of every -1
    pair."""

    def test_minus_one_pairs_read_as_np_pi(self, rng):
        r = random_orthogonal(rng, 6)
        angles = rotation_angles(r @ block_rotation(PI, PI, 0.8) @ r.T)
        assert angles.angles[:2] == (np.pi, np.pi) and angles.has_pi

    def test_an_angle_next_to_pi_is_not_pi(self):
        assert not RotationAngles((np.nextafter(np.pi, 0.0), 1.0)).has_pi
        assert RotationAngles((np.pi, 1.0)).has_pi


class TestRegularity:
    def test_distinct_angles_regular(self):
        assert is_regular(block_rotation(PI / 3, PI / 2))

    def test_repeated_angle_not_regular(self):
        assert not is_regular(block_rotation(PI / 3, PI / 3))

    def test_single_plane_with_fixed_part(self):
        a = block_rotation(0.9, pad=2)
        assert is_regular(a)
        assert rotation_angles(a).k == 1


def filtered_plane(a, theta, other_angles):
    """Independent invariant-plane oracle: annihilate the other rotation
    planes with their characteristic quadratic factors; what survives of a
    generic vector spans the plane of theta."""
    n = a.shape[0]
    p = np.eye(n)
    for phi in other_angles:
        p = p @ (a @ a - 2.0 * np.cos(phi) * a + np.eye(n))
    rng = np.random.default_rng(12345)
    cols = p @ rng.standard_normal((n, 4))
    q, r = np.linalg.qr(cols)
    keep = [i for i in range(min(r.shape)) if abs(r[i, i]) > 1e-8 * abs(r[0, 0])]
    return q[:, keep]


class TestPlaneDecomposition:
    def test_dim_with_and_without_planes(self):
        assert plane_decomposition(block_rotation(0.7, pad=3)).dim == 5
        bare = plane_decomposition(np.eye(3))
        assert bare.k == 0 and bare.dim == 3

    def test_block_example_canonical_order(self):
        a = block_rotation(PI / 3, PI / 2)
        d = plane_decomposition(a)
        assert d.angles == pytest.approx((PI / 2, PI / 3))
        # canonical order: pi/2 plane first, which lives in coordinates 2,3
        p_first = d.planes[0] @ d.planes[0].T
        expect = np.zeros((4, 4))
        expect[2, 2] = expect[3, 3] = 1.0
        assert maxabs(p_first - expect) < 1e-9

    def test_fixed_subspace(self):
        a = block_rotation(0.8, pad=2)
        d = plane_decomposition(a)
        assert d.fixed_subspace.shape == (4, 2)
        proj = d.fixed_subspace @ d.fixed_subspace.T
        expect = np.diag([0.0, 0.0, 1.0, 1.0])
        assert maxabs(proj - expect) < 1e-9

    def test_refuses_non_regular(self):
        with pytest.raises(NotRegular):
            plane_decomposition(block_rotation(0.7, 0.7))

    def test_refuses_non_orthogonal(self):
        with pytest.raises(NotOrthogonal, match="plane decomposition needs an orthogonal matrix"):
            plane_decomposition(1.01 * block_rotation(0.7))

    def test_refuses_a_leftover_reflection_line(self):
        with pytest.raises(NotRegular, match="leftover reflection line"):
            plane_decomposition(np.diag([-1.0, 1.0, 1.0]))

    def test_restriction_is_positive_rotation(self):
        a = block_rotation(-0.9, 1.3)
        d = plane_decomposition(a)
        for frame, theta in zip(d.planes, d.angles):
            restr = frame.T @ a @ frame
            assert restr[1, 0] > 0
            assert maxabs(restr - np.array(
                [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]
            )) < 1e-9

    def test_conjugated_planes_match_brute_force(self, rng):
        # independent oracle: polynomial filtering of random vectors
        base = block_rotation(PI / 3, PI / 2)
        r = random_orthogonal(rng, 4)
        a = r @ base @ r.T
        d = plane_decomposition(a)
        for theta in d.angles:
            others = [t for t in d.angles if abs(t - theta) > 1e-9]
            oracle_frame = filtered_plane(a, theta, others)
            assert oracle_frame.shape[1] == 2
            mine = [f for f, t in zip(d.planes, d.angles) if abs(t - theta) < 1e-9][0]
            assert maxabs(mine @ mine.T - oracle_frame @ oracle_frame.T) < 1e-8

    def test_reconstruction(self, rng):
        for _ in range(5):
            r = random_orthogonal(rng, 6)
            a = r @ block_rotation(0.5, 1.4, pad=2) @ r.T
            d = plane_decomposition(a)
            rebuilt = assemble_rotation(d.planes, d.angles, d.fixed_subspace)
            assert maxabs(rebuilt - a) <= 1e-8

    def test_pi_plane(self):
        a = block_rotation(PI, 0.8)
        d = plane_decomposition(a)
        assert d.angles == pytest.approx((PI, 0.8))
        rebuilt = assemble_rotation(d.planes, d.angles, d.fixed_subspace)
        assert maxabs(rebuilt - a) <= 1e-9

    def test_planes_mutually_orthogonal(self, rng):
        r = random_orthogonal(rng, 7)
        a = r @ block_rotation(0.4, 1.0, 2.1, pad=1) @ r.T
        d = plane_decomposition(a)
        cols = np.column_stack(list(d.planes) + [d.fixed_subspace])
        assert maxabs(cols.T @ cols - np.eye(7)) < 1e-9


class TestOneRadius:
    """Angles and blocks are read at delta alone, even far below 1e-7."""

    def test_near_pi_rotation_at_small_delta(self):
        # e^{+-i(pi - 5e-8)} lie 5e-8 from -1: a rotation pair at 1e-9
        a = rotation_matrix(PI - 5e-8)
        ra = rotation_angles(a, 1e-9)
        assert ra.k == 1 and not ra.reflection
        assert ra.angles[0] == pytest.approx(PI - 5e-8, abs=1e-15)
        d = plane_decomposition(a, 1e-9)
        assert d.angles == ra.angles
        assert d.k == 1 and d.fixed_subspace.shape == (2, 0)


class TestDeltaDomain:
    """Every orthogonal reader clusters at delta, and refuses a delta that
    is not a finite number > 0 rather than reading a rotation as fixed."""

    BAD = (float("nan"), float("inf"), 0.0, -1.0)

    @pytest.mark.parametrize("delta", BAD)
    def test_orthogonal_readers_refuse(self, delta):
        from hypiso.reality import GROUP_O, GROUP_SO, is_real_On, is_real_SOn, reverser_oracle

        r = block_rotation(1.0, pad=1)
        readers = (
            rotation_angles, plane_decomposition, is_regular, is_real_On, is_real_SOn,
            eigen_structure, is_semisimple,
            lambda m, d: reverser_oracle(m, GROUP_O, budget=0, delta=d),
            lambda m, d: reverser_oracle(m, GROUP_SO, budget=0, delta=d),
        )
        for read in readers:
            with pytest.raises(InvalidArg, match="is not a finite number > 0"):
                read(r, delta)
        assert rotation_angles(r, 1e-7).angles == (1.0,)

    @pytest.mark.parametrize("seed", (77, 199))
    def test_orthogonal_readers_refuse_a_delta_under_the_rounding_of_eig(self, seed):
        # a double -1 and a triple +1: eig splits the +1 off the real axis by
        # ~1e-17, which a delta of 1e-300 read as a rotation pair
        w = random_orthogonal(np.random.default_rng(seed), 5)
        a = w @ np.diag([-1.0, -1.0, 1.0, 1.0, 1.0]) @ w.T
        for delta in (1e-300, 1e-15):
            with pytest.raises(InvalidArg, match=r"is below the floor 1.11022e-15 = d \* u"):
                rotation_angles(a, delta)
        assert rotation_angles(a, 1e-14).angles == (np.pi,)

    def test_lorentz_pass_refuses_an_infinite_delta(self):
        # at delta = inf every modulus is within 1 + delta: a stretch read as elliptic
        from hypiso.classify import classify, fixed_point_class

        t = lorentz(boost_matrix(3, 0.5))
        for read in (classify, fixed_point_class, rotation_angles):
            with pytest.raises(InvalidArg, match="delta inf is not a finite number > 0"):
                read(t, float("inf"))
