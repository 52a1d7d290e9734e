import inspect

import numpy as np
import pytest

from conftest import block_rotation, boost_matrix, lorentz, maxabs
from hypiso.classgeom import (
    BoundaryPair,
    alpha,
    class_descriptor,
    d0,
    descriptor_for,
    dim_decomposition_space,
    dim_rotation_class,
    dim_spaces,
    enumerate_fiber,
    fiber_elements_match_class,
    projection,
    same_decomposition_class,
    subspace_projector,
)
from hypiso.classify import EllipticSphere, boundary_point_of_ray, classify, poincare_extend
from hypiso.errors import InvalidArg, NotRegular, OutOfRange
from hypiso.sampling import random_orthogonal, random_soo
from hypiso.spectral import rotation_angles

PI = np.pi


class TestSheetCounts:
    def test_formula_values(self):
        assert d0(2, False) == 8
        assert d0(2, True) == 4
        assert d0(0, False) == 1
        assert d0(1, False) == 2
        assert d0(1, True) == 1
        assert d0(3, False) == 48
        assert d0(3, True) == 24

    def test_pi_without_planes_rejected(self):
        with pytest.raises(InvalidArg):
            d0(0, True)


class TestDimensions:
    def test_decomposition_space(self):
        assert dim_decomposition_space(0) == 0  # a single point
        assert dim_decomposition_space(1) == 0
        assert dim_decomposition_space(2) == 4

    def test_named_spaces(self):
        assert dim_spaces("Grassmann", 1, 3) == 2
        assert dim_spaces("SphereSpace", 0, 2) == 4
        assert dim_spaces("BoundaryPairs", 2) == 4
        assert dim_spaces("AffineGrassmann", 1, 3) == 4
        assert dim_spaces("Sphere", 5) == 5
        assert dim_spaces("HyperbolicSpace", 4) == 4

    def test_closed_forms_across_range(self):
        for n in range(13):
            for k in range(n + 1):
                assert dim_spaces("Grassmann", k, n) == k * (n - k)
                assert dim_spaces("AffineGrassmann", k, n) == (k + 1) * (n - k)
                assert dim_spaces("SphereSpace", k, n) == (k + 2) * (n - k)
            assert dim_decomposition_space(n) == 2 * n * (n - 1)

    def test_out_of_range(self):
        with pytest.raises(OutOfRange):
            dim_spaces("Grassmann", 4, 3)
        with pytest.raises(OutOfRange):
            dim_spaces("NoSuchSpace", 1)


class TestDescriptors:
    def test_covering_case(self):
        d = descriptor_for("rotation", 2, 4)
        assert d.base.tag == "DecompositionSpace" and d.base.dim == 4
        assert d.sheet_count == 8
        assert d.total_dimension == 4

    def test_cardinality_of_a_finite_fiber_only(self):
        d = descriptor_for("rotation", 2, 4)
        assert d.fiber.tag == "FiniteSet" and d.fiber.cardinality == d0(2, False)
        assert descriptor_for("rotation", 2, 4, has_pi=True).fiber.cardinality == d0(2, True)
        for other in (descriptor_for("rotation", 1, 5), descriptor_for("elliptic", 2, 5),
                      descriptor_for("hyperbolic", 1, 2)):
            assert other.fiber.tag != "FiniteSet" and other.fiber.cardinality is None

    def test_rotation_fibration_case(self):
        d = descriptor_for("rotation", 1, 5)
        assert d.base.tag == "Grassmann" and d.base.params == (3, 5)
        assert d.total_dimension == dim_rotation_class(1, 5)

    def test_elliptic_example(self):
        d = descriptor_for("elliptic", 2, 5)
        assert d.base.tag == "SphereSpace" and d.base.params == (1, 5)
        assert d.fiber.tag == "O_k" and d.fiber.params == (2, 4)
        assert d.total_dimension == 12 + 4

    def test_full_rotation_elliptic(self):
        d = descriptor_for("elliptic", 2, 3)
        assert d.base.tag == "HyperbolicSpace" and d.base.params == (4,)
        assert d.fiber.params == (2, 4)

    def test_hyperbolic_example(self):
        # regular 1-rotatory hyperbolic of H^3: base dimension 4, finite
        # fiber pair of 1-rotation classes of E^2 (dimension 0)
        d = descriptor_for("hyperbolic", 1, 2)
        assert d.base.tag == "BoundaryPairs" and d.base.dim == 4
        assert d.fiber.tag == "O_k_disjoint_union" and d.fiber.dim == 0
        assert d.total_dimension == 4

    def test_hyperbolic_all_stretches(self):
        d = descriptor_for("hyperbolic", 1, 2, fix_stretch=False)
        assert d.fiber.tag == "O_k_times_stretches"
        assert d.total_dimension == 5

    def test_parabolic_example(self):
        d = descriptor_for("parabolic", 1, 2)
        assert d.base.tag == "Sphere" and d.base.dim == 2
        assert d.fiber.tag == "O_k_times_punctured_affine"
        assert d.fiber.dim == 0 + 2
        assert d.total_dimension == 4

    def test_additivity_everywhere(self):
        for n in range(1, 13):
            for k in range(0, n // 2 + 1):
                for tag in ("rotation", "elliptic", "hyperbolic"):
                    if tag == "rotation" and 2 * k > n:
                        continue
                    d = descriptor_for(tag, k, n)
                    assert d.total_dimension == d.base.dim + d.fiber.dim
            for k in range(0, n // 2 + 1):
                d = descriptor_for("parabolic", k, n)
                assert d.total_dimension == d.base.dim + d.fiber.dim
            if n % 2 == 1:
                d = descriptor_for("elliptic", (n + 1) // 2, n)
                assert d.total_dimension == d.base.dim + d.fiber.dim

    def test_from_report(self):
        m = np.eye(6)
        m[:4, :4] = block_rotation(PI / 3, PI / 2)
        rep = classify(lorentz(m))
        d = class_descriptor(rep)
        assert d.base.tag == "SphereSpace" and d.base.params == (0, 4)

    def test_refuses_non_regular(self):
        m = np.eye(6)
        m[:4, :4] = block_rotation(0.9, 0.9)
        rep = classify(lorentz(m))
        with pytest.raises(NotRegular):
            class_descriptor(rep)


class TestAlpha:
    def test_block_rotation_class(self):
        a = block_rotation(PI / 3, PI / 2)
        decomp = alpha(a)
        projs = [subspace_projector(p) for p in decomp.planes]
        expected = [np.diag([0.0, 0.0, 1.0, 1.0]), np.diag([1.0, 1.0, 0.0, 0.0])]
        for p, e in zip(projs, expected):
            assert maxabs(p - e) < 1e-9

    def test_plane_swap_same_class(self):
        a = block_rotation(PI / 3, PI / 2)
        perm = np.eye(4)[[2, 3, 0, 1]]
        assert same_decomposition_class(alpha(a), alpha(perm @ a @ perm.T))

    def test_equivariance_under_conjugation(self, rng):
        a = block_rotation(PI / 3, PI / 2)
        r = random_orthogonal(rng, 4)
        d1 = alpha(r @ a @ r.T)
        d0_ = alpha(a)
        rotated = [r @ p for p in d0_.planes]
        for p, q in zip(rotated, d1.planes):
            assert maxabs(subspace_projector(p) - subspace_projector(q)) < 1e-8

    def test_rejects_fixed_part(self):
        with pytest.raises(InvalidArg):
            alpha(block_rotation(0.7, pad=2))


class TestEnumerateFiber:
    def test_k1_two_orientations(self):
        decomp = alpha(block_rotation(PI / 2))
        elements = enumerate_fiber(decomp, [PI / 2])
        assert len(elements) == 2
        assert any(maxabs(m - block_rotation(PI / 2)) < 1e-12 for m in elements)
        assert any(maxabs(m - block_rotation(-PI / 2)) < 1e-12 for m in elements)

    def test_k1_pi_unique(self):
        decomp = alpha(block_rotation(PI))
        elements = enumerate_fiber(decomp, [PI])
        assert len(elements) == 1
        assert maxabs(elements[0] + np.eye(2)) < 1e-12

    def test_k2_complete_and_distinct(self):
        decomp = alpha(block_rotation(PI / 3, PI / 2))
        elements = enumerate_fiber(decomp, [PI / 2, PI / 3])
        assert len(elements) == d0(2, False) == 8
        for i in range(8):
            for j in range(i + 1, 8):
                assert maxabs(elements[i] - elements[j]) > 1e-6
        assert fiber_elements_match_class(elements, decomp)
        for m in elements:
            assert rotation_angles(m).angles == pytest.approx((PI / 2, PI / 3))

    def test_repeated_angles_rejected(self):
        decomp = alpha(block_rotation(PI / 3, PI / 2))
        with pytest.raises(Exception):
            enumerate_fiber(decomp, [PI / 3, PI / 3])

    def test_only_np_pi_has_one_orientation(self):
        # the angle next to pi is a rotation, not the plane of pi: both
        # orientations, each its own element
        decomp = alpha(block_rotation(PI))
        near = float(np.nextafter(np.pi, 0.0))
        elements = enumerate_fiber(decomp, [near])
        assert len(elements) == d0(1, False) == 2
        assert maxabs(elements[0] - elements[1]) > 0
        assert len(enumerate_fiber(decomp, [np.pi])) == d0(1, True) == 1


def test_tolerances_and_flags_no_caller_sets_are_constants():
    def params(f):
        return list(inspect.signature(f).parameters)

    assert params(boundary_point_of_ray) == ["space", "v"]
    assert params(BoundaryPair.same_pair) == ["self", "other"]
    assert params(same_decomposition_class) == ["d1", "d2"]
    assert params(enumerate_fiber) == ["decomp", "angles"]
    assert params(class_descriptor) == ["report"]


class TestProjection:
    def test_hyperbolic_pair(self):
        t = lorentz(block_rotation(0.9, pad=2) @ boost_matrix(3, 0.8))
        pair = projection(t)
        assert isinstance(pair, BoundaryPair)
        expect = BoundaryPair(
            np.array([0.0, 0.0, 1.0, 1.0]), np.array([0.0, 0.0, -1.0, 1.0])
        )
        assert pair.same_pair(expect)

    def test_parabolic_point(self):
        t = poincare_extend(1.0, block_rotation(0.6, pad=1), np.array([0.0, 0.0, 1.0]))
        point = projection(t)
        assert np.allclose(point, [0.0, 0.0, 0.0, -1.0, 1.0], atol=1e-9)

    def test_elliptic_sphere_frame(self):
        t = lorentz(block_rotation(0.8, pad=2))
        data = projection(t)
        assert isinstance(data, EllipticSphere)
        assert maxabs(
            subspace_projector(data.frame) - np.diag([0.0, 0.0, 1.0, 1.0])
        ) < 1e-9

    def test_euclidean_fixed_subspace(self):
        a = block_rotation(1.1, pad=3)
        frame = projection(a)
        assert frame.shape == (5, 3)
        assert maxabs(a @ frame - frame) < 1e-9

    def test_equivariance(self, rng):
        t = lorentz(block_rotation(0.9, pad=2) @ boost_matrix(3, 0.8))
        w = random_soo(rng, 3)
        moved = lorentz(w @ t.entries @ np.linalg.inv(w))
        pair = projection(moved)
        base = projection(t)
        expect = BoundaryPair(
            w @ base.first / (w @ base.first)[-1],
            w @ base.second / (w @ base.second)[-1],
        )
        assert pair.same_pair(expect)

    def test_refuses_non_regular(self):
        m = np.eye(6)
        m[:4, :4] = block_rotation(0.9, 0.9)
        with pytest.raises(NotRegular):
            projection(lorentz(m))
