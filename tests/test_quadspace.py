import numpy as np
import pytest

from conftest import block_rotation, boost_matrix, lorentz, maxabs
from hypiso.errors import (
    AmbiguousComponent,
    DependentBasis,
    DimensionMismatch,
    NotAnIsometry,
    ZeroVector,
)
from hypiso.quadspace import (
    CausalType,
    Component,
    QuadraticSpace,
    causal_type,
    classify_membership,
    form_residual,
    group_inverse,
    is_orthogonal,
    matrix_from_json,
    matrix_to_json,
    q_value,
    subspace_type,
)
from hypiso.frames import _group_reversal_residual, _standard_unipotent
from hypiso.sampling import random_orthogonal, random_soo


def basis_vector(dim, i):
    v = np.zeros(dim)
    v[i] = 1.0
    return v


class TestFormValues:
    def test_time_axis(self):
        sp = QuadraticSpace(3)
        assert q_value(sp, basis_vector(4, 3)) == -1.0

    def test_space_axis(self):
        sp = QuadraticSpace(3)
        assert q_value(sp, basis_vector(4, 0)) == 1.0

    def test_null_vector(self):
        sp = QuadraticSpace(3)
        assert q_value(sp, basis_vector(4, 0) + basis_vector(4, 3)) == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            q_value(QuadraticSpace(3), np.ones(3))


class TestCausalType:
    def test_trichotomy(self):
        sp = QuadraticSpace(2)
        assert causal_type(sp, [0, 0, 1]) is CausalType.TIME_LIKE
        assert causal_type(sp, [1, 0, 0]) is CausalType.SPACE_LIKE
        assert causal_type(sp, [1, 0, 1]) is CausalType.LIGHT_LIKE

    def test_zero_vector_rejected(self):
        with pytest.raises(ZeroVector):
            causal_type(QuadraticSpace(2), np.zeros(3))

    def test_invariance_under_identity_component(self, rng):
        sp = QuadraticSpace(3)
        vectors = [
            np.array([0.0, 0.0, 0.0, 1.0]),
            np.array([1.0, 2.0, 0.5, 0.2]),
            np.array([0.3, 0.0, 0.0, 2.0]),
        ]
        for _ in range(20):
            w = random_soo(rng, 3)
            for v in vectors:
                assert causal_type(sp, w @ v) is causal_type(sp, v)


class TestSubspaceType:
    def test_time_like_plane(self):
        sp = QuadraticSpace(3)
        assert subspace_type(sp, [basis_vector(4, 0), basis_vector(4, 3)]) is CausalType.TIME_LIKE

    def test_space_like_plane(self):
        sp = QuadraticSpace(3)
        assert subspace_type(sp, [basis_vector(4, 0), basis_vector(4, 1)]) is CausalType.SPACE_LIKE

    def test_light_like_ray(self):
        sp = QuadraticSpace(3)
        assert subspace_type(sp, [basis_vector(4, 0) + basis_vector(4, 3)]) is CausalType.LIGHT_LIKE

    def test_degenerate_plane(self):
        sp = QuadraticSpace(3)
        null = basis_vector(4, 0) + basis_vector(4, 3)
        assert subspace_type(sp, [null, basis_vector(4, 1)]) is CausalType.DEGENERATE

    def test_dependent_basis_rejected(self):
        sp = QuadraticSpace(3)
        v = basis_vector(4, 1)
        with pytest.raises(DependentBasis):
            subspace_type(sp, [v, 2 * v])


class TestMembership:
    def test_identity_is_identity_component(self):
        for n in (1, 2, 5):
            t = classify_membership(QuadraticSpace(n), np.eye(n + 1))
            assert t.component is Component.SO_o

    def test_form_matrix_is_time_reversal(self):
        # J itself: det -1, flips the sheet
        sp = QuadraticSpace(4)
        t = classify_membership(sp, sp.form_matrix)
        assert t.component is Component.O_minus_swapping

    def test_double_flip_is_so_swap(self):
        sp = QuadraticSpace(4)
        m = np.diag([1.0, 1.0, 1.0, -1.0, -1.0])
        assert classify_membership(sp, m).component is Component.SO_swap

    def test_space_reflection_preserves_sheet(self):
        sp = QuadraticSpace(3)
        m = np.diag([-1.0, 1.0, 1.0, 1.0])
        assert classify_membership(sp, m).component is Component.O_minus_preserving

    def test_not_an_isometry(self):
        with pytest.raises(NotAnIsometry):
            classify_membership(QuadraticSpace(2), 2.0 * np.eye(3))

    def test_ambiguous_component_on_corrupt_input(self):
        # only reachable with a huge tolerance: a "matrix" passing the
        # form check whose sheet entry carries no sign information
        sp = QuadraticSpace(1)
        m = np.array([[1.0, 0.0], [0.0, 1e-15]])
        with pytest.raises(AmbiguousComponent):
            classify_membership(sp, m, eps=10.0)

    def test_inverse_stays_in_component(self, rng):
        sp = QuadraticSpace(3)
        t = lorentz(boost_matrix(3, 0.8) @ block_rotation(0.7, pad=2))
        tinv = t.inverse()
        resid = maxabs(t.entries @ tinv.entries - np.eye(4))
        assert resid < 1e-12
        assert tinv.component is t.component


class TestLorentzMatrixMethods:
    def test_product_entries_and_component(self):
        sp = QuadraticSpace(3)
        a = lorentz(boost_matrix(3, 0.8) @ block_rotation(0.7, pad=2))
        b = classify_membership(sp, np.diag([-1.0, 1.0, 1.0, 1.0]))
        prod = a @ b
        assert np.array_equal(prod.entries, a.entries @ b.entries)
        assert prod.component is Component.O_minus_preserving
        assert prod.component is a.component.compose(b.component)
        assert (b @ b).component is Component.SO_o

    def test_product_of_different_sizes_raises(self):
        a = lorentz(np.eye(4))
        b = lorentz(np.eye(5))
        with pytest.raises(DimensionMismatch):
            a @ b

    def test_array_is_a_writable_copy(self):
        t = lorentz(boost_matrix(3, 0.4))
        m = np.asarray(t)
        assert np.array_equal(m, t.entries)
        m[0, 0] = 7.0
        assert t.entries[0, 0] == 1.0 and not t.entries.flags.writeable

    def test_n_is_the_spatial_dimension(self):
        for n in (1, 3, 6):
            assert lorentz(np.eye(n + 1)).n == n


class TestGroupEquations:
    """form_residual and group_inverse are the one definition of each
    group equation: stacked calls equal per-matrix calls bit for bit, and
    all-ones signs give the residual is_orthogonal gates."""

    def stack(self, rng, n, count=6):
        sp = QuadraticSpace(n)
        ms = np.stack([random_soo(rng, n) for _ in range(count)])
        ms[1] += 1e-6 * rng.standard_normal((n + 1, n + 1))
        return sp.form_signs, ms

    @pytest.mark.parametrize("n", (2, 3, 5, 9))
    def test_stacked_form_residual_is_per_matrix(self, rng, n):
        j, ms = self.stack(rng, n)
        resid = form_residual(ms, j)
        assert resid.shape == (len(ms),)
        for m, r in zip(ms, resid):
            assert form_residual(m, j) == r
            assert np.abs(m.T @ np.diag(j) @ m - np.diag(j)).max() == r
        ones = np.ones(n)
        qs = np.stack([random_orthogonal(rng, n) for _ in range(4)])
        assert np.array_equal(form_residual(qs, ones), [form_residual(q, ones) for q in qs])

    @pytest.mark.parametrize("n", (2, 3, 5, 9))
    def test_stacked_reversal_residual_is_per_matrix(self, rng, n):
        j, ss = self.stack(rng, n)
        t = random_soo(rng, n)
        resid = _group_reversal_residual(ss, t, j)
        assert resid.shape == (len(ss),)
        for s, r in zip(ss, resid):
            assert _group_reversal_residual(s, t, j) == r

    def test_group_inverse_of_a_stack(self, rng):
        j, ms = self.stack(rng, 4)
        inv = group_inverse(ms, j)
        for m, mi in zip(ms, inv):
            assert np.array_equal(mi, group_inverse(m, j))
            assert np.array_equal(mi, np.diag(j) @ m.T @ np.diag(j))
        t = lorentz(ms[0])
        assert np.array_equal(t.inverse().entries, inv[0])

    @pytest.mark.parametrize("n", (2, 4, 7))
    def test_is_orthogonal_gates_the_all_ones_residual(self, rng, n):
        m = random_orthogonal(rng, n) + 1e-7 * rng.standard_normal((n, n))
        r = float(form_residual(m, np.ones(n)))
        scale = max(1.0, float(np.abs(m).max()) ** 2)
        assert is_orthogonal(m, r / scale * (1 + 1e-9))
        assert not is_orthogonal(m, r / scale * (1 - 1e-9))


class TestComponentGroupLaw:
    def test_klein_four_table(self):
        flip_det = Component.O_minus_preserving
        flip_sheet = Component.SO_swap
        both = Component.O_minus_swapping
        assert flip_det.compose(flip_det) is Component.SO_o
        assert flip_det.compose(flip_sheet) is both
        assert both.compose(both) is Component.SO_o

    def test_product_labels_on_random_elements(self, rng):
        sp = QuadraticSpace(3)
        reps = {
            Component.SO_o: np.eye(4),
            Component.SO_swap: np.diag([1.0, 1.0, -1.0, -1.0]),
            Component.O_minus_preserving: np.diag([-1.0, 1.0, 1.0, 1.0]),
            Component.O_minus_swapping: np.asarray(sp.form_matrix),
        }
        for _ in range(15):
            w1 = random_soo(rng, 3) @ reps[list(reps)[rng.integers(0, 4)]]
            w2 = random_soo(rng, 3) @ reps[list(reps)[rng.integers(0, 4)]]
            t1 = classify_membership(sp, w1, 1e-8)
            t2 = classify_membership(sp, w2, 1e-8)
            prod = classify_membership(sp, w1 @ w2, 1e-7)
            assert prod.component is t1.component.compose(t2.component)


class TestFormPreservationBound:
    def test_q_preserved_within_stated_constant(self, rng):
        # |Q(Tv) - Q(v)| <= c * resid * |v|^2 with c = dim of the space
        sp = QuadraticSpace(4)
        for _ in range(10):
            w = random_soo(rng, 4)
            t = classify_membership(sp, w, 1e-8)
            resid = 1e-8 * max(1.0, maxabs(w) ** 2)
            for _ in range(5):
                v = rng.standard_normal(5) * 3.0
                drift = abs(q_value(sp, t.entries @ v) - q_value(sp, v))
                assert drift <= sp.dim * resid * float(v @ v)


class TestInterchangeFormat:
    def test_round_trip_is_exact(self, rng):
        m = random_soo(rng, 3)
        space, back = matrix_from_json(matrix_to_json(m))
        assert space.n == 3
        assert np.array_equal(back, m)

    def test_malformed_document_raises_value_error(self):
        with pytest.raises(ValueError):
            matrix_from_json('{"n": 2, "matrix": [1, 2, 3]}')


class TestOverflowingScale:
    def test_huge_entry_is_not_orthogonal(self):
        from hypiso.quadspace import is_orthogonal

        assert is_orthogonal(np.diag([1e300, 1.0])) is False

    def test_huge_entry_is_not_an_isometry(self):
        m = np.eye(3)
        m[0, 0] = 1e300
        with pytest.raises(NotAnIsometry):
            classify_membership(QuadraticSpace(2), m)


class TestSheetEntryGate:
    """The sheet entry of an element of O(n,1) has square >= 1; the form
    residual bounds that square, so the square is what is compared."""

    @pytest.mark.parametrize("rotate", (False, True))
    def test_large_entry_parabolic_is_accepted(self, rotate):
        # unipotent with sheet entry 1 + c^2/2 = 2e8 in the coordinates
        # (0, 8, 9), a rotation in (1, 2), and optionally a rotation of
        # space; the sheet entry is below eps * max|M|^2, and for the
        # rotated matrix np.linalg.det returns about -0.93, not 1
        c = 2e4
        m = np.eye(10)
        m[np.ix_([0, 8, 9], [0, 8, 9])] = _standard_unipotent(c)
        m[1:3, 1:3] = block_rotation(0.7)
        if rotate:
            q = np.eye(10)
            q[:9, :9] = random_orthogonal(np.random.default_rng(9), 9)
            m = q @ m @ q.T
        assert abs(m[9, 9]) <= 1e-8 * np.max(np.abs(m)) ** 2
        t = classify_membership(QuadraticSpace(9), m, 1e-8)
        assert t.component is Component.SO_o
        flipped = m @ np.diag([-1.0] + [1.0] * 9)
        assert classify_membership(QuadraticSpace(9), flipped, 1e-8).component is (
            Component.O_minus_preserving
        )

    def test_sheet_entry_within_the_bound_is_ambiguous(self):
        # passes the form check at the default eps (residual 1 against
        # eps * 1e10), yet its sheet entry squared is far below the bound
        big = 1e5
        m = np.array([[np.sqrt(1.0 + big * big), 0.0], [big, 1e-5]])
        with pytest.raises(AmbiguousComponent, match="indistinguishable from zero"):
            classify_membership(QuadraticSpace(1), m)


class TestSpaceDimension:
    @pytest.mark.parametrize("n", [2.5, 3.0, "3", None, True, False, 0, -1])
    def test_a_dimension_that_is_not_an_integer_at_least_one_is_refused(self, n):
        with pytest.raises(DimensionMismatch,
                           match=r"spatial dimension must be an integer >= 1, got "):
            QuadraticSpace(n)

    @pytest.mark.parametrize("n", [1, 3, np.int64(3), np.int32(9)])
    def test_an_integer_dimension_is_stored_as_int(self, n):
        space = QuadraticSpace(n)
        assert type(space.n) is int and space.n == n and space.dim == n + 1
        assert space == QuadraticSpace(int(n)) and repr(space) == f"QuadraticSpace(n={int(n)})"
