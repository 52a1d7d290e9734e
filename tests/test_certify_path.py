"""The certify path: the scale read from the corner entry, the reverser's
component read from its own certificate check, certificate gates that a
NaN residual cannot pass, and the characteristic-polynomial gate, which
refuses where both spectra are lost to rounding."""

import re
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from conftest import boost_matrix, lorentz, spy
from hypiso import classify, frames, lapack, quadspace, spectral
from hypiso.classify import FixedPointClass, _elliptic_fixed_vector, _parabolic_ray
from hypiso.conjugacy import Relation, _char_poly, _reciprocity_defect, conjugate_in_Mn
from hypiso.errors import Borderline, HypisoError
from hypiso.frames import _lorentz_structure
from hypiso.quadspace import (
    Component,
    QuadraticSpace,
    _component,
    classify_membership,
    matrix_to_json,
)
from hypiso.reality import is_real_SOo_n1
from hypiso.sampling import random_orthogonal, standard_isometry
from hypiso.spectral import _LorentzSpectrum
from test_cli import run_subprocess

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import gen  # noqa: E402  (the benchmark's numpy-only input generator)


def reflection(n):
    """diag(-1, 1, ..., 1): determinant -1, preserves the sheets."""
    m = np.eye(n + 1)
    m[0, 0] = -1.0
    return m


def components(t):
    """t composed with an element of each of the four components."""
    n = t.shape[0] - 1
    j = np.diag(QuadraticSpace(n).form_signs)
    return [t, reflection(n) @ t, j @ t, reflection(n) @ j @ t]


def conjugator(rng, n, rapidity):
    """R1 B(s) R2, a boost of rapidity s between two random rotations."""
    r1, r2 = np.eye(n + 1), np.eye(n + 1)
    r1[:n, :n], r2[:n, :n] = random_orthogonal(rng, n), random_orthogonal(rng, n)
    return r1 @ boost_matrix(n, rapidity) @ r2


def j_transpose(m):
    j = QuadraticSpace(m.shape[0] - 1).form_signs
    return (j[:, None] * m.T) * j[None, :]


class TestScale:
    @pytest.mark.parametrize("rapidity", (0.1, 1.0, 2.0, 3.5))
    @pytest.mark.parametrize("cls", ("elliptic", "parabolic", "hyperbolic"))
    @pytest.mark.parametrize("n", (3, 5, 9))
    def test_scale_is_the_top_singular_value(self, n, cls, rapidity):
        # an elliptic rotates at least one plane: the identity (k = 0) has
        # T[n, n] = 1 + rounding, whose square root the corner reading sees
        rng = np.random.default_rng([n, len(cls), int(10 * rapidity)])
        g = conjugator(rng, n, rapidity)
        t = g @ standard_isometry(rng, n, cls, 1 if cls == "elliptic" else None) @ j_transpose(g)
        for m in components(t):
            sp = _LorentzSpectrum.of(lorentz(m), 1e-7)
            want = max(1.0, float(np.linalg.svd(m, compute_uv=False)[0]))
            assert abs(sp.scale - want) <= 1e-13 * want

    @pytest.mark.parametrize("corner", (1.0, 1.0 - 2.0**-53))
    def test_corner_at_one_gives_scale_one(self, corner):
        t = np.eye(4)
        t[:2, :2] = [[np.cos(0.5), -np.sin(0.5)], [np.sin(0.5), np.cos(0.5)]]
        t[-1, -1] = corner
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _LorentzSpectrum.of(lorentz(t), 1e-7).scale == 1.0


def eigh_orthonormalization(basis, j):
    """B e diag(w^(-1/2)) e^T from the eigensolve of the J-Gram: the
    reference the closed form of spacelike_complement replaces."""
    w, e = np.linalg.eigh(basis.T @ (j[:, None] * basis))
    return basis @ e @ np.diag(1.0 / np.sqrt(w)) @ e.T


def eigh_fixed_axis(kernel, j):
    """The fixed vector (elliptic) or ray (parabolic) from the eigensolve
    of the kernel's J-Gram: its eigenvector of least |eigenvalue|, the one
    the closed form reads as K z."""
    w, e = np.linalg.eigh(kernel.T @ (j[:, None] * kernel))
    return kernel @ e[:, np.argmin(np.abs(w))], w


def svd_path_blocks(m):
    """The +-1 frames of an orthogonal m with no rotation pair as the SVD
    path built them: U of the n x 0 plane frame, split by one eigh when
    both signs are present or a rotation pair is read as +-1."""
    vals = np.linalg.eig(m)[0]
    a, b = int(np.sum(vals.real > 0)), int(np.sum(vals.real < 0))
    rest = np.linalg.svd(np.empty((len(m), 0)))[0]
    if (a and b) or np.abs(vals.imag).max() > 0:
        e = np.linalg.eigh(rest.T @ (m + m.T) @ rest)[1]
        rest = rest @ np.concatenate([e[:, b:], e[:, :b][:, ::-1]], axis=1)
    return rest[:, :a], rest[:, a:]


@pytest.fixture(scope="module")
def certify_splittings():
    """(pass, splitting) of every element of the benchmark's certify items."""
    out = []
    for item in gen.certify_items(7):
        sp = _LorentzSpectrum.of(classify_membership(QuadraticSpace(item.n), item.matrix), 1e-7)
        out.append((sp, _lorentz_structure(sp)))
    return out


class TestClosedFormGrams:
    """Every J-Gram of a Euclidean-orthonormal basis is I - 2 z z^T, z its
    time row, so the complement and the fixed data are read in closed form;
    on the certify items they match the eigensolve they replace."""

    def test_complements(self, certify_splittings):
        for sp, st in certify_splittings:
            j = sp.space.form_signs
            special = st.frame[:, : st.special_dim]
            got = frames.spacelike_complement(special, j)
            gram = got.T @ (j[:, None] * got)
            assert np.abs(gram - np.eye(len(gram))).max() <= 1e-13
            want = eigh_orthonormalization(spectral.null_space_at(special.T * j, 1e-10), j)
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_kernels(self, certify_splittings):
        seen = set()
        for sp, st in certify_splittings:
            if st.cls is FixedPointClass.HYPERBOLIC:  # its kernel is empty
                continue
            j = sp.space.form_signs
            want, w = eigh_fixed_axis(sp.kernel, j)
            # every eigenvalue of the Gram but g is 1
            assert np.sort(np.abs(w - 1.0))[:-1].max(initial=0.0) <= 1e-13
            if st.cls is FixedPointClass.ELLIPTIC:
                got = _elliptic_fixed_vector(sp)
                want = want / np.sqrt(-quadspace.j_inner(j, want, want))
                want = want if want[-1] > 0 else -want
            else:
                got, want = _parabolic_ray(sp), want / want[-1]
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
            seen.add(st.cls)
        assert len(seen) == 2

    def test_a_time_like_complement_raises(self):
        # the complement of a space-like line holds the time direction
        j = QuadraticSpace(3).form_signs
        with pytest.raises(HypisoError, match="not space-like") as info:
            frames.spacelike_complement(np.eye(4)[:, :1], j)
        assert type(info.value) is HypisoError

    def test_no_rotation_pair_equals_the_svd_path(self, monkeypatch, certify_splittings):
        svd = spy(monkeypatch, lapack, "svd")
        seen = 0
        for sp, st in certify_splittings:
            if st.blocks.p:
                continue
            j = sp.space.form_signs
            w_frame = frames.spacelike_complement(st.frame[:, : st.special_dim], j)
            t_o = frames.restrict_to_frame(sp.entries, w_frame, np.ones(w_frame.shape[1]), j)
            svd.reset_mock()
            blocks = spectral.invariant_plane_frames(t_o, sp.delta)
            assert svd.call_count == 0
            fix, neg = svd_path_blocks(t_o)
            assert blocks.fix_frame.tobytes() == fix.tobytes()
            assert blocks.neg_frame.tobytes() == neg.tobytes()
            seen += 1
        assert seen > 50


@pytest.fixture(scope="module")
def certify_reversers():
    """The reverser of every element of the benchmark's certify items."""
    out = []
    for item in gen.certify_items(7):
        cert = is_real_SOo_n1(classify_membership(QuadraticSpace(item.n), item.matrix))
        if cert.decision:
            out.append(cert.reverser)
    return out


def test_diagonal_frame_map_equals_the_dense_product(monkeypatch):
    # a reverser's +-1 diagonal D goes to frame_map as a list, which scales
    # the frame's columns: bit for bit the product by np.diag(D), signed
    # zeros included
    maps = spy(monkeypatch, frames, "frame_map")
    seen = 0
    for item in gen.certify_items(7):
        maps.reset_mock()
        cert = is_real_SOo_n1(classify_membership(QuadraticSpace(item.n), item.matrix))
        if not cert.decision:
            continue
        ((out, d, inp, signs, j),) = [c.args for c in maps.call_args_list]
        assert isinstance(d, list) and set(d) <= {1.0, -1.0}
        dense = out @ np.diag(d) @ frames.frame_pinv(inp, signs, j)
        assert cert.reverser.tobytes() == dense.tobytes()
        seen += 1
    assert seen > 500


class TestReverserComponent:
    def test_component_read_equals_membership(self, certify_reversers):
        assert len(certify_reversers) > 500
        for s in certify_reversers:
            space = QuadraticSpace(s.shape[0] - 1)
            for m in components(s):
                read = _component(m[-1, -1], np.linalg.det(m[:-1, :-1]))
                assert read is classify_membership(space, m, 1e-8).component
            assert _component(s[-1, -1], np.linalg.det(s[:-1, :-1])) is Component.SO_o

    def test_stored_splitting_makes_no_membership_call(self, monkeypatch):
        rng = np.random.default_rng(3)
        g = conjugator(rng, 5, 0.4)
        t = lorentz(g @ standard_isometry(rng, 5, "hyperbolic", 1) @ j_transpose(g))
        is_real_SOo_n1(t)
        assert _LorentzSpectrum.of(t, 1e-7).structure is not None
        members = spy(monkeypatch, quadspace, "classify_membership_many")
        cert = is_real_SOo_n1(t)
        assert cert.decision
        assert members.call_count == 0


class TestNanGates:
    """A NaN certificate must fail its gate as an internal error, not pass
    it and reach a membership check that calls it a domain error."""

    def test_reverser(self, monkeypatch):
        t = lorentz(standard_isometry(np.random.default_rng(1), 3, "elliptic", 1))
        monkeypatch.setattr(frames, "frame_map", lambda out, *rest: np.full_like(out, np.nan))
        with pytest.raises(HypisoError, match="left the Lorentz group") as info:
            is_real_SOo_n1(t)
        assert type(info.value) is HypisoError

    def test_conjugator(self, monkeypatch):
        rng = np.random.default_rng(2)
        t1 = lorentz(standard_isometry(rng, 3, "hyperbolic", 1))
        g = conjugator(rng, 3, 0.3)
        t2 = lorentz(g @ t1.entries @ j_transpose(g))
        monkeypatch.setattr(frames, "frame_map", lambda out, *rest: np.full_like(out, np.nan))
        with pytest.raises(HypisoError, match="conjugator residual nan") as info:
            conjugate_in_Mn(t1, t2)
        assert type(info.value) is HypisoError

    def test_flip(self, monkeypatch):
        # an elliptic with a fixed space-like line, conjugated with
        # determinant -1: the conjugator evens out the two orientations
        # with a -1 on that line, so it is still the one frame map
        rng = np.random.default_rng(4)
        t1 = lorentz(standard_isometry(rng, 3, "elliptic", 1))
        g = reflection(3) @ conjugator(rng, 3, 0.3)
        t2 = lorentz(g @ t1.entries @ j_transpose(g))
        assert conjugate_in_Mn(t1, t2).method == "normalform"
        maps = []

        def nan_map(out, *rest):
            maps.append(out)
            return np.full_like(out, np.nan)

        monkeypatch.setattr(frames, "frame_map", nan_map)
        with pytest.raises(HypisoError, match="conjugator residual nan") as info:
            conjugate_in_Mn(t1, t2)
        assert type(info.value) is HypisoError and len(maps) == 1

    def test_conjugator_off_the_group(self, monkeypatch):
        # 1.001 S still conjugates T1 to T2 within the residual gate, but
        # misses the group: an internal error naming the form residual and
        # its gate, not the input-validation NotAnIsometry
        frame_map = frames.frame_map
        monkeypatch.setattr(frames, "frame_map", lambda *args: 1.001 * frame_map(*args))
        failed = 0
        for item in gen.certify_items(7)[:60]:
            space = QuadraticSpace(item.n)
            t1, t2 = classify_membership(space, item.matrix), classify_membership(space, item.partner)
            try:
                answer = conjugate_in_Mn(t1, t2)
            except HypisoError as exc:
                assert type(exc) is HypisoError
                assert re.fullmatch(
                    r"conjugator form residual 2\.0\d\de-03 exceeds its gate \d\.\d{3}e-0[67]", str(exc)
                ), str(exc)
                failed += 1
            else:
                assert answer.related is Relation.NOT_CONJUGATE
        assert failed >= 55


# T = boost(e0, rapidity 25) rotation(e1 e2, 1.0) in SO_o(3,1), and T2 =
# g T g^-1 with g = boost(e1, 0.3) rotation(e0 e1, 0.7): a conjugate pair
# whose stretch, e^25 = 7.2e10, loses both spectra to rounding
def boost(n, i, s):
    m = np.eye(n + 1)
    m[i, i] = m[n, n] = np.cosh(s)
    m[i, n] = m[n, i] = np.sinh(s)
    return m


def rotation(n, i, k, theta):
    m = np.eye(n + 1)
    m[i, i] = m[k, k] = np.cos(theta)
    m[i, k], m[k, i] = -np.sin(theta), np.sin(theta)
    return m


def wide_stretch_pair(rapidity=25.0):
    t = boost(3, 0, rapidity) @ rotation(3, 1, 2, 1.0)
    g = boost(3, 1, 0.3) @ rotation(3, 0, 1, 0.7)
    return t, g @ t @ j_transpose(g)


class TestCharPolyGate:
    def test_vieta_matches_np_poly(self):
        rng = np.random.default_rng(5)
        for n in (3, 5, 9):
            for cls in ("elliptic", "parabolic", "hyperbolic"):
                vals = np.linalg.eigvals(standard_isometry(rng, n, cls))
                want = np.poly(vals)
                got = np.array(_char_poly(vals))
                assert np.max(np.abs(got - want)) <= 1e-13 * max(1.0, np.max(np.abs(want)))

    def test_defect_vanishes_on_a_reciprocal_spectrum(self):
        vals = np.array([4.0, 0.25, np.exp(1j), np.exp(-1j), 1.0, -1.0])
        assert _reciprocity_defect(_char_poly(vals), -1) <= 1e-14
        assert _reciprocity_defect(_char_poly(vals), 1) >= 1.0

    def test_wide_stretch_pair_is_refused(self):
        t1, t2 = (lorentz(m) for m in wide_stretch_pair())
        with pytest.raises(Borderline, match="rounding floor"):
            conjugate_in_Mn(t1, t2)

    def test_wide_stretch_pair_exits_3(self, tmp_path):
        paths = []
        for i, m in enumerate(wide_stretch_pair()):
            paths.append(tmp_path / f"t{i}.json")
            paths[-1].write_text(matrix_to_json(m))
        proc = run_subprocess("-m", "hypiso.cli", "conjugacy", *map(str, paths))
        assert proc.returncode == 3, proc.stdout + proc.stderr
        assert "rounding floor" in proc.stderr

    def test_a_control_at_the_same_stretch_is_not_conjugate(self):
        t1 = lorentz(wide_stretch_pair()[0])
        t2 = lorentz(boost(3, 0, 20.0) @ rotation(3, 1, 2, 1.0))
        answer = conjugate_in_Mn(t1, t2)
        assert answer.related is Relation.NOT_CONJUGATE and answer.method == "kg-thm1.2"


class TestWideStretchAngles:
    """The pair above over its rapidity r: up to r = 22 both elements read
    the one rotation angle 1.0; from r = 25 the partner's rotation pair
    comes back off the unit circle by more than delta, and its reading is
    refused rather than dropped (T itself keeps k = 1).  At r = 16 both
    are refused earlier, at the threshold-ambiguous kernel of T - I."""

    @pytest.mark.parametrize("r", (10.0, 12.0, 14.0, 18.0, 20.0, 22.0))
    def test_both_read_one_angle(self, r):
        for m in wide_stretch_pair(r):
            report = classify(lorentz(m))
            assert report.k == 1 and abs(report.angles.angles[0] - 1.0) <= 1e-7

    @pytest.mark.parametrize("r", (25.0, 28.0, 30.0))
    def test_partner_is_refused(self, r):
        t1, t2 = (lorentz(m) for m in wide_stretch_pair(r))
        assert classify(t1).k == 1
        with pytest.raises(Borderline, match="off the unit circle"):
            classify(t2)

    def test_partner_exits_3(self, tmp_path):
        path = tmp_path / "t2.json"
        path.write_text(matrix_to_json(wide_stretch_pair(25.0)[1]))
        proc = run_subprocess("-m", "hypiso.cli", "classify", str(path))
        assert proc.returncode == 3, proc.stdout + proc.stderr
        assert proc.stderr.startswith("undecided:") and "off the unit circle" in proc.stderr
        assert proc.stdout == ""
