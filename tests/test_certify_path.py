"""The certify path: the scale read from the corner entry, the reverser's
component read from its own certificate check, certificate gates that a
NaN residual cannot pass, and the characteristic-polynomial gate, which
refuses where both spectra are lost to rounding."""

import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from conftest import boost_matrix, lorentz, spy
from hypiso import frames, quadspace
from hypiso.conjugacy import Relation, _char_poly, _reciprocity_defect, conjugate_in_Mn
from hypiso.errors import Borderline, HypisoError
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


def test_column_scaling_equals_the_diagonal_product():
    # orthonormalize_spacelike scales columns in place of multiplying by
    # diag(1 / sqrt(w)): the same products, so the same bits
    rng = np.random.default_rng(6)
    for n in (3, 5, 9):
        basis = rng.standard_normal((n + 1, n - 1))
        basis[-1] *= 0.1
        j = QuadraticSpace(n).form_signs
        w, e = np.linalg.eigh(basis.T @ (j[:, None] * basis))
        want = basis @ e @ np.diag(1.0 / np.sqrt(w)) @ e.T
        assert np.array_equal(frames.orthonormalize_spacelike(basis, j), want)


@pytest.fixture(scope="module")
def certify_reversers():
    """The reverser of every element of the benchmark's certify items."""
    out = []
    for item in gen.certify_items(7):
        cert = is_real_SOo_n1(classify_membership(QuadraticSpace(item.n), item.matrix))
        if cert.decision:
            out.append(cert.reverser)
    return out


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
        # determinant -1: the first conjugator is flipped on that line
        rng = np.random.default_rng(4)
        t1 = lorentz(standard_isometry(rng, 3, "elliptic", 1))
        g = reflection(3) @ conjugator(rng, 3, 0.3)
        t2 = lorentz(g @ t1.entries @ j_transpose(g))
        assert conjugate_in_Mn(t1, t2).method == "reality-clause"
        maps = []
        real_map = frames.frame_map

        def second_is_nan(out, *rest):
            maps.append(out)
            s = real_map(out, *rest)
            return s if len(maps) == 1 else np.full_like(s, np.nan)

        monkeypatch.setattr(frames, "frame_map", second_is_nan)
        with pytest.raises(HypisoError, match="flip failed its residual check") as info:
            conjugate_in_Mn(t1, t2)
        assert type(info.value) is HypisoError and len(maps) == 2


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


def wide_stretch_pair():
    t = boost(3, 0, 25.0) @ rotation(3, 1, 2, 1.0)
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
