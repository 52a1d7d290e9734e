"""Inputs on the conditioning tail: a wide conjugator must meet either a
verified answer or an honest refusal, never an internal error that a
rounding-bound check manufactured."""

import numpy as np
import pytest

from conftest import block_rotation, boost_matrix, maxabs
from hypiso.classify import classify
from hypiso.errors import Borderline, HypisoError
from hypiso.quadspace import Component, QuadraticSpace, classify_membership, matrix_to_json
from hypiso.reality import _check_certificate, is_real_SOo_n1
from test_cli import run_subprocess

# A parabolic of SO_o(3,1) conjugated by a boost of rapidity 3.5 between
# two random rotations (entries up to 9.2e2).  Its constructed reverser is
# an involution in SO_o(3,1) that reverses T within 1e-8, but S T S^-1 -
# T^-1 with both inverses from np.linalg.inv reads 4e-8 from rounding alone.
WIDE_PARABOLIC = np.array([
    [0.37998521678227204, 34.05302261717556, -28.837000409531, 44.61306233324646],
    [-2.639124358572491, -396.9070461354316, 351.5416816670375, -530.2100736487589],
    [3.220591636429874, 297.4035376491273, -263.5906259787427, 397.41446189157483],
    [4.059750809301697, 497.13446453402867, -440.3318574050411, 664.1176868973921],
])


def j_transpose(m):
    """J M^T J: the inverse of a Lorentz matrix, formed without inversion."""
    j = np.ones(m.shape[0])
    j[-1] = -1.0
    return (j[:, None] * m.T) * j[None, :]


class TestReverserCheck:
    def test_wide_parabolic_gets_a_verified_reverser(self):
        t = classify_membership(QuadraticSpace(3), WIDE_PARABOLIC)
        cert = is_real_SOo_n1(t)
        assert cert.decision and cert.involution
        s = cert.reverser
        assert classify_membership(t.space, s, 1e-8).component is Component.SO_o
        assert maxabs(s @ s - np.eye(4)) <= 1e-8
        assert maxabs(s @ t.entries - j_transpose(t.entries) @ s) <= 1e-8

    @pytest.mark.parametrize("lorentzian", (True, False))
    def test_reverser_that_is_not_an_involution_raises(self, lorentzian):
        # T rotates the first plane and fixes the rest; S reflects that
        # plane, so S T S^-1 = T^-1, and acts on the fixed part by a boost
        # (Lorentz) or a rotation (orthogonal), so S^2 != I
        t = block_rotation(0.8, pad=2)
        s = np.diag([1.0, -1.0, 1.0, 1.0])
        if lorentzian:
            s[2:, 2:] = boost_matrix(1, 0.3)
            signs = np.array([1.0, 1.0, 1.0, -1.0])
            assert maxabs(s @ t - j_transpose(t) @ s) <= 1e-12
        else:
            s[2:, 2:] = block_rotation(0.3)
            signs = np.ones(4)
            assert maxabs(s @ t - t.T @ s) <= 1e-12
        with pytest.raises(HypisoError, match="not an involution"):
            _check_certificate(s, t, signs)


# A parabolic of SO_o(3,1) under a wide conjugator whose computed spectrum,
# read at delta = 3e-8, passes for a stretch pair with a non-real dominant
# eigenvalue: draw 12 of random_isometry(default_rng(0), 3, "parabolic",
# conj_scale=1.5) when the sampler's exponential was scipy.linalg.expm,
# frozen because any other exponential rounds every draw differently.
STRETCH_BORDERLINE = np.array([
    [0.9722360603672702, -0.04613983674426688, 0.3289103925862597, -0.23569872287416987],
    [0.18920934346463322, 0.8156882270313885, -0.5768808630979367, 0.18422537713524634],
    [-0.4565851666604151, 0.9058393464589475, 0.8532192463450753, 0.8700563305562791],
    [-0.43533107762614587, 0.6985850627130806, 0.4110433783598348, 1.3588564662562372],
])


def stretch_borderline_element():
    return classify_membership(QuadraticSpace(3), STRETCH_BORDERLINE, 1e-8)


class TestStretchBorderline:
    def test_classify_refuses(self):
        with pytest.raises(Borderline, match=r"\|Im lambda\|.*delta \* \|lambda\|"):
            classify(stretch_borderline_element(), 3e-8)

    def test_cli_exits_3_without_traceback(self, tmp_path):
        path = tmp_path / "t.json"
        path.write_text(matrix_to_json(stretch_borderline_element().entries) + "\n")
        proc = run_subprocess("-m", "hypiso.cli", "classify", str(path), "--delta", "3e-8")
        assert proc.returncode == 3
        assert proc.stderr.startswith("undecided:")
        assert "Traceback" not in proc.stderr
