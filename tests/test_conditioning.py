"""Inputs on the conditioning tail: a wide conjugator must meet either a
verified answer or an honest refusal, never an internal error that a
rounding-bound check manufactured."""

import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import block_rotation, boost_matrix, lorentz, maxabs
from hypiso.classify import (
    boundary_fixed_points,
    classify,
    fixed_point_class,
    stretch_factor,
)
from hypiso.conjugacy import conjugate_in_Mn, invariant_tuple
from hypiso.errors import Borderline, HypisoError
from hypiso.frames import (
    _check_certificate,
    _lorentz_structure,
    _orthogonal_structure,
    normal_form,
)
from hypiso.quadspace import Component, QuadraticSpace, classify_membership, matrix_to_json
from hypiso.reality import GROUP_SOO, is_real_SOo_n1, reverser_oracle
from hypiso.sampling import random_soo, rotation_with_angles
from hypiso.spectral import DEFAULT_DELTA, _LorentzSpectrum, rotation_angles
from test_cli import run_subprocess

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import gen  # noqa: E402  (the benchmark's numpy-only input generator)

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


def check_reverser(t, cert):
    """The certificate's reverser is an involution of SO_o(n,1) that
    reverses T, each within the 1e-8 gate."""
    s = cert.reverser
    assert cert.decision and cert.involution
    assert classify_membership(t.space, s, 1e-8).component is Component.SO_o
    assert maxabs(s @ s - np.eye(t.space.dim)) <= 1e-8
    assert maxabs(s @ t.entries - j_transpose(t.entries) @ s) <= 1e-8


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
            st = _lorentz_structure(_LorentzSpectrum.of(lorentz(t), DEFAULT_DELTA))
            assert maxabs(s @ t - j_transpose(t) @ s) <= 1e-12
        else:
            s[2:, 2:] = block_rotation(0.3)
            st = _orthogonal_structure(t, DEFAULT_DELTA)
            assert maxabs(s @ t - t.T @ s) <= 1e-12
        with pytest.raises(HypisoError, match="not an involution"):
            _check_certificate(s, t, st, DEFAULT_DELTA)


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


# Elliptics with one rotation angle near 1e-6, conjugated by random_soo at
# scales 0.5 to 2.5, whose kernel of T - I at tau is wider than the angles
# allow: the singular values of T - I on the small rotation's plane fall
# under tau while its eigenvalues stay more than delta off 1.  Frozen draws.
# A full rotation of SO_o(4,1), angles (2.3857, 1.89e-6): ker(T - I) is 3
# wide, and the axis read from it lay 7.9 away from the fixed point.
WIDE_KERNEL_FULL_ROTATION = np.array([
    [-1.4813815572982112, -7.422623044142732, -8.591631629954977, -2.7520208775427766, 11.733694096447898],
    [-3.537727579331445, -20.7481953078423, -20.23802390868031, -8.243222843253129, 30.323777131646693],
    [-5.812053348836949, -25.374584895604034, -24.839748806326376, -9.536589777780623, 37.21033711356305],
    [-1.2490863814874178, -8.05604711797517, -7.415489322826499, -2.056441955500799, 11.165954834618999],
    [-7.003583986931958, -34.54493298848705, -33.97640870444529, -13.026889109068804, 50.67049212463359],
])
# SO_o(5,1), angles (2.667, 3.17e-7): ker(T - I) is 4 wide, a fixed 2-sphere
# where the angles leave a 0-sphere.
WIDE_KERNEL_SPHERE = np.array([
    [0.8574716329281459, -0.3969869391897446, 0.548885583420825, -0.455200302520303, 0.422928135786796, -0.7617132914066758],
    [-0.5382682589663065, -1.1329069921258217, 1.138899219525512, -1.8042697547367827, 1.4511639830377987, -2.6891576110704416],
    [0.34063989582136656, 0.014785659478642217, -1.688538354674545, 0.9623701209080636, -1.226067018453936, 2.0968577712652707],
    [-0.47419100383902624, -1.405950271231722, 1.7005922573466457, -0.5258978492597186, 1.387446853328763, -2.509012677870255],
    [0.39036409498720825, 0.9412381306544245, -1.7185965918358643, 1.2270944037865108, -0.19200103922624048, 2.129439519120231],
    [0.719907697756675, 1.817669079396859, -3.048789409314337, 2.27400134928484, -2.17941703611828, 4.902881356070519],
])


class TestKernelWidth:
    @pytest.mark.parametrize("m,width,counted", (
        (WIDE_KERNEL_FULL_ROTATION, 3, 1), (WIDE_KERNEL_SPHERE, 4, 2),
    ))
    def test_classify_refuses_a_kernel_the_angles_do_not_count(self, m, width, counted):
        t = lorentz(m)
        message = f"has width {width}, the reading of the spectrum counts {counted}"
        with pytest.raises(Borderline, match=message):
            classify(t)
        with pytest.raises(Borderline, match=message):
            boundary_fixed_points(t)


# Elliptics of the same family whose rounded spectrum holds a modulus over
# 1 + delta with no eigenvalue near its inverse.  In SO_o(4,1), angles
# (0.3386, 1.91e-6): it read as Hyperbolic with stretch 1 + 3.0e-7.
UNPAIRED_STRETCH = np.array([
    [-421.36047580151995, 458.89571984049945, -847.861262234701, 145.65249902760766, 1062.1733863766478],
    [427.5119973527079, -464.0928891451289, 859.542966687577, -146.72777724618734, -1076.332137322524],
    [-777.7552089031298, 846.3733598654829, -1563.2872895442508, 266.64517164477587, 1958.6262600297284],
    [182.32998840203095, -197.40075308536709, 364.4491715588801, -62.69666369897383, -457.12618857192075],
    [-999.228476423094, 1086.8677072448443, -2008.5746637555849, 343.1810167958702, 2516.323777123377],
])
# In SO_o(3,1), angle 1.86e-6: the trichotomy alone read it as hyperbolic.
UNPAIRED_NEAR_IDENTITY = np.array([
    [0.9999999667948687, 6.613292014584184e-05, -0.00040797464549072193, 0.00032309682485169474],
    [-6.60516150389378e-05, 0.9999999502320472, 0.0006729084588297885, -0.0005980316212381856],
    [0.0004081490531748164, -0.0006731219510433514, 0.9999997710339801, 0.0004022380381497335],
    [0.00032330036202762657, -0.0005982807869519312, 0.00040170354252726194, 1.0000003119144791],
])


class TestUnpairedStretch:
    @pytest.mark.parametrize("m", (UNPAIRED_STRETCH, UNPAIRED_NEAR_IDENTITY))
    def test_refused_by_the_trichotomy(self, m):
        t = lorentz(m)
        for decide in (fixed_point_class, classify):
            with pytest.raises(Borderline, match="no eigenvalue near its inverse"):
                decide(t)

    def test_a_non_real_dominant_eigenvalue_is_refused_as_such_first(self):
        with pytest.raises(Borderline, match=r"\|Im lambda\|"):
            fixed_point_class(stretch_borderline_element(), 3e-8)


# An elliptic of SO_o(4,1), angles (2.0, 5e-7), conjugated by
# random_soo(default_rng(76), 4, 2.0); frozen draw.  The rank of (T - I)^2
# reads it as defective, so the trichotomy says parabolic, but the axis of
# its kernel of T - I is time-like (Q = -1.1e-3), not the null ray of a
# parabolic.
TIMELIKE_KERNEL_AXIS = np.array([
    [-0.09132989328410203, 1.3286903038152165, 1.499773236865248, -0.9519035557756782, -1.9822207784138135],
    [-0.17852004944137537, -0.5652684200906902, -3.4699163384219305, 1.271974028794906, 3.6068871787706964],
    [-1.6414929118157708, -1.7167427763964864, -4.487328679850225, 1.5437599226398966, 5.211623367013944],
    [0.2552186190080969, 1.1169629353314843, 2.624779847519966, 0.0791832216306514, -2.684861630126812],
    [-1.3415834228588492, -2.297772458146855, -6.34942730382974, 1.9782575643136364, 7.2324500984997275],
])
# The same elliptic conjugated by random_soo(default_rng(1), 4, 2.0); frozen
# draw.  It reads as elliptic, so comparing the two classes alone certified
# the pair, conjugate by construction, as not conjugate.
TIMELIKE_KERNEL_AXIS_PARTNER = np.array([
    [-0.05185608978130422, -0.7253068255939937, -1.3802359159637072, 0.4074868230834501, -1.2648540390114031],
    [0.11133449186603306, 0.5068834108378846, -0.7800130124072842, 0.9217923703900236, -0.8529054079413847],
    [-0.0206346177376616, -0.9403360682629527, -0.5320635489132892, 1.5760599408164873, -1.628408507056531],
    [-1.0091002048483593, 0.2690985178258232, 0.24393575749473978, -0.242867582027484, 0.4573691637019972],
    [-0.1838299050770963, 0.8600271606223654, 1.3623757767619022, -1.5995925370363064, 2.4876101367896593],
])
TIMELIKE_AXIS_REFUSAL = (
    "the kernel axis of a parabolic reading has Q = -1.080e-03, time-like "
    "beyond the 1e-8 gate of a null ray: the kernel of an elliptic"
)


def timelike_kernel_axis():
    return classify_membership(QuadraticSpace(4), TIMELIKE_KERNEL_AXIS)


class TestTimelikeKernelAxis:
    def test_classify_refuses_naming_the_axis_value(self):
        t = classify_membership(QuadraticSpace(4), TIMELIKE_KERNEL_AXIS)
        with pytest.raises(Borderline, match=r"Q = -1\.080e-03, time-like beyond the 1e-8 gate"):
            classify(t)

    @pytest.mark.parametrize("read", (
        fixed_point_class, stretch_factor, classify, boundary_fixed_points,
        invariant_tuple, normal_form, is_real_SOo_n1,
        lambda t: conjugate_in_Mn(t, t.inverse()),
        lambda t: reverser_oracle(t, GROUP_SOO, budget=0),
    ))
    def test_every_reader_of_the_class_meets_the_one_refusal(self, read):
        # a fresh element per reader, so none reads a pass another stored
        with pytest.raises(Borderline) as info:
            read(timelike_kernel_axis())
        assert str(info.value) == TIMELIKE_AXIS_REFUSAL

    def test_rotation_angles_still_answer(self):
        assert rotation_angles(timelike_kernel_axis()).angles == pytest.approx((2.0,))

    def test_a_fresh_copy_of_itself_is_conjugate_by_the_identity(self):
        answer = conjugate_in_Mn(timelike_kernel_axis(), timelike_kernel_axis())
        assert answer.related.value == "ConjugateInMo"
        assert np.array_equal(answer.conjugator, np.eye(5))

    @pytest.mark.parametrize("swap", (False, True))
    def test_pair_conjugate_by_construction_is_refused_in_either_order(self, swap):
        partner = classify_membership(QuadraticSpace(4), TIMELIKE_KERNEL_AXIS_PARTNER)
        assert fixed_point_class(partner).value == "Elliptic"
        pair = [timelike_kernel_axis(), partner]
        if swap:
            pair.reverse()
        with pytest.raises(Borderline) as info:
            conjugate_in_Mn(*pair)
        assert str(info.value) == TIMELIKE_AXIS_REFUSAL

    def test_cli_exits_3_without_traceback(self, tmp_path):
        path = tmp_path / "t.json"
        path.write_text(matrix_to_json(TIMELIKE_KERNEL_AXIS) + "\n")
        proc = run_subprocess("-m", "hypiso.cli", "classify", str(path))
        assert proc.returncode == 3 and proc.stdout == ""
        assert proc.stderr.startswith("undecided:") and "time-like" in proc.stderr
        assert "Traceback" not in proc.stderr


class TestSymmetricRays:
    """Hyperbolics whose two fixed rays lie close on the sphere.  The frame
    scales both rays alike, to <att, rep> = -2; scaling the repelling ray
    alone made the frame, and the reverser read from it, large enough that
    its residual missed the 1e-8 gate."""

    def test_n9_element_gets_a_verified_reverser(self):
        std = boost_matrix(9, 0.84)
        std[:8, :8] = rotation_with_angles([2.28, 1.25], 8)
        w = random_soo(np.random.default_rng(1783), 9)
        t = lorentz(w @ std @ np.linalg.inv(w))
        check_reverser(t, is_real_SOo_n1(t))
        exact = reverser_oracle(t, GROUP_SOO, budget=0).exact
        assert exact == {(1, 1), (1, -1), (-1, 1), (-1, -1)}

    @pytest.mark.parametrize("index", (14, 36))
    def test_tail_items_answer(self, index):
        item = gen.tail_items(101)[index]
        t = classify_membership(QuadraticSpace(item.n), item.matrix)
        cert = is_real_SOo_n1(t)
        assert cert.decision is item.expected_real
        check_reverser(t, cert)
        assert (1, 1) in reverser_oracle(t, GROUP_SOO, budget=0).exact


class TestOracleSolutionBasis:
    """The oracle's solution space X T = T^-1 X is built with the group
    inverse J T^T J.  With T^-1 taken by elimination, the rounding of the
    inverse of this tail element tilted the space off the reversers, and
    no sample of 64 projected to a verified one."""

    def test_tail_parabolic_samples_every_component(self):
        item = gen.tail_items(102)[93]
        t = classify_membership(QuadraticSpace(item.n), item.matrix)
        rep = reverser_oracle(t, GROUP_SOO, budget=64, seed=0)
        assert (item.n, item.cls) == (3, "parabolic")
        assert rep.sampled == rep.exact == {(1, 1), (1, -1), (-1, 1), (-1, -1)}
