"""Stress tests of the three-outcome contract at large scale.

The inputs are valid elements far larger than the samplers draw: pure
boosts of SO_o(3,1) of rapidity 37 to 355 (entries up to 1.7e154) and the
parabolics poincare_extend(1, B(1.0) + 1, (0, 0, c)) of SO_o(4,1) with
translations c from 100 to 1e52.  Every decider answers, refuses by name
or raises a ``HypisoError``; none raises a Python ``OverflowError``, and
a parabolic report keeps its angle or is refused.  The CLI answers each
with an exit code and no traceback.  A membership tolerance that is not
a number >= 0 is refused by name.

Two inputs fail today where they should answer: the rapidity-40 boost and
an e^10 pair.  Their tests are strict expected failures until the
repelling ray is read as the attracting ray of T^-1 (ROADMAP direction
1), which makes them pass.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import boost_matrix
from hypiso.classify import FixedPointClass, classify, poincare_extend
from hypiso.cli import main
from hypiso.conjugacy import Relation, conjugate_in_Mn
from hypiso.errors import Borderline, HypisoError, InvalidArg
from hypiso.quadspace import QuadraticSpace, classify_membership, matrix_to_json
from hypiso.reality import GROUP_SOO, is_real_SOo_n1, reverser_oracle
from hypiso.spectral import rotation_matrix

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import gen  # noqa: E402  (the benchmark's numpy-only input generator)

RAPIDITIES = (37.0, 40.0, 200.0, 355.0)
TRANSLATIONS = (100.0, 150.0, 200.0, 1e52)


def rotated_parabolic(c):
    a = np.eye(3)
    a[:2, :2] = rotation_matrix(1.0)
    return poincare_extend(1.0, a, (0.0, 0.0, c))


def elements():
    boosts = [classify_membership(QuadraticSpace(3), boost_matrix(3, r)) for r in RAPIDITIES]
    return boosts + [rotated_parabolic(c) for c in TRANSLATIONS]


def outcome(call, *args, **kwargs):
    """The call's result, or None for a refusal or a domain error; any
    other exception, an ``OverflowError`` among them, propagates."""
    try:
        return call(*args, **kwargs)
    except HypisoError:
        return None


def test_no_decider_overflows():
    for t in elements():
        outcome(classify, t)
        outcome(is_real_SOo_n1, t)
        outcome(conjugate_in_Mn, t, t.inverse())
        outcome(reverser_oracle, t, GROUP_SOO, budget=0)


def test_no_parabolic_report_loses_its_angle():
    refused = 0
    for c in TRANSLATIONS:
        t = rotated_parabolic(c)
        try:
            report = classify(t)
        except Borderline as exc:
            assert "rounding radius" in str(exc)
            refused += 1
            continue
        assert report.fixed_class is FixedPointClass.PARABOLIC
        assert report.angles.angles == pytest.approx((1.0,), abs=1e-6)
    # the radius swallows the rotation pair from translation 150 on
    assert refused == 3


def test_cli_prints_no_traceback(tmp_path, capsys):
    for i, t in enumerate(elements()):
        path = tmp_path / f"t{i}.json"
        path.write_text(matrix_to_json(t.entries) + "\n")
        inverse = tmp_path / f"inv{i}.json"
        inverse.write_text(matrix_to_json(t.inverse().entries) + "\n")
        for argv in (["classify", str(path)], ["reality", str(path), "--group", "SOo"],
                     ["oracle", str(path), "--group", "SOo", "--budget", "0"],
                     ["conjugacy", str(path), str(inverse)]):
            assert main(argv) in (0, 2, 3), argv
    capsys.readouterr()


@pytest.mark.parametrize("eps", (float("nan"), -1e-9))
def test_an_eps_that_is_not_a_tolerance_is_refused(eps):
    with pytest.raises(InvalidArg, match="eps"):
        classify_membership(QuadraticSpace(2), np.diag([2.0, 0.5, 1.0]), eps)


def test_cli_refuses_a_nan_eps(tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_text('{"n": 2, "matrix": [1, 2, 3, 4, 5, 6, 7, 8, 9]}\n')
    assert main(["classify", str(path), "--eps", "nan"]) == 2
    assert "eps" in capsys.readouterr().err


# the repelling ray, read from T - r^-1 I, errs by about u ||T|| over a gap
# near 1; read as the attracting ray of J T^T J = T^-1 it would not
DIRECTION_1 = pytest.mark.xfail(
    raises=HypisoError, strict=True,
    reason="ROADMAP direction 1: the repelling ray is read from T - r^-1 I",
)


def e10_pair():
    """A stretch e^10 under two conjugators of det +1, rapidities 1 and 0.5."""
    std = gen.standard("hyperbolic", 3, [1.0], 10.0).matrix
    rng = np.random.default_rng(0)
    g, g2 = gen.conjugator(rng, 3, 1.0, False), gen.conjugator(rng, 3, 0.5, False)
    space = QuadraticSpace(3)
    return tuple(classify_membership(space, h @ std @ gen.j_inverse(h)) for h in (g, g2))


@DIRECTION_1
def test_a_rapidity_40_boost_is_hyperbolic():
    # fails with "null eigenvector has vanishing time coordinate"
    t = classify_membership(QuadraticSpace(3), boost_matrix(3, 40.0))
    assert classify(t).fixed_class is FixedPointClass.HYPERBOLIC


@DIRECTION_1
def test_an_e10_pair_is_conjugate_in_mo():
    # fails with "conjugator residual 4.43e-08 exceeds tolerance"
    t1, t2 = e10_pair()
    assert conjugate_in_Mn(t1, t2).related is Relation.CONJUGATE_IN_MO


@DIRECTION_1
def test_an_e10_element_is_real():
    # fails with "constructed reverser failed its residual check"
    t1, _ = e10_pair()
    assert is_real_SOo_n1(t1).decision
