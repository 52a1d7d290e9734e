"""Each element gets one spectral analysis, shared by every decider.

Spies count the linear-algebra kernels a public call makes, so a decider
that recomputes the spectrum, or a caller that re-runs the analysis per
step, shows up as a higher count.
"""

import importlib

import numpy as np
import pytest

from conftest import lorentz, maxabs, spy
from hypiso import classgeom, conjugacy, frames, lapack, reality, spectral
from hypiso.classify import FixedPointClass, classify, poincare_extend
from hypiso.conjugacy import Relation, conjugate_in_Mn
from hypiso.frames import (
    KRotation,
    KRotatoryStretch,
    KRotatoryTranslation,
    normal_form,
    reconstruct_from_normal_form,
)
from hypiso.quadspace import Component, QuadraticSpace, classify_membership
from hypiso.reality import is_real_SOo_n1
from hypiso.sampling import (
    random_isometry,
    random_regular_special_orthogonal,
    random_soo,
    rotation_with_angles,
)

classify_module = importlib.import_module("hypiso.classify")

CASES = [(n, cls) for n in (3, 5, 9) for cls in ("elliptic", "parabolic", "hyperbolic")]


def element(n, cls):
    rng = np.random.default_rng(1000 * n + len(cls))
    return random_isometry(rng, n, cls), rng


def two_norm_calls(norm):
    return sum(
        1 for c in norm.call_args_list
        if np.ndim(c.args[0]) >= 2
        and c.kwargs.get("ord", c.args[1] if len(c.args) > 1 else None) in (2, -2)
    )


@pytest.mark.parametrize("n,cls", CASES)
def test_classify_reads_the_spectrum_once(monkeypatch, n, cls):
    t, _ = element(n, cls)
    eigvals = spy(monkeypatch, lapack, "eigvals")
    svds = spy(monkeypatch, lapack, "svd")
    norms = spy(monkeypatch, np.linalg, "norm")
    passes = spy(monkeypatch, spectral._LorentzSpectrum, "of")
    report = classify(t)
    assert report.fixed_class.value.lower() == cls
    assert eigvals.call_count == 1
    assert svds.call_count + two_norm_calls(norms) <= 4
    assert passes.call_count == 1


@pytest.mark.parametrize("n,cls", CASES)
def test_reality_computes_no_rotation_angles(monkeypatch, n, cls):
    t, _ = element(n, cls)
    angles = spy(monkeypatch, spectral, "_angles_of")
    passes = spy(monkeypatch, spectral._LorentzSpectrum, "of")
    is_real_SOo_n1(t)
    assert angles.call_count == 0
    assert passes.call_count == 1


@pytest.mark.parametrize("det", (1, -1))
@pytest.mark.parametrize("n,cls", CASES)
def test_conjugacy_runs_one_pass_per_input(monkeypatch, n, cls, det):
    t, rng = element(n, cls)
    w = random_soo(rng, n, 0.5)
    if det < 0:
        w = w @ np.diag([-1.0] + [1.0] * n)
    partner = classify_membership(QuadraticSpace(n), w @ t.entries @ np.linalg.inv(w), 1e-8)
    passes = spy(monkeypatch, spectral._LorentzSpectrum, "of")
    answer = conjugate_in_Mn(t, partner)
    assert answer.related is not Relation.NOT_CONJUGATE
    assert answer.conjugator is not None
    assert passes.call_count == 2


def partner_of(t, rng, det):
    """g T g^-1 for a random sheet-preserving g of determinant ``det``."""
    n = t.space.n
    w = random_soo(rng, n, 0.5)
    if det < 0:
        w = w @ np.diag([-1.0] + [1.0] * n)
    return lorentz(w @ t.entries @ np.linalg.inv(w))


@pytest.mark.parametrize("det", (1, -1))
@pytest.mark.parametrize("n,cls", CASES)
def test_conjugacy_builds_one_splitting_per_input(monkeypatch, n, cls, det):
    # the most rotation planes the class allows, so T is never the identity
    rng = np.random.default_rng(1000 * n + len(cls))
    t = random_isometry(rng, n, cls, k=(n - 2 if cls == "parabolic" else n - 1) // 2)
    partner = partner_of(t, rng, det)
    structures = spy(monkeypatch, conjugacy, "_lorentz_structure")
    extractions = spy(monkeypatch, frames, "invariant_plane_frames")
    normal_forms = spy(monkeypatch, frames, "_normal_form")
    answer = conjugate_in_Mn(t, partner)
    assert answer.related is not Relation.NOT_CONJUGATE
    assert [c.args[0] for c in structures.call_args_list] == [t._analyses[1e-7], partner._analyses[1e-7]]
    assert extractions.call_count == 2
    assert normal_forms.call_count == 0


def elliptic(n, angles):
    m = np.eye(n + 1)
    m[:n, :n] = rotation_with_angles(angles, n)
    return lorentz(m)


# (name, element, has a space-like +-1 direction)
SPECIAL = [
    ("pure translation, n = 3",
     lambda: poincare_extend(1.0, np.eye(2), np.array([0.0, 0.8])), True),
    ("pure translation, n = 2",
     lambda: poincare_extend(1.0, np.eye(1), np.array([1.3])), False),
    ("elliptic, n = 2", lambda: elliptic(2, [1.1]), False),
    ("hyperbolic, n = 2", lambda: poincare_extend(np.exp(0.6), np.eye(1)), True),
    ("repeated angle", lambda: elliptic(4, [0.9, 0.9]), False),
    ("repeated angle, parabolic",
     lambda: poincare_extend(1.0, rotation_with_angles([0.9, 0.9], 5),
                             np.array([0.0, 0.0, 0.0, 0.0, 0.7])), False),
    ("angle pi", lambda: elliptic(4, [np.pi, 1.2]), True),
    ("angle pi, hyperbolic",
     lambda: poincare_extend(np.exp(0.4), rotation_with_angles([np.pi], 2)), True),
]


@pytest.mark.parametrize("det", (1, -1))
@pytest.mark.parametrize("name,make,has_pm1", SPECIAL, ids=[c[0] for c in SPECIAL])
def test_conjugate_pairs_of_special_structure(name, make, has_pm1, det):
    # a -1 on a +-1 direction commutes with t and corrects a det -1
    # conjugator; without one, every sheet-preserving element commuting
    # with t keeps each eigenspace and has det +1 (a boost, exp(tX) or I on
    # the special block, U(m) on an angle of multiplicity m), regular or not
    t = make()
    rng = np.random.default_rng(7)
    partner = partner_of(t, rng, det)
    answer = conjugate_in_Mn(t, partner)
    if det > 0 or has_pm1:
        want = Relation.CONJUGATE_IN_MO
    else:
        want = Relation.CONJUGATE_IN_M_ONLY
    assert answer.related is want
    s = answer.conjugator
    assert float(np.max(np.abs(s @ t.entries - partner.entries @ s))) <= 1e-8
    comp = classify_membership(t.space, s, 1e-7).component
    assert comp.sheet_preserving
    assert (comp is Component.SO_o) == (want is Relation.CONJUGATE_IN_MO)


@pytest.mark.parametrize("n,cls", CASES)
def test_normal_form_reads_the_stored_splitting(monkeypatch, n, cls):
    t, _ = element(n, cls)
    frames._lorentz_structure(spectral._LorentzSpectrum.of(t, spectral.DEFAULT_DELTA))
    reports = spy(monkeypatch, classify_module, "_classify")
    extensions = spy(monkeypatch, frames, "poincare_extend")
    svds = spy(monkeypatch, lapack, "svd")
    normal_form(t)
    assert reports.call_count == extensions.call_count == svds.call_count == 0


VARIANTS = {
    FixedPointClass.ELLIPTIC: KRotation,
    FixedPointClass.PARABOLIC: KRotatoryTranslation,
    FixedPointClass.HYPERBOLIC: KRotatoryStretch,
}


def check_normal_form(t):
    nf = normal_form(t)
    report = classify(t)
    assert maxabs(reconstruct_from_normal_form(nf) - t.entries) <= 1e-8
    assert type(nf.variant) is VARIANTS[report.fixed_class]
    assert nf.variant.angles == report.angles.angles
    if report.stretch is not None:
        assert nf.variant.stretch == report.stretch


NORMAL_FORM_INPUTS = [(name, make) for name, make, _ in SPECIAL] + [
    (f"{cls}, n = 9", lambda cls=cls: random_isometry(np.random.default_rng(9), 9, cls))
    for cls in ("elliptic", "parabolic", "hyperbolic")
]


@pytest.mark.parametrize(
    "name,make", NORMAL_FORM_INPUTS, ids=[c[0] for c in NORMAL_FORM_INPUTS]
)
def test_normal_form_matches_classify(name, make):
    t = make()
    check_normal_form(t)
    check_normal_form(partner_of(t, np.random.default_rng(7), -1))


ORTHOGONAL_CALLS = {
    "plane_decomposition": spectral.plane_decomposition,
    "is_real_On": reality.is_real_On,
    "is_real_SOn": reality.is_real_SOn,
    "is_strongly_real_SOn": reality.is_strongly_real_SOn,
    "oracle O": lambda a: reality.reverser_oracle(a, reality.GROUP_O, budget=0),
    "oracle SO": lambda a: reality.reverser_oracle(a, reality.GROUP_SO, budget=0),
    "projection": classgeom.projection,
}


@pytest.mark.parametrize("n", (2, 5, 6))
@pytest.mark.parametrize("name", ORTHOGONAL_CALLS)
def test_orthogonal_call_reads_the_spectrum_once(monkeypatch, name, n):
    a = random_regular_special_orthogonal(np.random.default_rng(n), n)
    clusterings = spy(monkeypatch, spectral, "_cluster_eigenvalues")
    eig = spy(monkeypatch, lapack, "eig")
    eigvals = spy(monkeypatch, lapack, "eigvals")
    ORTHOGONAL_CALLS[name](a)
    assert clusterings.call_count == 1
    assert eig.call_count + eigvals.call_count == 1
