"""The package's 26 result records behave as fixed values.

Each record is built by position and by keyword and reads its fields
back.  The 8 value records compare and hash by their fields; the other 18
equal only themselves.  Every record but the spectral pass
(``_LorentzSpectrum``, which keeps its late fields) refuses assignment
and deletion.  Defaults, the repr of the value records and the sharing of
one space per dimension are pinned too.
"""

import weakref

import numpy as np
import pytest

from hypiso import quadspace
from hypiso.classgeom import BoundaryPair, FiberTag, FibrationDescriptor, SpaceTag
from hypiso.classify import (
    ClassificationReport,
    EllipticPoint,
    EllipticSphere,
    FixedPointClass,
    HyperbolicPair,
    ParabolicPoint,
)
from hypiso.conjugacy import ConjugacyAnswer, InvariantTuple, Relation
from hypiso.frames import (
    KRotation,
    KRotatoryStretch,
    KRotatoryTranslation,
    NormalForm,
    _LorentzStructure,
)
from hypiso.quadspace import Component, LorentzMatrix, QuadraticSpace
from hypiso.reality import OracleReport, RealityCertificate
from hypiso.spectral import (
    EigenCluster,
    EigenStructure,
    PlaneDecomposition,
    RotationAngles,
    _LorentzSpectrum,
    _OrthogonalBlocks,
)

SPACE = QuadraticSpace(2)


def lorentz_matrix():
    return LorentzMatrix(np.eye(3), Component.SO_o, 1e-9, SPACE)


def blocks():
    return _OrthogonalBlocks([], np.eye(2), np.zeros((2, 0)), 0.0, np.eye(2))


# (record, {field: value}) in field order; each call builds fresh arrays
VALUE_RECORDS = {
    "QuadraticSpace": (QuadraticSpace, lambda: {"n": 3}, lambda: {"n": 4}),
    "EigenCluster": (EigenCluster, lambda: {"value": 1j, "algebraic": 2, "geometric": 1},
                     lambda: {"value": -1j, "algebraic": 3, "geometric": 2}),
    "EigenStructure": (EigenStructure,
                       lambda: {"clusters": (EigenCluster(1.0, 1, 1),), "dim": 3},
                       lambda: {"clusters": (EigenCluster(-1.0, 1, 1),), "dim": 4}),
    "RotationAngles": (RotationAngles, lambda: {"angles": (1.0, 0.5), "reflection": True},
                       lambda: {"angles": (1.0,), "reflection": False}),
    "InvariantTuple": (InvariantTuple,
                       lambda: {"fixed_class": "Hyperbolic", "angles": (0.5,), "k": 1,
                                "stretch": 2.0},
                       lambda: {"fixed_class": "Elliptic", "angles": (0.6,), "k": 2,
                                "stretch": None}),
    "SpaceTag": (SpaceTag, lambda: {"tag": "Grassmannian", "params": (2, 4)},
                 lambda: {"tag": "Flag", "params": (2, 5)}),
    "FiberTag": (FiberTag, lambda: {"tag": "O_k", "params": (1, 3), "minus": True},
                 lambda: {"tag": "FiniteSet", "params": (2, 3), "minus": False}),
    "FibrationDescriptor": (
        FibrationDescriptor,
        lambda: {"base": SpaceTag("Grassmannian", (2, 4)), "fiber": FiberTag("O_k", (1, 3)),
                 "sheet_count": 2, "total_dimension": 7},
        lambda: {"base": SpaceTag("Flag", (2, 4)), "fiber": FiberTag("O_k", (1, 4)),
                 "sheet_count": None, "total_dimension": 8}),
}

IDENTITY_RECORDS = {
    "LorentzMatrix": (LorentzMatrix, lambda: {
        "entries": np.eye(3), "component": Component.SO_o, "tolerance": 1e-9, "space": SPACE}),
    "PlaneDecomposition": (PlaneDecomposition, lambda: {
        "planes": (np.eye(4)[:, :2],), "angles": (0.5,), "fixed_subspace": np.eye(4)[:, 2:]}),
    "_OrthogonalBlocks": (_OrthogonalBlocks, lambda: {
        "planes": [(0.5, np.eye(3)[:, :2])], "fix_frame": np.eye(3)[:, 2:],
        "neg_frame": np.zeros((3, 0)), "near_pm_one": 0.0, "frame": np.eye(3)}),
    "_LorentzSpectrum": (_LorentzSpectrum, lambda: {
        "entries": np.eye(3), "space": SPACE, "delta": 1e-7, "sheet_preserving": True,
        "scale": 1.0, "eigvals": np.ones(3), "kernel": np.eye(3), "defective": False,
        "lam": 1.0, "rmax": 1.0, "band": False, "square_band": False, "unpaired": False,
        "rays": np.eye(3)[:2], "structure": "st", "angles": RotationAngles(())}),
    "HyperbolicPair": (HyperbolicPair, lambda: {
        "attracting": np.array([0.0, 1.0, 1.0]), "repelling": np.array([0.0, -1.0, 1.0])}),
    "ParabolicPoint": (ParabolicPoint, lambda: {"point": np.array([0.0, 1.0, 1.0])}),
    "EllipticSphere": (EllipticSphere, lambda: {"frame": np.eye(3)[:, :2], "sphere_dim": 0}),
    "EllipticPoint": (EllipticPoint, lambda: {"point": np.array([0.0, 0.0, 1.0])}),
    "ClassificationReport": (ClassificationReport, lambda: {
        "fixed_class": FixedPointClass.HYPERBOLIC, "k": 0, "angles": RotationAngles(()),
        "regular": True, "stretch": 2.0,
        "fixed_data": ParabolicPoint(np.array([0.0, 1.0, 1.0])), "boundary_dim": 1}),
    "_LorentzStructure": (_LorentzStructure, lambda: {
        "cls": None, "blocks": blocks(), "unipotent_c": None, "frame": np.eye(2),
        "signs": np.ones(2), "j": np.ones(2)}),
    "KRotation": (KRotation, lambda: {"matrix": np.eye(2), "angles": ()}),
    "KRotatoryTranslation": (KRotatoryTranslation, lambda: {
        "rotation": np.eye(1), "translation": np.ones(1), "angles": ()}),
    "KRotatoryStretch": (KRotatoryStretch, lambda: {
        "stretch": 2.0, "rotation": np.eye(1), "angles": ()}),
    "NormalForm": (NormalForm, lambda: {
        "variant": KRotation(np.eye(2), ()), "conjugator": lorentz_matrix()}),
    "RealityCertificate": (RealityCertificate, lambda: {
        "group": "SO_o_n1", "decision": True, "clause": "Thm1.1-1", "reverser": np.eye(3),
        "involution": True}),
    "OracleReport": (OracleReport, lambda: {
        "group": "SO_o_n1", "regular": True, "exact": frozenset({(1, 1)}),
        "exact_witnesses": {(1, 1): np.eye(3)}, "sampled": frozenset(),
        "sampled_witnesses": {}, "samples_used": 0, "exhausted": False}),
    "ConjugacyAnswer": (ConjugacyAnswer, lambda: {
        "related": Relation.CONJUGATE_IN_MO, "conjugator": np.eye(3), "method": "frames"}),
    "BoundaryPair": (BoundaryPair, lambda: {
        "first": np.array([0.0, 1.0, 1.0]), "second": np.array([0.0, -1.0, 1.0])}),
}

RECORDS = {name: (cls, fields) for name, (cls, fields, *_) in
           {**VALUE_RECORDS, **IDENTITY_RECORDS}.items()}
FROZEN = sorted(name for name in RECORDS if name != "_LorentzSpectrum")


def test_the_tables_name_26_records():
    assert len(VALUE_RECORDS) == 8 and len(IDENTITY_RECORDS) == 18
    assert {cls.__name__ for cls, _ in RECORDS.values()} == set(RECORDS)


def same(a, b):
    if isinstance(a, np.ndarray):
        return np.array_equal(a, b)
    if isinstance(a, list):
        return len(a) == len(b) and all(same(x, y) for x, y in zip(a, b))
    if isinstance(a, tuple):
        return type(b) is tuple and same(list(a), list(b))
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(same(a[k], b[k]) for k in a)
    # a nested identity record built afresh shows the same fields
    return a is b or a == b or (type(a) is type(b) and repr(a) == repr(b))


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_built_by_position_and_by_keyword(name):
    cls, fields = RECORDS[name]
    want = fields()
    for built in (cls(*fields().values()), cls(**fields())):
        for field, value in want.items():
            assert same(getattr(built, field), value), field


@pytest.mark.parametrize("name", sorted(VALUE_RECORDS))
def test_value_records_compare_and_hash_by_their_fields(name):
    cls, fields, other = VALUE_RECORDS[name]
    a, b = cls(**fields()), cls(**fields())
    assert a is not b and a == b and not a != b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1
    assert a != fields() and a != tuple(fields().values())
    for field, value in other().items():
        changed = cls(**{**fields(), field: value})
        assert changed != a and not changed == a, field


@pytest.mark.parametrize("name", sorted(IDENTITY_RECORDS))
def test_other_records_equal_only_themselves(name):
    cls, fields = IDENTITY_RECORDS[name]
    a, b = cls(**fields()), cls(**fields())
    assert a == a and not a != a
    assert a != b and not a == b
    assert hash(a) == hash(a)
    assert len({a, b}) == 2


@pytest.mark.parametrize("name", FROZEN)
def test_frozen_records_refuse_assignment_and_deletion(name):
    cls, fields = RECORDS[name]
    record = cls(**fields())
    for field in [*fields(), "no_such_field"]:
        with pytest.raises(AttributeError):
            setattr(record, field, None)
        with pytest.raises(AttributeError):
            delattr(record, field)
    for field, value in fields().items():
        assert same(getattr(record, field), value), field
    assert weakref.ref(record)() is record


def test_the_spectral_pass_keeps_its_late_fields_writable():
    cls, fields = RECORDS["_LorentzSpectrum"]
    early = {k: v for k, v in fields().items() if k not in ("rays", "structure", "angles")}
    sp = cls(*early.values())
    assert sp.rays is None and sp.structure is None and sp.angles is None
    sp.structure = "st"
    sp.angles = RotationAngles((0.5,))
    assert sp.structure == "st" and sp.angles == RotationAngles((0.5,))
    assert not sp.eigvals.flags.writeable and not sp.kernel.flags.writeable


def test_defaults():
    assert RotationAngles((1.0,)).reflection is False
    assert FiberTag("O_k", (1, 3)).minus is False
    assert FiberTag("O_k", (1, 3)) == FiberTag("O_k", (1, 3), False)


def test_each_lorentz_matrix_has_its_own_analyses():
    a, b = lorentz_matrix(), lorentz_matrix()
    assert a._analyses == {} and b._analyses == {}
    assert a._analyses is not b._analyses
    a._analyses[1e-7] = "pass"
    assert b._analyses == {}
    assert not a.entries.flags.writeable
    assert a.inverse()._analyses is not a._analyses
    assert (a @ b)._analyses == {}


def test_arrays_are_made_read_only():
    _, fields = IDENTITY_RECORDS["PlaneDecomposition"]
    d = PlaneDecomposition(**fields())
    assert not d.planes[0].flags.writeable and not d.fixed_subspace.flags.writeable
    _, fields = IDENTITY_RECORDS["_LorentzStructure"]
    assert not _LorentzStructure(**fields()).frame.flags.writeable


def test_a_space_holds_its_constant_arrays():
    space = QuadraticSpace(3)
    assert space.n == 3 and space.dim == 4
    assert np.array_equal(space.form_signs, [1.0, 1.0, 1.0, -1.0])
    assert np.array_equal(space.form_matrix, np.diag([1.0, 1.0, 1.0, -1.0]))
    assert np.array_equal(space.identity, np.eye(4))
    assert np.array_equal(space.ones, np.ones(4))
    for a in (space.form_signs, space.form_matrix, space.identity, space.ones):
        assert not a.flags.writeable
    assert QuadraticSpace(3).form_matrix is space.form_matrix


def test_a_boundary_pair_refuses_equal_points():
    with pytest.raises(Exception, match="distinct points"):
        BoundaryPair(np.array([0.0, 1.0, 1.0]), np.array([0.0, 1.0, 1.0]))


def test_repr_of_the_value_records():
    assert repr(QuadraticSpace(3)) == "QuadraticSpace(n=3)"
    assert repr(RotationAngles((1.0, 0.5))) == "RotationAngles(angles=(1.0, 0.5), reflection=False)"
    assert repr(InvariantTuple("Hyperbolic", (0.5,), 1, 2.0)) == (
        "InvariantTuple(fixed_class='Hyperbolic', angles=(0.5,), k=1, stretch=2.0)")
    assert repr(FiberTag("O_k", (1, 3))) == "FiberTag(tag='O_k', params=(1, 3), minus=False)"


def test_repr_names_the_shown_fields():
    text = repr(lorentz_matrix())
    assert text.startswith("LorentzMatrix(entries=array(")
    assert "component=<Component.SO_o" in text and text.endswith("tolerance=1e-09)")
    assert "space=" not in text and "_analyses" not in text


def test_an_invariant_tuple_lists_its_fields_in_order():
    t = InvariantTuple("Hyperbolic", (0.5,), 1, 2.0)
    assert list(t.__dict__.values()) == ["Hyperbolic", (0.5,), 1, 2.0]


def test_one_space_per_dimension():
    assert quadspace._space(3) is quadspace._space(3)
    assert quadspace._space(3) == QuadraticSpace(3)
