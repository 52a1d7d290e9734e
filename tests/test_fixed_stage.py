"""The fixed-point data of ``hypiso classify`` is computed once per stack:
one SVD for the null eigenrays of every hyperbolic, equal to what a stack
of one computes, refusals and failures included; the fixed data of a
parabolic or an elliptic is read from the kernel with no LAPACK call."""

import json

import numpy as np
import pytest

from conftest import block_rotation, boost_matrix, spy
from hypiso import lapack, spectral
from hypiso.classify import FixedPointClass, _prefill, boundary_fixed_points, classify
from hypiso.cli import main
from hypiso.conjugacy import Relation, conjugate_in_Mn
from hypiso.errors import Borderline
from hypiso.quadspace import QuadraticSpace, classify_membership, matrix_to_json
from hypiso.sampling import random_isometry, random_orthogonal, rotation_with_angles
from test_conditioning import STRETCH_BORDERLINE

DELTA = 3e-8  # the floor, where STRETCH_BORDERLINE is refused


def elements(n, cls, count, k=None, seed=0):
    rng = np.random.default_rng([seed, n, count])
    return [random_isometry(rng, n, cls, k) for _ in range(count)]


def full_rotations(n, count, seed=0):
    """Elliptics of SO_o(n,1), n even, rotating every space-like direction."""
    rng = np.random.default_rng([seed, n, count])
    return [random_isometry(rng, n, "elliptic", k=n // 2) for _ in range(count)]


def write(tmp_path, name, mats):
    path = tmp_path / name
    path.write_text("".join(matrix_to_json(np.asarray(m)) + "\n" for m in mats))
    return str(path)


def fresh(t):
    return classify_membership(t.space, np.array(t.entries), t.tolerance)


def outcome(fn, *args):
    try:
        return json.dumps(fn(*args).to_json_dict())
    except Exception as exc:  # noqa: BLE001
        return type(exc), str(exc)


@pytest.mark.parametrize("make", (
    lambda count: elements(5, "hyperbolic", count),
    lambda count: elements(5, "parabolic", count, k=1),  # one kernel width
    lambda count: full_rotations(4, count),
), ids=("hyperbolic", "parabolic", "full-rotation elliptic"))
def test_lapack_calls_do_not_grow_with_the_stream(tmp_path, capsys, monkeypatch, make):
    counts = []
    for count in (2, 12):
        path = write(tmp_path, f"{count}.jsonl", [t.entries for t in make(count)])
        svd = spy(monkeypatch, lapack, "svd")
        eigh = spy(monkeypatch, np.linalg, "eigh")
        assert main(["classify", path]) == 0
        assert len(capsys.readouterr().out.splitlines()) == count
        counts.append((svd.call_count, eigh.call_count))
        monkeypatch.undo()
    assert counts[0] == counts[1]


def rotation(*angles):
    m = np.eye(4)
    m[:3, :3] = block_rotation(*angles, pad=1)
    return m


# n = 3 elements refused at DELTA, each at a different check
REFUSALS = {
    "kernel band": rotation(4e-8),  # singular values of T - I inside (tau/2, 2 tau)
    "modulus gap": boost_matrix(3, 1.2e-8),  # |lambda| inside (1 + delta/4, 1 + delta]
    "non-real stretch": STRETCH_BORDERLINE,
    "cluster ambiguity": rotation(np.pi - 0.7 * DELTA),  # the pair 1.4 delta apart
}


def test_mixed_stack_equals_a_stack_of_one_per_element():
    good = [t for cls in ("elliptic", "parabolic", "hyperbolic") for t in elements(3, cls, 3)]
    refused = [classify_membership(QuadraticSpace(3), m, 1e-8) for m in REFUSALS.values()]
    ts = good + refused
    order = np.random.default_rng(7).permutation(len(ts))
    _prefill([ts[i] for i in order], DELTA)
    assert all(DELTA in t._analyses for t in ts)
    messages = set()
    for i in order:
        got, want = outcome(classify, ts[i], DELTA), outcome(classify, fresh(ts[i]), DELTA)
        assert got == want
        if i < len(good):
            assert isinstance(got, str)
        else:
            assert isinstance(got, tuple)
            messages.add(got[1])
    assert len(messages) == len(REFUSALS)


@pytest.mark.parametrize("name", REFUSALS)
def test_refusals_exit_3_from_the_cli(tmp_path, capsys, name):
    # every check of the table refuses to decide, the cluster check included
    path = write(tmp_path, "refused.json", [REFUSALS[name]])
    code, out, err = main(["classify", path, "--delta", str(DELTA)]), *capsys.readouterr()
    assert (code, out) == (3, "") and err.startswith("undecided: ")


@pytest.mark.parametrize("name", REFUSALS)
def test_a_refused_element_is_conjugate_to_itself_by_the_identity(name):
    # its refused reading still refuses it against its inverse
    t = classify_membership(QuadraticSpace(3), REFUSALS[name], 1e-8)
    answer = conjugate_in_Mn(t, fresh(t), DELTA)
    assert answer.related is Relation.CONJUGATE_IN_MO
    assert np.array_equal(answer.conjugator, np.eye(4))
    with pytest.raises(Borderline):
        conjugate_in_Mn(fresh(t), t.inverse(), DELTA)


def test_stage_results_are_those_of_a_fresh_element():
    ts = [t for cls in ("parabolic", "hyperbolic") for t in elements(5, cls, 4)] + full_rotations(4, 2)
    for n in (4, 5):
        _prefill([t for t in ts if t.space.n == n], 1e-7)
    for t in ts:
        stored = t._analyses[1e-7].rays  # by the stacked stage, before any report
        report = classify(t)
        alone = fresh(t)
        assert json.dumps(report.to_json_dict()) == json.dumps(classify(alone).to_json_dict())
        assert (stored is not None) == (report.fixed_class is FixedPointClass.HYPERBOLIC)
        if stored is not None:
            assert np.array_equal(stored, alone._analyses[1e-7].rays)


def test_later_calls_read_what_classify_stored(monkeypatch):
    for t in elements(5, "hyperbolic", 1) + elements(5, "parabolic", 1) + full_rotations(4, 1):
        first = json.dumps(classify(t).to_json_dict())
        svd = spy(monkeypatch, lapack, "svd")
        eigh = spy(monkeypatch, np.linalg, "eigh")
        again = json.dumps(classify(t).to_json_dict())
        data = boundary_fixed_points(t)
        assert svd.call_count == eigh.call_count == 0
        monkeypatch.undo()
        assert again == first
        assert json.dumps(data.to_json_dict()) == json.dumps(boundary_fixed_points(fresh(t)).to_json_dict())


def test_failing_stacked_svd_is_found_per_document(tmp_path, capsys, monkeypatch):
    """The stage's SVD fails for the whole stack; the error surfaces at the
    document that causes it, and the documents before it still classify."""
    marker = np.array(boost_matrix(3, 0.9))
    svd = lapack.svd

    def flaky(a, *args, **kwargs):
        # T - r I of the marker, r = e^0.9: the only matrix with this corner
        a = np.asarray(a)
        if any(m[-2, -1] == marker[-2, -1] and m[-1, -1] < 0 for m in a.reshape(-1, *a.shape[-2:])):
            raise np.linalg.LinAlgError("SVD did not converge")
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(lapack, "svd", flaky)
    fine = write(tmp_path, "fine.jsonl", [boost_matrix(3, 0.2), np.eye(4), boost_matrix(3, 0.5)])
    flaky_doc = write(tmp_path, "flaky.json", [marker])
    code, out, err = main(["classify", fine, flaky_doc, fine]), *capsys.readouterr()
    assert (code, out) == (2, "")
    assert err == "error: numerical failure: SVD did not converge\n"
    assert main(["classify", fine, fine]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 6


class TestPlusMinusOneFrames:
    @pytest.mark.parametrize("angles,n,eighs", (
        ((0.7, 1.9), 4, 0),  # no +1, no -1
        ((0.7,), 3, 0),  # one +1 column: nothing to split
        ((0.7, np.pi), 5, 1),  # +1 and -1
        ((0.7,), 5, 0),  # three +1 columns, one sign: nothing to split or order
    ))
    def test_one_eig_one_svd_and_an_eigh_for_two_pm_one_columns(self, monkeypatch, angles, n, eighs):
        a = rotation_with_angles(list(angles), n)
        calls = [spy(monkeypatch, lapack, "eig"), spy(monkeypatch, lapack, "svd"),
                 spy(monkeypatch, np.linalg, "eigh")]
        blocks = spectral.invariant_plane_frames(a, 1e-7)
        assert [c.call_count for c in calls] == [1, 1, eighs]
        assert 2 * blocks.p + blocks.a + blocks.b == n
        assert blocks.frame.shape == (n, n)

    @pytest.mark.parametrize("angles,n,counted", (
        ((0.7, 1.9), 4, 0),  # no +1, no -1
        ((0.7,), 3, 1),  # +1 only
        ((0.7, np.pi), 5, 2),  # both
    ))
    def test_svd_only_for_a_counted_eigenvalue(self, monkeypatch, angles, n, counted):
        # The counted +-1 eigenspaces are the left singular vectors beyond
        # the plane columns, from the one SVD of those columns: no SVD of A -+ I.
        a = rotation_with_angles(list(angles), n)
        svd = spy(monkeypatch, lapack, "svd")
        blocks = spectral.invariant_plane_frames(a, 1e-7)
        assert svd.call_count == 1
        assert svd.call_args.args[0].shape == (n, 2 * blocks.p)
        assert (blocks.a > 0) + (blocks.b > 0) == counted
        assert np.allclose(a @ blocks.fix_frame, blocks.fix_frame, atol=1e-12)
        assert np.allclose(a @ blocks.neg_frame, -blocks.neg_frame, atol=1e-12)
        assert 2 * blocks.p + blocks.a + blocks.b == n

    @pytest.mark.parametrize("angles,signs", (
        ((0.7,), (1, 1, 1)),  # one sign
        ((), (-1, -1, -1)),
        ((0.7, 1.9), (1,)),  # one column
        ((0.7,), (1, -1)),  # both signs
        ((), (1, 1, -1, -1)),
        ((0.7, 1e-9), (1,)),  # a pair read as +1
        ((np.pi - 1e-9,), (-1,)),  # a pair read as -1
        ((2.1, 1e-9), (-1,)),  # a pair read as +1 beside a -1
    ))
    def test_eigh_only_to_split_signs_or_order_a_pair_read_as_pm_one(self, monkeypatch, angles, signs):
        # eig returns a real eigenvalue with an imaginary part of exactly 0,
        # so near_pm_one > 0 says the reading counted a complex pair as +-1:
        # a rotation by an angle within delta of 0 or pi, or a repeated +-1
        # split off the real axis by rounding
        rng = np.random.default_rng(len(angles) + 7 * len(signs))
        n = 2 * len(angles) + len(signs)
        d = rotation_with_angles(list(angles), n)
        d[2 * len(angles):, 2 * len(angles):] = np.diag(signs)
        pair_read = any(min(t, np.pi - t) < 1e-7 for t in angles)
        fired = []
        for _ in range(20):
            q = random_orthogonal(rng, n)
            a = q @ d @ q.T
            eigh = spy(monkeypatch, np.linalg, "eigh")
            blocks = spectral.invariant_plane_frames(a, 1e-7)
            mixed = blocks.a > 0 and blocks.b > 0
            assert eigh.call_count == (mixed or blocks.near_pm_one > 0)
            assert blocks.near_pm_one > 0 or not pair_read
            assert (blocks.a, blocks.b) == (signs.count(1) + 2 * (1e-9 in angles),
                                            signs.count(-1) + 2 * (np.pi - 1e-9 in angles))
            f = blocks.frame
            assert np.abs(f.T @ f - np.eye(n)).max() <= 1e-13
            assert np.abs(a @ blocks.fix_frame - blocks.fix_frame).max(initial=0.0) <= 1e-8
            assert np.abs(a @ blocks.neg_frame + blocks.neg_frame).max(initial=0.0) <= 1e-8
            fired.append(eigh.call_count)
        if len(set(signs)) == 1 and not pair_read:  # a real reading skips the eigh
            assert 0 in fired
