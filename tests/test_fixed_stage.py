"""The fixed-point data of ``hypiso classify`` is computed once per stack:
one SVD for the null eigenrays of every hyperbolic and one ``eigh`` per
kernel width for the fixed-space forms, each equal to what a stack of one
computes, refusals and failures included."""

import json

import numpy as np
import pytest

from conftest import block_rotation, boost_matrix, spy
from hypiso import frames
from hypiso.classify import _classify_stack, _spectra, boundary_fixed_points, classify
from hypiso.cli import main
from hypiso.quadspace import QuadraticSpace, classify_membership, matrix_to_json
from hypiso.sampling import random_isometry, rotation_with_angles
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
        svd = spy(monkeypatch, np.linalg, "svd")
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
    got = _classify_stack(_spectra([ts[i] for i in order], DELTA))
    messages = set()
    for i, report in zip(order, got):
        want = outcome(classify, fresh(ts[i]), DELTA)
        if i < len(good):
            assert json.dumps(report.to_json_dict()) == want
        else:
            assert (type(report), str(report)) == want
            messages.add(str(report))
    assert len(messages) == len(REFUSALS)


@pytest.mark.parametrize("name", REFUSALS)
def test_refusals_exit_3_from_the_cli(tmp_path, capsys, name):
    # every check of the table refuses to decide, the cluster check included
    path = write(tmp_path, "refused.json", [REFUSALS[name]])
    code, out, err = main(["classify", path, "--delta", str(DELTA)]), *capsys.readouterr()
    assert (code, out) == (3, "") and err.startswith("undecided: ")


def test_stage_results_are_those_of_a_fresh_element():
    ts = [t for cls in ("parabolic", "hyperbolic") for t in elements(5, cls, 4)] + full_rotations(4, 2)
    reports = {}
    for n in (4, 5):
        stack = [t for t in ts if t.space.n == n]
        reports.update(zip(map(id, stack), _classify_stack(_spectra(stack, 1e-7))))
    for t in ts:
        alone = fresh(t)
        assert json.dumps(reports[id(t)].to_json_dict()) == json.dumps(classify(alone).to_json_dict())
        got, want = t._analyses[1e-7], alone._analyses[1e-7]
        if got.rays is not None:
            assert np.array_equal(got.rays, want.rays)
        else:
            assert all(np.array_equal(a, b) for a, b in zip(got.form, want.form))


def test_later_calls_read_what_classify_stored(monkeypatch):
    for t in elements(5, "hyperbolic", 1) + elements(5, "parabolic", 1) + full_rotations(4, 1):
        first = json.dumps(classify(t).to_json_dict())
        svd = spy(monkeypatch, np.linalg, "svd")
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
    svd = np.linalg.svd

    def flaky(a, *args, **kwargs):
        # T - r I of the marker, r = e^0.9: the only matrix with this corner
        a = np.asarray(a)
        if any(m[-2, -1] == marker[-2, -1] and m[-1, -1] < 0 for m in a.reshape(-1, *a.shape[-2:])):
            raise np.linalg.LinAlgError("SVD did not converge")
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", flaky)
    fine = write(tmp_path, "fine.jsonl", [boost_matrix(3, 0.2), np.eye(4), boost_matrix(3, 0.5)])
    flaky_doc = write(tmp_path, "flaky.json", [marker])
    code, out, err = main(["classify", fine, flaky_doc, fine]), *capsys.readouterr()
    assert (code, out) == (2, "")
    assert err == "error: numerical failure: SVD did not converge\n"
    assert main(["classify", fine, fine]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 6


class TestPlusMinusOneFrames:
    @pytest.mark.parametrize("angles,n,svds", (
        ((0.7, 1.9), 4, 0),  # no +1, no -1
        ((0.7,), 3, 1),  # +1 only
        ((0.7, np.pi), 5, 2),  # both
    ))
    def test_svd_only_for_a_counted_eigenvalue(self, monkeypatch, angles, n, svds):
        a = rotation_with_angles(list(angles), n)
        spied = spy(monkeypatch, np.linalg, "svd")
        blocks = frames.invariant_plane_frames(a, 1e-7)
        assert spied.call_count == svds
        assert 2 * blocks.p + blocks.a + blocks.b == n
        assert blocks.frame.shape == (n, n)
