"""The CLI over document streams: files with several documents, standard
input, the stacked classify path and the order in which failures surface."""

import io
import json

import numpy as np
import pytest

from conftest import block_rotation, boost_matrix
from hypiso.classify import classify
from hypiso.cli import main
from hypiso.quadspace import QuadraticSpace, classify_membership, matrix_to_json
from hypiso.sampling import random_isometry, random_soo


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write(tmp_path, name, *mats):
    path = tmp_path / name
    path.write_text("".join(matrix_to_json(m) + "\n" for m in mats))
    return str(path)


def expected_line(mat):
    space = QuadraticSpace(mat.shape[0] - 1)
    return json.dumps(classify(classify_membership(space, mat)).to_json_dict())


def conjugated(rng, n, rotation):
    """An elliptic with the given rotation part, moved off the apex."""
    std = np.eye(n + 1)
    std[:n, :n] = rotation
    w = random_soo(rng, n, 0.5)
    return w @ std @ np.linalg.inv(w)


def mixed_stream():
    """n = 3, 5, 9, every class, a repeated angle, the angle pi and the
    identity, interleaved across dimensions."""
    rng = np.random.default_rng(31)
    mats = []
    for _ in range(2):
        for n in (3, 5, 9):
            for cls in ("elliptic", "parabolic", "hyperbolic"):
                mats.append(np.array(random_isometry(rng, n, cls).entries))
    mats.append(conjugated(rng, 5, block_rotation(1.1, 1.1, pad=1)))
    mats.append(conjugated(rng, 9, block_rotation(2.0, np.pi, pad=5)))
    mats.append(conjugated(rng, 3, block_rotation(np.pi, pad=1)))
    mats.append(np.eye(4))
    mats.append(np.eye(10))
    order = rng.permutation(len(mats))
    return [mats[i] for i in order]


class TestStackedClassify:
    def test_output_equals_per_document_classify(self, tmp_path, capsys):
        mats = mixed_stream()
        paths = [
            write(tmp_path, "a.jsonl", *mats[:7]),
            write(tmp_path, "b.json", mats[7]),
            write(tmp_path, "c.jsonl", *mats[8:]),
        ]
        code, out, err = run(capsys, "classify", *paths)
        assert code == 0 and err == ""
        assert out == "".join(expected_line(m) + "\n" for m in mats)

    def test_two_document_file_equals_two_files(self, tmp_path, capsys):
        mats = mixed_stream()[:2]
        one = write(tmp_path, "both.jsonl", *mats)
        a, b = write(tmp_path, "a.json", mats[0]), write(tmp_path, "b.json", mats[1])
        assert run(capsys, "classify", one) == run(capsys, "classify", a, b)

    def test_random_output_round_trips(self, tmp_path, capsys):
        path = str(tmp_path / "m.jsonl")
        assert run(capsys, "random", "--group", "SOo", "--n", "5", "--count", "100",
                   "--output", path)[0] == 0
        code, out, _ = run(capsys, "classify", path)
        assert code == 0
        with open(path) as fh:
            docs = [json.loads(line) for line in fh]
        want = [expected_line(np.reshape(d["matrix"], (6, 6))) for d in docs]
        assert out.splitlines() == want

    def test_pretty_printed_document(self, tmp_path, capsys):
        path = tmp_path / "pretty.json"
        path.write_text(json.dumps(json.loads(matrix_to_json(np.eye(4))), indent=2))
        code, out, _ = run(capsys, "classify", str(path))
        assert code == 0 and out == expected_line(np.eye(4)) + "\n"

    def test_standard_input(self, tmp_path, capsys, monkeypatch):
        mats = mixed_stream()[:3]
        text = "".join(matrix_to_json(m) + "\n" for m in mats)
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        code, out, _ = run(capsys, "classify", "-")
        assert code == 0
        assert out == "".join(expected_line(m) + "\n" for m in mats)


class TestOtherCommands:
    @pytest.mark.parametrize("argv", (
        ["reality", "--group", "SOo"],
        ["decompose"],
        ["oracle", "--group", "SOo", "--budget", "20"],
    ))
    def test_multi_document_file_equals_files(self, tmp_path, capsys, argv):
        if argv[0] == "decompose":
            mats = [block_rotation(0.7, 1.9), block_rotation(2.5, pad=2)]
        else:
            mats = [np.eye(5), boost_matrix(4, 0.3)]
            mats[0][:4, :4] = block_rotation(0.7, 1.9)
        one = write(tmp_path, "both.jsonl", *mats)
        a, b = write(tmp_path, "a.json", mats[0]), write(tmp_path, "b.json", mats[1])
        joined = run(capsys, *argv[:1], one, *argv[1:])
        split = run(capsys, *argv[:1], a, b, *argv[1:])
        assert joined[0] == 0 and joined == split
        assert len(joined[1].splitlines()) == 2

    def test_conjugacy_takes_one_document_per_file(self, tmp_path, capsys):
        both = write(tmp_path, "both.jsonl", np.eye(4), np.eye(4))
        single = write(tmp_path, "one.json", np.eye(4))
        code, out, err = run(capsys, "conjugacy", both, single)
        assert code == 1 and out == ""
        assert "holds 2 matrix documents; conjugacy takes one per file" in err


def failures(tmp_path):
    """One file per kind of failure; each fails alone."""
    bad = tmp_path / "bad.json"
    bad.write_text('{"n": 3, "matrix": [1, 2]}')
    return {
        "missing": str(tmp_path / "missing.json"),
        "malformed": str(bad),
        "non_isometry": write(tmp_path, "x.json", 2 * np.eye(4)),
        "sheet_swapping": write(tmp_path, "s.json", np.diag([1.0, 1.0, 1.0, -1.0])),
        "borderline": write(tmp_path, "border.json", boost_matrix(2, 5e-8)),
    }


KINDS = ("missing", "malformed", "non_isometry", "sheet_swapping", "borderline")
ORDERS = [KINDS[i:] + KINDS[:i] for i in range(5)]
ORDERS += [tuple(reversed(o)) for o in ORDERS]


class TestFailureOrder:
    @pytest.mark.parametrize("order", ORDERS, ids="-".join)
    def test_first_failure_in_document_order_decides(self, tmp_path, capsys, order):
        paths = failures(tmp_path)
        good = write(tmp_path, "good.jsonl", np.eye(6), boost_matrix(3, 0.4), np.eye(10))
        alone = run(capsys, "classify", paths[order[0]], "--eps", "1e-6")
        assert alone[0] in (1, 2, 3) and alone[1] == ""
        stream = [good, *(paths[k] for k in order), good]
        assert run(capsys, "classify", *stream, "--eps", "1e-6") == alone

    def test_failure_inside_a_file(self, tmp_path, capsys):
        path = tmp_path / "mixed.jsonl"
        path.write_text(matrix_to_json(np.eye(4)) + "\n" + '{"n": 3, "matrix": [1, 2]}\n')
        non_isometry = failures(tmp_path)["non_isometry"]
        code, out, err = run(capsys, "classify", str(path), non_isometry)
        assert code == 1 and out == "" and "malformed input" in err
        code, out, err = run(capsys, "classify", non_isometry, str(path))
        assert code == 2 and out == "" and "form residual" in err

    def test_failing_stacked_kernel_is_found_per_document(self, tmp_path, capsys, monkeypatch):
        """A stacked LAPACK call fails for the whole stack; the error still
        surfaces at the document that causes it."""
        marker = np.array(boost_matrix(3, 0.9))
        eigvals = np.linalg.eigvals

        def flaky(a):
            a = np.asarray(a)
            if any(np.array_equal(m, marker) for m in a.reshape(-1, *a.shape[-2:])):
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            return eigvals(a)

        monkeypatch.setattr(np.linalg, "eigvals", flaky)
        paths = failures(tmp_path)
        fine = write(tmp_path, "fine.jsonl", np.eye(4), boost_matrix(3, 0.2))
        flaky_doc = write(tmp_path, "flaky.json", marker)
        code, out, err = run(capsys, "classify", fine, flaky_doc, fine)
        assert (code, out) == (2, "")
        assert err == "error: numerical failure: Eigenvalues did not converge\n"
        alone = run(capsys, "classify", paths["non_isometry"])
        assert run(capsys, "classify", fine, paths["non_isometry"], flaky_doc) == alone
