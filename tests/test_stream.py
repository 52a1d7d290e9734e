"""The CLI over document streams: files with several documents, standard
input, the stacked pass of the Lorentz commands and the order in which
failures surface."""

import errno
import io
import json
import os
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import block_rotation, boost_matrix, spy
from hypiso import lapack, spectral
from hypiso.classify import classify, poincare_extend
from hypiso.cli import main
from hypiso.quadspace import QuadraticSpace, classify_membership, matrix_to_json
from hypiso.sampling import random_isometry, random_soo
from hypiso.spectral import STACKED_READING_MIN
from test_certify_path import wide_stretch_pair

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import gen  # noqa: E402  (the benchmark's numpy-only input generator)


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

    @pytest.mark.parametrize("argv", (
        ["reality", "--group", "SOo"],
        ["reality", "--group", "Mo"],
        ["oracle", "--group", "SOo", "--budget", "0"],
    ))
    def test_one_stacked_pass_per_dimension(self, tmp_path, capsys, monkeypatch, argv):
        rng = np.random.default_rng(5)
        counts = []
        for count in (2, 12):
            classes = ("elliptic", "parabolic", "hyperbolic")
            mats = [np.array(random_isometry(rng, 5, classes[i % 3]).entries) for i in range(count)]
            path = write(tmp_path, f"{count}.jsonl", *mats)
            eigvals = spy(monkeypatch, lapack, "eigvals")
            code, out, _ = run(capsys, argv[0], path, *argv[1:])
            assert code == 0 and len(out.splitlines()) == count
            counts.append(eigvals.call_count)
            monkeypatch.undo()
        assert counts == [1, 1]

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

    @pytest.mark.parametrize("argv", (["classify"], ["reality", "--group", "SOo"]))
    def test_failing_stacked_kernel_is_found_per_document(self, tmp_path, capsys, monkeypatch, argv):
        """A stacked LAPACK call fails for the whole stack; the error still
        surfaces at the document that causes it."""
        marker = np.array(boost_matrix(3, 0.9))
        eigvals = lapack.eigvals

        def flaky(a):
            a = np.asarray(a)
            if any(np.array_equal(m, marker) for m in a.reshape(-1, *a.shape[-2:])):
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            return eigvals(a)

        monkeypatch.setattr(lapack, "eigvals", flaky)
        paths = failures(tmp_path)
        fine = write(tmp_path, "fine.jsonl", np.eye(4), boost_matrix(3, 0.2))
        flaky_doc = write(tmp_path, "flaky.json", marker)
        code, out, err = run(capsys, argv[0], fine, flaky_doc, fine, *argv[1:])
        assert (code, out) == (2, "")
        assert err == "error: numerical failure: Eigenvalues did not converge\n"
        alone = run(capsys, argv[0], paths["non_isometry"], *argv[1:])
        assert run(capsys, argv[0], fine, paths["non_isometry"], flaky_doc, *argv[1:]) == alone


def refused_angles():
    """Elements whose angle reading refuses: two rotation angles 1.5 delta
    apart and a parabolic whose Jordan radius swallows its rotation pair
    (both n = 5), and a rotation pair off the unit circle (n = 3)."""
    near = np.eye(6)
    near[:5, :5] = block_rotation(1.0, 1.0 + 1.5e-7, pad=1)
    return {
        "cluster_ambiguity": near,
        "jordan_radius": poincare_extend(1.0, block_rotation(1.0, pad=2), (0, 0, 0, 150.0)).entries,
        "off_the_circle": wide_stretch_pair(25.0)[1],
    }


@pytest.mark.parametrize("case", ("cluster_ambiguity", "jordan_radius", "off_the_circle"))
def test_array_reading_leaves_a_refusal_to_the_scalar_one(tmp_path, capsys, monkeypatch, case):
    """Inside a stream long enough for the array reading of its stack, an
    element whose angle reading refuses fails as it does alone."""
    mat = refused_angles()[case]
    alone = run(capsys, "classify", write(tmp_path, "alone.json", mat))
    assert alone[0] == 3 and alone[1] == "" and alone[2].startswith("undecided:")
    n = len(mat) - 1
    pad = [it.matrix for it in gen.cli_items(7, 4 * STACKED_READING_MIN) if it.n == n]
    assert len(pad) >= STACKED_READING_MIN
    reader = spy(monkeypatch, spectral, "_stacked_reading")
    stream = write(tmp_path, "stream.jsonl", *pad[:5], mat, *pad[5:])
    assert run(capsys, "classify", stream) == alone
    assert reader.call_count == 1


class TestOneRawRead:
    """A file is read as bytes, once, and decoded as UTF-8; its line ends,
    its BOM and every error read as text mode gave them."""

    DOC = matrix_to_json(np.eye(4)).encode()

    def test_crlf_and_cr_line_ends(self, tmp_path, capsys):
        docs = [matrix_to_json(m).encode() for m in mixed_stream()[:3]]
        lf = tmp_path / "lf.jsonl"
        lf.write_bytes(b"".join(d + b"\n" for d in docs))
        crlf = tmp_path / "crlf.jsonl"
        crlf.write_bytes(docs[0] + b"\r\n" + docs[1] + b"\r" + docs[2] + b"\r\n\r\n")
        single = tmp_path / "one.json"
        single.write_bytes(docs[0] + b"\r\n")
        want = run(capsys, "classify", str(lf))
        assert want[0] == 0 and len(want[1].splitlines()) == 3
        assert run(capsys, "classify", str(crlf)) == want
        assert run(capsys, "classify", str(single)) == (0, want[1].splitlines(True)[0], "")

    def test_a_malformed_crlf_file_fails_as_its_lf_twin(self, tmp_path, capsys):
        # the char offset counts \r\n as one character, as text mode reads it
        body = b"".join([self.DOC] * 300) + b'{"n": 3,\n "matrix": [1,,]}\n'
        lf, crlf = tmp_path / "lf.jsonl", tmp_path / "crlf.jsonl"
        lf.write_bytes(body.replace(b"}{", b"}\n{"))
        crlf.write_bytes(body.replace(b"}{", b"}\r\n{").replace(b"\n ", b"\r\n "))
        want = run(capsys, "classify", str(lf))
        assert want[0] == 1 and want[1] == "" and "(char " in want[2]
        assert run(capsys, "classify", str(crlf)) == want

    @pytest.mark.parametrize("content,err", (
        (b'{"n": 3,\r\n "matrix": [1, 0,\r\n 0,]}\r\n', "Expecting value: line 3 column 4 (char 30)"),
        (b"\xef\xbb\xbf" + DOC,
         "Unexpected UTF-8 BOM (decode using utf-8-sig): line 1 column 1 (char 0)"),
        (DOC[:10] + b"\xff\xfe" + DOC[10:],
         "'utf-8' codec can't decode byte 0xff in position 10: invalid start byte"),
        (b"", "Expecting value: line 1 column 1 (char 0)"),
    ), ids=("crlf-malformed", "bom", "invalid-utf8", "empty"))
    def test_malformed_bytes(self, tmp_path, capsys, content, err):
        path = tmp_path / "doc.json"
        path.write_bytes(content)
        assert run(capsys, "classify", str(path)) == (1, "", f"malformed input: {err}\n")

    def test_a_directory(self, tmp_path, capsys):
        err = f"[Errno {errno.EISDIR}] {os.strerror(errno.EISDIR)}: {str(tmp_path)!r}"
        assert run(capsys, "classify", str(tmp_path)) == (1, "", f"malformed input: {err}\n")


def feed(fifos, payloads):
    """Write each payload into its FIFO, in order; each open blocks until
    the reader opens that FIFO, or until ``release`` does."""
    for path, data in zip(fifos, payloads):
        try:
            with open(path, "wb") as fh:
                fh.write(data)
        except OSError:  # the reader closed it unread
            pass


def release(fifos, writer, timeout=10.0):
    """Open every FIFO for reading until the writer is done, so an open it
    is blocked in returns even where the reader stopped early."""
    deadline = time.monotonic() + timeout
    while writer.is_alive() and time.monotonic() < deadline:
        for path in fifos:
            try:
                os.close(os.open(path, os.O_RDONLY | os.O_NONBLOCK))
            except OSError:
                pass
        writer.join(0.05)


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
@pytest.mark.parametrize("malformed", (False, True))
def test_named_pipes_read_as_regular_files(tmp_path, capsys, malformed):
    mats = mixed_stream()
    payloads = [(matrix_to_json(m) + "\n").encode() for m in mats[:-4]]
    payloads.append(b"".join(matrix_to_json(m).encode() + b"\r\n" for m in mats[-4:]))
    if malformed:  # the reader stops at it and leaves the FIFOs after it unopened
        payloads.insert(3, b'{"n": 3, "matrix": [1, 2]}')
    files, fifos = [], []
    for i, data in enumerate(payloads):
        (tmp_path / f"f{i}.json").write_bytes(data)
        files.append(str(tmp_path / f"f{i}.json"))
        os.mkfifo(tmp_path / f"p{i}.json")
        fifos.append(str(tmp_path / f"p{i}.json"))
    want = run(capsys, "classify", *files)
    assert want[0] == (1 if malformed else 0)
    writer = threading.Thread(target=feed, args=(fifos, payloads), daemon=True)
    writer.start()
    try:
        got = run(capsys, "classify", *fifos)
    finally:
        release(fifos, writer)
    assert not writer.is_alive()
    assert got == want
