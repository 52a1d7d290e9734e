import json
import warnings

import numpy as np
import pytest

from conftest import block_rotation, boost_matrix
from hypiso import lapack
from hypiso.cli import main
from hypiso.quadspace import Component, QuadraticSpace, classify_membership, matrix_to_json
from hypiso.sampling import random_orthogonal, random_soo
from hypiso.spectral import rotation_matrix


def write_matrix(tmp_path, name, mat):
    path = tmp_path / name
    path.write_text(matrix_to_json(mat) + "\n")
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestClassify:
    def test_identity_is_zero_rotation_elliptic(self, tmp_path, capsys):
        path = write_matrix(tmp_path, "id.json", np.eye(4))
        code, out, _ = run(capsys, "classify", path)
        assert code == 0
        doc = json.loads(out)
        assert doc["class"] == "Elliptic" and doc["k"] == 0
        assert doc["stretch"] is None

    def test_batch_order_preserved(self, tmp_path, capsys):
        p1 = write_matrix(tmp_path, "a.json", np.eye(4))
        p2 = write_matrix(tmp_path, "b.json", boost_matrix(3, 0.5))
        code, out, _ = run(capsys, "classify", p1, p2)
        assert code == 0
        lines = out.strip().splitlines()
        assert json.loads(lines[0])["class"] == "Elliptic"
        assert json.loads(lines[1])["class"] == "Hyperbolic"

    def test_malformed_input_exits_1(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"n": 3, "matrix": [1, 2]}')
        code, _, err = run(capsys, "classify", str(path))
        assert code == 1 and err

    def test_non_isometry_exits_2(self, tmp_path, capsys):
        path = write_matrix(tmp_path, "x.json", 2 * np.eye(4))
        code, _, err = run(capsys, "classify", str(path))
        assert code == 2 and "error" in err

    def test_borderline_exits_3(self, tmp_path, capsys):
        path = write_matrix(tmp_path, "b.json", boost_matrix(2, 5e-8))
        code, _, err = run(capsys, "classify", str(path), "--eps", "1e-6")
        assert code == 3 and "undecided" in err


class TestReality:
    def test_blanket_case(self, tmp_path, capsys):
        m = np.eye(5)
        m[:4, :4] = block_rotation(0.7, 1.9)
        path = write_matrix(tmp_path, "m.json", m)
        code, out, _ = run(capsys, "reality", path, "--group", "SOo")
        assert code == 0
        doc = json.loads(out)
        assert doc["decision"] is True and doc["clause"] == "Thm1.1-1"
        assert doc["involution"] is True
        rev = np.array(doc["reverser"]["matrix"]).reshape(5, 5)
        sp = QuadraticSpace(4)
        classify_membership(sp, rev, 1e-8)  # revalidates

    def test_so_group(self, tmp_path, capsys):
        path = write_matrix(tmp_path, "r.json", block_rotation(np.pi / 2))
        code, out, _ = run(capsys, "reality", path, "--group", "SOn")
        assert code == 0
        assert json.loads(out)["decision"] is False


class TestConjugacy:
    def test_conjugate_pair(self, tmp_path, capsys):
        m = boost_matrix(3, 0.8)
        p1 = write_matrix(tmp_path, "t1.json", m)
        p2 = write_matrix(tmp_path, "t2.json", np.linalg.inv(m))
        code, out, _ = run(capsys, "conjugacy", p1, p2, "--group", "Mon")
        assert code == 0
        assert json.loads(out)["related"] == "ConjugateInMo"

    def test_not_conjugate(self, tmp_path, capsys):
        p1 = write_matrix(tmp_path, "t1.json", np.eye(4))
        p2 = write_matrix(tmp_path, "t2.json", boost_matrix(3, 0.5))
        code, out, _ = run(capsys, "conjugacy", p1, p2)
        assert code == 0
        assert json.loads(out)["related"] == "NotConjugate"

    def test_non_regular_pair_without_pm1_is_conjugate_in_m_only(self, tmp_path, capsys):
        # a non-regular full rotation of SO_o(4,1) without +-1 and its
        # conjugate by a reflection: the frames differ in orientation, and
        # every sheet-preserving element commuting with it keeps its
        # time-like axis and its one angle-1 eigenspace, where it lies in
        # U(2) < SO(4); so it has det +1 and the det -1 conjugator is final
        w = random_soo(np.random.default_rng(0), 4)
        m = np.eye(5)
        m[:4, :4] = block_rotation(1.0, 1.0)
        t1 = w @ m @ np.linalg.inv(w)
        g = np.diag([-1.0, 1.0, 1.0, 1.0, 1.0])
        t2 = g @ t1 @ g
        p1 = write_matrix(tmp_path, "t1.json", t1)
        p2 = write_matrix(tmp_path, "t2.json", t2)
        code, out, err = run(capsys, "conjugacy", p1, p2)
        doc = json.loads(out)
        assert code == 0 and err == ""
        assert doc["related"] == "ConjugateInMOnly" and doc["method"] == "centralizer-enum"
        s = np.array(doc["conjugator"]["matrix"]).reshape(5, 5)
        assert np.abs(s @ t1 - t2 @ s).max() <= 1e-8
        comp = classify_membership(QuadraticSpace(4), s, 1e-7).component
        assert comp is Component.O_minus_preserving


class TestDims:
    def test_elliptic_example(self, capsys):
        code, out, _ = run(
            capsys, "dims", "--class", "elliptic", "--k", "2", "--n", "5"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["base"] == {"tag": "SphereSpace", "params": [1, 5]}
        assert doc["fiber"]["tag"] == "O_k" and doc["fiber"]["params"] == [2, 4]

    def test_covering_sheets(self, capsys):
        code, out, _ = run(
            capsys, "dims", "--class", "rotation", "--k", "2", "--n", "4", "--has-pi"
        )
        doc = json.loads(out)
        assert doc["sheet_count"] == 4


class TestEnumerate:
    def test_counts(self, capsys):
        code, out, _ = run(
            capsys, "enumerate", "--k", "2", "--angles", "1.0471975511965976,1.5707963267948966"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["count"] == 8 and len(doc["elements"]) == 8

    def test_pi_flag(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--k", "2", "--angles", "0.9", "--has-pi")
        doc = json.loads(out)
        assert doc["count"] == 4 and doc["has_pi"] is True

    def test_has_pi_is_read_from_the_angles(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--k", "2", "--angles", "3.14159265358979,1")
        doc = json.loads(out)
        assert code == 0 and doc["has_pi"] is True and doc["angles"][0] == np.pi

    @pytest.mark.parametrize("angles,delta", (("3.14159264,1", "1e-7"), ("3.1415,1", "1e-3")))
    def test_pi_flag_reads_pi_as_the_decomposition_does(self, capsys, angles, delta):
        # the first angle is within delta of pi, so the decomposition reads
        # its plane as the plane of pi and the flag adds no other
        argv = ["enumerate", "--k", "2", "--angles", angles, "--delta", delta]
        flagged, plain = run(capsys, *argv, "--has-pi"), run(capsys, *argv)
        assert flagged == plain and plain[0] == 0 and plain[2] == ""
        doc = json.loads(plain[1])
        assert doc["has_pi"] is True and doc["angles"] == [np.pi, 1.0] and doc["count"] == 4

    def test_an_angle_read_as_a_rotation_is_not_pi(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--k", "2", "--angles", "3.1415,1")
        doc = json.loads(out)
        assert code == 0 and doc["has_pi"] is False and doc["angles"] == [3.1415, 1.0]
        code, out, _ = run(capsys, "enumerate", "--k", "3", "--angles", "3.1415,1", "--has-pi")
        doc = json.loads(out)
        assert code == 0 and doc["has_pi"] is True and doc["angles"] == [np.pi, 3.1415, 1.0]

    @pytest.mark.parametrize("k,angles,named", [
        ("1", "0", "angle 0.0 is not in (0, pi]"),
        ("1", "4.0", "angle 4.0 is not in (0, pi]"),
        ("1", "7", "angle 7.0 is not in (0, pi]"),
        ("1", "-1", "angle -1.0 is not in (0, pi]"),
        ("1", "inf", "angle inf is not in (0, pi]"),
        ("1", "nan", "angle nan is not in (0, pi]"),
        ("0", ",", "--k must be at least 1, got 0"),
        ("-2", "1.0", "--k must be at least 1, got -2"),
        ("1", "1e-9", "the decomposition reads 0 of the 1 angles"),
        ("3", "1,2", "--k 3 does not match 2 angles"),
    ])
    def test_out_of_range_is_refused_by_name(self, capsys, k, angles, named):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # refused before numpy sees the value
            code, out, err = run(capsys, "enumerate", f"--k={k}", f"--angles={angles}")
        assert code == 2 and out == "" and err.startswith(f"error: {named}")


class TestRandomAndOracle:
    def test_determinism(self, tmp_path, capsys):
        args = ["random", "--group", "SOo", "--n", "3", "--count", "5", "--seed", "11"]
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2

    def test_emitted_matrices_revalidate(self, capsys):
        code, out, _ = run(
            capsys, "random", "--group", "Mo", "--n", "3", "--count", "4", "--seed", "3"
        )
        assert code == 0
        for line in out.strip().splitlines():
            doc = json.loads(line)
            sp = QuadraticSpace(doc["n"])
            mat = np.array(doc["matrix"]).reshape(sp.dim, sp.dim)
            t = classify_membership(sp, mat, 1e-8)
            assert t.identity_component

    def test_oracle_document(self, tmp_path, capsys):
        path = write_matrix(tmp_path, "u.json", block_rotation(np.pi / 2))
        code, out, _ = run(
            capsys, "oracle", path, "--group", "On", "--budget", "100", "--seed", "1"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["exact"] == [[-1, 1]]

    def test_negative_budget_is_refused(self, tmp_path, capsys):
        path = write_matrix(tmp_path, "u.json", block_rotation(np.pi / 2))
        code, out, err = run(capsys, "oracle", path, "--group", "On", "--budget", "-5")
        assert code == 2 and out == "" and err == "error: negative budget -5\n"

    def test_seeded_oracle_deterministic(self, tmp_path, capsys):
        path = write_matrix(tmp_path, "u.json", block_rotation(0.8, 0.8))
        args = ["oracle", path, "--group", "On", "--budget", "128", "--seed", "9"]
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2

    def test_output_file(self, tmp_path, capsys):
        out_path = tmp_path / "out.jsonl"
        code, out, _ = run(
            capsys,
            "random", "--group", "On", "--n", "4", "--count", "2", "--seed", "5",
            "--output", str(out_path),
        )
        assert code == 0 and out == ""
        assert len(out_path.read_text().strip().splitlines()) == 2

    @pytest.mark.parametrize("argv,named", [
        (["--group", "SOo", "--n", "3", "--count", "0"], "--count must be at least 1, got 0"),
        (["--group", "SOo", "--n", "3", "--count", "-2"], "--count must be at least 1, got -2"),
        (["--group", "On", "--n", "1"], "--n must be at least 2 for --group On, got 1"),
        (["--group", "SOn", "--n", "1"], "--n must be at least 2 for --group SOn, got 1"),
        (["--group", "On", "--n", "-3"], "--n must be at least 2 for --group On, got -3"),
        (["--group", "SOn", "--n", "0"], "--n must be at least 2 for --group SOn, got 0"),
        (["--group", "SOo", "--n", "0"], "--n must be at least 1 for --group SOo, got 0"),
        (["--group", "Mo", "--n", "-1"], "--n must be at least 0 for --group Mo, got -1"),
        (["--group", "SOo", "--n", "3", "--class", "elliptic", "--k", "-1"],
         "k must be at least 0, got -1"),
    ])
    def test_out_of_range_is_refused_by_name(self, capsys, argv, named):
        assert run(capsys, "random", *argv) == (2, "", f"error: {named}\n")

    @pytest.mark.parametrize("group,n", [("On", 2), ("SOn", 2), ("SOo", 1), ("Mo", 0)])
    def test_smallest_n_reads_back(self, tmp_path, capsys, group, n):
        path = tmp_path / "r.jsonl"
        argv = ["random", "--group", group, "--n", str(n), "--count", "6", "--seed", "4"]
        assert run(capsys, *argv, "--output", str(path)) == (0, "", "")
        code, out, err = run(capsys, "reality", str(path), "--group", group)
        assert code == 0, err
        assert len(out.splitlines()) == 6


class TestRandomClassAndK:
    """``--class`` and ``--k`` are Lorentz-only; without ``--class`` the class
    is drawn among those that admit ``--k``."""

    @pytest.mark.parametrize("group,n", [("SOo", 1), ("SOo", 3), ("SOo", 4), ("Mo", 2), ("Mo", 4)])
    def test_every_seed_draws_an_admitting_class(self, tmp_path, capsys, group, n):
        dim = n + (group == "Mo")
        path = str(tmp_path / "r.jsonl")
        for k in range(dim // 2 + 1):
            seen = set()
            for seed in range(6):
                argv = ["random", "--group", group, "--n", str(n), "--k", str(k),
                        "--count", "4", "--seed", str(seed), "--output", path]
                assert run(capsys, *argv) == (0, "", "")
                code, out, _ = run(capsys, "classify", path)
                assert code == 0
                for line in out.splitlines():
                    doc = json.loads(line)
                    assert doc["k"] == k
                    seen.add(doc["class"])
            if k == dim // 2:  # the bound of the elliptic class alone when dim is even
                assert seen == ({"Elliptic"} if dim % 2 == 0 else {"Elliptic", "Hyperbolic"})

    @pytest.mark.parametrize("group,n,k,most", [("SOo", 3, 2, 1), ("SOo", 4, 3, 2), ("Mo", 3, 3, 2)])
    def test_k_over_half_the_dimension_is_refused_by_name(self, capsys, group, n, k, most):
        argv = ["random", "--group", group, "--n", str(n), "--k", str(k)]
        err = f"error: --k must be at most {most} for --group {group} --n {n}, got {k}\n"
        assert run(capsys, *argv) == (2, "", err)

    @pytest.mark.parametrize("group", ("On", "SOn"))
    @pytest.mark.parametrize("extra,named", [
        (["--class", "parabolic"], "--class"),
        (["--k", "5"], "--k"),
        (["--k", "0", "--class", "elliptic"], "--class and --k"),
    ])
    def test_orthogonal_groups_refuse_lorentz_options(self, capsys, group, extra, named):
        argv = ["random", "--group", group, "--n", "3", *extra]
        err = f"error: {named}: only for the Lorentz groups SOo and Mo, not --group {group}\n"
        assert run(capsys, *argv) == (2, "", err)

    def test_help_names_them_lorentz_only(self, capsys):
        with pytest.raises(SystemExit):
            main(["random", "--help"])
        text = " ".join(capsys.readouterr().out.split())
        assert "--class {elliptic,parabolic,hyperbolic} SOo and Mo only" in text
        assert "rotation planes, SOo and Mo only" in text


class TestOracleComponent:
    """The Lorentz oracle takes identity-component elements only, as the
    SO_o reality decider does."""

    @pytest.mark.parametrize("group", ("SOo", "Mo"))
    def test_outside_the_identity_component_exits_2(self, tmp_path, capsys, group):
        m = np.diag([-1.0, 1.0, 1.0, 1.0])
        m[1:3, 1:3] = rotation_matrix(1.0)
        path = write_matrix(tmp_path, "flip.json", m)
        for command in ("oracle", "reality"):
            argv = [command, path, "--group", group] + ["--budget", "0"] * (command == "oracle")
            assert run(capsys, *argv) == (2, "", "error: element is outside SO_o(n,1)\n")


class TestDocumentN:
    """"n" must be a JSON integer: anything else is malformed input."""

    @pytest.mark.parametrize("n", ("3.7", "3.0", "true", '"3"', "null", "[3]"))
    def test_non_integer_n_exits_1(self, tmp_path, capsys, n):
        path = tmp_path / "n.json"
        path.write_text('{"n": %s, "matrix": %s}' % (n, json.dumps(np.eye(4).ravel().tolist())))
        code, out, err = run(capsys, "classify", str(path))
        assert (code, out) == (1, "")
        assert err.startswith("malformed input: malformed matrix document:")

    def test_integer_n_is_read(self, tmp_path, capsys):
        path = tmp_path / "n.json"
        path.write_text('{"n": 3, "matrix": %s}' % json.dumps(np.eye(4).ravel().tolist()))
        assert run(capsys, "classify", str(path))[0] == 0


class TestDocumentMatrix:
    """"matrix" must be a flat list of JSON numbers: strings, booleans,
    nested rows and integers past the doubles are malformed input."""

    @pytest.mark.parametrize("matrix,problem", (
        ('["1", "0", "0", "1"]', "matrix entries must be JSON numbers, got str"),
        ("[true, false, false, true]", "matrix entries must be JSON numbers, got bool"),
        ("[[1, 0], [0, 1]]", "matrix entries must be JSON numbers, got list"),
        ('[1, "0", true, 1]', "matrix entries must be JSON numbers, got bool, str"),
        ("5", "matrix must be a list of numbers, got int"),
        ("[1, 0, 0, 1%s]" % ("0" * 400), "int too large to convert to float"),
    ))
    def test_non_numeric_entries_exit_1(self, tmp_path, capsys, matrix, problem):
        path = tmp_path / "m.json"
        path.write_text('{"n": 1, "matrix": %s}' % matrix)
        assert run(capsys, "classify", str(path)) == (
            1, "", f"malformed input: malformed matrix document: {problem}\n"
        )

    def test_integers_and_floats_are_read_alike(self, tmp_path, capsys):
        ints, floats = tmp_path / "i.json", tmp_path / "f.json"
        ints.write_text('{"n": 1, "matrix": [1, 0, 0, 1]}')
        floats.write_text('{"n": 1, "matrix": [1.0, 0.0, 0.0, 1.0]}')
        got = run(capsys, "classify", str(ints))
        assert got[0] == 0 and got == run(capsys, "classify", str(floats))


class TestOneRadius:
    """An SO_o(3,1) rotation by pi - 8e-8 at --delta 5e-8: its pair lies
    8e-8 from -1, so at that delta it is a rotation plane, not -1."""

    def element(self, tmp_path):
        m = np.eye(5)
        m[:2, :2] = rotation_matrix(np.pi - 8e-8)
        return write_matrix(tmp_path, "near_pi.json", m)

    def test_classify_reads_one_angle(self, tmp_path, capsys):
        code, out, _ = run(capsys, "classify", self.element(tmp_path), "--delta", "5e-8")
        assert code == 0
        doc = json.loads(out)
        assert doc["k"] == 1 and doc["angles"] == [np.pi - 8e-8]

    def test_reality_answers(self, tmp_path, capsys):
        path = self.element(tmp_path)
        code, out, err = run(capsys, "reality", path, "--group", "SOo", "--delta", "5e-8")
        assert code == 0, err
        assert json.loads(out)["decision"] is True


class TestNumericalFailure:
    """LinAlgError is a ValueError, but a LAPACK routine that does not
    converge is no fault of the input: exit 2, not 1."""

    @pytest.fixture(autouse=True)
    def failing_svd(self, monkeypatch):
        def svd(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(lapack, "svd", svd)

    def test_oracle(self, tmp_path, capsys):
        m = random_orthogonal(np.random.default_rng(11), 11)
        path = write_matrix(tmp_path, "o.json", m)
        code, out, err = run(capsys, "oracle", path, "--group", "On", "--budget", "32")
        assert code == 2 and out == ""
        assert err == "error: numerical failure: SVD did not converge\n"

    def test_classify(self, tmp_path, capsys):
        path = write_matrix(tmp_path, "b.json", boost_matrix(3, 0.5))
        code, out, err = run(capsys, "classify", path)
        assert code == 2 and out == ""
        assert err == "error: numerical failure: SVD did not converge\n"


def run_subprocess(*argv):
    """Run ``python -m hypiso.cli`` (or ``python -c`` code) in a fresh interpreter."""
    import os
    import subprocess
    import sys

    import hypiso

    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(hypiso.__file__)))
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, *argv], capture_output=True, text=True, env=env, timeout=120
    )


class TestOverflowingEntries:
    DOC = '{"n": 2, "matrix": [1e300, 0, 0, 0, 1, 0, 0, 0, 1]}'

    def test_classify_exits_2_without_traceback(self, tmp_path):
        path = tmp_path / "big.json"
        path.write_text(self.DOC + "\n")
        proc = run_subprocess("-m", "hypiso.cli", "classify", str(path))
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert proc.stdout == ""

    def test_orthogonal_reality_exits_2_without_traceback(self, tmp_path):
        path = tmp_path / "big.json"
        path.write_text(self.DOC + "\n")
        proc = run_subprocess("-m", "hypiso.cli", "reality", "--group", "On", str(path))
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr


def test_import_path_loads_no_scipy():
    code = (
        "import sys, hypiso, hypiso.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    proc = run_subprocess("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_sampler_runs_without_scipy():
    code = (
        "import sys; sys.modules['scipy'] = None\n"
        "import numpy as np\n"
        "from hypiso.cli import main\n"
        "from hypiso.sampling import random_isometry\n"
        "rng = np.random.default_rng(3)\n"
        "for n in range(2, 10):\n"
        "    for cls in ('elliptic', 'parabolic', 'hyperbolic'):\n"
        "        random_isometry(rng, n, cls)\n"
        "sys.exit(main(['random', '--group', 'SOo', '--n', '5']))\n"
    )
    proc = run_subprocess("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[0])["n"] == 5


class TestImportGraph:
    """``import hypiso`` and ``hypiso classify`` load only the classify path;
    the public names of the other modules resolve on first use."""

    LATE = ("hypiso.frames", "hypiso.reality", "hypiso.conjugacy", "hypiso.classgeom",
            "hypiso.sampling")

    def test_classify_loads_no_other_module(self, tmp_path):
        path = write_matrix(tmp_path, "t.json", boost_matrix(3, 0.5))
        proc = run_subprocess("-X", "importtime", "-m", "hypiso.cli", "classify", path)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["class"] == "Hyperbolic"
        loaded = {
            line.rsplit("|", 1)[1].strip()
            for line in proc.stderr.splitlines()
            if line.startswith("import time:")
        }
        assert "hypiso.classify" in loaded
        assert loaded.isdisjoint(self.LATE)

    def test_import_hypiso_loads_no_other_module(self):
        code = "import json, sys, hypiso; print(json.dumps(list(sys.modules)))"
        proc = run_subprocess("-c", code)
        assert proc.returncode == 0, proc.stderr
        loaded = set(json.loads(proc.stdout))
        assert "hypiso.classify" in loaded
        assert loaded.isdisjoint(self.LATE)

    @pytest.mark.parametrize("first", ("hypiso.cli", "hypiso.conjugacy"))
    def test_classify_is_the_function(self, first):
        code = f"import inspect, {first}, hypiso; print(inspect.isfunction(hypiso.classify))"
        proc = run_subprocess("-c", code)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "True"

    def test_every_public_name_resolves(self):
        code = (
            "import json, hypiso\n"
            "names = hypiso.__all__\n"
            "listed = [n for n in names if n in dir(hypiso)]\n"
            "modules = [hypiso.reality.__name__, hypiso.conjugacy.__name__]\n"
            "got = [n for n in names if getattr(hypiso, n) is not None]\n"
            "scope = {}\n"
            "exec('from hypiso import *', scope)\n"
            "bound = [n for n in names if scope.get(n) is getattr(hypiso, n)]\n"
            "print(json.dumps([len(names), len(got), len(listed), len(bound), modules]))\n"
        )
        proc = run_subprocess("-c", code)
        assert proc.returncode == 0, proc.stderr
        total, got, listed, bound, modules = json.loads(proc.stdout)
        assert total == got == listed == bound > 50
        assert modules == ["hypiso.reality", "hypiso.conjugacy"]

    def test_unknown_name_raises_attribute_error(self):
        import hypiso

        with pytest.raises(AttributeError, match="no_such_name"):
            hypiso.no_such_name
        assert not hasattr(hypiso, "no_such_name")
