"""Only the conjugator reads a frame's orientation.

The splitting leaves det Phi as it falls.  ``conjugate_in_Mn`` assembles
one conjugator S = Phi_2 M Phi_1* with det M = 1, but for a -1 on the
first +-1 column when the two orientations differ and the pair has a
space-like +-1 eigenvector (that -1 commutes with T1).  So the answer is
``ConjugateInMo``, and det S > 0, exactly when the orientations agree or
the pair has a +-1 column, on every conjugate pair of the benchmark's
well-conditioned set and of its conditioning tail, and no answer needs a
second construction.
"""

import ast
import sys
from pathlib import Path

import numpy as np
import pytest

import hypiso
from hypiso.conjugacy import Relation, conjugate_in_Mn
from hypiso.errors import HypisoError
from hypiso.quadspace import QuadraticSpace, classify_membership
from hypiso.reality import _lorentz_structure
from hypiso.spectral import DEFAULT_DELTA, _LorentzSpectrum

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import gen  # noqa: E402  (the benchmark's numpy-only input generator)


@pytest.mark.parametrize("items", [gen.certify_items(7), gen.tail_items(101)],
                         ids=["certify-7", "tail-101"])
def test_the_determinant_follows_the_orientations(items):
    agree = evened = differ = 0
    for item in items:
        if item.control:
            continue
        space = QuadraticSpace(item.n)
        t1, t2 = classify_membership(space, item.matrix), classify_membership(space, item.partner)
        try:
            answer = conjugate_in_Mn(t1, t2)
        except HypisoError as exc:  # a refusal, never the component mismatch
            assert "left the identity component" not in str(exc)
            continue
        assert answer.method != "reality-clause"
        st1, st2 = (_lorentz_structure(_LorentzSpectrum.of(t, DEFAULT_DELTA)) for t in (t1, t2))
        same = (np.linalg.det(st1.frame) > 0) == (np.linalg.det(st2.frame) > 0)
        pm_one = st1.blocks.a + st1.blocks.b > 0
        in_mo = answer.related is Relation.CONJUGATE_IN_MO
        assert in_mo == (same or pm_one)
        assert in_mo == (np.linalg.det(answer.conjugator) > 0)
        agree += same
        evened += not same and pm_one
        differ += not same and not pm_one
    # every outcome is met
    assert agree and evened and differ


SOURCE = Path(hypiso.__file__).resolve().parent


def frame_dets(source: str) -> list:
    """Line of each ``det`` call in ``source`` whose arguments name a
    frame, as a variable (``frame``) or an attribute (``st.frame``)."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        f = node.func
        if not ((isinstance(f, ast.Attribute) and f.attr == "det")
                or (isinstance(f, ast.Name) and f.id == "det")):
            continue
        names = {n.id for a in node.args for n in ast.walk(a) if isinstance(n, ast.Name)}
        names |= {n.attr for a in node.args for n in ast.walk(a) if isinstance(n, ast.Attribute)}
        if "frame" in names:
            out.append(node.lineno)
    return out


def test_only_the_conjugator_reads_a_frame_orientation():
    reads = [f"{path.name}:{line}" for path in sorted(SOURCE.glob("*.py"))
             if path.name != "conjugacy.py"
             for line in frame_dets(path.read_text(encoding="utf-8"))]
    assert reads == []


@pytest.mark.parametrize("call", [
    "lapack.det(frame)", "lapack.det(st.frame)", "det(st2.frame[:, :3])",
    "np.linalg.det(w @ x.frame)",
])
def test_the_guard_sees_each_form(call):
    assert frame_dets(f"y = {call}\n") == [1]
    assert frame_dets("y = lapack.det(s[:-1, :-1])\n") == []
