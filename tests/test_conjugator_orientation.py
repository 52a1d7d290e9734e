"""Each adapted frame is oriented once, when it is built.

The splitting negates the first +-1 column of a frame with det Phi < 0
(a -1 on that line commutes with T), so every frame with a +-1 column has
det Phi > 0.  ``conjugate_in_Mn`` assembles one conjugator
S = Phi_2 M Phi_1* with det M = 1, so det S has the sign of
det Phi_2 det Phi_1: the answer is ``ConjugateInMo`` exactly when the two
orientations agree, on every conjugate pair of the benchmark's
well-conditioned set and of its conditioning tail, and no answer needs a
second construction.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

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
    agree = differ = 0
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
        for st in (st1, st2):
            assert st.orientation is bool(np.linalg.det(st.frame) > 0)
            if st.blocks.a + st.blocks.b:
                assert st.orientation
        same = st1.orientation is st2.orientation
        assert (answer.related is Relation.CONJUGATE_IN_MO) == same
        agree += same
        differ += not same
    # both outcomes are met
    assert agree and differ
