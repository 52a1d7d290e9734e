"""The determinant of a conjugator is chosen from the frames' orientations.

``conjugate_in_Mn`` assembles one conjugator S = Phi_2 E M Phi_1*.  As
det M = 1, det S has the sign of det E det Phi_2 det Phi_1, so E, a -1 on
the first +-1 column of Phi_2, is applied exactly when the orientations of
the two adapted frames differ and T2 has such a column; when they differ
and it has none, S keeps determinant -1 and the answer is
``ConjugateInMOnly`` (centralizer-enum) or ``Undecided``.  The membership
check of S must agree, on every conjugate pair of the benchmark's
well-conditioned set and of its conditioning tail.
"""

import sys
from pathlib import Path

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
    flipped = kept = 0
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
        st1, st2 = (_lorentz_structure(_LorentzSpectrum.of(t, DEFAULT_DELTA)) for t in (t1, t2))
        differ = st1.orientation is not st2.orientation
        pm = st2.blocks.a + st2.blocks.b > 0
        assert (answer.method == "reality-clause") == (differ and pm)
        assert (answer.related in (Relation.CONJUGATE_IN_M_ONLY, Relation.UNDECIDED)) == (
            differ and not pm
        )
        flipped += differ and pm
        kept += differ and not pm
    # both branches of the rule are met
    assert flipped and kept
