"""Property test: ``hypiso classify`` on a stream answers as each of its
documents answers alone.

Streams of 1 to 12 documents mix n = 2, 3 and 5 and every class, at the
default delta or at the floor, with an optional n = 3 element refused at
one of the checks of the trichotomy.  The stream's stdout, stderr and exit
code must be those of its documents run one at a time: every report in
order when all succeed, else the first failure alone.
"""

import contextlib
import io
import os
import tempfile

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from hypiso.cli import main
from hypiso.quadspace import matrix_to_json
from hypiso.sampling import random_isometry
from test_fixed_stage import REFUSALS

CLASSES = ("elliptic", "parabolic", "hyperbolic")


@st.composite
def streams(draw):
    docs = []
    for _ in range(draw(st.integers(1, 12))):
        n = draw(st.sampled_from((2, 3, 5)))
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        docs.append(np.array(random_isometry(rng, n, draw(st.sampled_from(CLASSES))).entries))
    refusal = draw(st.sampled_from((None, *REFUSALS)))
    if refusal is not None:
        docs.insert(draw(st.integers(0, len(docs))), REFUSALS[refusal])
    return docs, draw(st.sampled_from(("3e-8", "1e-7")))


def classify_cli(paths, delta):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["classify", *paths, "--delta", delta])
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=100, derandomize=True, deadline=None)
@given(streams())
def test_stream_answers_as_its_documents_alone(case):
    docs, delta = case
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for i, m in enumerate(docs):
            paths.append(os.path.join(tmp, f"{i}.json"))
            with open(paths[-1], "w", encoding="utf-8") as fh:
                fh.write(matrix_to_json(m) + "\n")
        stream = os.path.join(tmp, "stream.jsonl")
        with open(stream, "w", encoding="utf-8") as fh:
            fh.write("".join(matrix_to_json(m) + "\n" for m in docs))
        want = (0, "", "")
        for path in paths:
            code, out, err = classify_cli([path], delta)
            if code:
                want = (code, "", err)
                break
            want = (0, want[1] + out, "")
        assert classify_cli([stream], delta) == want
