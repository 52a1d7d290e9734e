"""Property test: each Lorentz stream command (``classify``, ``reality``
in SOo and Mo, ``oracle`` in SOo at budget 0) answers a stream as each of
its documents answers alone.

Streams of 1 to 12 documents mix n = 2, 3 and 5 and every class, at the
default delta or at the floor, with an optional n = 3 element refused at
one of the checks of the trichotomy.  The stream's stdout, stderr and exit
code must be those of its documents run one at a time: every answer in
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
COMMANDS = (
    ("classify",),
    ("reality", "--group", "SOo"),
    ("reality", "--group", "Mo"),
    ("oracle", "--group", "SOo", "--budget", "0"),
)


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
    return docs, draw(st.sampled_from(("3e-8", "1e-7"))), draw(st.sampled_from(COMMANDS))


def run_cli(command, paths, delta):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([command[0], *paths, *command[1:], "--delta", delta])
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=100, derandomize=True, deadline=None)
@given(streams())
def test_stream_answers_as_its_documents_alone(case):
    docs, delta, command = case
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
            code, out, err = run_cli(command, [path], delta)
            if code:
                want = (code, "", err)
                break
            want = (0, want[1] + out, "")
        assert run_cli(command, [stream], delta) == want
