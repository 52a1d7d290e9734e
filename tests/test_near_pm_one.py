"""Property test: the angle multiset and the invariant blocks are one
reading of the spectrum, also for angles within a few delta of 0 or pi.

Haar orthogonal matrices of determinant +-1 get up to two rotation angles
within [0, 3 delta] of 0 or pi, at delta from 1e-9 to 1e-6; wherever
``rotation_angles`` answers, ``invariant_plane_frames`` must give the same
k and reflection flag and blocks that fill the dimension.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import maxabs
from hypiso import spectral
from hypiso.errors import ClusterAmbiguity
from hypiso.sampling import random_orthogonal, rotation_with_angles
from hypiso.spectral import rotation_angles

DELTAS = (1e-9, 1e-8, 1e-7, 1e-6)


@st.composite
def near_pm_one(draw):
    """(A, delta): A = Q blockdiag(B(t_1), ..., B(t_k), D) Q^T with Q Haar,
    D = I or a reflection, and up to two t_i pushed next to 0 or pi."""
    delta = draw(st.sampled_from(DELTAS))
    n = draw(st.integers(2, 9))
    det = draw(st.sampled_from((1, -1)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    k = n // 2 if det == 1 or n % 2 else n // 2 - 1
    angles = list(rng.uniform(0.0, np.pi, size=k))
    for i in draw(st.lists(st.integers(0, max(k - 1, 0)), max_size=min(k, 2), unique=True)):
        offset = draw(st.floats(0.0, 3 * delta))
        angles[i] = draw(st.sampled_from((offset, np.pi - offset)))
    d = rotation_with_angles(angles, n)
    if det < 0:
        d[-1, -1] = -1.0
    q = random_orthogonal(rng, n)
    return q @ d @ q.T, delta


@settings(max_examples=200, derandomize=True, deadline=None)
@given(near_pm_one())
def test_blocks_read_the_spectrum_as_the_angles_do(case):
    a, delta = case
    try:
        ra = rotation_angles(a, delta)
    except ClusterAmbiguity:
        return
    blocks = spectral.invariant_plane_frames(a, delta)
    assert blocks.angles.k == ra.k
    assert blocks.angles.reflection == ra.reflection
    assert 2 * blocks.p + blocks.a + blocks.b == a.shape[0]
    f = blocks.frame
    assert maxabs(f.T @ f - np.eye(a.shape[0])) <= 1e-12
