"""Eigenvalue clusters and their centres: ``vals[idx].sum() / len(idx)``
is bit-identical to ``np.mean(vals[idx])``, which it replaced, and so is
a one-member cluster's member read as a Python scalar.  The one-pass
clustering returns the clusters and the refusal of the two-pass one
(merge, then scan every pair of clusters), kept here as the reference."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from hypiso.errors import ClusterAmbiguity
from hypiso.spectral import _cluster_eigenvalues


def outcome(fn, vals, delta):
    try:
        return [list(map(int, c)) for c in fn(vals, delta)]
    except ClusterAmbiguity as exc:
        return str(exc)


def spectra(seed):
    """Random, repeated and near-2-delta spectra, real and complex, with
    the delta to cluster each at."""
    rng = np.random.default_rng(seed)
    delta = 1e-7
    out = []
    for m in (1, 2, 4, 7, 10):
        out.append(np.exp(1j * rng.uniform(-np.pi, np.pi, m)))
        out.append(rng.standard_normal(m))
        # repeated values, shuffled, with jitter well inside delta
        base = np.exp(1j * rng.uniform(0, np.pi, -(-m // 3)))
        rep = np.repeat(base, 3)[:m] + rng.uniform(-0.2, 0.2, m) * delta
        out.append(rep[rng.permutation(m)])
        # neighbours spaced near the refusal edge 2 delta, and chains that
        # single linkage joins through spacings just under delta
        step = delta * rng.choice([0.9, 0.999, 1.001, 1.999, 2.0, 2.001, 3.0], m)
        out.append(np.cumsum(step)[rng.permutation(m)] + 0.5j)
        out.append(np.cumsum(step)[rng.permutation(m)])
    return [(v, delta) for v in out]


CASES = [case for seed in range(40) for case in spectra(seed)]


def test_cases_reach_every_outcome():
    results = [outcome(_cluster_eigenvalues, v, d) for v, d in CASES]
    assert any(isinstance(r, str) for r in results)
    assert any(isinstance(r, list) and any(len(c) > 1 for c in r) for r in results)
    assert any(isinstance(r, list) and all(len(c) == 1 for c in r) for r in results)


def test_centres_equal_np_mean():
    for vals, delta in CASES:
        try:
            clusters = _cluster_eigenvalues(vals, delta)
        except ClusterAmbiguity:
            continue
        for idx in clusters:
            centre = vals[idx].sum() / len(idx)
            want = np.mean(vals[idx])
            assert centre.dtype == want.dtype and centre.tobytes() == want.tobytes()
            if len(idx) == 1:
                scalar = np.asarray(vals.tolist()[idx[0]], dtype=want.dtype)
                assert scalar.tobytes() == want.tobytes()


def test_empty_spectrum():
    assert _cluster_eigenvalues(np.zeros(0, dtype=complex), 1e-7) == []


def two_pass_clusters(vals, delta):
    """Reference: merge every pair at most delta apart, then scan every pair
    of clusters for a distance under 2 delta; ``vals`` is a sequence."""
    m = len(vals)
    parent = list(range(m))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(m):
        for j in range(i + 1, m):
            if abs(vals[i] - vals[j]) <= delta:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[ri] = rj
    groups = {}
    for i in range(m):
        groups.setdefault(find(i), []).append(i)
    clusters = list(groups.values())
    for a in range(len(clusters)):
        for b in range(a + 1, len(clusters)):
            d = min(abs(vals[i] - vals[j]) for i in clusters[a] for j in clusters[b])
            if d < 2 * delta:
                raise ClusterAmbiguity(
                    f"clusters separated by {d:.3e}, inside [delta, 2*delta); refine delta"
                )
    return clusters


def numpy_scalar_clusters(vals, delta):
    """Reference: the two-pass clustering, its distances on numpy scalars."""
    return two_pass_clusters(list(vals), delta)


def python_scalar_clusters(vals, delta):
    """Reference: the two-pass clustering on Python scalars."""
    return two_pass_clusters(vals.tolist(), delta)


def test_python_scalars_read_as_numpy_scalars():
    for vals, delta in CASES:
        assert outcome(_cluster_eigenvalues, vals, delta) == outcome(
            numpy_scalar_clusters, vals, delta
        )


def test_one_pass_matches_two_passes():
    for vals, delta in CASES:
        assert outcome(_cluster_eigenvalues, vals, delta) == outcome(
            python_scalar_clusters, vals, delta
        )


SPACINGS = (0.3, 0.999, 1.0, 1.001, 1.5, 1.999, 2.0, 2.001, 3.0)


@st.composite
def near_edge_spectra(draw):
    """(vals, delta): up to 10 points, each a spacing of SPACINGS times
    delta (jittered by up to 1e-3 of itself) from an earlier point, so
    gaps sit at the merge radius delta and at the refusal edge 2 delta;
    on the real line or in the plane."""
    delta = draw(st.sampled_from((3e-8, 1e-7, 1e-6)))
    real = draw(st.booleans())
    m = draw(st.integers(1, 10))
    base = draw(st.floats(-1.0, 1.0))
    points = [complex(base) if real else complex(base, draw(st.floats(-1.0, 1.0)))]
    for k in range(1, m):
        step = draw(st.sampled_from(SPACINGS)) * (1.0 + draw(st.floats(-1e-3, 1e-3)))
        turn = draw(st.sampled_from((0.0, np.pi))) if real else draw(st.floats(0.0, 2 * np.pi))
        points.append(points[draw(st.integers(0, k - 1))] + step * delta * np.exp(1j * turn))
    vals = np.array(points)
    return (vals.real.copy() if real else vals), delta


@settings(max_examples=400, derandomize=True, deadline=None)
@given(near_edge_spectra())
def test_one_pass_matches_two_passes_near_the_edges(case):
    vals, delta = case
    assert outcome(_cluster_eigenvalues, vals, delta) == outcome(
        python_scalar_clusters, vals, delta
    )
