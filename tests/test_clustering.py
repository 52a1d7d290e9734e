"""Eigenvalue clusters and their centres: ``vals[idx].sum() / len(idx)``
is bit-identical to ``np.mean(vals[idx])``, which it replaced."""

import numpy as np
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


def test_empty_spectrum():
    assert _cluster_eigenvalues(np.zeros(0, dtype=complex), 1e-7) == []
