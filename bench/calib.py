"""Machine-speed calibration for the end-to-end timings.

On a shared machine the speed of a core drifts by tens of percent over
tens of seconds to minutes, and a drift that covers a whole run moves its
medians however long the run is.  ``rep_seconds`` times a fixed
computation that has the library's instruction mix (small-matrix LAPACK
calls -- svd, eig, inv, det, qr, norm -- wrapped in Python-level
bookkeeping) and uses nothing from ``hypiso``, so no change to the library
can move it.  In-process work runs it in short chunks between the ops,
and a time measured there is multiplied by ``scale`` = ``REF_REP_S`` /
the mean seconds per rep, i.e. expressed on a reference machine on which
one rep takes ``REF_REP_S``.  A slower library still reads slower; a
slower machine does not.  Over 20 s windows the ratio of certify op time
to calibration time moved a fifth as much as the op time did (2-vCPU
shared VM).

Process start-up (exec, dynamic loading, imports) drifts less than that
computation does, so a measured child process -- a CLI run, a set-up
probe -- is paired instead with a reference process: this file run as a
script, a fresh interpreter that imports numpy and scipy.linalg and runs
a given number of reps (``process_seconds``, ``process_scale``).
"""

from __future__ import annotations

import subprocess
import sys
import time

import numpy as np
import scipy.linalg

REF_REP_S = 0.0015  # one rep on the reference machine
REF_START_S = 0.5  # start-up of the reference process on that machine

_RNG = np.random.default_rng(20091009)
_MATS = [_RNG.standard_normal((k, k)) for k in (4, 6, 10) for _ in range(2)]


def _rep() -> float:
    acc = 0.0
    for m in _MATS:
        u, s, vt = np.linalg.svd(m)
        w = np.linalg.eigvals(m)
        vals, vecs = scipy.linalg.eig(m)
        q, r = np.linalg.qr(m @ m.T + np.eye(len(m)))
        acc += float(s[0]) + float(np.abs(w).max()) + float(np.abs(vals).min())
        acc += float(np.linalg.det(q)) + float(np.linalg.norm(np.linalg.inv(r) @ q.T))
        ranked = sorted(((abs(x), i) for i, x in enumerate(w.tolist())), reverse=True)
        info = {f"{i}:{v:.3f}": v for v, i in ranked}
        acc += sum(info.values()) * 1e-9
    return acc


def rep_seconds(reps: int) -> float:
    """Seconds per rep, over ``reps`` reps."""
    t0 = time.perf_counter()
    for _ in range(reps):
        _rep()
    return (time.perf_counter() - t0) / reps


def scale(*rep_secs: float) -> float:
    """Factor that puts a time onto the reference machine, from the
    seconds per rep measured around it."""
    return REF_REP_S * len(rep_secs) / sum(rep_secs)


def process_seconds(reps: int) -> float:
    """Wall seconds of the reference process running ``reps`` reps."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, __file__, str(reps)], check=True)
    return time.perf_counter() - t0


def process_scale(reps: int, *secs: float) -> float:
    """``scale`` for a child process, from the reference processes of
    ``reps`` reps run around it."""
    return (REF_START_S + reps * REF_REP_S) * len(secs) / sum(secs)


if __name__ == "__main__":
    for _ in range(int(sys.argv[1])):
        _rep()
