"""The two workloads: inputs, the op each one times, and its verdicts.

Both are closed loops with one caller: each op starts when the previous
one has returned.

* ``cli_classify`` -- one ``python -m hypiso.cli classify`` process over
  ``CLI_DOCS`` one-document files, repeated.  The files are FIFOs fed in
  order by a writer thread, so the moment the CLI opens file i+1 closes
  document i: the gaps between opens are per-document latencies measured
  from outside the process.
* ``certify`` -- in process: membership of T and of its partner, then
  ``is_real_SOo_n1(T)`` and ``conjugate_in_Mn(T, partner)``.

Times are scaled to the reference machine (``calib``): by calibration
chunks between in-process ops, and by reference processes around each CLI
process and set-up probe.

Verdicts: ``ok``, ``refused`` (an honest refusal), ``error`` (any other
exception, or a non-zero CLI exit) and ``wrong`` (an answer that fails
its check).  Any wrong answer makes the run incorrect.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import calib
import check
import gen
from hypiso import QuadraticSpace, classify_membership, conjugate_in_Mn, is_real_SOo_n1
from hypiso.errors import RefusedToDecide

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"

CLI_DOCS = 1026  # 114 per (n, class) cell; 1025 gaps put 10 samples beyond p99
SETUP_REPEATS = 7
CAL_EVERY = 20  # in-process ops between calibration chunks
CAL_CHUNK = 8  # reps per chunk: about a sixth of the time of CAL_EVERY ops
CLI_CAL_REPS = 400  # reference process around a CLI process: start-up and ~0.6 s of reps


def child_env() -> dict:
    return {**os.environ, "PYTHONPATH": str(SRC)}


@dataclass
class Tally:
    """Op outcomes and latencies of one measured loop, scaled to the
    reference machine."""

    latencies: list = field(default_factory=list)  # seconds, one array per pass or process
    rates: list = field(default_factory=list)  # ops/s, one per pass or process
    scales: list = field(default_factory=list)  # calib.scale of each of them
    verdicts: Counter = field(default_factory=Counter)
    wrong: list = field(default_factory=list)
    reasons: Counter = field(default_factory=Counter)  # failures and refusals
    peak_rss_mb: float = 0.0

    def add(self, verdict: str, reason: str | None) -> None:
        self.verdicts[verdict] += 1
        if verdict == "ok":
            return
        self.reasons[f"{verdict}: {reason}"[:160]] += 1
        if verdict == "wrong":
            self.wrong.append(reason)

    def add_slice(self, ops: int, seconds: float, scale: float) -> None:
        self.rates.append(ops / (seconds * scale))
        self.scales.append(scale)

    @property
    def attempted(self) -> int:
        return sum(self.verdicts.values())

    @property
    def failed(self) -> int:
        return self.verdicts["error"] + self.verdicts["wrong"]

    def latency_ms(self) -> np.ndarray:
        """Latency samples for the percentiles: each input's median over the
        passes (or CLI processes) that ran it.  The same input costs the
        same in every pass, so the median drops stalls that hit one pass
        and keeps slow inputs."""
        return np.median(np.stack(self.latencies), axis=0) * 1e3


def _verdict(result, checker, *args) -> tuple[str, str | None]:
    if isinstance(result, Exception):
        kind = "refused" if isinstance(result, RefusedToDecide) else "error"
        return kind, f"{type(result).__name__}: {result}"
    reason = checker(*args, result)
    return ("wrong", reason) if reason else ("ok", None)


_RANK = {"ok": 0, "refused": 1, "error": 2, "wrong": 3}


# ---------------------------------------------------------------------------
# certify
# ---------------------------------------------------------------------------


def attempt(fn, *args, **kwargs):
    """The call's result, or the exception it raised."""
    try:
        return fn(*args, **kwargs)
    except Exception as exc:  # noqa: BLE001 - every outcome is recorded
        return exc


def certify_op(item: gen.Item):
    space = QuadraticSpace(item.n)
    t = classify_membership(space, item.matrix)
    t2 = classify_membership(space, item.partner)
    return attempt(is_real_SOo_n1, t), attempt(conjugate_in_Mn, t, t2)


def certify_verdict(item: gen.Item, result) -> tuple[str, str | None]:
    if isinstance(result, Exception):
        return _verdict(result, None)
    cert, answer = result
    parts = [
        _verdict(cert, check.reality, item),
        _verdict(answer, check.conjugacy, item),
    ]
    if parts[1][0] == "ok" and answer.related.value == "Undecided":
        parts[1] = ("refused", "relation Undecided")
    return max(parts, key=lambda p: _RANK[p[0]])


def measure_in_process(cases, op, verdict, seconds: float, tally=None) -> Tally:
    """Whole passes over ``cases`` until ``seconds`` have elapsed (at least
    one); one rate per pass, from the time spent inside the ops."""
    tally = tally if tally is not None else Tally()
    start = time.perf_counter()
    while True:
        pass_ns = np.empty(len(cases))
        cal = []
        for i, case in enumerate(cases):
            t0 = time.perf_counter_ns()
            try:
                result = op(case)
            except Exception as exc:  # noqa: BLE001 - recorded as the outcome
                result = exc
            pass_ns[i] = time.perf_counter_ns() - t0
            tally.add(*verdict(case, result))
            if i % CAL_EVERY == CAL_EVERY - 1 or i == len(cases) - 1:
                cal.append(calib.rep_seconds(CAL_CHUNK))
        scale = calib.scale(*cal)
        tally.latencies.append(pass_ns * (scale / 1e9))
        tally.add_slice(len(cases), pass_ns.sum() / 1e9, scale)
        if time.perf_counter() - start >= seconds:
            break
    return tally


def probe_setup(item: gen.Item, workdir: Path) -> list[float]:
    """Seconds from spawning a fresh interpreter to its first completed
    certify op, scaled."""
    path = workdir / "probe.json"
    doc = {"n": item.n, "matrix": item.matrix.ravel().tolist(),
           "partner": item.partner.ravel().tolist()}
    path.write_text(json.dumps(doc))
    cmd = [sys.executable, str(BENCH / "probe.py"), str(path)]
    times = []
    before = calib.process_seconds(0)
    for i in range(SETUP_REPEATS + 1):  # the first one warms the file cache
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, env=child_env()) as proc:
            line = proc.stdout.readline()
            t1 = time.perf_counter()
            proc.stdout.read()
            code = proc.wait()
        if line.strip() != b"done" or code != 0:
            raise RuntimeError(f"set-up probe failed with exit code {code}")
        after = calib.process_seconds(0)
        if i:
            times.append((t1 - t0) * calib.process_scale(0, before, after))
        before = after
    return times


# ---------------------------------------------------------------------------
# cli_classify
# ---------------------------------------------------------------------------


class CliRunner:
    """Runs the CLI over FIFOs in ``workdir`` and checks its output."""

    def __init__(self, items: list[gen.Item], workdir: Path):
        self.items = items
        self.workdir = workdir
        self.docs = [gen.matrix_document(it.matrix).encode() for it in items]
        self.cal_before: float | None = None  # reference process after the last one
        self.names = [f"d{i:04d}" for i in range(len(items))]
        for name in self.names:
            os.mkfifo(workdir / name)
        (workdir / "one.json").write_bytes(self.docs[0])

    def _spawn(self, argv: list[str], traced: bool):
        if traced:
            cmd = [sys.executable, str(BENCH / "cli_traced.py"), "classify", *argv]
        else:
            cmd = [sys.executable, "-m", "hypiso.cli", "classify", *argv]
        with open(self.workdir / "out.txt", "wb") as out, \
                open(self.workdir / "err.txt", "wb") as err:
            return subprocess.Popen(
                cmd, cwd=self.workdir, stdout=out, stderr=err,
                env=child_env(),
            )

    @staticmethod
    def _wait(proc):
        """Exit code and resource usage of a child, reaped here."""
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, usage

    def one_doc_setup(self) -> list[float]:
        """Wall seconds of a one-document CLI process, scaled."""
        times = []
        before = calib.process_seconds(0)
        for i in range(SETUP_REPEATS + 1):  # the first one warms the file cache
            t0 = time.perf_counter()
            code, _ = self._wait(self._spawn(["one.json"], traced=False))
            t1 = time.perf_counter()
            after = calib.process_seconds(0)
            text = (self.workdir / "out.txt").read_text()
            if code != 0 or check.cli_output(self.items[:1], text)[0] is not None:
                raise RuntimeError(f"one-document CLI run failed (exit {code})")
            if i:
                times.append((t1 - t0) * calib.process_scale(0, before, after))
            before = after
        return times

    def run_once(self, tally: Tally, traced: bool = False) -> None:
        stamps: list[float] = []
        current = [0]
        stop = threading.Event()

        def feed():
            for i, (name, doc) in enumerate(zip(self.names, self.docs)):
                current[0] = i
                fd = os.open(self.workdir / name, os.O_WRONLY)  # waits for the reader
                stamps.append(time.perf_counter())
                try:
                    if not stop.is_set():
                        os.write(fd, doc)
                finally:
                    os.close(fd)
                if stop.is_set():
                    return

        if self.cal_before is None:
            self.cal_before = calib.process_seconds(CLI_CAL_REPS)
        t0 = time.perf_counter()
        proc = self._spawn(self.names, traced)
        writer = threading.Thread(target=feed, daemon=True)
        writer.start()
        code, usage = self._wait(proc)
        wall = time.perf_counter() - t0
        stop.set()
        while writer.is_alive():  # the CLI died early: release a blocked open
            try:
                fd = os.open(self.workdir / self.names[current[0]], os.O_RDONLY | os.O_NONBLOCK)
            except OSError:
                fd = None
            writer.join(0.1)
            if fd is not None:
                os.close(fd)
        after = calib.process_seconds(CLI_CAL_REPS)
        scale = calib.process_scale(CLI_CAL_REPS, self.cal_before, after)
        self.cal_before = after
        tally.peak_rss_mb = max(tally.peak_rss_mb, usage.ru_maxrss / 1024.0)
        tally.add_slice(len(self.docs), wall, scale)
        if len(stamps) == len(self.docs):
            tally.latencies.append(np.diff(stamps) * scale)
        if code != 0:
            verdict = "refused" if code == 3 else "error"
            reason = f"CLI exit {code}: {(self.workdir / 'err.txt').read_text()[:200]}"
            for _ in self.items:
                tally.add(verdict, reason)
            return
        text = (self.workdir / "out.txt").read_text()
        for reason in check.cli_output(self.items, text):
            tally.add("wrong" if reason else "ok", reason)

    def measure(self, seconds: float, traced: bool = False, tally=None) -> Tally:
        """CLI processes until ``seconds`` have elapsed (at least one)."""
        tally = tally if tally is not None else Tally()
        start = time.perf_counter()
        while True:
            self.run_once(tally, traced)
            if time.perf_counter() - start >= seconds:
                return tally
