"""Tests of the benchmark itself (not part of the library's suite).

    python -m pytest bench/selftest.py -q

Tiny runs of every workload, traced and untraced, must emit exactly the
metrics BENCHMARK.json names, with their units; one seed must give the
same inputs, kernel counts and outcome ratios, and another seed other
inputs.
"""

import json
import os
import shutil
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import check  # noqa: E402
import gen  # noqa: E402
from workloads import Tally  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(workload: str, seed: int, trace: int) -> dict:
    cmd = [sys.executable, *SPEC["command"][1:], "--workload", workload,
           "--seed", str(seed), "--seconds", "0.2", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


result = lru_cache(maxsize=None)(run_bench)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_emits_every_metric(workload, trace):
    res = result(workload, 5, trace)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True
    assert res["attempted"] >= 1 and 0 <= res["failed"] <= res["attempted"]
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == {
        name: m["unit"] for name, m in res["metrics"].items()
    }
    for m in res["metrics"].values():
        assert np.isfinite(m["value"])
    if not trace:
        assert all(m["value"] > 0 for m in res["metrics"].values())


def _repeatable(metrics: dict) -> dict:
    return {
        k: v["value"] for k, v in metrics.items()
        if k.startswith(("kernel.", "outcome.")) or ".fail_frac." in k or ".coverage." in k
    }


def test_same_seed_repeats_counts_and_outcomes():
    first = result("certify", 5, 1)
    second = run_bench("certify", 5, 1)
    assert _repeatable(first["metrics"]) == _repeatable(second["metrics"])


def _inputs(seed: int):
    return (
        [it.matrix for it in gen.cli_items(seed, 30)]
        + [np.concatenate([it.matrix, it.partner]) for it in gen.certify_items(seed, 6)]
        + [np.concatenate([it.matrix, it.partner]) for it in gen.tail_items(seed, 2)]
        + [gen.setup_item(seed).matrix]
    )


def test_same_seed_same_inputs():
    a, b = _inputs(7), _inputs(7)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))


def test_other_seed_other_inputs():
    a, b = _inputs(7), _inputs(8)
    assert sorted(x.shape for x in a) == sorted(y.shape for y in b)
    assert not any(np.array_equal(x, y) for x, y in zip(a, b))


def test_generated_matrices_are_lorentz():
    for x in _inputs(9):
        for m in np.split(x, x.shape[0] // x.shape[1]):
            assert gen.lorentz_residual(m) <= 1e-12 * max(1.0, np.abs(m).max()) ** 2


def test_certify_mix():
    items = gen.certify_items(3)
    assert len(items) == 1026
    assert not any(it.tail for it in items)
    assert sum(it.g_det == -1 for it in items) == 513
    assert sum(it.control for it in items) >= 12
    tail = gen.tail_items(3)
    assert len(tail) == 180 and all(it.tail and not it.control for it in tail)


def test_wrong_answer_makes_the_run_incorrect():
    item = gen.cli_items(4, 1)[0]
    doc = {"class": "Hyperbolic", "angles": list(item.std.angles)}
    reason = check.classification(item, doc)
    assert reason is not None
    tally = Tally()
    tally.add("wrong", reason)
    tally.add("error", "HypisoError: x")
    assert tally.wrong == [reason] and tally.failed == 2


def test_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for p in SPEC["paths"]:
        shutil.copytree(ROOT / p, tmp_path / p, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [*SPEC["command"], "--workload", WORKLOADS[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
        env={**os.environ, "PYTHONPATH": ""},
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
