"""Per-layer costs for the traced run, from the benchmark's own files.

Each layer is timed through the public call that enters it, on the
workload's own inputs, at n = 3, 5 and 9: per input the median of a few
repeats, then the mean over inputs.  Kernel counts come from a second
pass with :class:`kernels.KernelCounter` installed; they depend only on
the inputs, so one seed repeats them exactly.  The answers of that pass
are checked against ground truth, and a wrong one makes the run
incorrect.  The failure fractions come from a third pass over the
conditioning tail (``gen.tail_items``): there a failure -- an exception
other than a refusal, or a wrong answer -- is what is measured.
"""

from __future__ import annotations

import json
import statistics
import time

import check
import gen
from hypiso import (
    QuadraticSpace,
    classify,
    classify_membership,
    conjugate_in_Mn,
    fixed_point_class,
    invariant_tuple,
    is_real_SOo_n1,
    matrix_from_json,
    normal_form,
    reverser_oracle,
    rotation_angles,
)
from hypiso.errors import RefusedToDecide
from hypiso.reality import GROUP_SOO
from kernels import KernelCounter
from workloads import attempt, certify_op, certify_verdict

TIMED_PER_CLASS = 2  # inputs per class and n whose layers are timed
COUNTED_PER_CLASS = 10  # inputs per class and n in the counting pass
ORACLE_COUNTED_PER_CLASS = 4
REPEATS = 5
ORACLE_REPEATS = 3

# (metric, call on a prepared case); the order is the table's row order
LAYERS = (
    ("quadspace.parse_us", lambda c: matrix_from_json(c.doc)),
    ("quadspace.membership_us", lambda c: classify_membership(c.space, c.item.matrix)),
    ("cli.serialize_us", lambda c: json.dumps(c.report.to_json_dict())),
    ("spectral.rotation_angles_us", lambda c: rotation_angles(c.t)),
    ("classify.fixed_point_class_us", lambda c: fixed_point_class(c.t)),
    ("classify.classify_us", lambda c: classify(c.t)),
    ("classify.normal_form_us", lambda c: normal_form(c.t)),
    ("reality.is_real_SOo_n1_us", lambda c: is_real_SOo_n1(c.t)),
    ("conjugacy.conjugate_in_Mn_us", lambda c: conjugate_in_Mn(c.t, c.t2)),
    ("conjugacy.invariant_tuple_us", lambda c: invariant_tuple(c.t)),
    ("reality.oracle_exact_us", lambda c: reverser_oracle(c.t, GROUP_SOO, budget=0)),
)

# kernel-counted ops: (name, call, ground-truth check, module prefix of
# its fail_frac)
COUNTED = (
    ("classify", lambda c: classify(c.t),
     lambda it, r: check.classification(it, r.to_json_dict()), "classify"),
    ("is_real_SOo_n1", lambda c: is_real_SOo_n1(c.t), check.reality, "reality"),
    ("conjugate_in_Mn", lambda c: conjugate_in_Mn(c.t, c.t2), check.conjugacy, "conjugacy"),
)


class Case:
    """An input with everything its layer calls take, built untimed."""

    def __init__(self, item: gen.Item):
        self.item = item
        self.doc = gen.matrix_document(item.matrix)
        self.space = QuadraticSpace(item.n)
        self.t = classify_membership(self.space, item.matrix)
        self.t2 = classify_membership(self.space, item.partner)
        self.report = attempt(classify, self.t)


def _pick(items: list[gen.Item], n: int, per_class: int) -> list[Case]:
    """The first ``per_class`` inputs of each class at ``n``, in workload
    order, skipping inputs whose membership itself fails."""
    cases, seen = [], {c: 0 for c in gen.CLASSES}
    for it in items:
        if it.n != n or seen[it.cls] >= per_class:
            continue
        try:
            cases.append(Case(it))
        except Exception:  # noqa: BLE001 - membership failures are counted elsewhere
            continue
        seen[it.cls] += 1
    return cases


def _per_call_us(fn, cases: list[Case], repeats: int) -> float:
    per_case = []
    for c in cases:
        runs = []
        for _ in range(repeats):
            t0 = time.perf_counter_ns()
            attempt(fn, c)
            runs.append(time.perf_counter_ns() - t0)
        per_case.append(statistics.median(runs) / 1e3)
    return statistics.fmean(per_case)


def _wrong(item: gen.Item, result, chk) -> str | None:
    """Why a returned answer is wrong, or None; exceptions are not answers."""
    return None if isinstance(result, Exception) else chk(item, result)


def _failed(item: gen.Item, result, chk) -> bool:
    if isinstance(result, Exception):
        return not isinstance(result, RefusedToDecide)
    return chk(item, result) is not None


def layer_metrics(items: list[gen.Item], tail: list[gen.Item], budget: int):
    """Per-layer metrics of ``items``, failure fractions on ``tail``, and
    the wrong answers seen on ``items``."""
    out: dict[str, tuple[float, str]] = {}
    wrong: list[str] = []
    for n in gen.DIMS:
        sfx = f".n{n}"
        timed = _pick(items, n, TIMED_PER_CLASS)
        for name, fn in LAYERS:
            reps = ORACLE_REPEATS if "oracle" in name else REPEATS
            out[name + sfx] = (_per_call_us(fn, timed, reps), "us")
        with_budget = _per_call_us(
            lambda c: reverser_oracle(c.t, GROUP_SOO, budget=budget), timed, ORACLE_REPEATS
        )
        exact = out["reality.oracle_exact_us" + sfx][0]
        out["reality.oracle_sample_us" + sfx] = ((with_budget - exact) / budget, "us")

        counted = _pick(items, n, COUNTED_PER_CLASS)
        # an input whose membership fails counts as failed for every op
        tail_cases = [attempt(Case, it) for it in tail if it.n == n]
        for op, fn, chk, module in COUNTED:
            results, counts = _count(fn, counted)
            _put_counts(out, op, counts, len(counted), sfx)
            for c, r in zip(counted, results):
                reason = _wrong(c.item, r, chk)
                if reason:
                    wrong.append(f"{op} at n={n}: {reason}")
            fails = sum(
                isinstance(c, Exception) or _failed(c.item, attempt(fn, c), chk)
                for c in tail_cases
            )
            out[f"{module}.{op}.fail_frac{sfx}"] = (fails / len(tail_cases), "frac")

        oracle_cases = _pick(items, n, ORACLE_COUNTED_PER_CLASS)
        reports, counts = _count(
            lambda c: reverser_oracle(c.t, GROUP_SOO, budget=budget), oracle_cases
        )
        _put_counts(out, "reverser_oracle", counts, len(oracle_cases), sfx)
        good = []
        for c, r in zip(oracle_cases, reports):
            cert = attempt(is_real_SOo_n1, c.t)
            if isinstance(r, Exception) or isinstance(cert, Exception):
                continue
            reason = check.oracle(c.item, r, cert.decision)
            if reason:
                wrong.append(f"reverser_oracle at n={n}: {reason}")
            good.append(r)
        exact_total = sum(len(r.exact) for r in good if r.exact)
        sampled_total = sum(len(r.sampled) for r in good if r.exact)
        out["reality.oracle.coverage" + sfx] = (
            sampled_total / exact_total if exact_total else 0.0, "frac"
        )

    verdicts = [certify_verdict(it, attempt(certify_op, it))[0] for it in tail]
    failed = sum(v in ("error", "wrong") for v in verdicts)
    print(f"conditioning tail: {len(tail)} certify ops, {failed} failed, "
          f"{verdicts.count('refused')} refused")
    out["outcome.tail_error_frac"] = (failed / len(tail), "frac")
    return out, wrong


def _count(fn, cases: list[Case]):
    with KernelCounter() as counter:
        results = [attempt(fn, c) for c in cases]
        return results, counter.snapshot()


def _put_counts(out: dict, op: str, counts, calls: int, sfx: str) -> None:
    for key, value in zip(("linalg_calls", "linalg_mats", "svd_calls"), counts):
        out[f"kernel.{op}.{key}{sfx}"] = (value / calls, "count")


def baseline_table(metrics: dict[str, tuple[float, str]]) -> str:
    """The per-layer microseconds as rows by n = 3 / 5 / 9."""
    names = [name for name, _ in LAYERS] + ["reality.oracle_sample_us"]
    lines = [
        "| layer (µs per call) | n=3 | n=5 | n=9 |",
        "|---|---|---|---|",
    ]
    for name in names:
        cells = [f"{metrics[f'{name}.n{n}'][0]:.1f}" for n in gen.DIMS]
        lines.append(f"| `{name[:-3]}` | " + " | ".join(cells) + " |")
    return "\n".join(lines)
