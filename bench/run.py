"""hypiso benchmark.

    python3 bench/run.py --workload cli_classify|certify --seed N --seconds S
                         --trace 0|1 [--oracle-budget B]

Run from the root of a checkout; the library is imported from ``src``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer ones with ``--trace 1``.  The
lines before it are a machine note, the outcome counts and, when traced,
the per-layer table.  The exit code is 1 when an output check failed:
a wrong answer of the workload, or of a traced layer call on a
well-conditioned input.
See bench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

# before numpy is imported here or in any child process
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
WARM_SECONDS = 2.0
WARM_OPS = 100  # inputs per warm-up pass


def machine_note() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": blas.get("version"),
        "loadavg": os.getloadavg(),
    }


def steal_seconds() -> float | None:
    """CPU time the hypervisor has taken from this machine, all CPUs."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            return int(fh.readline().split()[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def end_to_end(tally, setup_times: list) -> dict:
    import numpy

    print("setup_s samples: " + " ".join(f"{t:.4f}" for t in setup_times))
    raw = [r * s for r, s in zip(tally.rates, tally.scales)]
    print(f"calibration scale: median {statistics.median(tally.scales):.4f}, "
          f"range {min(tally.scales):.4f} to {max(tally.scales):.4f}; "
          f"unscaled ops_per_s median {statistics.median(raw):.6g}")
    p50, p99 = numpy.percentile(tally.latency_ms(), [50, 99])
    return {
        "ops_per_s": (statistics.median(tally.rates), "1/s"),
        "op_p50_ms": (float(p50), "ms"),
        "op_p99_ms": (float(p99), "ms"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (tally.peak_rss_mb, "MB"),
    }


def outcome_line(name: str, tally) -> str:
    v = tally.verdicts
    att = tally.attempted
    samples = len(tally.latency_ms())
    return (
        f"{name}: attempted={att} ok={v['ok']} refused={v['refused']} "
        f"errors={v['error']} wrong={v['wrong']} "
        f"error_frac={tally.failed / att:.6f} refusal_frac={v['refused'] / att:.6f} "
        f"latency_samples={samples} beyond_p99={samples // 100} "
        f"rate_samples={len(tally.rates)}"
    )


def run(args) -> tuple[dict, list, list]:
    """Measure one workload; returns (metrics, tallies, wrong answers of the
    traced layer calls)."""
    import gen
    import workloads as wl

    workdir = BENCH.parent / ".bench_work" / str(os.getpid())
    workdir.mkdir(parents=True)
    try:
        if args.workload == "cli_classify":
            items = gen.cli_items(args.seed, wl.CLI_DOCS)
            runner = wl.CliRunner(items, workdir)
            if args.trace:
                untraced, traced = _alternate(
                    args.seconds / 2,
                    lambda t: runner.measure(0, tally=t),
                    lambda t: runner.measure(0, traced=True, tally=t),
                )
                return _traced(items, args, untraced, traced)
            setup = runner.one_doc_setup()
            tally = runner.measure(args.seconds)
            return end_to_end(tally, setup), [tally], []

        items = gen.certify_items(args.seed)

        def measure(seconds, tally=None, cases=items):
            return wl.measure_in_process(cases, wl.certify_op, wl.certify_verdict, seconds, tally)

        # untimed: lazy imports, allocator, clock ramp
        measure(WARM_SECONDS, cases=items[:WARM_OPS])

        if args.trace:
            from kernels import KernelCounter

            def counted(tally):
                with KernelCounter():
                    measure(0, tally)

            untraced, traced = _alternate(args.seconds / 2, lambda t: measure(0, t), counted)
            return _traced(items, args, untraced, traced)
        setup = wl.probe_setup(gen.setup_item(args.seed), workdir)
        tally = measure(args.seconds)
        tally.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        return end_to_end(tally, setup), [tally], []
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:  # another run is using it
            pass


def _alternate(seconds: float, plain, counted):
    """Alternate untraced and traced passes, so drift in machine speed
    falls on both sides of the tracing overhead."""
    import workloads as wl

    untraced, traced = wl.Tally(), wl.Tally()
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        plain(untraced)
        counted(traced)
    return untraced, traced


def _traced(items, args, untraced, traced):
    import gen
    import layers

    metrics, wrong = layers.layer_metrics(items, gen.tail_items(args.seed), args.oracle_budget)
    print(layers.baseline_table(metrics))
    base = statistics.median(untraced.rates)
    with_counter = statistics.median(traced.rates)
    att = untraced.attempted
    metrics.update({
        "outcome.error_frac": (untraced.failed / att, "frac"),
        "outcome.refusal_frac": (untraced.verdicts["refused"] / att, "frac"),
        "trace.untraced_ops_per_s": (base, "1/s"),
        "trace.traced_ops_per_s": (with_counter, "1/s"),
        "trace.overhead_ops_per_s": (with_counter - base, "1/s"),
    })
    return metrics, [untraced, traced], wrong


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("cli_classify", "certify"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--oracle-budget", type=int, default=512,
                        help="sample budget B of the traced oracle calls")
    args = parser.parse_args(argv)

    if not (SRC / "hypiso" / "__init__.py").is_file():
        print(f"error: no hypiso sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    print("machine: " + json.dumps(machine_note()))
    # one CPU for this process and its children, so the calibration runs
    # on the CPU that does the measured work
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    print(f"machine: pinned to CPU {cpu}")
    steal_start = steal_seconds()

    metrics, tallies, layer_wrong = run(args)
    steal_end = steal_seconds()
    if steal_start is not None and steal_end is not None:
        print(f"machine: {steal_end - steal_start:.2f} s of CPU steal during the run")
    labels = ("untraced", "traced") if args.trace else ("measured",)
    for tally, label in zip(tallies, labels):
        print(outcome_line(f"{args.workload} {label}", tally))
    reasons = sum((t.reasons for t in tallies), Counter())
    for reason, count in reasons.most_common(10):
        print(f"  {count} x {reason}")
    wrong = [r for t in tallies for r in t.wrong] + layer_wrong
    for reason in layer_wrong[:10]:
        print(f"  wrong layer answer: {reason}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    result = {
        "correct": not wrong,
        "attempted": sum(t.attempted for t in tallies),
        "failed": sum(t.failed for t in tallies),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not wrong else 1


if __name__ == "__main__":
    sys.exit(main())
