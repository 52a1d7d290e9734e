"""Differential of the deciders' outputs between two versions of hypiso.

Run it once per version, with ``PYTHONPATH`` naming that version's
``src``, then compare the two files::

    PYTHONPATH=old/src python tools/differential.py old.jsonl
    PYTHONPATH=new/src python tools/differential.py new.jsonl
    python tools/differential.py --compare old.jsonl new.jsonl

The inputs come from the benchmark's generator (``bench/gen.py``, numpy
only): ``certify_items(7)``, ``tail_items(101)`` to ``tail_items(103)``
and ``cli_items(7, 1026)``.  Each element T, with its partner T2, meets
six calls: ``classify(T)``, ``is_real_SOo_n1(T)``,
``conjugate_in_Mn(T, T2)``, ``reverser_oracle(T, GROUP_SOO,
budget=0)``, ``invariant_tuple(T)`` and ``normal_form(T)``, each on a
fresh ``classify_membership`` so that no call reads another's stored
analysis.  A seventh, ``classify-stacked``, is ``classify(T)`` on the
pass the CLI stores: membership and the spectral pass
(``cli._store_passes``) run once per n on the stack of the set's elements
of that n.  One JSON line per call holds its ``id`` (set, item, call) and
either the result or ``{"raised": <type name>, "message": <str>}``.  A
result is its ``to_json_dict()``; the oracle's also holds its exact
witnesses as matrix documents, which ``to_json_dict`` leaves out.  The
two results without a ``to_json_dict`` are written field by field: the
invariant tuple's four fields, and the normal form's variant (type name
and fields) with its conjugator's entries and component.

Last come the CLI's bytes.  The T documents of ``cli_items(7, 1026)``
and of ``tail_items(101)``, each set as one JSONL stream, go through
``hypiso classify``, ``hypiso reality --group SOo`` and ``hypiso oracle
--group SOo --budget 0``, run as ``python -m hypiso.cli`` by this
interpreter with this ``PYTHONPATH``; one line per (stream, command)
holds the exit code, standard output and standard error.  JSON writes
every double exactly, so equal lines mean equal answers, refusal
messages, certificate bytes and CLI output.

``--compare A B`` prints the number of records and of differing records,
shows the first few differences, and exits 1 if any record differs.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import gen  # noqa: E402  (the benchmark's numpy-only input generator)

SHOWN = 5
# each normal-form variant's fields, in order
VARIANT_FIELDS = {
    "KRotation": ("matrix", "angles"),
    "KRotatoryTranslation": ("rotation", "translation", "angles"),
    "KRotatoryStretch": ("stretch", "rotation", "angles"),
}
CLI_STREAMS = (("cli-7", lambda: gen.cli_items(7, 1026)),
               ("tail-101", lambda: gen.tail_items(101)))
CLI_COMMANDS = {
    "classify": ["classify"],
    "reality-SOo": ["reality", "--group", "SOo"],
    "oracle-SOo": ["oracle", "--group", "SOo", "--budget", "0"],
}


def item_sets():
    """(name, items) of each input set, in a fixed order."""
    yield "certify-7", gen.certify_items(7)
    for seed in (101, 102, 103):
        yield f"tail-{seed}", gen.tail_items(seed)
    yield "cli-7", gen.cli_items(7, 1026)


def outcome(call) -> dict:
    """The result of ``call()``, or the type and message of what it raised."""
    try:
        return call()
    except Exception as exc:  # every outcome is a record
        return {"raised": type(exc).__name__, "message": str(exc)}


def stacked_members(items):
    """Each item's T as the CLI reads it: membership and the stored pass,
    stacked per n (a membership failure is the exception itself)."""
    from hypiso.cli import _store_passes
    from hypiso.quadspace import DEFAULT_EPS, QuadraticSpace, classify_membership_many
    from hypiso.spectral import DEFAULT_DELTA

    members = [None] * len(items)
    for n in sorted({item.n for item in items}):
        idx = [i for i, item in enumerate(items) if item.n == n]
        stack = np.stack([items[i].matrix for i in idx])
        got = classify_membership_many(QuadraticSpace(n), stack, DEFAULT_EPS)
        _store_passes(got, DEFAULT_DELTA)
        for i, t in zip(idx, got):
            members[i] = t
    return members


def plain(value):
    """``value``, an array as nested lists (JSON writes a tuple as a list)."""
    return value.tolist() if isinstance(value, np.ndarray) else value


def records():
    """One record per (item, call), as described in the module docstring."""
    from hypiso.classify import classify
    from hypiso.conjugacy import conjugate_in_Mn, invariant_tuple
    from hypiso.frames import normal_form
    from hypiso.quadspace import QuadraticSpace, classify_membership, matrix_to_document
    from hypiso.reality import GROUP_SOO, is_real_SOo_n1, reverser_oracle

    def stacked(t):
        if isinstance(t, Exception):
            raise t
        return classify(t).to_json_dict()

    def oracle(t, _):
        report = reverser_oracle(t, GROUP_SOO, budget=0)
        out = report.to_json_dict()
        out["exact_witnesses"] = {f"{d},{s}": matrix_to_document(m)
                                  for (d, s), m in report.exact_witnesses.items()}
        return out

    def invariants(t, _):
        inv = invariant_tuple(t)
        return {"fixed_class": inv.fixed_class, "angles": inv.angles, "k": inv.k,
                "stretch": inv.stretch}

    def standard(t, _):
        form = normal_form(t)
        variant = type(form.variant).__name__
        return {"variant": variant,
                "fields": {f: plain(getattr(form.variant, f)) for f in VARIANT_FIELDS[variant]},
                "conjugator": form.conjugator.entries.tolist(),
                "component": form.conjugator.component.label}

    calls = {
        "classify": lambda t, _: classify(t).to_json_dict(),
        "is_real_SOo_n1": lambda t, _: is_real_SOo_n1(t).to_json_dict(),
        "conjugate_in_Mn": lambda t, partner: conjugate_in_Mn(
            t, classify_membership(t.space, partner)).to_json_dict(),
        "reverser_oracle": oracle,
        "invariant_tuple": invariants,
        "normal_form": standard,
    }
    for name, items in item_sets():
        members = stacked_members(items)
        for i, item in enumerate(items):
            space = QuadraticSpace(item.n)
            for call, run in calls.items():
                out = outcome(lambda: run(classify_membership(space, item.matrix), item.partner))
                yield {"id": f"{name}/{i}/{call}", **out}
            yield {"id": f"{name}/{i}/classify-stacked", **outcome(lambda: stacked(members[i]))}
    yield from cli_records()


def cli_records():
    """One record per (stream, command) of the CLI, as described in the
    module docstring."""
    from hypiso.quadspace import matrix_to_json

    with tempfile.TemporaryDirectory() as tmp:
        for name, items in CLI_STREAMS:
            path = Path(tmp) / f"{name}.jsonl"
            path.write_text("".join(matrix_to_json(item.matrix) + "\n" for item in items()),
                            encoding="utf-8")
            for command, argv in CLI_COMMANDS.items():
                proc = subprocess.run([sys.executable, "-m", "hypiso.cli", *argv, str(path)],
                                      capture_output=True, text=True)
                yield {"id": f"cli/{name}/{command}", "exit": proc.returncode,
                       "stdout": proc.stdout, "stderr": proc.stderr}


def write(path: Path) -> None:
    with path.open("w", encoding="utf-8") as f:
        for record in records():
            f.write(json.dumps(record) + "\n")


def compare(a: Path, b: Path) -> int:
    """Print the record count and the differing records; 1 if any differ."""
    lines_a = a.read_text(encoding="utf-8").splitlines()
    lines_b = b.read_text(encoding="utf-8").splitlines()
    differ = [(x, y) for x, y in zip(lines_a, lines_b) if x != y]
    extra = abs(len(lines_a) - len(lines_b))
    print(f"{max(len(lines_a), len(lines_b))} records, {len(differ) + extra} differ")
    for x, y in differ[:SHOWN]:
        print(f"- {x}\n+ {y}")
    if extra:
        print(f"{a} has {len(lines_a)} lines and {b} has {len(lines_b)}")
    return 1 if differ or extra else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("out", nargs="?", type=Path, help="JSONL file to write")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("A", "B"))
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.out is None:
        parser.error("give an output file or --compare A B")
    write(args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
