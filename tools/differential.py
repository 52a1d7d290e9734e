"""Differential of the deciders' outputs between two versions of hypiso.

Run it once per version, with ``PYTHONPATH`` naming that version's
``src``, then compare the two files::

    PYTHONPATH=old/src python tools/differential.py old.jsonl
    PYTHONPATH=new/src python tools/differential.py new.jsonl
    python tools/differential.py --compare old.jsonl new.jsonl

The inputs come from the benchmark's generator (``bench/gen.py``, numpy
only): ``certify_items(7)``, ``tail_items(101)`` to ``tail_items(103)``
and ``cli_items(7, 1026)``.  Each element T, with its partner T2, meets
four calls: ``classify(T)``, ``is_real_SOo_n1(T)``,
``conjugate_in_Mn(T, T2)`` and ``reverser_oracle(T, GROUP_SOO,
budget=0)``, each on a fresh ``classify_membership`` so that no call
reads another's stored analysis.  A fifth, ``classify-stacked``, is
``classify(T)`` on the pass the CLI stores: membership and the spectral
pass (``cli._store_passes``) run once per n on the stack of the set's
elements of that n.  One JSON line per call holds its ``id``
(set, item, call) and either the result's ``to_json_dict()`` or
``{"raised": <type name>, "message": <str>}``.  The oracle's line also
holds its exact witnesses as matrix documents, which ``to_json_dict``
leaves out.  JSON writes every double exactly, so equal lines mean equal
answers, refusal messages and certificate bytes.

``--compare A B`` prints the number of records and of differing records,
shows the first few differences, and exits 1 if any record differs.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import gen  # noqa: E402  (the benchmark's numpy-only input generator)

SHOWN = 5


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


def records():
    """One record per (item, call), as described in the module docstring."""
    from hypiso.classify import classify
    from hypiso.conjugacy import conjugate_in_Mn
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

    calls = {
        "classify": lambda t, _: classify(t).to_json_dict(),
        "is_real_SOo_n1": lambda t, _: is_real_SOo_n1(t).to_json_dict(),
        "conjugate_in_Mn": lambda t, partner: conjugate_in_Mn(
            t, classify_membership(t.space, partner)).to_json_dict(),
        "reverser_oracle": oracle,
    }
    for name, items in item_sets():
        members = stacked_members(items)
        for i, item in enumerate(items):
            space = QuadraticSpace(item.n)
            for call, run in calls.items():
                out = outcome(lambda: run(classify_membership(space, item.matrix), item.partner))
                yield {"id": f"{name}/{i}/{call}", **out}
            yield {"id": f"{name}/{i}/classify-stacked", **outcome(lambda: stacked(members[i]))}


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
