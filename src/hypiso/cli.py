"""Batch command-line front end.

Matrices travel as JSON documents {"n": int, "matrix": row-major floats};
a file holds any number of them, one after another (JSONL included), and
``-`` reads standard input.  Every subcommand emits one JSON document per
line (streamable).  Exit codes: 0 success, 1 malformed input, 2 domain
error, out-of-range option or numerical failure, 3 refusal to decide
(borderline tolerance zone, undecided conjugacy); several documents exit
with the code of the first one that fails.  The library's third refusal,
an exhausted search budget, comes only from ``reverser_oracle(require=...)``,
which ``oracle`` does not pass.

The reality, conjugacy, fibration and sampling modules are imported by
the commands that use them, so ``classify`` starts without them.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import quadspace
from .classify import _classify_stack, _spectra
from .errors import HypisoError, OutOfRange, RefusedToDecide
from .spectral import DEFAULT_DELTA, plane_decomposition, rotation_matrix

EXIT_OK = 0
EXIT_MALFORMED = 1
EXIT_DOMAIN = 2
EXIT_UNDECIDED = 3


def _documents(path: str):
    """(space, matrix) of each document of a file, in order, parsed as they
    are reached; ``-`` is standard input."""
    if path == "-":
        text = sys.stdin.read()
    else:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    if text.startswith("\ufeff"):  # as json.loads refuses it
        raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", text, 0)
    decoder = json.JSONDecoder()
    skip = json.decoder.WHITESPACE.match
    pos = skip(text, 0).end()
    while True:  # at least one document: an empty file fails as json.loads does
        doc, end = decoder.raw_decode(text, pos)
        yield quadspace.matrix_from_document(doc)
        pos = skip(text, end).end()
        if pos == len(text):
            return


def _matrices(paths):
    for path in paths:
        yield from _documents(path)


def _read_one(path: str, eps: float) -> quadspace.LorentzMatrix:
    docs = list(_documents(path))
    if len(docs) != 1:
        raise ValueError(
            f"{path} holds {len(docs)} matrix documents; conjugacy takes one per file"
        )
    return quadspace.classify_membership(*docs[0], eps)


def _emit(lines, output):
    text = "\n".join(lines) + "\n"
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_classify(args) -> int:
    """Read every document first, then run membership, the spectral pass
    and the fixed-data stage once per dimension on the stack of its
    matrices; reports follow in input order, up to the first document that
    fails."""
    docs = []
    read_error = None
    try:
        for doc in _matrices(args.matrix):
            docs.append(doc)
    except Exception as exc:  # noqa: BLE001 - raised after the documents before it
        read_error = exc
    by_dim: dict[int, list[int]] = {}
    for i, (space, _) in enumerate(docs):
        by_dim.setdefault(space.n, []).append(i)
    reports: list = [None] * len(docs)
    for idx in by_dim.values():
        stack = np.stack([docs[i][1] for i in idx])
        members = quadspace.classify_membership_many(docs[idx[0]][0], stack, args.eps)
        for i, report in zip(idx, _classify_stack(_spectra(members, args.delta))):
            reports[i] = report
    lines = []
    for report in reports:
        if isinstance(report, Exception):
            raise report
        lines.append(json.dumps(report.to_json_dict()))
    if read_error is not None:
        raise read_error
    _emit(lines, args.output)
    return EXIT_OK


def cmd_reality(args) -> int:
    from . import reality

    lines = []
    for space, mat in _matrices(args.matrix):
        if args.group in ("On", "SOn"):
            cert = (
                reality.is_real_On(mat, args.delta, args.eps)
                if args.group == "On"
                else reality.is_real_SOn(mat, args.delta, args.eps)
            )
        else:
            t = quadspace.classify_membership(space, mat, args.eps)
            cert = (
                reality.is_real_SOo_n1(t, args.delta)
                if args.group == "SOo"
                else reality.is_real_Mo(t, args.delta)
            )
        lines.append(json.dumps(cert.to_json_dict()))
    _emit(lines, args.output)
    return EXIT_OK


def cmd_conjugacy(args) -> int:
    from . import conjugacy

    t1 = _read_one(args.matrix1, args.eps)
    t2 = _read_one(args.matrix2, args.eps)
    if args.group == "Mon":
        answer = conjugacy.conjugate_in_Mon(t1, t2, args.delta)
    else:
        answer = conjugacy.conjugate_in_Mn(t1, t2, args.delta)
    _emit([json.dumps(answer.to_json_dict())], args.output)
    if answer.related is conjugacy.Relation.UNDECIDED:
        return EXIT_UNDECIDED
    return EXIT_OK


def cmd_decompose(args) -> int:
    lines = []
    for _, mat in _matrices(args.matrix):
        decomp = plane_decomposition(mat, args.delta, args.eps)
        doc = {
            "angles": list(decomp.angles),
            "planes": [p.T.tolist() for p in decomp.planes],
            "fixed_subspace": decomp.fixed_subspace.T.tolist(),
        }
        lines.append(json.dumps(doc))
    _emit(lines, args.output)
    return EXIT_OK


def cmd_dims(args) -> int:
    from . import classgeom

    desc = classgeom.descriptor_for(
        args.klass, args.k, args.n, args.has_pi, fix_stretch=not args.all_stretches
    )
    _emit([json.dumps(desc.to_json_dict())], args.output)
    return EXIT_OK


def _reads_pi(angle: float, delta: float) -> bool:
    """Whether the plane decomposition reads the rotation by ``angle`` as
    the plane of pi."""
    return plane_decomposition(rotation_matrix(angle), delta).angles == (np.pi,)


def cmd_enumerate(args) -> int:
    from . import classgeom, sampling

    if args.k < 1:
        raise OutOfRange(f"--k must be at least 1, got {args.k}")
    angles = [float(a) for a in args.angles.split(",") if a.strip()]
    for a in angles:
        if not 0.0 < a <= np.pi:  # NaN fails too
            raise OutOfRange(f"angle {a} is not in (0, pi]")
    # the plane of pi is added unless the decomposition reads a given angle
    # as pi (its pair e^{+-i a} within delta of -1)
    if args.has_pi and not any(_reads_pi(a, args.delta) for a in angles):
        angles = [float(np.pi)] + angles
    k = len(angles)
    if k != args.k:
        raise HypisoError(f"--k {args.k} does not match {k} angles")
    std = sampling.rotation_with_angles(sorted(angles, reverse=True), 2 * k)
    decomp = plane_decomposition(std, args.delta)
    if len(decomp.angles) < k:
        raise OutOfRange(
            f"the decomposition reads {len(decomp.angles)} of the {k} angles: "
            f"an angle within delta = {args.delta:g} of 0 is read as 0"
        )
    elements = classgeom.enumerate_fiber(decomp, decomp.angles)
    doc = {
        "k": k,
        "angles": list(decomp.angles),
        "has_pi": np.pi in decomp.angles,
        "count": len(elements),
        "elements": [[float(x) for x in m.ravel()] for m in elements],
    }
    _emit([json.dumps(doc)], args.output)
    return EXIT_OK


def cmd_random(args) -> int:
    from . import sampling

    if args.count < 1:
        raise OutOfRange(f"--count must be at least 1, got {args.count}")
    # the smallest --n whose documents have n >= 1: n x n orthogonal
    # matrices, elements of SO_o(n,1), or of SO_o(n+1,1) for Mo
    low = {"On": 2, "SOn": 2, "SOo": 1, "Mo": 0}[args.group]
    if args.n < low:
        raise OutOfRange(f"--n must be at least {low} for --group {args.group}, got {args.n}")
    rng = np.random.default_rng(args.seed)
    lines = []
    for _ in range(args.count):
        if args.group == "On":
            mat = sampling.random_orthogonal(rng, args.n)
        elif args.group == "SOn":
            mat = sampling.random_regular_special_orthogonal(rng, args.n)
        else:
            n = args.n + (args.group == "Mo")
            mat = sampling.random_isometry(rng, n, args.klass, args.k).entries
        lines.append(quadspace.matrix_to_json(mat))
    _emit(lines, args.output)
    return EXIT_OK


def cmd_oracle(args) -> int:
    from . import reality

    lines = []
    for space, mat in _matrices(args.matrix):
        if args.group in ("On", "SOn"):
            target = mat
            group = reality.GROUP_O if args.group == "On" else reality.GROUP_SO
        else:
            target = quadspace.classify_membership(space, mat, args.eps)
            group = reality.GROUP_SOO if args.group == "SOo" else reality.GROUP_MO
        rep = reality.reverser_oracle(
            target, group, budget=args.budget, seed=args.seed, delta=args.delta
        )
        lines.append(json.dumps(rep.to_json_dict()))
    _emit(lines, args.output)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hypiso",
        description="Classify hyperbolic-space isometries, decide reality and "
        "conjugacy, and compute conjugacy-class fibration data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("matrix", nargs="+",
                       help="matrix document file(s), '-' for standard input")
        p.add_argument("--eps", type=float, default=quadspace.DEFAULT_EPS,
                       help="membership tolerance (relative)")
        p.add_argument("--delta", type=float, default=DEFAULT_DELTA,
                       help="eigenvalue clustering tolerance")
        p.add_argument("--output", default=None, help="write documents here")

    p = sub.add_parser("classify", help="fixed-point classification report")
    common(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("reality", help="reality certificate with reverser")
    common(p)
    p.add_argument("--group", required=True, choices=["On", "SOn", "SOo", "Mo"])
    p.set_defaults(func=cmd_reality)

    p = sub.add_parser("conjugacy", help="conjugacy answer for a pair")
    p.add_argument("matrix1")
    p.add_argument("matrix2")
    p.add_argument("--group", default="Mn", choices=["Mn", "Mon"])
    p.add_argument("--eps", type=float, default=quadspace.DEFAULT_EPS)
    p.add_argument("--delta", type=float, default=DEFAULT_DELTA)
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_conjugacy)

    p = sub.add_parser("decompose", help="invariant plane decomposition")
    common(p)
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("dims", help="fibration descriptor from symbolic data")
    p.add_argument("--class", dest="klass", required=True,
                   choices=["rotation", "elliptic", "parabolic", "hyperbolic"])
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--has-pi", action="store_true")
    p.add_argument("--all-stretches", action="store_true",
                   help="hyperbolic class over all stretch factors")
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_dims)

    p = sub.add_parser("enumerate", help="finite fiber over the standard decomposition")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--angles", required=True, help="comma-separated angles in (0, pi]")
    p.add_argument("--has-pi", action="store_true")
    p.add_argument("--delta", type=float, default=DEFAULT_DELTA)
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("random", help="seeded random group elements")
    p.add_argument("--group", required=True, choices=["On", "SOn", "SOo", "Mo"])
    p.add_argument("--class", dest="klass", default=None,
                   choices=["elliptic", "parabolic", "hyperbolic"])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, default=1)
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_random)

    p = sub.add_parser("oracle", help="reverser component survey")
    common(p)
    p.add_argument("--group", required=True, choices=["On", "SOn", "SOo", "Mo"])
    p.add_argument("--budget", type=int, default=2000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_oracle)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except RefusedToDecide as exc:
        sys.stderr.write(f"undecided: {exc}\n")
        return EXIT_UNDECIDED
    except HypisoError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_DOMAIN
    except np.linalg.LinAlgError as exc:  # a ValueError, but not the input's fault
        sys.stderr.write(f"error: numerical failure: {exc}\n")
        return EXIT_DOMAIN
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        sys.stderr.write(f"malformed input: {exc}\n")
        return EXIT_MALFORMED


if __name__ == "__main__":
    sys.exit(main())
