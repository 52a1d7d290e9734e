"""Batch command-line front end.

Matrices travel as JSON documents {"n": int, "matrix": row-major floats};
a file holds any number of them, one after another (JSONL included), and
``-`` reads standard input.  Every subcommand emits one JSON document per
line (streamable).  Exit codes: 0 success, 1 malformed input (an
unreadable input file included), 2 domain error, out-of-range option,
numerical failure or output that cannot be written (``error: cannot write
output: ...``: an ``--output`` that cannot be opened, a standard output
that is closed or whose reader has gone), 3 refusal to decide
(borderline tolerance zone); several documents exit with the code of the
first one that fails.  A conjugacy question always ends in one of the
three relations, so ``conjugacy`` exits 3 only on a refusal.  The
library's other refusal, an exhausted search budget, comes only from
``reverser_oracle(require=...)``, which ``oracle`` does not pass.

``classify``, ``reality``, ``oracle`` and ``decompose`` answer their
documents through one loop (:func:`_per_document`): every document is
read first, the Lorentz ones get their spectral passes stored, stacked
per dimension, and each is answered in input order by the command's
public decider.  So a Lorentz stream holds every document's element
until it writes.

The reality, conjugacy, fibration and sampling modules are imported by
the commands that use them, so ``classify`` starts without them.

The program entry (:func:`entry`, both ``python -m hypiso.cli`` and the
``hypiso`` script) does two things that :func:`main` does not: it freezes
the heap the imports left (``gc.freeze``), so neither the cyclic collector
nor the interpreter's exit walks numpy's import-time objects, and it
settles standard output before the interpreter's last flush, so output
that cannot be written ends as exit 2 without a traceback.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import gc
import json
import os
import sys

import numpy as np

from . import quadspace
from .classify import classify
from .errors import HypisoError, OutOfRange, RefusedToDecide
from .spectral import DEFAULT_DELTA, _LorentzSpectrum, plane_decomposition, rotation_matrix

EXIT_OK = 0
EXIT_MALFORMED = 1
EXIT_DOMAIN = 2
EXIT_REFUSED = 3


_DECODER = json.JSONDecoder()
_SKIP = json.decoder.WHITESPACE.match


def _documents(path: str):
    """(space, matrix) of each document of a file, in order, parsed as they
    are reached; ``-`` is standard input.  A file is read with one
    unbuffered read of its bytes and decoded once as UTF-8; where it holds
    a carriage return, \\r\\n and \\r become \\n, so the text, and every
    error offset, is what text mode reads.  All documents go through one
    shared decoder."""
    if path == "-":
        if sys.stdin is None:  # the process was started without descriptor 0
            raise OSError(errno.EBADF, "standard input is closed")
        text = sys.stdin.read()
    else:
        with open(path, "rb", buffering=0) as fh:
            text = fh.read().decode("utf-8")
        if "\r" in text:
            text = text.replace("\r\n", "\n").replace("\r", "\n")
    if text.startswith("\ufeff"):  # as json.loads refuses it
        raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", text, 0)
    pos = _SKIP(text, 0).end()
    while True:  # at least one document: an empty file fails as json.loads does
        doc, end = _DECODER.raw_decode(text, pos)
        yield quadspace.matrix_from_document(doc)
        pos = _SKIP(text, end).end()
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


def _emit(lines, output) -> int:
    """Write the lines to ``output``, or to standard output, flushed, and
    return the command's exit code."""
    text = "\n".join(lines) + "\n"
    try:
        if output:
            with open(output, "w", encoding="utf-8") as fh:
                fh.write(text)
        elif sys.stdout is None:  # the process was started without descriptor 1
            raise OSError(errno.EBADF, "standard output is closed")
        else:
            sys.stdout.write(text)
            sys.stdout.flush()
    except OSError as exc:
        return _cannot_write(exc)
    return EXIT_OK


def _cannot_write(exc: OSError) -> int:
    sys.stderr.write(f"error: cannot write output: {exc}\n")
    return EXIT_DOMAIN


def _store_passes(members: list, delta: float) -> None:
    """Store, stacked, the spectral pass of each sheet-preserving
    ``LorentzMatrix`` of ``members`` (all of one size), a hyperbolic's rays
    included.  It raises nothing: a failed stack stores nothing, and each
    element's decider meets its own error."""
    live = [t for t in members if isinstance(t, quadspace.LorentzMatrix) and t.sheet_preserving]
    with contextlib.suppress(np.linalg.LinAlgError, HypisoError):
        _LorentzSpectrum.stack(live, delta)


def _per_document(args, answer, lorentz: bool) -> int:
    """Emit the JSON document ``answer(x)`` of each input document, in
    input order: x is the validated Lorentz matrix when ``lorentz``
    (``classify``, and ``--group`` SOo and Mo), and the raw matrix
    otherwise (the orthogonal groups, and ``decompose``).

    Every document is read first.  Lorentz documents then go through
    membership, and their spectral passes are stored (:func:`_store_passes`),
    once per dimension on the stack of its matrices, for ``answer`` to
    read.  If any document fails, the first that does, in input order, is
    raised and nothing is written."""
    docs = []
    read_error = None
    try:
        for doc in _matrices(args.matrix):
            docs.append(doc)
    except Exception as exc:  # noqa: BLE001 - raised after the documents before it
        read_error = exc
    xs = [mat for _, mat in docs]
    if lorentz:
        by_dim: dict[int, list[int]] = {}
        for i, (space, _) in enumerate(docs):
            by_dim.setdefault(space.n, []).append(i)
        for idx in by_dim.values():
            stack = np.stack([xs[i] for i in idx])
            members = quadspace.classify_membership_many(docs[idx[0]][0], stack, args.eps)
            _store_passes(members, args.delta)
            for i, x in zip(idx, members):
                xs[i] = x
    lines = []
    for x in xs:
        if isinstance(x, Exception):
            raise x
        lines.append(json.dumps(answer(x)))
    if read_error is not None:
        raise read_error
    return _emit(lines, args.output)


def cmd_classify(args) -> int:
    return _per_document(args, lambda t: classify(t, args.delta).to_json_dict(), True)


def cmd_reality(args) -> int:
    from . import reality

    decide = {
        "On": lambda m: reality.is_real_On(m, args.delta, args.eps),
        "SOn": lambda m: reality.is_real_SOn(m, args.delta, args.eps),
        "SOo": lambda t: reality.is_real_SOo_n1(t, args.delta),
        "Mo": lambda t: reality.is_real_Mo(t, args.delta),
    }[args.group]
    return _per_document(args, lambda x: decide(x).to_json_dict(), args.group in ("SOo", "Mo"))


def cmd_conjugacy(args) -> int:
    from . import conjugacy

    t1 = _read_one(args.matrix1, args.eps)
    t2 = _read_one(args.matrix2, args.eps)
    if args.group == "Mon":
        answer = conjugacy.conjugate_in_Mon(t1, t2, args.delta)
    else:
        answer = conjugacy.conjugate_in_Mn(t1, t2, args.delta)
    return _emit([json.dumps(answer.to_json_dict())], args.output)


def cmd_decompose(args) -> int:
    def document(mat) -> dict:
        decomp = plane_decomposition(mat, args.delta, args.eps)
        return {
            "angles": list(decomp.angles),
            "planes": [p.T.tolist() for p in decomp.planes],
            "fixed_subspace": decomp.fixed_subspace.T.tolist(),
        }

    return _per_document(args, document, False)


def cmd_dims(args) -> int:
    from . import classgeom

    desc = classgeom.descriptor_for(
        args.klass, args.k, args.n, args.has_pi, fix_stretch=not args.all_stretches
    )
    return _emit([json.dumps(desc.to_json_dict())], args.output)


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
    return _emit([json.dumps(doc)], args.output)


def cmd_random(args) -> int:
    from . import sampling

    if args.count < 1:
        raise OutOfRange(f"--count must be at least 1, got {args.count}")
    # the smallest --n whose documents have n >= 1: n x n orthogonal
    # matrices, elements of SO_o(n,1), or of SO_o(n+1,1) for Mo
    low = {"On": 2, "SOn": 2, "SOo": 1, "Mo": 0}[args.group]
    if args.n < low:
        raise OutOfRange(f"--n must be at least {low} for --group {args.group}, got {args.n}")
    given = [opt for opt, val in (("--class", args.klass), ("--k", args.k)) if val is not None]
    if given and args.group in ("On", "SOn"):
        raise OutOfRange(
            f"{' and '.join(given)}: only for the Lorentz groups SOo and Mo, "
            f"not --group {args.group}"
        )
    n = args.n + (args.group == "Mo")
    if args.k is not None and args.k > n // 2:  # before any draw
        raise OutOfRange(
            f"--k must be at most {n // 2} for --group {args.group} --n {args.n}, got {args.k}"
        )
    rng = np.random.default_rng(args.seed)
    lines = []
    for _ in range(args.count):
        if args.group == "On":
            mat = sampling.random_orthogonal(rng, args.n)
        elif args.group == "SOn":
            mat = sampling.random_regular_special_orthogonal(rng, args.n)
        else:
            mat = sampling.random_isometry(rng, n, args.klass, args.k).entries
        lines.append(quadspace.matrix_to_json(mat))
    return _emit(lines, args.output)


def cmd_oracle(args) -> int:
    from . import reality

    group = {
        "On": reality.GROUP_O, "SOn": reality.GROUP_SO,
        "SOo": reality.GROUP_SOO, "Mo": reality.GROUP_MO,
    }[args.group]
    return _per_document(args, lambda x: reality.reverser_oracle(
        x, group, budget=args.budget, seed=args.seed, delta=args.delta, eps=args.eps
    ).to_json_dict(), args.group in ("SOo", "Mo"))


class _Parser(argparse.ArgumentParser):
    def _print_message(self, message, file=None):
        # argparse drops an OSError of this write: one to standard output
        # (--help on a closed pipe) is raised, for entry() to report
        if message and file is not None and file is sys.stdout:
            file.write(message)
        else:
            super()._print_message(message, file)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
                   choices=["elliptic", "parabolic", "hyperbolic"],
                   help="SOo and Mo only; drawn per element among the classes "
                   "that admit --k when omitted")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, default=None,
                   help="rotation planes, SOo and Mo only; at most n // 2 of the "
                   "element's SO_o(n,1)")
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
        return EXIT_REFUSED
    except HypisoError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_DOMAIN
    except np.linalg.LinAlgError as exc:  # a ValueError, but not the input's fault
        sys.stderr.write(f"error: numerical failure: {exc}\n")
        return EXIT_DOMAIN
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        sys.stderr.write(f"malformed input: {exc}\n")
        return EXIT_MALFORMED


def entry() -> int:
    """The program: :func:`main` on ``sys.argv``, run on a frozen heap.

    The freeze moves every object the imports made into the collector's
    permanent generation; an in-process ``main(argv)`` does not freeze, so
    a caller's heap is left as it was.  Standard output is flushed here,
    before the interpreter's own last flush: when that fails, or
    argparse's write of ``--help`` does, the rest of it goes to the null
    device, and a run that had succeeded reports the failure and exits 2."""
    gc.freeze()
    code = EXIT_OK
    try:
        try:
            code = main()
        except SystemExit as exc:  # argparse: --help, or a usage error
            code = exc.code
        if sys.stdout is not None:  # None when the process has no descriptor 1
            sys.stdout.flush()
    except OSError as exc:  # the flush, or argparse's write of --help
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        if code == EXIT_OK:
            code = _cannot_write(exc)
    return code


if __name__ == "__main__":
    sys.exit(entry())
