"""Set-up probe: a fresh interpreter that runs one certify op.

    python bench/probe.py INPUT.json

INPUT.json holds {"n", "matrix", "partner"}.  The probe imports the
library, runs one op and prints ``done`` the moment the op completes; the
parent times spawn to that line.  An op that raises has completed too.
"""

import json
import sys


def _attempt(fn, *args) -> None:
    try:
        fn(*args)
    except Exception:  # noqa: BLE001 - an op that raised has completed too
        pass


def main() -> None:
    from hypiso import QuadraticSpace, classify_membership, conjugate_in_Mn, is_real_SOo_n1

    with open(sys.argv[1], encoding="utf-8") as fh:
        doc = json.load(fh)
    space = QuadraticSpace(doc["n"])
    dim = doc["n"] + 1
    matrix = [doc["matrix"][i * dim : (i + 1) * dim] for i in range(dim)]
    partner = [doc["partner"][i * dim : (i + 1) * dim] for i in range(dim)]
    t = classify_membership(space, matrix)
    _attempt(is_real_SOo_n1, t)
    _attempt(conjugate_in_Mn, t, classify_membership(space, partner))
    print("done", flush=True)


if __name__ == "__main__":
    main()
