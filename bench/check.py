"""Output checks against the generator's ground truth.

Certificates are re-verified without explicit inverses: the inverse of a
J-orthogonal matrix is J M^T J, so ``S T S^-1 = T^-1`` is checked as
``S T = (J T^T J) S`` and ``S T1 S^-1 = T2`` as ``S T1 = T2 S``.  The gates
are the library's: 1e-8 on every certificate residual, and the relative
1e-7 membership gate the library applies to conjugators.

Each check returns ``None`` when the output is right, else a short reason.
"""

from __future__ import annotations

import json

import numpy as np

from gen import Item, j_inverse, lorentz_residual

CERT_TOL = 1e-8
CONJ_MEMBERSHIP_EPS = 1e-7
ANGLE_TOL = 1e-6

CLASS_NAMES = {"elliptic": "Elliptic", "parabolic": "Parabolic", "hyperbolic": "Hyperbolic"}


def _max_abs(m: np.ndarray) -> float:
    return float(np.max(np.abs(m)))


def classification(item: Item, doc: dict) -> str | None:
    """Class, angle multiset and stretch of one classification report."""
    if doc.get("class") != CLASS_NAMES[item.cls]:
        return f"class {doc.get('class')!r}, expected {CLASS_NAMES[item.cls]!r}"
    got = sorted(doc.get("angles", []), reverse=True)
    want = item.std.angles
    if len(got) != len(want) or any(abs(a - b) > ANGLE_TOL for a, b in zip(got, want)):
        return f"angles {got}, expected {list(want)}"
    if item.std.stretch is not None:
        s = doc.get("stretch")
        if s is None or abs(s - item.std.stretch) > ANGLE_TOL * item.std.stretch:
            return f"stretch {s}, expected {item.std.stretch}"
    return None


def cli_output(items: list[Item], text: str) -> list[str | None]:
    """One verdict per input document, in order."""
    lines = text.splitlines()
    if len(lines) != len(items):
        return [f"{len(lines)} output lines for {len(items)} documents"] * len(items)
    return [classification(it, json.loads(line)) for it, line in zip(items, lines)]


def reverser(t: np.ndarray, s: np.ndarray) -> str | None:
    """Involution in SO_o(n,1) with S T = T^-1 S."""
    eye = np.eye(t.shape[0])
    if _max_abs(s @ s - eye) > CERT_TOL:
        return "reverser is not an involution"
    if lorentz_residual(s) > CERT_TOL:
        return "reverser is not J-orthogonal"
    if not (np.linalg.det(s) > 0 and s[-1, -1] > 0):
        return "reverser is outside SO_o"
    if _max_abs(s @ t - j_inverse(t) @ s) > CERT_TOL:
        return "reverser does not reverse"
    return None


def conjugator(t1: np.ndarray, t2: np.ndarray, s: np.ndarray, det: int | None) -> str | None:
    """Sheet-preserving S with S T1 = T2 S, of determinant ``det`` if given."""
    scale = max(1.0, _max_abs(s)) ** 2
    if lorentz_residual(s) > CONJ_MEMBERSHIP_EPS * scale:
        return "conjugator is not J-orthogonal"
    if not s[-1, -1] > 0:
        return "conjugator swaps the sheets"
    if det is not None and np.sign(np.linalg.det(s)) != det:
        return f"conjugator determinant sign is not {det}"
    if _max_abs(s @ t1 - t2 @ s) > CERT_TOL:
        return "conjugator does not conjugate"
    return None


def reality(item: Item, cert) -> str | None:
    if cert.decision != item.expected_real:
        return f"reality decision {cert.decision}, expected {item.expected_real}"
    if cert.decision:
        return reverser(item.matrix, np.asarray(cert.reverser))
    return None


def conjugacy(item: Item, answer) -> str | None:
    """Relation against ground truth; an attached conjugator must verify."""
    rel = answer.related.value
    if rel != "Undecided" and rel != item.expected_relation:
        return f"relation {rel}, expected {item.expected_relation}"
    if answer.conjugator is None:
        return None if rel == "NotConjugate" else f"{rel} without a conjugator"
    det = {"ConjugateInMo": 1, "ConjugateInMOnly": -1}.get(rel)
    return conjugator(item.matrix, item.partner, np.asarray(answer.conjugator), det)


def oracle(item: Item, report, decision: bool) -> str | None:
    """sampled is a subset of exact, and (1, 1) in exact matches reality."""
    if report.exact is None:
        return "no exact enumeration for a regular element"
    if not report.sampled <= report.exact:
        return f"sampled {sorted(report.sampled)} not within exact {sorted(report.exact)}"
    has_soo = (1, 1) in report.exact
    if has_soo != item.expected_real or has_soo != decision:
        return (
            f"(1, 1) in exact is {has_soo}; reality decision {decision}, "
            f"expected {item.expected_real}"
        )
    return None
