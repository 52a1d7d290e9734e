"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
All tolerances are fixed here, not calibrated: certificate residuals at
1e-8, exact integer equality for the combinatorial counts, exact tuple
equality after the canonical rounding the library applies itself.
"""

import numpy as np

from conftest import maxabs
from hypiso.classgeom import (
    alpha,
    d0,
    descriptor_for,
    dim_decomposition_space,
    dim_spaces,
    enumerate_fiber,
    fiber_elements_match_class,
)
from hypiso.classify import classify, poincare_extend
from hypiso.conjugacy import (
    Relation,
    conjugate_in_Mn,
    conjugate_in_Mon,
    find_conjugator,
    invariant_tuple,
)
from hypiso.frames import normal_form, reconstruct_from_normal_form
from hypiso.quadspace import classify_membership
from hypiso.reality import (
    GROUP_SO,
    GROUP_SOO,
    is_real_Mo,
    is_real_SOn,
    is_real_SOo_n1,
    is_strongly_real_SOn,
    reversal_residual,
    reverser_oracle,
)
from hypiso.sampling import (
    random_isometry,
    random_regular_special_orthogonal,
    random_soo,
    rotation_with_angles,
)

RESIDUAL = 1e-8
CLASSES = ("elliptic", "parabolic", "hyperbolic")


def report(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {num} ({name}): {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def verified_reverser(cert, mat, j=None):
    if cert.reverser is None:
        return False
    if reversal_residual(cert.reverser, mat) > RESIDUAL:
        return False
    if cert.involution and maxabs(cert.reverser @ cert.reverser - np.eye(mat.shape[0])) > RESIDUAL:
        return False
    return True


def _cmd_random_matrices(tmp_path, group, n, count, seed, cls=None):
    """Generate through the CLI entry point and read the documents back."""
    from hypiso.cli import main
    from hypiso.quadspace import matrix_from_json

    out = tmp_path / f"random_{group}_{n}_{cls}_{seed}.jsonl"
    argv = [
        "random", "--group", group, "--n", str(n),
        "--count", str(count), "--seed", str(seed), "--output", str(out),
    ]
    if cls is not None:
        argv += ["--class", cls]
    assert main(argv) == 0
    docs = out.read_text().strip().splitlines()
    return [matrix_from_json(line) for line in docs]


def test_criterion_1_reality_theorem_suite(tmp_path):
    checked = agreements = verified = 0
    for n in range(2, 10):
        for ci, cls in enumerate(CLASSES):
            mats = _cmd_random_matrices(
                tmp_path, "SOo", n, 200, seed=1000 + 10 * n + ci, cls=cls
            )
            for space, mat in mats:
                t = classify_membership(space, mat, 1e-8)
                cert = is_real_SOo_n1(t)
                rep = classify(t)
                checked += 1
                if rep.regular:
                    oracle = reverser_oracle(t, GROUP_SOO, budget=0, seed=1)
                    assert oracle.regular
                    if cert.decision == ((1, 1) in oracle.exact):
                        agreements += 1
                else:
                    agreements += 1  # oracle mode (a) applies to regular only
                if cert.decision:
                    assert verified_reverser(cert, t.entries)
                    verified += 1
    report(
        1,
        "reality theorem suite",
        checked == 8 * 3 * 200 and agreements == checked,
        f"{checked} elements over n=2..9 x 3 classes via the random "
        f"subcommand; oracle agreement {agreements}/{checked}; "
        f"{verified} reversers verified at 1e-8",
    )


def test_criterion_2_blanket_mod4_cases():
    rng = np.random.default_rng(202)
    total = failures = 0
    for n in (4, 8, 3, 7):  # 0 and 3 mod 4
        for _ in range(150):
            t = random_isometry(rng, n)
            total += 1
            if not is_real_SOo_n1(t).decision:
                failures += 1
    for n_boundary in (2, 3, 6, 7):  # 2 and 3 mod 4
        for _ in range(150):
            t = random_isometry(rng, n_boundary + 1)
            total += 1
            if not is_real_Mo(t).decision:
                failures += 1
    report(
        2,
        "blanket mod-4 cases",
        total >= 1000 and failures == 0,
        f"{total} samples across SO_o(n,1) n in {{3,4,7,8}} and M_o(n) "
        f"n in {{2,3,6,7}}; {failures} exceptions",
    )


def test_criterion_3_known_negative_unipotent():
    u = poincare_extend(1.0, np.eye(1), np.array([1.0]))
    cert = is_real_SOo_n1(u)
    rep = reverser_oracle(u, GROUP_SOO, budget=100_000, seed=303)
    no_witness = (1, 1) not in rep.sampled
    report(
        3,
        "unipotent parabolic negative",
        (not cert.decision) and no_witness and rep.samples_used >= 100_000,
        f"decision={cert.decision}; mode (b) found components "
        f"{sorted(rep.sampled)} in {rep.samples_used} samples (consistent, not proof)",
    )


def test_criterion_4_special_orthogonal_suite():
    rng = np.random.default_rng(404)
    checked = agreements = involutions = 0
    for n in range(2, 9):
        for _ in range(500):
            t = random_regular_special_orthogonal(rng, n)
            cert = is_real_SOn(t)
            oracle = reverser_oracle(t, GROUP_SO, budget=0, seed=1)
            assert oracle.regular
            checked += 1
            if cert.decision == ((1, 1) in oracle.exact):
                agreements += 1
            strong = is_strongly_real_SOn(t)
            assert strong.decision == cert.decision
            if strong.decision:
                s = strong.reverser
                assert np.linalg.det(s) > 0
                assert maxabs(s @ s - np.eye(n)) <= RESIDUAL
                assert reversal_residual(s, t) <= RESIDUAL
                involutions += 1
    report(
        4,
        "SO(n) theorem suite",
        checked == 7 * 500 and agreements == checked,
        f"{checked} regular elements over n=2..8; oracle agreement "
        f"{agreements}/{checked}; {involutions} involutive reversers verified",
    )


def test_criterion_5_sheet_counts():
    expected_plain = {1: 2, 2: 8, 3: 48}
    expected_pi = {1: 1, 2: 4, 3: 24}
    angle_pool = [2.0, 1.1, 0.5]
    ok = True
    details = []
    for k in (1, 2, 3):
        for has_pi in (False, True):
            angles = sorted(
                ([np.pi] if has_pi else []) + angle_pool[: k - (1 if has_pi else 0)],
                reverse=True,
            )
            std = rotation_with_angles(angles, 2 * k)
            decomp = alpha(std)
            elements = enumerate_fiber(decomp, decomp.angles)
            want = (expected_pi if has_pi else expected_plain)[k]
            distinct = all(
                maxabs(elements[i] - elements[j]) > 1e-9
                for i in range(len(elements))
                for j in range(i + 1, len(elements))
            )
            complete = fiber_elements_match_class(elements, decomp)
            ok = ok and len(elements) == want == d0(k, has_pi) and distinct and complete
            details.append(f"k={k} pi={has_pi}: {len(elements)}")
    report(5, "sheet counts", ok, "; ".join(details) + " (expected 2,8,48 / 1,4,24)")


def test_criterion_6_dimension_formulas():
    ok = True
    for n in range(0, 13):
        for k in range(0, n + 1):
            ok = ok and dim_spaces("Grassmann", k, n) == k * (n - k)
            ok = ok and dim_spaces("AffineGrassmann", k, n) == (k + 1) * (n - k)
            ok = ok and dim_spaces("SphereSpace", k, n) == (k + 2) * (n - k)
        ok = ok and dim_decomposition_space(n) == 2 * n * (n - 1)
    count = 0
    for n in range(1, 13):
        cases = [("rotation", k) for k in range(0, n // 2 + 1)]
        cases += [("elliptic", k) for k in range(0, n // 2 + 1)]
        cases += [("parabolic", k) for k in range(0, n // 2 + 1)]
        cases += [("hyperbolic", k) for k in range(0, n // 2 + 1)]
        if n % 2 == 1:
            cases.append(("elliptic", (n + 1) // 2))
        for tag, k in cases:
            for has_pi in (False, True):
                if has_pi and k == 0:
                    continue
                d = descriptor_for(tag, k, n, has_pi)
                ok = ok and d.total_dimension == d.base.dim + d.fiber.dim
                count += 1
    report(
        6,
        "dimension formulas",
        ok,
        f"closed forms exact for 0<=k<=n<=12; additivity on {count} descriptors",
    )


def test_criterion_7_classification_invariance():
    rng = np.random.default_rng(707)
    pairs = mismatches = 0
    for _ in range(1000):
        n = int(rng.integers(2, 7))
        t = random_isometry(rng, n)
        w = random_soo(rng, n)
        conj = classify_membership(
            t.space, w @ t.entries @ np.linalg.inv(w), 1e-7
        )
        tup = invariant_tuple(t)
        if invariant_tuple(conj) != tup or invariant_tuple(t.inverse()) != tup:
            mismatches += 1
        pairs += 1
    report(
        7,
        "classification invariance",
        pairs == 1000 and mismatches == 0,
        f"{pairs} random (T, W) pairs, exact tuple equality after canonical "
        f"rounding; {mismatches} mismatches (inverse included)",
    )


def test_criterion_8_normal_form_round_trip():
    rng = np.random.default_rng(808)
    count = 0
    worst = 0.0
    for _ in range(500):
        n = int(rng.integers(2, 7))
        t = random_isometry(rng, n)
        rebuilt = reconstruct_from_normal_form(normal_form(t))
        resid = maxabs(rebuilt - t.entries)
        worst = max(worst, resid)
        assert resid <= RESIDUAL
        count += 1
    report(
        8,
        "normal-form round trip",
        count == 500 and worst <= RESIDUAL,
        f"{count} elements (n <= 6) reconstructed; worst residual {worst:.2e}",
    )


def test_criterion_9_conjugacy_soundness():
    rng = np.random.default_rng(909)
    ok_pairs = 0
    worst = 0.0
    for _ in range(500):
        n = int(rng.integers(2, 6))
        t1 = random_isometry(rng, n)
        w = random_soo(rng, n)
        t2 = classify_membership(t1.space, w @ t1.entries @ np.linalg.inv(w), 1e-7)
        s = find_conjugator(t1, t2)
        resid = maxabs(s @ t1.entries @ np.linalg.inv(s) - t2.entries)
        worst = max(worst, resid)
        assert resid <= RESIDUAL
        ok_pairs += 1
    negatives = 0
    for _ in range(500):
        n = int(rng.integers(2, 6))
        t1 = random_isometry(rng, n)
        t2 = random_isometry(rng, n)
        if invariant_tuple(t1) != invariant_tuple(t2):
            answer = conjugate_in_Mn(t1, t2)
            assert answer.related is Relation.NOT_CONJUGATE
            negatives += 1
    u = poincare_extend(1.0, np.eye(1), np.array([1.0]))
    broken = conjugate_in_Mon(u, u.inverse())
    report(
        9,
        "conjugacy soundness",
        ok_pairs == 500
        and negatives > 400
        and broken.related is Relation.CONJUGATE_IN_M_ONLY,
        f"{ok_pairs} conjugators verified (worst {worst:.2e}); "
        f"{negatives} differing-tuple pairs all NotConjugate; unipotent vs "
        f"inverse in SO_o(2,1): {broken.related.value}",
    )
