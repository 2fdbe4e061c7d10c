"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete. Criterion 5 is expected to fail: the computed
maximal integral root of the N = 7 map is 108 at every reachable order,
not the conjectured special-case value 36 (see README, "Known discrepancy").
"""

import math
import random
from fractions import Fraction as F

from mirrorint.congruences import coeff_C, vp3_probe
from mirrorint.constants import omega, t_conjectured, u_conjectured, xi
from mirrorint.harmonic import _wolstenholme_pairing
from mirrorint.padic import primes_upto
from mirrorint.series import (
    canonical_q,
    dwork_criterion,
    integrality_check,
    max_root,
    ps_exp,
    ps_pow,
    ps_revert,
    PSeries,
)
from mirrorint.sieve import TARGET_H, TARGET_H1, SieveRun
from oracles import (
    canonical_series,
    check_decomposition,
    check_dwork_S,
    check_theorem_congruence,
    check_Y,
    exact_sieve,
    optimality_witness,
    p_integral_violation,
    ps_substitute_power,
    verify_truemap_identity,
    vp_harmonic,
)


def report(number, description, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"acceptance {number:02d} [{tag}] {description}{suffix}")
    assert ok, f"criterion {number}: {description}{suffix}"


def sieve_hits(p, max_N, target):
    return list(SieveRun(p, max_N, target))


def test_criterion_01_harmonic_valuation_tables():
    ok = True
    detail = []
    # The exact oracle's sets and SieveRun's.
    for sieve in (exact_sieve, sieve_hits):
        got = [(r.N, r.v) for r in sieve(3, 1000, TARGET_H)]
        ok &= got == [(2, 1), (7, 1), (22, 1)]
        got = [(r.N, r.v) for r in sieve(5, 1000, TARGET_H)]
        ok &= got == [(4, 2), (20, 1), (24, 1)]
        got = [(r.N, r.v) for r in sieve(3, 1000, TARGET_H1)]
        ok &= got == [(66, 1), (68, 1)]
        got = [(r.N, r.v) for r in sieve(5, 1000, TARGET_H1)]
        ok &= got == [(3, 1), (21, 1), (23, 1)]
    if not ok:
        detail.append("positive-valuation sets differ")
    dyadic = all(
        vp_harmonic(N, 2) == -(N.bit_length() - 1) for N in range(1, 2049)
    )
    ok &= dyadic
    if not dyadic:
        detail.append("dyadic law failed")
    report(1, "harmonic valuation tables (p=3,5; dyadic law to 2048)", ok,
           "; ".join(detail))


def test_criterion_02_boyd_hits():
    records = sieve_hits(11, 20_000, TARGET_H)
    level3 = [r.N for r in records if r.v == 3 and not r.v_at_least]
    beyond = [r.N for r in records if r.v_at_least]
    ok = level3 == [848, 9338, 10583] and beyond == []
    report(2, "valuation-3 hits for p=11 up to 20000", ok,
           f"level3={level3}, beyond={beyond}")


def test_criterion_03_wolstenholme_scan():
    exceptional = []
    for p in primes_upto(20_000):
        if p < 5:
            continue
        v = _wolstenholme_pairing(p, 3)
        if v != 2:
            exceptional.append((p, v))
    ok = exceptional == [(16843, 3)]
    report(3, "v_p(H_{p-1}) = 2 for all 5 <= p <= 20000 except 16843", ok,
           f"exceptional={exceptional}")


def test_criterion_04_xi_root_integrality():
    ok = True
    bad = []
    for N in range(2, 9):
        for k in (1, 2):
            root = xi(N).product * F(math.factorial(N)) ** k
            assert root.denominator == 1
            q = canonical_q("qLN", N, k, L=N, order=25)
            witness = integrality_check(ps_pow(q, 1 / root))
            if witness is not None:
                ok = False
                bad.append((N, k, witness))
    n7 = xi(7).product * math.factorial(7)
    ok &= n7 == 36
    report(4, "maps admit the prescribed root to order 25 (incl. 1/36 at N=7)",
           ok, f"violations={bad}")


def test_criterion_05_t_sequence_maximality():
    results = {}
    for N in range(2, 9):
        cert = max_root(canonical_q("qLN", N, 1, L=N, order=25))
        results[N] = (cert.V, int(t_conjectured(N, 1)[0]))
    mismatches = {N: rv for N, rv in results.items() if rv[0] != rv[1]}
    ok = not mismatches
    report(5, "maximal root at order 25 equals the conjectured t_N (N=2..8)",
           ok, f"computed-vs-expected mismatches: {mismatches}")


def test_criterion_06_omega_root_and_u_sequence():
    ok = True
    bad = []
    for N in range(2, 9):
        for k in (1, 2):
            root = omega(N).product * F(math.factorial(N)) ** k * k * N
            assert root.denominator == 1
            s = canonical_q("qN", N, k, order=25)
            witness = integrality_check(ps_pow(s, 1 / root))
            if witness is not None:
                ok = False
                bad.append(("root", N, k, witness))
    for N in range(2, 9):
        cert = max_root(canonical_q("qtilde", N, 1, order=25))
        expected = int(u_conjectured(N)[0])
        if cert.V != expected:
            ok = False
            bad.append(("u", N, cert.V, expected))
    report(6, "shifted maps admit their roots; maximal root equals u_N", ok,
           f"failures={bad}")


def test_criterion_07_congruence_sweeps():
    failures = []
    # Theorem-level congruence, both variants.
    for p in (2, 3, 5, 7):
        for N in range(1, 9):
            for k in (1, 2):
                for a in range(p):
                    for K in range((25 - a) // p + 1):
                        if not check_theorem_congruence(N, k, p, a, K, "Xi").holds:
                            failures.append(("Xi", p, N, k, a, K))
                        if N >= 2 and not check_theorem_congruence(
                            N, k, p, a, K, "Omega"
                        ).holds:
                            failures.append(("Omega", p, N, k, a, K))
    # S-sums, Y-terms and the decomposition identity.
    for p in (2, 3, 5):
        for N in range(1, 6):
            for k in (1, 2):
                for a in range(p):
                    for K in range(9):
                        if not check_decomposition(N, k, p, a, K).equal:
                            failures.append(("decomp", p, N, k, a, K))
                        for s in range(3):
                            for m in range(K // p**s + 2):
                                if not check_dwork_S(N, k, p, a, K, s, m).holds:
                                    failures.append(("S", p, N, k, a, K, s, m))
                                if not check_Y(N, k, p, a, K, s, m).holds:
                                    failures.append(("Y", p, N, k, a, K, s, m))
    # Coefficient sums against independent series expansion.
    for p in (2, 3, 5):
        for N in range(1, 6):
            for k in (1, 2):
                g, f = canonical_series("qLN", N, k, L=N, order=20)
                gt = canonical_series("qtilde", N, k, order=20)[0]
                dc = f * ps_substitute_power(g, p) - p * ps_substitute_power(f, p) * g
                dt = f * ps_substitute_power(gt, p) - p * ps_substitute_power(f, p) * gt
                for idx in range(21):
                    a, K = idx % p, idx // p
                    if coeff_C(N, k, p, a, K) != dc[idx]:
                        failures.append(("cross-C", p, N, k, idx))
                    if coeff_C(N, k, p, a, K, shifted=True) != dt[idx]:
                        failures.append(("cross-Ct", p, N, k, idx))
    ok = not failures
    report(7, "congruence sweeps and coefficient cross-checks", ok,
           f"{len(failures)} failures" if failures else "")


def test_criterion_08_dwork_equivalence():
    rng = random.Random(20260809)
    order = 12
    disagreements = []
    seen = {True: 0, False: 0}
    for trial in range(200):
        p = rng.choice([2, 3, 5, 7])
        tau = rng.randint(1, 4)
        f = PSeries([1] + [rng.randint(-3, 3) for _ in range(order)])
        g_coeffs = [F(0)] + [F(p * tau * rng.randint(-3, 3)) for _ in range(order)]
        style = trial % 3
        if style == 1:
            g_coeffs[rng.randint(1, order)] += tau
        elif style == 2:
            g_coeffs[rng.randint(1, order)] += F(
                rng.randint(1, 3), rng.choice([1, 2, 3, 5])
            )
        g = PSeries(g_coeffs, order=order)
        verdict, _ = dwork_criterion(f, g, tau, p)
        direct = p_integral_violation(ps_exp(g / (f * tau)), p) is None
        seen[verdict] += 1
        if verdict != direct:
            disagreements.append((trial, p, tau))
    ok = not disagreements and seen[True] >= 30 and seen[False] >= 30
    report(8, "criterion matches direct root integrality on 200 random maps",
           ok, f"true={seen[True]}, false={seen[False]}, bad={disagreements}")


def test_criterion_09_truemap_and_reversion():
    ok = True
    bad = []
    for N in range(1, 6):
        for k in (1, 2):
            if not verify_truemap_identity(N, k, 15):
                ok = False
                bad.append(("truemap", N, k))
            s = canonical_q("qN", N, k, order=15)
            q = PSeries((0, *s.coefficients[:15]))  # z*s to order 15
            back = PSeries(ps_revert(q).coefficients[1:])  # z(q) / q
            for tau in range(1, 7):
                lhs = integrality_check(ps_pow(PSeries(s.coefficients[:15]), F(1, tau))) is None
                rhs = integrality_check(ps_pow(back, F(1, tau))) is None
                if lhs != rhs:
                    ok = False
                    bad.append(("reversion", N, k, tau))
    report(9, "product identity and reversion equivalence to order 15", ok,
           f"failures={bad}")


def test_criterion_10_optimality_witnesses():
    bad = []
    for N in range(1, 8):
        for p in primes_upto(31):
            if p <= N:
                continue
            if optimality_witness(N, p)[1] != 0:
                bad.append(("t", N, p))
            if N >= 2 and optimality_witness(N, p, shifted=True)[1] != 0:
                bad.append(("u", N, p))
    probe = vp3_probe(11, 848)
    if not (probe.outside and probe.margin == -1):
        bad.append(("probe", probe.margin))
    report(10, "witnesses have valuation 0; the (11, 848) probe misses by one",
           not bad, f"failures={bad}")
