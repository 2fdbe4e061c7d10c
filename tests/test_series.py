import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mirrorint import congruences, padic, series
from mirrorint.constants import t_conjectured, u_conjectured
from mirrorint.padic import prime_divisors
from mirrorint.series import (
    CANONICAL_KINDS,
    PSeries,
    RootCertificate,
    RootPrime,
    _dwork_difference,
    _int_str_digits,
    _over_lcm,
    canonical_parts,
    canonical_q,
    dwork_criterion,
    exp_quotient,
    first_nonintegral,
    integrality_check,
    max_root,
    ps_exp,
    ps_log,
    ps_pow,
    ps_revert,
)
from oracles import (
    big_B,
    canonical_series,
    check_theorem_congruence,
    harmonic,
    p_integral_violation,
    ps_substitute_power,
    verify_truemap_identity,
)

SRC = Path(__file__).resolve().parents[1] / "src"

small_series = st.builds(
    lambda coeffs: PSeries(coeffs, order=8),
    st.lists(
        st.fractions(min_value=F(-4), max_value=F(4), max_denominator=6),
        min_size=0,
        max_size=9,
    ),
)


def exp_scan_root(s):
    """The exp-scan oracle: max_root's certificate from re-expanding the
    root exp(log s / p^(e+1)) at every trial exponent e and scanning it for
    its first non-p-integral coefficient."""
    first = next((i for i in range(1, s.order + 1) if s[i] != 0), None)
    if first is None:
        return RootCertificate(s.order, (), 1, "certified", degenerate=True)
    log_s = ps_log(s)
    primes, V = [], 1
    for p in prime_divisors(int(s[first])):
        e = 0
        while (witness := p_integral_violation(ps_exp(log_s / p ** (e + 1)), p)) is None:
            e += 1
        primes.append(RootPrime(p, e, witness))
        V *= p**e
    return RootCertificate(s.order, tuple(primes), V, "certified")


def listed(cert):
    """cert without its primes above the order whose exponent is 0, which
    exp_scan_root lists because they divide the first coefficient and
    max_root does not."""
    primes = tuple(rp for rp in cert.primes if rp.p <= cert.order or rp.exponent)
    return cert._replace(primes=primes)


def compose(outer, inner):
    """Oracle composition by Horner's rule (inner must kill the constant)."""
    assert inner[0] == 0
    m = min(outer.order, inner.order)
    acc = PSeries([outer.coefficients[m]], order=m)
    for i in range(m - 1, -1, -1):
        acc = acc * PSeries(inner.coefficients[: m + 1]) + outer.coefficients[i]
    return acc


class TestRingOps:
    def test_difference_of_squares(self):
        assert (PSeries([1, 1, 0]) * PSeries([1, -1, 0])).coefficients == (1, 0, -1)

    def test_geometric_inverse(self):
        geo = PSeries([1], order=6) / PSeries([1, -1], order=6)
        assert geo.coefficients == (1,) * 7

    def test_long_division(self):
        # (1 + 2z + 6z^2 + 20z^3) / (1 + 2z); re-multiplying confirms it.
        q = PSeries([1, 2, 6, 20]) / PSeries([1, 2], order=3)
        assert q.coefficients == (1, 0, 6, 8)
        assert q * PSeries([1, 2], order=3) == PSeries([1, 2, 6, 20])

    def test_division_requires_unit(self):
        with pytest.raises(ValueError):
            PSeries([1, 1]) / PSeries([0, 1])

    def test_order_is_min_of_operands(self):
        a, b = PSeries([1] * 5), PSeries([1] * 9)
        assert (a + b).order == (a * b).order == 4

    def test_equality_up_to_common_order(self):
        assert PSeries([1, 2, 3]) == PSeries([1, 2, 3, 4, 5])
        assert PSeries([1, 2, 3]) != PSeries([1, 2, 4, 4])

    def test_scalar_mixing(self):
        s = PSeries([0, 1], order=3)
        assert (1 + s).coefficients == (1, 1, 0, 0)
        assert (s * 2).coefficients == (0, 2, 0, 0)

    @given(small_series, small_series, small_series)
    @settings(max_examples=60)
    def test_distributive(self, a, b, c):
        assert a * (b + c) == a * b + a * c


# Term-by-term Fraction recurrences on coefficient lists: the oracle for the
# integer kernels behind PSeries multiply/divide and ps_exp.
def ref_mul(a, b):
    m = min(len(a), len(b))
    return [sum((a[i] * b[n - i] for i in range(n + 1)), F(0)) for n in range(m)]


def ref_div(a, b):
    q = []
    for n in range(min(len(a), len(b))):
        q.append((a[n] - sum((q[i] * b[n - i] for i in range(n)), F(0))) / b[0])
    return q


def ref_exp(c):
    out = [F(1)]
    for n in range(1, len(c)):
        out.append(sum(j * c[j] * out[n - j] for j in range(1, n + 1)) / n)
    return out


def ref_log(c):
    q = ref_div([i * c[i] for i in range(1, len(c))], c[:-1])
    return [F(0)] + [q[n - 1] / n for n in range(1, len(c))]


def random_coeffs(rng, order, const=None):
    """Zeros, integers and fractions of both signs, some with big denominators."""
    pool = [
        lambda: F(0),
        lambda: F(rng.randint(-9, 9)),
        lambda: F(rng.randint(-50, 50), rng.randint(1, 12)),
        lambda: F(rng.randint(-10**30, 10**30), rng.randint(1, 10**20)),
    ]
    c = [rng.choice(pool)() for _ in range(order + 1)]
    if const is not None:
        c[0] = const
    return c


def pairs(s):
    if isinstance(s, PSeries):
        s = s.coefficients
    assert all(type(x) is F for x in s)
    return [(x.numerator, x.denominator) for x in s]


class TestIntegerKernels:
    CONSTS = [F(1), F(-1), F(3), F(-3, 7), F(22, 9)]

    @pytest.mark.parametrize("seed", range(40))
    def test_mul_and_div_match_fraction_recurrences(self, seed):
        rng = random.Random(seed)
        for _ in range(6):
            a = random_coeffs(rng, rng.randint(0, 12))
            b = random_coeffs(rng, rng.randint(0, 12), const=rng.choice(self.CONSTS))
            assert pairs(PSeries(a) * PSeries(b)) == pairs(ref_mul(a, b))
            assert pairs(PSeries(a) / PSeries(b)) == pairs(ref_div(a, b))

    @pytest.mark.parametrize("seed", range(40))
    def test_exp_log_pow_match_fraction_recurrences(self, seed):
        rng = random.Random(1000 + seed)
        order = rng.randint(0, 12)
        z = random_coeffs(rng, order, const=F(0))
        assert pairs(ps_exp(PSeries(z))) == pairs(ref_exp(z))
        u = random_coeffs(rng, order, const=F(1))
        log_u = ref_log(u)
        assert pairs(ps_log(PSeries(u))) == pairs(log_u)
        for e in (2, -1, -3, F(1, 3), F(-5, 2), F(7, 12)):
            expected = ref_exp([e * x for x in log_u])
            assert pairs(ps_pow(PSeries(u), e)) == pairs(expected)

    @pytest.mark.parametrize("seed", range(40))
    def test_exp_quotient_matches_fraction_recurrences(self, seed):
        rng = random.Random(2000 + seed)
        order = rng.randint(0, 12)
        g = random_coeffs(rng, order, const=F(0))
        f = random_coeffs(rng, rng.randint(0, 12), const=rng.choice(self.CONSTS))
        r = rng.choice((1, 2, 108, 324))
        expected = ref_exp([x / r for x in ref_div(g, f)])
        assert pairs(list(exp_quotient(g, f, r))) == pairs(expected)

    @pytest.mark.parametrize("k", range(6))
    def test_solve_reads_w_one_term_per_step(self, k):
        rng = random.Random(k)
        u = random_coeffs(rng, 8)
        f = random_coeffs(rng, 8, const=F(-3, 7))

        def w():
            yield from f[: k + 1]
            raise RuntimeError("w read beyond the outputs asked for")

        steps = series._solve(u, w(), [f[0]] * len(u))
        got = [next(steps) for _ in range(k + 1)]
        assert pairs(got) == pairs(ref_div(u, f)[: k + 1])
        with pytest.raises(RuntimeError):
            next(steps)

    def test_exp_quotient_preconditions(self):
        with pytest.raises(ValueError):
            exp_quotient([1, 1], [1, 1], 1)
        with pytest.raises(ValueError):
            exp_quotient([0, 1], [0, 1], 1)
        with pytest.raises(ValueError):
            exp_quotient([0, 1], [1, 1], 0)

    def test_canonical_map_matches_fraction_recurrences(self):
        g, f, d = canonical_parts("qLN", 5, L=5, order=30)
        log_q = ref_div([F(x, d) for x in g], [F(x) for x in f])
        assert pairs(PSeries(g) / PSeries(f) / d) == pairs(log_q)
        assert pairs(canonical_q("qLN", 5, L=5, order=30)) == pairs(ref_exp(log_q))


class TestExpLog:
    def test_exp_of_z(self):
        e = ps_exp(PSeries([0, 1], order=6))
        assert e.coefficients == tuple(F(1, math.factorial(n)) for n in range(7))

    def test_log_of_geometric(self):
        geo = PSeries([1], order=6) / PSeries([1, -1], order=6)
        lg = ps_log(geo)
        assert lg.coefficients == (0,) + tuple(F(1, n) for n in range(1, 7))

    def test_preconditions(self):
        with pytest.raises(ValueError):
            ps_exp(PSeries([1, 1]))
        with pytest.raises(ValueError):
            ps_log(PSeries([2, 1]))

    @given(small_series)
    @settings(max_examples=60)
    def test_round_trip(self, s):
        u = PSeries((F(1),) + s.coefficients[1:])  # force constant term 1
        assert ps_exp(ps_log(u)) == u
        z = PSeries((F(0),) + s.coefficients[1:])
        assert ps_log(ps_exp(z)) == z


class TestPow:
    def test_identity_exponent(self):
        s = PSeries([1, 1], order=4)
        assert ps_pow(s, 1) == s

    def test_fourth_root(self):
        s = ps_pow(PSeries([1, 1], order=10), 4)
        assert ps_pow(s, F(1, 4)) == PSeries([1, 1], order=10)

    def test_square_root_of_binomial(self):
        half = ps_pow(PSeries([1, 1], order=4), F(1, 2))
        assert half.coefficients[:3] == (1, F(1, 2), F(-1, 8))

    def test_requires_unit_constant(self):
        with pytest.raises(ValueError):
            ps_pow(PSeries([2, 1]), F(1, 2))

    @given(
        small_series,
        st.fractions(min_value=F(-3), max_value=F(3), max_denominator=4),
        st.fractions(min_value=F(-3), max_value=F(3), max_denominator=4),
    )
    @settings(max_examples=40)
    def test_exponent_additive(self, s, a, b):
        u = PSeries((F(1),) + s.coefficients[1:])
        assert ps_pow(u, a) * ps_pow(u, b) == ps_pow(u, a + b)


class TestSubstitutePower:
    def test_examples(self):
        assert ps_substitute_power(PSeries([1, 1]), 2).coefficients == (1, 0, 1, 0)
        assert ps_substitute_power(PSeries([0, 1]), 3).coefficients == (0, 0, 0, 1, 0, 0)
        s = ps_substitute_power(PSeries([1, 2, 6]), 2)
        assert s.order == 5 and (s[0], s[2], s[4]) == (1, 2, 6)

    def test_identity_power(self):
        s = PSeries([1, 2, 3])
        assert ps_substitute_power(s, 1) == s


class TestRevert:
    def test_identity(self):
        assert ps_revert(PSeries([0, 1], order=4)).coefficients == (0, 1, 0, 0, 0)
        assert ps_revert(PSeries([0, 1])).coefficients == (0, 1)

    def test_moebius(self):
        # z/(1-z) inverts to q/(1+q).
        s = PSeries([0] + [1] * 5)
        assert ps_revert(s).coefficients == (0, 1, -1, 1, -1, 1)

    def test_quadratic(self):
        r = ps_revert(PSeries([0, 1, 1], order=4))
        assert r.coefficients == (0, 1, -1, 2, -5)

    def test_composition_oracle(self):
        s = PSeries([0, 1, 3, F(1, 2), -2, 7], order=5)
        t = ps_revert(s)
        assert compose(s, t) == PSeries([0, 1], order=5)
        assert ps_revert(t) == s

    def test_normalization_enforced(self):
        with pytest.raises(ValueError):
            ps_revert(PSeries([1, 1]))
        with pytest.raises(ValueError):
            ps_revert(PSeries([0, 2, 1]))

    @given(
        st.lists(
            st.fractions(min_value=F(-3), max_value=F(3), max_denominator=4),
            min_size=0,
            max_size=6,
        )
    )
    @settings(max_examples=50)
    def test_revert_round_trip(self, tail):
        s = PSeries([F(0), F(1)] + tail, order=len(tail) + 1)
        t = ps_revert(s)
        assert ps_revert(t) == s
        assert compose(s, t) == PSeries([0, 1], order=s.order)


class TestBuilders:
    # The rows (G, F, d) of canonical_parts, read as G / d where the series
    # they stand for are rational.
    def test_central_binomials(self):
        assert canonical_parts("qN", 2, 1, order=3)[1] == [1, 2, 6, 20]

    def test_g_vanishes_for_n1(self):
        assert canonical_parts("qN", 1, 3, order=8)[0] == [0] * 9

    def test_gl_first_coefficient(self):
        g, _, d = canonical_parts("qLN", 2, 1, L=2, order=1)
        assert [F(x, d) for x in g] == [0, 3]  # H_2 * 2

    def test_coefficients_against_the_definitions(self):
        M = 9
        for N in range(1, 5):
            for k in (1, 2):
                b = [big_B(N, k, m) for m in range(M + 1)]
                g, f = canonical_series("qN", N, k, order=M)
                gt = canonical_series("qtilde", N, k, order=M)[0]
                assert f.coefficients == tuple(b)
                assert g[0] == gt[0] == 0
                for m in range(1, M + 1):
                    shifted = harmonic(N * m) - harmonic(m)
                    assert gt[m] == shifted * b[m]
                    assert g[m] == k * N * shifted * b[m]
                for L in range(1, N + 2):
                    gl = canonical_series("qLN", N, k, L=L, order=M)[0]
                    assert gl[0] == 0
                    for m in range(1, M + 1):
                        assert gl[m] == harmonic(L * m) * b[m]

    def test_gtilde_vs_g(self):
        # G = kN * G-tilde, coefficientwise.
        for N, k in [(2, 1), (3, 2)]:
            g, _, d = canonical_parts("qN", N, k, order=8)
            gt, _, dt = canonical_parts("qtilde", N, k, order=8)
            assert d == dt and g == [k * N * x for x in gt]


class TestCanonicalMaps:
    def test_q11_is_geometric(self):
        q = canonical_q("qLN", 1, 1, L=1, order=5)
        assert q.coefficients == (1,) * 6

    def test_linear_coefficients(self):
        # q_{L=N}: H_N * N!^k; z^{-1}q: (H_N - 1) * N!^k * kN.
        for N, k in [(2, 1), (3, 2), (5, 1)]:
            fk = math.factorial(N) ** k
            assert canonical_q("qLN", N, k, L=N, order=2)[1] == harmonic(N) * fk
            assert canonical_q("qN", N, k, order=2)[1] == (harmonic(N) - 1) * fk * k * N
            assert canonical_q("qtilde", N, k, order=2)[1] == (harmonic(N) - 1) * fk

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            canonical_q("mystery", 2, 1, order=3)

    @pytest.mark.parametrize("kind", ["qN", "qtilde"])
    def test_L_only_for_qLN(self, kind):
        # Only qLN reads L; another kind given one rejects it before any
        # series is built.
        with pytest.raises(ValueError, match=f"{kind} takes no L"):
            canonical_parts(kind, 3, 1, L=5, order=10)
        with pytest.raises(ValueError, match="qLN requires L"):
            canonical_parts("qLN", 3, 1, order=10)

    def test_log_and_roots_match_the_pow_route(self):
        # G / F of canonical_parts is log(canonical_q) exactly, so
        # exp(log / V) gives the same V-th root as ps_pow at every order.
        for kind in ("qLN", "qN", "qtilde"):
            for N in range(1, 7):
                for k in (1, 2):
                    for L in range(1, N + 1) if kind == "qLN" else (None,):
                        g, f = canonical_series(kind, N, k, L=L, order=15)
                        log_q = g / f
                        q = canonical_q(kind, N, k, L=L, order=15)
                        assert ps_log(q) == log_q, (kind, N, k, L)
                        for V in (1, 2, 3, 4, 6, 12):
                            root = ps_pow(q, F(1, V))
                            assert ps_exp(log_q / V) == root, (kind, N, k, L, V)

    def test_folk_integrality(self):
        # Both z^{-1} q(z) and q^{-1} z(q) have integer coefficients
        # (checked to order 20, the reversion to order 19).
        for N in range(1, 9):
            for k in (1, 2):
                s = canonical_q("qN", N, k, order=20)
                assert integrality_check(s) is None, (N, k)
                z_of_q = ps_revert(PSeries((0, *s.coefficients[:20])))
                assert integrality_check(PSeries(z_of_q.coefficients[1:])) is None, (N, k)


class TestIntegralityCheck:
    def test_pass(self):
        geo = PSeries([1], order=6) / PSeries([1, -1], order=6)
        assert integrality_check(geo) is None

    def test_violation_index(self):
        assert integrality_check(PSeries([1, F(1, 2)])) == 1

    def test_theorem_instance_n5(self):
        # The shifted map for N = 5 admits the root u_5 * 5 = 10 to order 25.
        root = int(u_conjectured(5)[0]) * 5
        s = canonical_q("qN", 5, 1, order=25)
        assert integrality_check(ps_pow(s, F(1, root))) is None

    def test_p_integral_violation(self):
        s = PSeries([1, F(1, 6), F(1, 4)])
        assert p_integral_violation(s, 2) == 1
        assert p_integral_violation(s, 5) is None


class TestMaxRoot:
    def test_geometric_v1(self):
        geo = PSeries([1], order=10) / PSeries([1, -1], order=10)
        cert = max_root(geo)
        assert cert.V == 1 and not cert.degenerate and cert.primes == ()

    def test_binomial_fourth_power(self):
        cert = max_root(ps_pow(PSeries([1, 1], order=10), 4))
        assert cert.V == 4
        (rp,) = cert.primes
        # (1+z)^(1/8) = 1 + z/2 - ... already fails at index 1.
        assert (rp.p, rp.exponent, rp.witness) == (2, 2, 1)

    def test_degenerate(self):
        cert = max_root(PSeries([1], order=8))
        assert cert.degenerate and cert.V == 1

    def test_rejects_non_integral(self):
        with pytest.raises(ValueError):
            max_root(PSeries([1, F(1, 2)]))
        with pytest.raises(ValueError):
            max_root(PSeries([2, 1]))

    def test_certificate_validity(self):
        # Re-expanding through ps_pow confirms integrality at V and the
        # recorded witness at one more power of each prime.
        rng = random.Random(11)
        cases = [
            canonical_q("qLN", 5, 1, L=5, order=20),
            canonical_q("qN", 4, 1, order=20),
            canonical_q("qN", 3, 2, order=16),
            canonical_q("qtilde", 6, 1, order=20),
            canonical_q("qtilde", 3, 2, order=16),
        ]
        for V0 in (1, 2, 3, 4, 6, 9, 12):
            t = PSeries([1] + [rng.randint(-5, 5) for _ in range(12)])
            cases.append(ps_pow(t, V0))
        for s in cases:
            cert = max_root(s)
            assert integrality_check(ps_pow(s, F(1, cert.V))) is None
            for rp in cert.primes:
                worse = ps_pow(s, F(1, rp.p ** (rp.exponent + 1)))
                assert p_integral_violation(worse, rp.p) == rp.witness

    def test_mirror_map_n7(self):
        # Computed maximal root at desk scale; the 3-exponent stays at 3
        # (the 27th root is 3-integral far beyond this order), so the value
        # is 108 rather than the conjectured 36 = xi(7) * 7!.
        cert = max_root(canonical_q("qLN", 7, 1, L=7, order=25))
        assert cert.V == 108
        assert int(t_conjectured(7, 1)[0]) == 36

    def test_json_beyond_the_int_str_digit_limit(self):
        # Under Python's default limit of 4300 digits, both to_json methods
        # lift the limit for the conversion and put it back.
        big = 10**4400
        with _int_str_digits(4300):
            series_doc = PSeries([1, big]).to_json()
            cert = RootCertificate(order=1, primes=(), V=big, status="certified")
            cert_doc = cert.to_json()
            assert getattr(sys, "get_int_max_str_digits", lambda: 4300)() == 4300
        assert series_doc["coefficients"] == ["1", "1" + "0" * 4400]
        assert cert_doc["V"] == "1" + "0" * 4400

    def test_never_expands_a_root(self, monkeypatch):
        s = canonical_q("qLN", 7, 1, L=7, order=25)

        def refuse(*args):
            raise AssertionError("max_root re-expanded a root")

        monkeypatch.setattr(series, "ps_exp", refuse)
        assert max_root(s).V == 108

    @given(
        st.lists(st.integers(-6, 6), min_size=1, max_size=10),
        st.integers(1, 27),
        st.booleans(),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_exp_scan_oracle(self, tail, k, powered):
        # Integral series, and k-th powers, whose roots reach deeper exponents.
        base = PSeries([1] + tail)
        s = ps_pow(base, k) if powered else base
        assert max_root(s) == listed(exp_scan_root(s))

    def test_canonical_maps_match_exp_scan_oracle(self):
        # All 104 maps are integral; max_root raises on any that is not.
        for N in range(1, 9):
            for k in (1, 2):
                for kind in CANONICAL_KINDS:
                    for L in range(1, N + 1) if kind == "qLN" else (None,):
                        s = canonical_q(kind, N, k, L=L, order=30 if k == 1 else 20)
                        assert max_root(s) == listed(exp_scan_root(s)), (kind, N, k, L)

    def test_never_substitutes_or_factors_the_first_coefficient(self, monkeypatch):
        # s[1] of qLN N = 17 has the prime factor 1138979, which is above the
        # order and does not divide V. No code in the package substitutes
        # z^p: ps_substitute_power is a test oracle, and the reachability
        # scan of test_boundary keeps any such orphan out of src/.
        s = canonical_q("qLN", 17, 1, L=17, order=30)
        assert s[1] % 1138979 == 0

        def divisors(n):
            if n % 1138979 == 0:
                raise AssertionError(f"factored {n}")
            return prime_divisors(n)

        monkeypatch.setattr(series, "prime_divisors", divisors)
        assert max_root(s).V == 29030400

    def test_large_prime_root_ends_trial_division(self, monkeypatch):
        # (1 + z)^P to order 10 has V = P. Trial division to sqrt(P) took
        # 0.17 s at P = 10^12 + 39 and 4.9 s at 10^15 + 37; it stops once the
        # cofactor is prime, so P is listed after one is_prime on it.
        tested = []

        def counting(n):
            tested.append(n)
            return is_prime(n)

        is_prime = padic.is_prime
        monkeypatch.setattr(padic, "is_prime", counting)
        for P in (10**12 + 39, 10**15 + 37, 10**18 + 3):
            tested.clear()
            cert = max_root(PSeries([math.comb(P, i) for i in range(11)]))
            assert cert.V == P and [q.p for q in cert.primes] == [P]
            assert tested == [P], (P, tested)

    @pytest.mark.skipif(sys.platform != "linux", reason="reads /proc/self/status")
    def test_large_first_coefficient_primes_peak_under_40_mb(self):
        # The first coefficients of qLN N = 17 and qtilde N = 19 have the
        # prime factors 1138979 and 197698279, which do not divide V. The
        # child caps its address space at 512 MB, so a route whose memory
        # grows with such a prime fails fast with MemoryError rather than
        # exhausting the host, and it reads its own peak, VmHWM.
        code = (
            "import resource\n"
            "resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))\n"
            "from mirrorint.series import canonical_q, max_root\n"
            "assert max_root(canonical_q('qLN', 17, 1, L=17, order=30)).V == 29030400\n"
            "assert max_root(canonical_q('qtilde', 19, 1, order=30)).V == 1567641600\n"
            "peak = [l for l in open('/proc/self/status') if l.startswith('VmHWM:')]\n"
            "print(peak[0].split()[1])\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
        )
        assert done.returncode == 0, done.stderr
        assert int(done.stdout) < 40 * 1024, done.stdout

    def test_t_conjectured_divides_the_root_for_k_at_least_2(self):
        # Each V is a certificate to order 40 only; a longer order can only
        # make it a divisor. t_N = xi(N) N!^k divides every one. The
        # quotients above 1 are powers of primes in (N, 2N) that divide the
        # numerator of H_N, times 3 at N = 7, where the pin xi(7) = 1/140
        # drops a factor 3 (acceptance 05).
        quotients = {
            (2, 2): 3, (2, 3): 3, (4, 2): 5, (4, 3): 25, (6, 2): 7, (6, 3): 49,
            (7, 2): 33, (7, 3): 33, (10, 2): 11, (10, 3): 121, (12, 2): 13,
            (12, 3): 169, (15, 2): 29, (15, 3): 29, (16, 2): 17, (16, 3): 289,
        }
        for N in range(2, 17):
            for k in (2, 3):
                V = max_root(canonical_q("qLN", N, k, L=N, order=40)).V
                quotient = V / t_conjectured(N, k)[0]
                assert quotient == quotients.get((N, k), 1), (N, k, quotient)

    def test_json_schema(self):
        cert = max_root(ps_pow(PSeries([1, 1], order=6), 2))
        doc = cert.to_json()
        assert set(doc) == {"order", "primes", "V", "status", "degenerate"}
        json.dumps(doc)


class TestDworkCriterion:
    def test_zero_g(self):
        ok, w = dwork_criterion(PSeries([1], order=8), PSeries([0], order=8), 1, 5)
        assert ok and w is None

    def test_linear_g(self):
        for p, tau in [(2, 1), (3, 2), (5, 4)]:
            g = PSeries([0, p * tau], order=8)
            ok, w = dwork_criterion(PSeries([1], order=8), g, tau, p)
            assert ok, (p, tau, w)

    def test_theorem_instance(self):
        # g normalised by xi(5) * 5! = 2: the criterion at p = 2 encodes the
        # 2-integrality of the map's square root.
        t5 = int(t_conjectured(5, 1)[0])
        g, f = canonical_series("qLN", 5, 1, L=5, order=24)
        ok, w = dwork_criterion(f, g / t5, 1, 2)
        assert ok, w

    def test_preconditions(self):
        with pytest.raises(ValueError):
            dwork_criterion(PSeries([2, 1]), PSeries([0, 1]), 1, 5)
        with pytest.raises(ValueError):
            dwork_criterion(PSeries([1, F(1, 2)]), PSeries([0, 1]), 1, 5)
        with pytest.raises(ValueError):
            dwork_criterion(PSeries([1, 1]), PSeries([1, 1]), 1, 5)

    def test_validates_the_prime_once(self, monkeypatch):
        calls = []

        def counting(n):
            calls.append(n)
            return is_prime(n)

        is_prime = padic.is_prime
        monkeypatch.setattr(padic, "is_prime", counting)
        # g in 3 Z[[z]] passes, so every coefficient is examined.
        g = PSeries([0] + [3 * (2 * i - 7) for i in range(12)])
        assert dwork_criterion(PSeries([1, 1, 2], order=12), g, 1, 3) == (True, None)
        assert calls == [3]

    def test_matches_direct_integrality(self):
        # Randomized two-sided agreement between the congruence criterion
        # and direct p-integrality of exp(g / (tau f)).
        rng = random.Random(20260809)
        order = 12
        agree_true = agree_false = 0
        for trial in range(200):
            p = rng.choice([2, 3, 5, 7])
            tau = rng.randint(1, 4)
            f = PSeries([1] + [rng.randint(-3, 3) for _ in range(order)])
            g_coeffs = [0] + [p * tau * rng.randint(-3, 3) for _ in range(order)]
            style = trial % 3
            if style == 1:
                g_coeffs[rng.randint(1, order)] += tau  # spoil one p-factor
            elif style == 2:
                g_coeffs[rng.randint(1, order)] += F(
                    rng.randint(1, 3), rng.choice([1, 2, 3, 5])
                )
            g = PSeries(g_coeffs, order=order)
            verdict, index = dwork_criterion(f, g, tau, p)
            direct = ps_exp(g / (f * tau))
            first_bad = p_integral_violation(direct, p)
            assert verdict == (first_bad is None), (trial, p, tau)
            assert index == first_bad, (trial, p, tau)
            if verdict:
                agree_true += 1
            else:
                agree_false += 1
        assert agree_true >= 30 and agree_false >= 30


def stream_first_nonintegral(g, f, r):
    """The oracle: stream exp(g / (r f)) exactly to its first non-integral
    coefficient."""
    powered = enumerate(exp_quotient(g, f, r))
    return next((i for i, x in powered if x.denominator != 1), None)


class TestFirstNonintegral:
    # 2^7, 3^5, 11*13 and 31, a prime above the order.
    ROOTS = (1, 2, 12, 36, 108, 324, 2**7, 3**5, 11 * 13, 31)

    def test_canonical_maps_match_exp_stream(self):
        verdicts = {True: 0, False: 0}
        for N in range(1, 9):
            for k in (1, 2, 3):
                for kind in CANONICAL_KINDS:
                    for L in range(1, 9) if kind == "qLN" else (None,):
                        g, f, d = canonical_parts(kind, N, k, L=L, order=30)
                        for r in self.ROOTS:
                            want = stream_first_nonintegral(g, f, d * r)
                            got = first_nonintegral(g, f, d * r)
                            assert got == want, (kind, N, k, L, r)
                            verdicts[want is None] += 1
        assert min(verdicts.values()) >= 30

    def test_matches_exp_stream_on_random_series(self):
        # g = r f log u passes, since exp(g / (r f)) = u. Each spoiled style
        # fails through a different route: a denominator prime above the
        # order, r carrying one such prime too many, a small prime below the
        # index of a big denominator prime at the top, or a small prime at
        # the top index alone.
        rng = random.Random(20261019)
        order = 12
        big = (13, 17, 19, 23, 29)
        verdicts = {True: 0, False: 0}
        scales = random.Random(7)
        for trial in range(250):
            f = PSeries([1] + [rng.randint(-4, 4) for _ in range(order)])
            u = PSeries([1] + [rng.randint(-3, 3) for _ in range(order)])
            r = rng.choice((1, 2, 3, 4, 6, 9, 12, 2**7, 3**5)) * rng.choice(
                (1, 17, 19, 23 * 29)
            )
            style = trial % 5
            if style == 2:
                q = rng.choice(big)
                g = f * ps_log(u) * F(r, q)
                r *= q
            else:
                g = f * ps_log(u) * r
            c = list(g.coefficients)
            if style == 1:
                c[rng.randint(1, order)] += F(
                    rng.randint(1, 6), rng.choice(big) * rng.choice((1, 2, 3))
                )
            elif style == 3:
                c[rng.randint(1, order // 3)] += r * rng.randint(1, 3)
                c[order] += F(1, rng.choice(big))
            elif style == 4:
                c[order] += F(r, rng.choice((2, 3, 4, 9)))
            want = stream_first_nonintegral(c, f.coefficients, r)
            # The integer rows over the lcm of g's denominators, and over a
            # multiple of it: any common scale serves.
            G, d = _over_lcm(c)
            ints = [int(x) for x in f.coefficients]
            assert first_nonintegral(G, ints, d * r) == want, (trial, r)
            s = scales.choice((2, 3, 9, 2**7, 3**5, 17, 6 * 17))
            assert first_nonintegral([s * x for x in G], ints, s * d * r) == want, (trial, r, s)
            verdicts[want is None] += 1
        assert verdicts[True] >= 30 and verdicts[False] >= 30

    @given(
        st.integers(8, 30),
        st.lists(
            st.tuples(st.integers(2, 9), st.sampled_from((-2, -1, 1, 2))),
            min_size=1,
            max_size=3,
        ),
        st.sampled_from(ROOTS),
        st.sampled_from((2, 3, 9, 2**7, 3**5, 17, 6 * 17)),
        st.data(),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_exp_stream_on_sparse_rows(self, order, factors, r, s, data):
        # The prime passes' own violations, on rows with many zeros mod p^e,
        # so that the passes run _dwork_difference's pass form. With
        # u = prod (1 - z^a)^(-c), log u = sum c z^(am) / m is sparse and
        # exp(log u) = u is integral, so g = r f log u passes. Adding x / p^b
        # to log u at an index i >= p, p not dividing x, spoils exactly index
        # i, at p alone: every denominator prime at an index is at most that
        # index, so the gcd pass strips them all and decides nothing.
        f = [1] + data.draw(
            st.lists(
                st.one_of(st.just(0), st.integers(-9, 9)),
                min_size=order,
                max_size=order,
            ),
            label="f",
        )
        h = [F(0)] * (order + 1)
        for a, c in factors:
            for m in range(1, order // a + 1):
                h[a * m] += F(c, m)
        if data.draw(st.booleans(), label="spoiled"):
            p = data.draw(st.sampled_from((2, 3, 5, 7)), label="p")
            i = data.draw(st.integers(p, order), label="i")
            x = data.draw(st.integers(1, 6).filter(lambda x: x % p), label="x")
            h[i] += F(x, p ** data.draw(st.integers(1, 2), label="b"))
        c = (PSeries(f) * PSeries(h) * r).coefficients
        want = stream_first_nonintegral(c, f, r)
        G, d = _over_lcm(c)
        assert first_nonintegral(G, f, d * r) == want
        assert first_nonintegral([s * x for x in G], f, s * d * r) == want

    @given(
        st.sampled_from(("qLN", "qN", "qtilde")),
        st.sampled_from((1, 2, None)),
        st.integers(1, 6),
        st.integers(1, 2),
        st.integers(0, 30),
        st.sampled_from(ROOTS),
        st.one_of(
            st.integers(1, 10**9),
            st.builds(
                pow,
                st.sampled_from((2, 3, 5, 7, 11, 13, 17, 19, 23, 29)),
                st.integers(1, 12),
            ),
        ),
    )
    @settings(max_examples=200, deadline=None)
    def test_any_common_scale(self, kind, L, N, k, order, root, c):
        # Scaling G and r by the same c leaves the index unmoved; L = None
        # stands for L = N. On canonical parts the gcd pass decides every
        # violation tried, so the small-prime moduli p^(1 + v_p(r)) are
        # scaled by test_matches_exp_stream_on_random_series.
        L = (L or N) if kind == "qLN" else None
        g, f, d = canonical_parts(kind, N, k, L=L, order=order)
        want = first_nonintegral(g, f, d * root)
        assert first_nonintegral([c * x for x in g], f, c * d * root) == want

    def test_never_factors(self, monkeypatch):
        def refuse(n):
            raise AssertionError(f"factored {n}")

        monkeypatch.setattr(series, "prime_divisors", refuse)
        monkeypatch.setattr(padic, "prime_divisors", refuse)
        g, f, d = canonical_parts("qLN", 7, 1, L=7, order=60)
        big_prime = 10**24 + 7
        assert first_nonintegral(g, f, d * 108) is None
        assert first_nonintegral(g, f, d * 108 * big_prime) == 1
        assert first_nonintegral([x * big_prime for x in g], f, d * 108 * big_prime) is None

    def test_degenerate_and_order_zero(self):
        assert first_nonintegral([0] * 10, [1, 5] + [0] * 8, 7) is None
        assert first_nonintegral([0], [1], 1) is None

    def test_preconditions(self):
        with pytest.raises(ValueError, match="r must be"):
            first_nonintegral([0, 1], [1, 1], 0)
        with pytest.raises(ValueError):
            first_nonintegral([0, 1], [2, 1], 1)
        with pytest.raises(ValueError):
            first_nonintegral([1, 1], [1, 1], 1)


# Integer rows, dense or with forced zeros: a row with a zero stride term
# sends _dwork_difference to its pass form, a row without one (and with at
# least p stride terms) to its index form.
dense_rows = st.lists(st.integers(-10**6, 10**6), min_size=1, max_size=30)
zeroed_rows = st.lists(
    st.one_of(st.just(0), st.integers(-10**6, 10**6)), min_size=1, max_size=30
)


class TestDworkDifference:
    @given(
        st.one_of(dense_rows, zeroed_rows),
        st.one_of(dense_rows, zeroed_rows),
        st.sampled_from((2, 3, 5, 7, 11)),
        st.integers(1, 6),
        st.data(),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_series_oracle(self, f, g, p, e, data):
        # The oracle is exact to the common order M of f and g. The column
        # [lo, hi) may be empty (hi <= lo), start past 0, stop at hi = 1, or
        # end below p.
        fs, gs = PSeries(f), PSeries(g)
        exact = fs * ps_substitute_power(gs, p) - p * ps_substitute_power(fs, p) * gs
        M = exact.order
        lo = data.draw(st.integers(0, M + 1), label="lo")
        hi = data.draw(st.integers(0, M + 1), label="hi")
        want = [exact[i] for i in range(lo, hi)]
        assert _dwork_difference(f, g, p, lo, hi) == want
        # Fed residues mod q, the kernel is right mod q.
        q = p**e
        fq, gq = [x % q for x in f], [x % q for x in g]
        got = _dwork_difference(fq, gq, p, lo, hi)
        assert [x % q for x in got] == [x % q for x in want]

    def test_each_form_runs_where_the_rule_sends_it(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the other form ran")

        # Certify's rows mod p^e have many zeros: the README's pass runs the
        # pass form alone, at all 41 primes below its order.
        g, f, d = canonical_parts("qLN", 7, 1, L=7, order=180)
        with monkeypatch.context() as patch:
            patch.setattr(series, "_dwork_dots", refuse)
            assert first_nonintegral(g, f, d * 108) is None
        # Rows of B(m) > 0, exact or as p^v times a unit, have no dead
        # stride term: with at least p terms they run the index form alone.
        with monkeypatch.context() as patch:
            patch.setattr(series, "_dwork_passes", refuse)
            assert len(list(congruences.sweep("coeff-c", mmax=50))) == 50
            assert list(congruences.sweep("theorem-congruence", p=(2, 3, 5)))
        # At p = 7 the default summax 25 leaves 4 < 7 stride terms, so the
        # rest of the default grid takes the pass form.
        with monkeypatch.context() as patch:
            patch.setattr(series, "_dwork_dots", refuse)
            assert list(congruences.sweep("theorem-congruence", p=(7,)))

    def test_every_reader_takes_the_one_kernel(self, monkeypatch):
        # A second copy of the difference would leave one of these running.
        def refuse(*args):
            raise AssertionError("Dwork's difference computed off the kernel")

        monkeypatch.setattr(series, "_dwork_difference", refuse)
        monkeypatch.setattr(congruences, "_dwork_difference", refuse)
        g, f, d = canonical_parts("qLN", 7, 1, L=7, order=20)
        gs, fs = canonical_series("qLN", 7, 1, L=7, order=20)
        readers = [
            lambda: first_nonintegral(g, f, d * 108),
            lambda: dwork_criterion(fs, gs, 1, 3),
            lambda: congruences.coeff_C(4, 1, 3, 1, 2),
            lambda: check_theorem_congruence(4, 1, 3, 1, 2),
            lambda: next(congruences.coeff_C_valuations(7, 3, [5], 3)),
            lambda: next(congruences.sweep("theorem-congruence")),
            lambda: next(congruences.sweep("coeff-c", mmax=5)),
        ]
        for read in readers:
            with pytest.raises(AssertionError, match="off the kernel"):
                read()


class TestTruemapIdentity:
    @pytest.mark.parametrize("N,k,order", [(1, 1, 10), (2, 1, 15), (3, 2, 12)])
    def test_examples(self, N, k, order):
        assert verify_truemap_identity(N, k, order)


class TestReversionEquivalence:
    def test_root_transfer(self):
        # For q = z*s with s in 1 + z Z[[z]]: s^(1/tau) is integral to order
        # M-1 exactly when (q^{-1} z(q))^(1/tau) is.
        rng = random.Random(7)
        cases = [PSeries([1] + [rng.randint(-4, 4) for _ in range(12)]) for _ in range(25)]
        cases += [canonical_q("qN", N, 1, order=12) for N in (2, 3, 4, 5)]
        for s in cases:
            q = PSeries((0, *s.coefficients[:-1]))  # z*s to the same order
            z_of_q = ps_revert(q)
            back = PSeries(z_of_q.coefficients[1:])  # z(q) / q
            for tau in range(1, 7):
                lhs = integrality_check(ps_pow(PSeries(s.coefficients[: s.order]), F(1, tau)))
                rhs = integrality_check(ps_pow(back, F(1, tau)))
                assert (lhs is None) == (rhs is None), (s, tau, lhs, rhs)
