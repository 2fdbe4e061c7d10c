import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mirrorint.padic import (
    INFINITE,
    big_B_sequence,
    big_B_units,
    is_prime,
    prime_divisors,
    primes_upto,
    vp_big_B,
    vp_int,
    vp_rational,
)
from oracles import big_B, vp_factorial

SMALL_PRIMES = (2, 3, 5, 7, 11, 13)


def brute_vp(n, p):
    """Independent valuation by literal repeated division."""
    assert n != 0
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


class TestPrimes:
    def test_is_prime_small(self):
        assert [n for n in range(2, 60) if is_prime(n)] == primes_upto(59)

    def test_is_prime_edge(self):
        assert not is_prime(1) and not is_prime(0) and not is_prime(-7)
        assert is_prime(2) and is_prime(16843) and not is_prime(16843 * 3)

    def test_is_prime_exact_range(self):
        # psi_12, a strong pseudoprime to every base 2..37: base 41 finds it.
        assert not is_prime(318665857834031151167461)
        assert is_prime(2**61 - 1) and is_prime(2**79 - 67)
        # From psi_13, a strong pseudoprime to every base 2..41, on up the
        # fixed witnesses decide nothing.
        for n in (3317044064679887385961981, 2**89 - 1):
            with pytest.raises(ValueError):
                is_prime(n)

    def test_primes_upto(self):
        assert primes_upto(1) == []
        assert primes_upto(2) == [2]
        assert primes_upto(30) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]


class TestPrimeDivisors:
    def test_matches_prime_divisor_filter(self):
        for n in range(1, 3001):
            expected = [d for d in range(2, n + 1) if n % d == 0 and is_prime(d)]
            assert prime_divisors(n) == expected, n
            assert prime_divisors(-n) == expected, -n

    def test_prime_cofactor_ends_trial_division(self):
        # The cofactor is tested by is_prime whenever it changes: a large
        # prime left after small ones, or after a small and a medium one,
        # is listed without trial division to its square root.
        P = 10**18 + 3
        q = 1048583
        assert prime_divisors(12 * P) == [2, 3, P]
        assert prime_divisors(5 * P * q) == [5, q, P]
        for n in (1031 * 1031, 7 * 1031 * 1031, 1031 * q, 96 * q, 1048573 * q):
            expected = sorted({d for d in (2, 3, 7, 1031, q, 1048573) if n % d == 0})
            assert prime_divisors(n) == expected, n

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            prime_divisors(0)


class TestVpRational:
    def test_paper_anchor(self):
        # v_3 of 363/140 (= H_7) is 1; 140 = 2^2 * 5 * 7 gives v_2 = -2.
        assert vp_rational(F(363, 140), 3) == 1
        assert vp_rational(F(363, 140), 2) == -2

    def test_unit(self):
        assert vp_rational(F(1), 7) == 0

    def test_zero_is_infinite(self):
        v = vp_rational(0, 5)
        assert v == INFINITE
        assert not isinstance(v, int)
        assert v > 10**9

    def test_nonprime_rejected(self):
        with pytest.raises(ValueError):
            vp_rational(F(1, 2), 4)

    @given(
        st.fractions(min_value=F(-50), max_value=F(50), max_denominator=60),
        st.fractions(min_value=F(-50), max_value=F(50), max_denominator=60),
        st.sampled_from(SMALL_PRIMES),
    )
    @settings(max_examples=100)
    def test_multiplicative(self, x, y, p):
        if x == 0 or y == 0:
            return
        assert vp_rational(x * y, p) == vp_rational(x, p) + vp_rational(y, p)

    @given(
        st.fractions(min_value=F(-50), max_value=F(50), max_denominator=60),
        st.fractions(min_value=F(-50), max_value=F(50), max_denominator=60),
        st.sampled_from(SMALL_PRIMES),
    )
    @settings(max_examples=100)
    def test_ultrametric(self, x, y, p):
        assert vp_rational(x + y, p) >= min(vp_rational(x, p), vp_rational(y, p))


class TestVpInt:
    @given(
        st.sampled_from((*SMALL_PRIMES, 101, 65537)),
        st.integers(0, 120),
        st.integers(1, 2**400),
        st.booleans(),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_repeated_division(self, p, v, u, negative):
        # Small and big n, valuations below, at and past multiples of 24.
        n = p**v * u * (-1 if negative else 1)
        assert vp_int(n, p) == brute_vp(n, p)

    def test_exact_powers(self):
        for p in SMALL_PRIMES:
            for v in (0, 1, 23, 24, 25, 47, 48, 49, 100):
                assert vp_int(p**v, p) == v
                assert vp_int(p**v * (p + 1) ** 40, p) == v
        assert vp_int(0, 3) == INFINITE


class TestVpFactorial:
    def test_examples(self):
        assert vp_factorial(4, 2) == 3  # 24 = 2^3 * 3
        assert vp_factorial(0, 5) == 0
        assert vp_factorial(25, 5) == 6  # 5 + 1

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            vp_factorial(-1, 2)

    @given(st.integers(0, 2000), st.sampled_from(primes_upto(50)))
    @settings(max_examples=120, deadline=None)
    def test_matches_exact_factorial(self, n, p):
        assert vp_factorial(n, p) == vp_rational(F(math.factorial(n)), p)


class TestBigB:
    def test_examples(self):
        assert big_B(2, 1, 3) == 20  # 720 / 36
        assert big_B(5, 2, 0) == 1
        assert big_B(2, 1, 2) == 6  # 24 / 4, divisible by 2!

    def test_sequence_matches_direct(self):
        for N, k in [(1, 1), (2, 1), (3, 2), (5, 2), (8, 2)]:
            row = big_B_sequence(N, k, 12)
            assert row[:13] == [big_B(N, k, m) for m in range(13)]

    def test_validation(self):
        for bad in [(0, 1, 1), (1, 0, 1), (1, 1, -1)]:
            with pytest.raises(ValueError):
                big_B(*bad)

    def test_sequence_validation(self):
        with pytest.raises(ValueError):
            big_B_sequence(3, 1, -5)
        assert big_B_sequence(3, 1, 0)[:1] == [1]

    def test_divisible_by_factorial_power(self):
        for N in range(1, 13):
            fk = math.factorial(N)
            for k in (1, 2, 3):
                for m in (1, 2, 5, 12):
                    assert big_B(N, k, m) % fk**k == 0


class TestVpBigB:
    def test_examples(self):
        assert vp_big_B(2, 1, 3, 2) == 2  # matches v_2(20)
        assert vp_big_B(1, 1, 9, 3) == 0  # the N = 1 family is identically 1
        assert vp_big_B(2, 3, 3, 2) == 6  # k-multiplicative

    def test_agrees_with_exact_value(self):
        for N in range(1, 13):
            for k in (1, 2, 3):
                for m in range(13):
                    value = big_B(N, k, m)
                    for p in SMALL_PRIMES:
                        assert vp_big_B(N, k, m, p) == (
                            0 if value == 1 else brute_vp(value, p)
                        )

    def test_scale_invariance(self):
        # v_p(B(p^e * h)) = v_p(B(h))
        for p in (2, 3, 5):
            for N in (2, 3, 5):
                for k in (1, 2):
                    for h in (1, 2, 3, 7):
                        base = vp_big_B(N, k, h, p)
                        for e in (1, 2, 3):
                            assert vp_big_B(N, k, p**e * h, p) == base


class TestTrustedHelpersEnd:
    # vp_int and vp_big_B take p on trust, but p < 2 would never leave
    # their loops (p = 0 divided by zero in vp_int), so they refuse it.
    @pytest.mark.parametrize("p", [1, 0, -1])
    def test_vp_int_rejects_p_below_2(self, p):
        with pytest.raises(ValueError):
            vp_int(8, p)

    def test_vp_big_B_rejects_p_below_2(self):
        with pytest.raises(ValueError):
            vp_big_B(3, 1, 2, 1)


class TestCoefficientLowerBounds:
    def test_small_a_bound(self):
        # v_p(B(a)) >= floor(N/p) + k*v_p(N!) for 2 <= a < p <= N.
        for k in (1, 2):
            for p in primes_upto(30):
                for a in range(2, p):
                    for N in range(p, 31):
                        assert vp_big_B(N, k, a, p) >= N // p + k * vp_factorial(N, p)

    def test_nondivisible_m_bound(self):
        # Same bound for any m >= 2 not divisible by p.
        for k in (1, 2):
            for p in (2, 3, 5, 7):
                for N in range(p, 31):
                    for m in range(2, 40):
                        if m % p == 0:
                            continue
                        assert vp_big_B(N, k, m, p) >= N // p + k * vp_factorial(N, p)

    def test_shifted_index_bound(self):
        # v_p(B(a + jp)) >= floor(N/p) + min(1 + T1, T2) - 1 + k*v_p(N!) for
        # j >= 1 (j = 0 genuinely breaks it: N=4, p=2, a=1 gives 3 < 4).
        # T1 is the max valuation of Nj + eps over eps <= floor(Na/p), by
        # direct scan (0 on an empty range); T2 = floor(log_p(a + pj)).
        for k in (1, 2):
            for p in (2, 3, 5, 7, 11):
                for a in range(1, p):
                    for j in range(1, 21):
                        for N in range(1, 21):
                            reach = (N * a) // p
                            t1 = max(
                                (vp_int(N * j + eps, p) for eps in range(1, reach + 1)),
                                default=0,
                            )
                            t2 = 0
                            x = a + p * j
                            while x >= p:
                                x //= p
                                t2 += 1
                            bound = (
                                N // p + min(1 + t1, t2) - 1 + k * vp_factorial(N, p)
                            )
                            assert vp_big_B(N, k, a + p * j, p) >= bound


class TestBigBUnits:
    def test_matches_exact_rows(self):
        for N in range(1, 9):
            for k in (1, 2):
                b = big_B_sequence(N, k, 300)
                for p in primes_upto(31):
                    exact = []
                    for m in range(301):
                        v = vp_big_B(N, k, m, p)
                        exact.append((v, b[m] // p**v))
                    for T in range(1, 7):
                        mod = p**T
                        assert big_B_units(N, k, 300, p, T) == [
                            (v, u % mod) for v, u in exact
                        ]

    def test_first_row_is_the_factorial(self):
        # B(1) = N!, so row 1 is (v_p(N!), unit of N!).
        for n in (1, 5, 12, 31):
            for p in (2, 3, 7):
                v, u = big_B_units(n, 1, 1, p, 12)[1]
                assert v == vp_factorial(n, p)
                assert u % p != 0
                assert (math.factorial(n) // p**v) % p**12 == u

    def test_validation(self):
        for bad in [
            (3, 1, 5, 4, 2),  # p not prime
            (0, 1, 5, 3, 2),
            (3, 0, 5, 3, 2),
            (3, 1, -1, 3, 2),
            (3, 1, 5, 3, 0),  # exponent
        ]:
            with pytest.raises(ValueError):
                big_B_units(*bad)
