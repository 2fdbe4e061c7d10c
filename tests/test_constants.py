import json
import math
import sys
from fractions import Fraction as F

import pytest

from mirrorint.constants import (
    DegenerateCase,
    omega,
    t_conjectured,
    theta,
    u_conjectured,
    xi,
)
from mirrorint.harmonic import _indicator
from mirrorint.padic import primes_upto, vp_rational
from mirrorint.series import _int_str_digits
from oracles import harmonic


class TestTheta:
    def test_examples(self):
        assert theta(7) == 140
        assert theta(1) == 1
        assert theta(2) == 2

    def test_matches_product_form(self):
        # theta is internally asserted against the valuation product; here we
        # recompute the product independently.
        for L in range(1, 201):
            h = harmonic(L)
            product = 1
            for p in primes_upto(L):
                v = vp_rational(h, p)
                if v < 0:
                    product *= p ** (-v)
            assert theta(L) == product == h.denominator


class TestIndicators:
    def test_xi_examples(self):
        assert _indicator(5, 20, False) == 1  # divisibility branch
        assert _indicator(11, 848, False) == 0  # 848 = 77*11 + 1
        assert _indicator(16843, 16843, False) == 1
        assert _indicator(16843, 16844, False) == 1  # Wolstenholme branch

    def test_xi_wolstenholme_convention(self):
        # For p in {2, 3} only the divisibility branch can fire.
        assert _indicator(2, 5_000, False) == 1  # 2 | 5000
        assert _indicator(3, 5_000, False) == 0
        assert _indicator(2, 999, False) == 0

    def test_omega_examples(self):
        assert _indicator(5, 4, True) == 1  # 4 = -1 mod 5
        assert _indicator(5, 22, True) == 0
        assert _indicator(3, 7, True) == 1  # 7 = 1 mod 3
        assert _indicator(16843, 5, True) == 1  # Wolstenholme branch


class TestXi:
    def test_special_cases(self):
        b7 = xi(7)
        assert b7.product == F(1, 140) and b7.special_case
        assert b7.exponent_of(3) == 0  # the generic formula would give 1
        assert [b7.exponent_of(p) for p in (2, 3, 5, 7, 11)] == [-2, 0, -1, -1, 0]
        b1 = xi(1)
        assert b1.product == 1 and b1.factors == ()
        assert b1.exponent_of(2) == 0

    def test_n0_rejected(self):
        with pytest.raises(ValueError):
            xi(0)

    def test_n20_exponent(self):
        b = xi(20)
        assert b.exponent_of(5) == 1  # v_5(H_20) = 1 wins over the cap 3
        assert not b.special_case

    def test_breakdown_invariants(self):
        for N in list(range(2, 201)):
            if N == 7:
                continue
            b = xi(N)
            h = harmonic(N)
            product = F(1)
            for f in b.factors:
                v = vp_rational(h, f.p)
                assert f.exponent == min(2 + f.indicator, v)
                assert f.exponent <= 2 + f.indicator
                assert f.exponent <= v
                assert f.indicator == _indicator(f.p, N, False)
                product *= F(f.p) ** f.exponent
            assert product == b.product
            assert {f.p for f in b.factors} == set(primes_upto(N))

    def test_sharpness_vs_denominator(self):
        # xi(N) * theta(N) is an integer: every negative exponent in xi is
        # matched by the harmonic denominator.
        for N in range(1, 201):
            assert (xi(N).product * theta(N)).denominator == 1

    def test_json_schema(self):
        doc = xi(7).to_json()
        assert doc["N"] == 7 and doc["product"] == "1/140" and doc["special_case"]
        assert all(set(f) == {"p", "e", "indicator", "branch"} for f in doc["factors"])
        json.dumps(doc)  # serializable

    def test_json_beyond_the_int_str_digit_limit(self):
        # The denominator of xi(2500) has 1084 digits, above Python's
        # lowest settable limit of 640.
        with _int_str_digits(0):
            expected = str(xi(2500).product)
        assert len(expected) > 1084
        with _int_str_digits(640):
            doc = xi(2500).to_json()
            assert getattr(sys, "get_int_max_str_digits", lambda: 640)() == 640
        assert doc["product"] == expected


class TestOmega:
    def test_examples(self):
        assert omega(2).product == F(1, 2)
        assert omega(3).product == F(1, 6)
        assert omega(21).exponent_of(5) == 1

    def test_n1_rejected(self):
        with pytest.raises(ValueError):
            omega(1)

    def test_breakdown_invariants(self):
        for N in range(2, 201):
            b = omega(N)
            h = harmonic(N) - 1
            product = F(1)
            for f in b.factors:
                v = vp_rational(h, f.p)
                assert f.exponent == min(2 + f.indicator, v)
                product *= F(f.p) ** f.exponent
            assert product == b.product


class TestSimplifiedForms:
    # The indicator-free product, with every exponent capped at 2, equals
    # the full one exactly when no exponent of the breakdown exceeds 2.

    def test_agreement_up_to_1000(self):
        # An exponent of 3 would need v_p >= 3 together with indicator 1;
        # no such pair exists in this range.
        for N in range(2, 1001):
            if N != 7:
                assert all(f.exponent <= 2 for f in xi(N).factors), N
            assert all(f.exponent <= 2 for f in omega(N).factors), N

    def test_values_up_to_300(self):
        # prod_{p <= N} p^min(2, v_p(h)), with h = H_N or H_N - 1.
        def capped(N, h):
            product = F(1)
            for p in primes_upto(N):
                product *= F(p) ** min(2, vp_rational(h, p))
            return product

        for N in range(2, 301):
            if N != 7:
                assert xi(N).product == capped(N, harmonic(N)), N
            assert omega(N).product == capped(N, harmonic(N) - 1), N


class TestConjecturedSequences:
    def test_t_examples(self):
        assert t_conjectured(7, 1) == (F(36), True)
        assert t_conjectured(1, 1) == (F(1), True)
        assert t_conjectured(2, 1) == (F(1), True)

    def test_u_examples(self):
        assert u_conjectured(2) == (F(1), True)
        assert u_conjectured(3) == (F(1), True)
        value, integral = u_conjectured(21)
        assert integral
        assert vp_rational(value, 5) == vp_rational(F(math.factorial(21)), 5) + 1

    def test_u1_degenerate(self):
        with pytest.raises(DegenerateCase):
            u_conjectured(1)

    def test_integrality_up_to_200(self):
        for N in range(1, 201):
            value, integral = t_conjectured(N, 1)
            assert integral, N
            value2, integral2 = t_conjectured(N, 2)
            assert integral2, N
            if N >= 2:
                value, integral = u_conjectured(N)
                assert integral, N

    def test_first_strict_improvements(self):
        # N = 20 is the least N != 7 where xi has a positive exponent, and
        # N = 21 the least where omega does.
        assert all(
            all(f.exponent <= 0 for f in xi(N).factors)
            for N in range(2, 20)
            if N != 7
        )
        assert any(f.exponent > 0 for f in xi(20).factors)
        assert all(
            all(f.exponent <= 0 for f in omega(N).factors) for N in range(2, 21)
        )
        assert any(f.exponent > 0 for f in omega(21).factors)
