import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mirrorint.harmonic import (
    ModularHarmonicSum,
    _inverse_sum,
    _wolstenholme_pairing,
    scaled_weights,
)
from mirrorint.padic import INFINITE, primes_upto, vp_rational
from oracles import big_B, canonical_series, check_harmonic_congruence, harmonic, vp_harmonic


def step(acc):
    """The stepping oracle: move acc from n to n + 1 by adding 1/f to level
    w, where n + 1 = f p^w with p not dividing f."""
    acc.n += 1
    f = acc.n
    w = 0
    while f % acc.p == 0:
        f //= acc.p
        w += 1
    if w == len(acc.sums):
        acc.sums.append(0)
    mod = acc.p ** (acc.cap + 1 + w)
    acc.sums[w] = (acc.sums[w] + pow(f % mod, -1, mod)) % mod


def fresh_jump(p, cap, n, like=None):
    """A fresh accumulator moved from 0 to n in one advance_to: the closed
    form at every level. ``like`` lends its Newton tables, which depend on
    p and cap alone, so deep fresh jumps do not rebuild them."""
    acc = ModularHarmonicSum(p, cap)
    if like is not None:
        acc._jump = like._jump
    acc.advance_to(n)
    return acc


class TestHarmonicValues:
    def test_known_values(self):
        assert harmonic(0) == 0
        assert harmonic(1) == 1
        assert harmonic(2) == F(3, 2)
        assert harmonic(5) == F(137, 60)
        assert harmonic(7) == F(363, 140)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            harmonic(-1)


def weight(N, n, shifted=False):
    # The harmonic weight of B(n), one entry of scaled_weights.
    w, S = scaled_weights(N, [n], shifted)
    return F(w[n], S)


class TestHarmonicWeight:
    def test_values(self):
        for N in range(1, 6):
            assert weight(N, 1) == harmonic(N)
            assert weight(N, 1, shifted=True) == harmonic(N) - 1
            for n in range(12):
                assert weight(N, n) == harmonic(N * n)
                assert weight(N, n, True) == harmonic(N * n) - harmonic(n)

    def test_shifted_vanishes_at_N_one(self):
        for n in range(20):
            assert weight(1, n, shifted=True) == 0

    def test_weights_the_map_coefficients(self):
        M = 8
        for N in range(1, 5):
            for k in (1, 2):
                gl = canonical_series("qLN", N, k, L=N, order=M)[0]
                for m in range(1, M + 1):
                    assert gl[m] == weight(N, m) * big_B(N, k, m)


class TestVpHarmonic:
    def test_examples(self):
        assert vp_harmonic(4, 5) == 2
        assert vp_harmonic(21, 5, shifted=True) == 1
        assert vp_harmonic(16, 2) == -4

    def test_shifted_n1_rejected(self):
        with pytest.raises(ValueError):
            vp_harmonic(1, 5, shifted=True)

    def test_dyadic_law(self):
        # v_2(H_N) = -floor(log2 N), and the same for H_N - 1 when N >= 2.
        for N in range(1, 2049):
            expected = -(N.bit_length() - 1)
            assert vp_harmonic(N, 2) == expected
            if N >= 2:
                assert vp_harmonic(N, 2, shifted=True) == expected

    def test_triadic_positive_set(self):
        assert [N for N in range(1, 1001) if vp_harmonic(N, 3) > 0] == [2, 7, 22]
        assert vp_harmonic(2, 3) == vp_harmonic(7, 3) == vp_harmonic(22, 3) == 1

    def test_pentadic_positive_set(self):
        assert [N for N in range(1, 1001) if vp_harmonic(N, 5) > 0] == [4, 20, 24]
        assert vp_harmonic(4, 5) == 2
        assert vp_harmonic(20, 5) == vp_harmonic(24, 5) == 1

    def test_shifted_positive_sets(self):
        hits3 = [N for N in range(2, 1001) if vp_harmonic(N, 3, shifted=True) > 0]
        assert hits3 == [66, 68]
        hits5 = [N for N in range(2, 1001) if vp_harmonic(N, 5, shifted=True) > 0]
        assert hits5 == [3, 21, 23]
        assert all(vp_harmonic(N, 3, shifted=True) == 1 for N in hits3)
        assert all(vp_harmonic(N, 5, shifted=True) == 1 for N in hits5)


class TestModularHarmonicSum:
    @pytest.mark.parametrize("p", [3, 5, 11, 13])
    def test_matches_exact_valuations(self, p):
        acc = ModularHarmonicSum(p, cap=4)
        for n in range(1, 501):
            acc.advance_to(n)
            v, capped = acc.valuation()
            exact = vp_harmonic(n, p)
            assert not capped  # no valuation this large in range
            assert v == exact
            if n >= 2:
                v1, capped1 = acc.valuation(shifted=True)
                assert not capped1
                assert v1 == vp_harmonic(n, p, shifted=True)

    def test_capped_valuations_match_exact(self):
        # min(v_p(w), cap) and its flag, for w = H_n and H_n - 1, against the
        # exact rationals; small caps make the capped branch common.
        exact = [(F(0), F(0))] + [(h, h - 1) for h in map(harmonic, range(1, 1500))]
        capped_seen = 0
        for p in (3, 5, 7, 11):
            for cap in (1, 2, 3):
                acc = ModularHarmonicSum(p, cap)
                for n in range(1, 1500):
                    acc.advance_to(n)
                    for shifted in (False, True):
                        v = vp_rational(exact[n][shifted], p)
                        expected = (cap, True) if v >= cap else (v, False)
                        assert acc.valuation(shifted) == expected, (p, cap, n, shifted)
                        capped_seen += expected[1]
        assert capped_seen > 0

    def test_scaled_residue_matches_exact(self):
        # p^s H_n mod p^(s+cap+1) at every scale s >= -v_p(H_n) down to
        # -cap, on both sides of 0 and of the accumulator's own scale;
        # one scale lower raises.
        signs = set()
        for p, cap in ((2, 3), (3, 2), (7, 4)):
            acc = ModularHarmonicSum(p, cap)
            for n in range(1, 200):
                acc.advance_to(n)
                h = harmonic(n)
                lowest = max(-vp_rational(h, p), -cap)
                signs.add((lowest > 0) - (lowest < 0))
                for s in range(lowest, max(lowest, 0) + 3):
                    x = h * F(p) ** s
                    mod = p ** (s + cap + 1)
                    expected = x.numerator * pow(x.denominator, -1, mod) % mod
                    assert acc.scaled_residue(s) == expected, (p, cap, n, s)
                with pytest.raises(ValueError):
                    acc.scaled_residue(lowest - 1)
        assert signs == {-1, 0, 1}

    def test_nothing_to_read_before_the_first_term(self):
        acc = ModularHarmonicSum(5)
        with pytest.raises(ValueError):
            acc.scaled_residue(0)
        with pytest.raises(ValueError):
            acc.valuation()


class TestInverseSum:
    @given(
        st.sampled_from([p for p in primes_upto(50) if p > 2]),
        st.integers(min_value=1, max_value=6),
        st.lists(st.integers(min_value=-10**6, max_value=10**6), max_size=30),
    )
    @settings(max_examples=200)
    def test_matches_fraction_sum(self, p, e, xs):
        mod = p**e
        units = [x for x in xs if x % p]
        exact = sum((F(1, u) for u in units), F(0))
        expected = exact.numerator * pow(exact.denominator, -1, mod) % mod
        assert _inverse_sum(units, mod) == expected


class TestAdvanceTo:
    @pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 31])
    @pytest.mark.parametrize("cap", [1, 4, 7])
    def test_jumps_match_steps(self, p, cap):
        stepped = ModularHarmonicSum(p, cap)
        # One accumulator jumps to every n in turn, one in irregular strides,
        # and fresh ones jump from 0 to every level boundary and a spread of
        # other indices.
        jumper = ModularHarmonicSum(p, cap)
        strider = ModularHarmonicSum(p, cap)
        stride = 0
        boundaries = {p**e + d for e in range(8) for d in (-1, 0, 1)}
        for n in range(2001):
            if n:
                step(stepped)
            jumper.advance_to(n)
            assert (jumper.n, jumper.sums) == (n, stepped.sums)
            if n == strider.n + stride:
                strider.advance_to(n)
                assert strider.sums == stepped.sums
                stride = (7 * stride + 3) % 41
            if n in boundaries or n % 97 == 0:
                fresh = ModularHarmonicSum(p, cap)
                fresh.advance_to(n)
                assert fresh.sums == stepped.sums

    def test_jumps_near_a_million(self):
        p, cap = 3, 7
        stepped = ModularHarmonicSum(p, cap)
        for n in range(1, 10**6 + 6):
            step(stepped)
            if n >= 10**6 - 5:
                jumped = ModularHarmonicSum(p, cap)
                jumped.advance_to(n)
                assert jumped.sums == stepped.sums, n

    def test_steps_after_a_jump(self):
        jumped = ModularHarmonicSum(11, 4)
        jumped.advance_to(9338)
        assert jumped.valuation() == (3, False)
        for _ in range(50):
            step(jumped)
        fresh = ModularHarmonicSum(11, 4)
        fresh.advance_to(9388)
        assert (jumped.n, jumped.sums) == (fresh.n, fresh.sums)

    @pytest.mark.parametrize("p", [3, 5, 11, 83])
    def test_walks_near_1e40(self, p):
        # Every move of one walker, by +1 across a block, by +(p - 1), onto
        # and past multiples of p^w and by irregular strides, lands on the
        # state of a fresh jump to the same n.
        cap = 4
        walker = fresh_jump(p, cap, 10**40 - 3)
        targets = [walker.n + d for d in range(1, p + 3)]
        targets += [targets[-1] + (p - 1) * d for d in range(1, 6)]
        for w in range(1, 7):
            edge = (targets[-1] // p**w + 1) * p**w
            targets += [edge - 1, edge, edge + 1]
        stride = 1
        for _ in range(40):
            targets.append(targets[-1] + stride)
            stride = (7 * stride + 3) % (3 * p + 5)
        for n in targets:
            walker.advance_to(n)
            assert walker.sums == fresh_jump(p, cap, n, like=walker).sums, n

    @pytest.mark.parametrize("p", [3, 11])
    def test_window_at_1e40_matches_steps(self, p):
        stepped = fresh_jump(p, 4, 10**40)
        walker = fresh_jump(p, 4, 10**40)
        for n in range(10**40 + 1, 10**40 + 2000):
            step(stepped)
            walker.advance_to(n)
            assert walker.sums == stepped.sums, n

    @pytest.mark.parametrize("p", [3, 11, 83])
    def test_cap_8_reduces_to_cap_4_near_1e40(self, p):
        wide, narrow = ModularHarmonicSum(p, 8), ModularHarmonicSum(p, 4)
        for n in [10**40 + d for d in (0, 1, p - 1, p, p * p - 1, 10**5)] + [p**84 - 1, p**84]:
            wide.advance_to(n)
            narrow.advance_to(n)
            assert len(wide.sums) == len(narrow.sums)
            for w, (a, b) in enumerate(zip(wide.sums, narrow.sums)):
                assert a % p ** (5 + w) == b, (n, w)

    def test_step_within_a_block_builds_no_level(self, monkeypatch):
        calls = []
        level = ModularHarmonicSum._level

        def counted(self, w):
            calls.append(w)
            return level(self, w)

        monkeypatch.setattr(ModularHarmonicSum, "_level", counted)
        acc = ModularHarmonicSum(11, 4)
        acc.advance_to(11 * 10**30)
        assert calls
        calls.clear()
        for d in range(1, 11):
            acc.advance_to(11 * 10**30 + d)
        assert calls == []

    @staticmethod
    def stirling_level(p, K):
        """The jump table by power sums: D_s = s! sum_{s<=t<K} S2(t, s)
        (-p)^t A_t mod p^K, A_t = sum_{a<p} a^-(t+1), S2 the Stirling
        numbers of the second kind."""
        mod = p**K
        A = [sum(pow(a, -(t + 1), mod) for a in range(1, p)) for t in range(K)]
        D = [0] * K
        row = [1]  # S2(t, 0..t)
        for t in range(K):
            for s, stirling in enumerate(row):
                D[s] += stirling * (-p) ** t * A[t]
            row = [s * row[s] + (row[s - 1] if s else 0) for s in range(len(row))] + [1]
        return [math.factorial(s) * d % mod for s, d in enumerate(D)]

    @pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 31, 1009])
    @pytest.mark.parametrize("cap", range(1, 8))
    def test_level_matches_stirling_formula(self, p, cap):
        acc = ModularHarmonicSum(p, cap)
        for w in range(6):
            assert acc._level(w) == self.stirling_level(p, cap + 1 + w), w

    def test_no_move_back(self):
        acc = ModularHarmonicSum(5)
        acc.advance_to(30)
        acc.advance_to(30)
        assert acc.n == 30
        with pytest.raises(ValueError):
            acc.advance_to(29)


class TestWolstenholme:
    def test_known_wolstenholme_prime(self):
        assert _wolstenholme_pairing(16843, 3) == 3

    def test_ordinary_primes(self):
        assert _wolstenholme_pairing(7, 3) == 2  # v_7(H_6) = v_7(49/20) = 2
        assert _wolstenholme_pairing(5, 3) == 2  # v_5(H_4) = 2
        assert _wolstenholme_pairing(13, 3) == 2

    def test_valuation_matches_exact(self):
        # The modular pairing sum against the exact walk to p - 1.
        for p in primes_upto(120):
            if p < 5:
                continue
            assert _wolstenholme_pairing(p, 3) == min(vp_harmonic(p - 1, p), 3)

    def test_agrees_with_the_valuation(self):
        for p in [q for q in primes_upto(3000) if q >= 5] + [16843]:
            assert (_wolstenholme_pairing(p, 3) >= 3) == (p == 16843), p

    def test_pairing_at_the_known_wolstenholme_primes(self):
        # v_16843(H_16842) = 3 exactly, below a cap of 5.
        assert _wolstenholme_pairing(16843, 5) == 3
        assert _wolstenholme_pairing(2124679, 3) == 3


class TestCongruences:
    def test_j_mod_p(self):
        # p H_J = H_{floor(J/p)} mod p for all J <= 500, p <= 13.
        for p in primes_upto(13):
            for J in range(1, 501):
                rep = check_harmonic_congruence("J_mod_p", p, J=J)
                assert rep.holds, (p, J)

    def test_w1_sweep(self):
        # v_p(H_{rp-1} - H_{rp-p}) >= 2 for 5 <= p <= 97, r <= 30.
        for p in primes_upto(97):
            if p < 5:
                continue
            for r in range(1, 31):
                assert check_harmonic_congruence("W1", p, r=r).holds

    def test_w2_example(self):
        rep = check_harmonic_congruence("W2", 5, J=5)
        # 5 H_5 - H_1 = 125/12
        assert 5 * harmonic(5) - harmonic(1) == F(125, 12)
        assert rep.achieved == 3 and rep.required == 3 and rep.holds

    def test_w2_sweep(self):
        for p in (3, 5, 7):
            for J in range(p, 15 * p + 1, p):
                assert check_harmonic_congruence("W2", p, J=J).holds

    def test_w2_divisibility_enforced(self):
        with pytest.raises(ValueError, match="divisible"):
            check_harmonic_congruence("W2", 5, J=7)

    def test_w3_sweep(self):
        for p in (5, 7):
            for J in (p**2, 2 * p**2, 3 * p**2, p**3):
                assert check_harmonic_congruence("W3", p, J=J).holds

    def test_congH_examples(self):
        rep = check_harmonic_congruence("congH", 5, N=5)
        assert rep.holds and rep.predicted and rep.prediction_matches

    def test_congH_iff(self):
        for p in (5, 7):
            for N in range(1, 13):
                rep = check_harmonic_congruence("congH", p, N=N)
                assert rep.prediction_matches, (p, N, rep)

    def test_congH2_example(self):
        rep = check_harmonic_congruence("congH2", 5, N=2)
        assert not rep.holds and not rep.predicted and rep.prediction_matches

    def test_congH2_iff(self):
        for p in (5, 7):
            for N in range(1, 13):
                rep = check_harmonic_congruence("congH2", p, N=N)
                assert rep.prediction_matches, (p, N, rep)

    def test_congH2_degenerate_n1(self):
        # N = 1: the difference is exactly 0, and 1 = +1 mod p predicts it.
        rep = check_harmonic_congruence("congH2", 7, N=1)
        assert rep.achieved == INFINITE and rep.holds and rep.predicted

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            check_harmonic_congruence("nope", 5, J=1)


class TestRecursiveFilterProperty:
    def test_positive_valuation_descends(self):
        # v_p(H_N) > 0 forces v_p(H_{floor(N/p)}) > 0; one shared exact pass
        # over N <= 10^4 for all p <= 31.
        primes = [p for p in primes_upto(31) if p >= 3]
        hits = {p: set() for p in primes}
        h = F(0)
        for n in range(1, 10_001):
            h += F(1, n)
            for p in primes:
                if h.denominator % p == 0:
                    continue
                if h.numerator % p == 0:
                    hits[p].add(n)
        for p in primes:
            for n in hits[p]:
                parent = n // p
                assert parent == 0 or parent in hits[p], (p, n)
