"""The integer harmonic table h[i] = S * H_i against Fraction oracles.

Every oracle here is a test-local sum of Fractions: the formula each check
evaluated before it read its harmonic weights off the table.
"""

import math
import os
import subprocess
import sys
from fractions import Fraction as F
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import mirrorint.harmonic as harmonic_module
from mirrorint import congruences, series
from mirrorint.congruences import coeff_C, sweep
from mirrorint.constants import omega, t_conjectured, theta, u_conjectured, xi
from mirrorint.harmonic import (
    _indicator,
    _walk,
    _wolstenholme_pairing,
    _wolstenholme_scan,
    harmonic_scaled,
    scaled_weights,
)
from mirrorint.padic import primes_upto, vp_int, vp_rational
from mirrorint.series import canonical_parts, canonical_q
import oracles
from oracles import (
    S_sum,
    Y_term,
    big_B,
    check_decomposition,
    check_harmonic_congruence,
    check_lemma11,
    check_lemma12,
    check_theorem_congruence,
    check_Y,
    harmonic,
    optimality_witness,
    vp_harmonic,
)

SRC = Path(__file__).resolve().parents[1] / "src"


@lru_cache(maxsize=None)
def H(n):
    return sum((F(1, i) for i in range(1, n + 1)), F(0))


def w(N, n, shifted=False):
    return H(N * n) - H(n) if shifted else H(N * n)


@pytest.fixture
def no_table(monkeypatch):
    """harmonic_scaled raises, from every module that calls it, the test
    oracles included: series reads its table only under
    harmonic.scaled_weights."""

    def refuse(stops):
        raise AssertionError(f"harmonic_scaled({stops}) was called")

    for module in (harmonic_module, congruences, oracles):
        monkeypatch.setattr(module, "harmonic_scaled", refuse)


class TestTableGrowth:
    @given(st.lists(st.integers(min_value=0, max_value=200), min_size=1, max_size=10))
    @settings(max_examples=40, deadline=None)
    def test_any_request_order(self, requests):
        # Each call's table of 0..n is exact, whatever came before it.
        for n in requests:
            h, S = harmonic_scaled(range(n + 1))
            assert sorted(h) == list(range(n + 1))
            assert S == math.lcm(*range(1, n + 1))
            assert all(h[i] == S * H(i) for i in range(n + 1))
            assert harmonic(n) == H(n)

    @given(st.lists(st.integers(min_value=0, max_value=300), max_size=12))
    @settings(max_examples=60, deadline=None)
    def test_holds_exactly_the_stops(self, stops):
        # Any stops, empty, with 0, repeated or unsorted: exactly those
        # keys, on the scale of the largest.
        h, S = harmonic_scaled(stops)
        assert set(h) == set(stops)
        assert S == math.lcm(*range(1, max(stops, default=0) + 1))
        assert all(h[n] == S * H(n) for n in stops)

    def test_stops_may_be_any_iterable(self):
        h, S = harmonic_scaled(n for n in (40, 6, 40, 0))
        assert h == {0: 0, 6: S * H(6), 40: S * H(40)}
        assert harmonic_scaled([]) == ({}, 1)
        assert harmonic_scaled(range(0)) == ({}, 1)

    def test_entries_are_ints(self):
        h, S = harmonic_scaled(range(41))
        assert all(type(n) is int and type(x) is int for n, x in h.items())
        assert S == math.lcm(*range(1, 41))

    def test_negative_rejected(self):
        for stops in ([-1], [5, -1, 7], range(-3, 2)):
            with pytest.raises(ValueError, match="stops must be non-negative"):
                harmonic_scaled(stops)

    def test_vp_harmonic(self):
        for N in range(1, 60):
            for p in primes_upto(13):
                assert vp_harmonic(N, p) == vp_rational(H(N), p)
                if N > 1:
                    assert vp_harmonic(N, p, shifted=True) == vp_rational(H(N) - 1, p)


class TestScaledWeights:
    @given(
        st.integers(min_value=1, max_value=6),
        st.booleans(),
        st.lists(st.integers(min_value=0, max_value=40), max_size=8),
        st.booleans(),
    )
    @example(3, False, [], False)
    @example(3, True, [], True)
    @settings(max_examples=80, deadline=None)
    def test_weights_keyed_by_n(self, N, shifted, ns, as_generator):
        # Any ns, empty, with 0, repeated or unsorted, list or generator:
        # exactly those keys, on the scale of the table to N max(ns).
        weights, S = scaled_weights(N, (n for n in ns) if as_generator else ns, shifted)
        assert set(weights) == set(ns)
        assert S == math.lcm(*range(1, N * max(ns, default=0) + 1))
        for n in ns:
            assert F(weights[n], S) == w(N, n, shifted)

    def test_negative_rejected(self):
        for ns in ([-1], [5, -1, 7], range(-3, 2)):
            for shifted in (False, True):
                with pytest.raises(ValueError):
                    scaled_weights(2, ns, shifted)

    def test_every_weight_reader_takes_the_one_route(self, monkeypatch):
        # A second read of the weight off a table would leave one of these
        # running.
        def refuse(*args):
            raise AssertionError("scaled_weights was called")

        for module in (harmonic_module, congruences, series, oracles):
            monkeypatch.setattr(module, "scaled_weights", refuse)
        readers = [
            lambda: canonical_q("qLN", 3, 1, L=3, order=6),
            lambda: canonical_q("qN", 3, 1, order=6),
            lambda: canonical_q("qtilde", 3, 1, order=6),
            lambda: canonical_parts("qLN", 3, 1, L=3, order=6),
            lambda: canonical_parts("qN", 3, 1, order=6),
            lambda: canonical_parts("qtilde", 3, 1, order=6),
            lambda: coeff_C(4, 1, 3, 1, 2),
            lambda: check_theorem_congruence(4, 1, 3, 1, 2, "Omega"),
            lambda: Y_term(2, 1, 3, 1, 3, 0, 1),
            lambda: check_decomposition(2, 1, 3, 1, 2),
            lambda: check_lemma11(3, 1, 3, 6, 1, "Xi"),
            lambda: check_lemma11(3, 1, 3, 6, 1, "Omega"),
            lambda: optimality_witness(3, 7),
            lambda: optimality_witness(3, 7, shifted=True),
            lambda: check_harmonic_congruence("congH", 5, N=7),
            lambda: check_harmonic_congruence("congH2", 5, N=7),
            lambda: next(sweep("theorem-congruence")),
            lambda: next(sweep("yms")),
            lambda: next(sweep("decomposition")),
            lambda: next(sweep("lemma11")),
            lambda: next(sweep("lemma11", which="Omega")),
            lambda: next(sweep("witness")),
            lambda: next(sweep("witness", which="u")),
        ]
        for read in readers:
            with pytest.raises(AssertionError, match="scaled_weights was called"):
                read()
        # The plain-H readers never take it.
        check_lemma12(3, 1, 3, 2, 4)
        check_lemma12(3, 1, 3, 1, 0, K=2)
        check_harmonic_congruence("J_mod_p", 3, J=20)
        assert list(sweep("lemma12", jmax=3)) and list(sweep("j-mod-p", pmax=7, Jmax=30))


@pytest.fixture
def pairing_calls(monkeypatch):
    """The primes _wolstenholme_pairing is called with, in call order."""
    calls = []
    monkeypatch.setattr(
        harmonic_module,
        "_wolstenholme_pairing",
        lambda p, cap: calls.append(p) or _wolstenholme_pairing(p, cap),
    )
    return calls


class TestWolstenholmeRoutes:
    # A one-prime window pairs, and no route reads a harmonic table.
    def test_grown_table_still_pairs_every_prime(self, no_table, pairing_calls):
        primes = [p for p in primes_upto(3000) if p >= 5]
        h, S = harmonic_scaled([p - 1 for p in primes] + [3000])
        for p in primes:
            for cap in range(2, 6):
                table = min(vp_int(h[p - 1], p) - vp_int(S, p), cap)
                assert list(_wolstenholme_scan(p, p, cap)) == [(p, table)], (p, cap)
        assert pairing_calls == [p for p in primes for _ in range(2, 6)]

    def test_single_prime_pairs_whatever_the_table_covers(self, no_table, pairing_calls):
        assert list(_wolstenholme_scan(101, 101, 3)) == [(101, 2)] and pairing_calls == [101]
        assert list(_wolstenholme_scan(103, 103, 3)) == [(103, 2)]
        assert pairing_calls == [101, 103]

    def test_walk_matches_the_pairing_sum(self, no_table):
        # Every step to a prime power below 3000 rescales S and x.
        primes = [p for p in primes_upto(3000) if p >= 5]
        for cap in range(2, 6):
            rows = list(_wolstenholme_scan(5, 3000, cap))
            assert rows == [(p, _wolstenholme_pairing(p, cap)) for p in primes], cap

    def test_wide_sweep_walks_without_table_or_pairing(self, no_table, pairing_calls):
        rows = list(sweep("wolstenholme", pmax=6000))
        assert len(rows) == len(primes_upto(6000)) - 2
        assert pairing_calls == []

    def test_narrow_sweep_pairs_each_prime(self, no_table, pairing_calls):
        # 50 + 51 pairing steps < 104 + 10 for the walk: both primes pair.
        rows = list(sweep("wolstenholme", pmin=100, pmax=104))
        assert [r["params"]["p"] for r in rows] == [101, 103]
        assert pairing_calls == [101, 103]

    def test_path_rule_boundary(self, no_table, pairing_calls):
        # The walk to 6800 costs 6800 + 46240 = 53040 pairing steps. The 15
        # primes from 6679 to 6793 cost 50507 of them, and with 6673 also
        # 53843: the same windows as the goldens on each side of the rule.
        list(_wolstenholme_scan(6673, 6800, 3))
        assert pairing_calls == []
        list(_wolstenholme_scan(6674, 6800, 3))
        assert pairing_calls == [p for p in primes_upto(6800) if p > 6673]
        assert len(pairing_calls) == 15

    def test_wide_windows_walk_from_any_pmin(self, no_table, pairing_calls):
        # Walking to pmax costs the same whatever pmin is, so any window
        # wider than a few percent of pmax walks.
        for pmin in (500, 700, 900, 950):
            list(_wolstenholme_scan(pmin, 1000, 3))
        assert pairing_calls == []

    @pytest.mark.parametrize("pmin,pmax", [(100, 50), (5, 4), (1, 4), (3, 3), (5, 0)])
    def test_no_primes_no_rows(self, pmin, pmax):
        assert list(_wolstenholme_scan(pmin, pmax, 3)) == []


class TestWalk:
    def test_yields_lcm_and_scaled_sum_at_each_stop(self):
        powers = [q**e for q in primes_upto(600) for e in range(1, 10) if q**e <= 600]
        stops = sorted({0, 600} | {n for q in powers for n in (q - 1, q)})
        rows = list(_walk(stops))
        assert [n for n, _, _ in rows] == stops
        for n, S, x in rows:
            assert S == math.lcm(*range(1, n + 1)), n
            assert x == S * H(n), n

    def test_no_stops_no_rows(self):
        assert list(_walk([])) == []

    def test_constants_leave_the_table_empty(self, no_table):
        for N in (2, 7, 30, 211):
            xi(N), omega(N), theta(N), t_conjectured(N), u_conjectured(N)
            vp_harmonic(N, 5), vp_harmonic(N, 7, shifted=True)

    def test_breakdown_reads_a_wolstenholme_flag_off_the_walk(self, pairing_calls):
        # 16844 = 1 and 16845 = 2 mod 16843: neither divisibility branch
        # holds, so indicator 1 at p = 16843 is the Wolstenholme flag, read
        # off the walk at n = 16842 without pairing.
        for breakdown, shifted in ((xi(16844), False), (omega(16845), True)):
            f = breakdown.factors[-1]
            assert (f.p, f.indicator) == (16843, 1)
            assert pairing_calls == []
            assert f.indicator == _indicator(16843, breakdown.N, shifted)
            pairing_calls.clear()

    @pytest.mark.skipif(sys.platform != "linux", reason="reads /proc/self/status")
    def test_xi_at_30000_peaks_under_30_mb(self):
        # The child reads its own peak, VmHWM, so other tests' children do
        # not count. Its ru_maxrss would not do: Linux carries the forking
        # process's peak across exec, so under pytest it reads about 48 MB
        # for a run that peaks at 24 MB.
        code = (
            "import contextlib, os\n"
            "from mirrorint import cli\n"
            "with open(os.devnull, 'w') as out, contextlib.redirect_stdout(out):\n"
            "    code = cli.main(['constants', '--which', 'xi', '--N', '30000'])\n"
            "peak = [l for l in open('/proc/self/status') if l.startswith('VmHWM:')]\n"
            "print(code, peak[0].split()[1])\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
        )
        assert done.returncode == 0, done.stderr
        code, max_rss_kb = map(int, done.stdout.split())
        assert code == 0
        assert max_rss_kb < 30 * 1024, max_rss_kb

    @pytest.mark.skipif(sys.platform != "linux", reason="reads /proc/self/status")
    def test_harmonic_at_20000_grows_under_10_mb(self):
        # One walk to n keeps no table: a table up to 20000 would hold
        # about 70 MB of integers to read one entry.
        code = (
            "from mirrorint.harmonic import _walk\n"
            "def peak():\n"
            "    line = [l for l in open('/proc/self/status') if l.startswith('VmHWM:')]\n"
            "    return int(line[0].split()[1])\n"
            "before = peak()\n"
            "((_, S, x),) = _walk([20000])\n"
            "assert S % 19997 == 0 and x % 19997\n"
            "print(peak() - before)\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
        )
        assert done.returncode == 0, done.stderr
        assert int(done.stdout) < 10 * 1024, done.stdout

    @pytest.mark.skipif(sys.platform != "linux", reason="reads /proc/self/status")
    @pytest.mark.parametrize(
        "call",
        [
            # Each id names the module of the sweep whose oracle the call runs.
            pytest.param(call, id=f"{module}.{call}")
            for module, call in [
                ("congruences", "check_lemma11(5, 1, 5, 160, 2)"),
                ("congruences", "check_lemma12(5, 1, 3, 2, 4000)"),
                ("congruences", "optimality_witness(5, 19997)"),
                ("harmonic", "check_harmonic_congruence('J_mod_p', 3, J=20000)"),
            ]
        ],
    )
    def test_per_point_check_at_20000_grows_under_10_mb(self, call):
        # Each reads two to four entries of H_n up to n = 20000; a table of
        # every entry would hold about 70 MB of integers.
        code = (
            "from oracles import *\n"
            "def peak():\n"
            "    line = [l for l in open('/proc/self/status') if l.startswith('VmHWM:')]\n"
            "    return int(line[0].split()[1])\n"
            "before = peak()\n"
            f"{call}\n"
            "print(peak() - before)\n"
        )
        env = dict(os.environ)
        paths = [str(SRC), str(Path(__file__).resolve().parent), env.get("PYTHONPATH")]
        env["PYTHONPATH"] = os.pathsep.join(filter(None, paths))
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
        )
        assert done.returncode == 0, done.stderr
        assert int(done.stdout) < 10 * 1024, done.stdout


SMALL = [(N, k, p) for N in (1, 2, 3, 4) for k in (1, 2) for p in (2, 3, 5)]


class TestChecksAgainstFractionFormulas:
    def test_coeff_C(self):
        for N, k, p in SMALL:
            for which, shifted in (("Xi", False), ("Omega", True)):
                if shifted and N < 2:
                    continue
                for a in range(p):
                    for K in range(4):
                        value = sum(
                            (
                                big_B(N, k, a + j * p)
                                * big_B(N, k, K - j)
                                * (w(N, K - j, shifted) - p * w(N, a + j * p, shifted))
                                for j in range(K + 1)
                            ),
                            F(0),
                        )
                        assert coeff_C(N, k, p, a, K, shifted) == value
                        rep = check_theorem_congruence(N, k, p, a, K, which)
                        assert rep.achieved == vp_rational(value, p)

    def test_Y(self):
        for N, k, p in SMALL:
            for a in range(p):
                for K in range(5):
                    for s in range(3):
                        for m in range(K // p**s + 2):
                            gap = H(N * m * p**s) - H(N * (m // p) * p ** (s + 1))
                            value = gap * S_sum(N, k, p, a, K, s, m)
                            assert check_Y(N, k, p, a, K, s, m).achieved == vp_rational(value, p)

    def test_decomposition(self):
        for N, k, p in SMALL:
            for a in range(p):
                for K in range(5):
                    lhs = sum(
                        (
                            H(N * j)
                            * (
                                big_B(N, k, a + j * p) * big_B(N, k, K - j)
                                - big_B(N, k, j) * big_B(N, k, a + (K - j) * p)
                            )
                            for j in range(K + 1)
                        ),
                        F(0),
                    )
                    rep = check_decomposition(N, k, p, a, K)
                    assert rep.lhs == lhs and rep.equal

    def test_lemma11(self):
        for N, k, p in SMALL:
            for which, shifted in (("Xi", False), ("Omega", True)):
                if shifted and N < 2:
                    continue
                for m in range(12):
                    for s in range(3):
                        gap = w(N, m * p**s, shifted) - w(N, (m // p) * p ** (s + 1), shifted)
                        value = big_B(N, k, m) * gap
                        rep = check_lemma11(N, k, p, m, s, which)
                        assert rep.achieved == vp_rational(value, p)

    def test_lemma12(self):
        for N, k, p in SMALL:
            for a in range(p):
                for K in range(1, 4):
                    if a == 1:
                        value = big_B(N, k, 1) * big_B(N, k, K) * H(N // p)
                        rep = check_lemma12(N, k, p, 1, 0, K)
                        assert rep.achieved == vp_rational(value, p)
                for j in range(1 if a == 1 else 0, 7):
                    value = big_B(N, k, a + p * j) * (H(N * j + (N * a) // p) - H(N * j))
                    assert check_lemma12(N, k, p, a, j).achieved == vp_rational(value, p)

    def test_witness(self):
        for N in range(1, 9):
            for p in primes_upto(60):
                if p <= N:
                    continue
                for shifted in (False, True) if N >= 2 else (False,):
                    a, v = optimality_witness(N, p, shifted)
                    assert v == vp_rational(big_B(N, 1, a) * w(N, a, shifted), p)

    def test_harmonic_congruences(self):
        for p in primes_upto(13):
            for J in range(1, 200):
                rep = check_harmonic_congruence("J_mod_p", p, J=J)
                assert rep.achieved == vp_rational(p * H(J) - H(J // p), p)
        for p in (5, 7, 11):
            for N in range(1, 30):
                for kind, shifted in (("congH", False), ("congH2", True)):
                    rep = check_harmonic_congruence(kind, p, N=N)
                    value = p * w(N, p, shifted) - w(N, 1, shifted)
                    assert rep.achieved == vp_rational(value, p)
            for r in range(1, 12):
                rep = check_harmonic_congruence("W1", p, r=r)
                assert rep.achieved == vp_rational(H(r * p - 1) - H(r * p - p), p)

    def test_factors_and_theta(self):
        for N in range(2, 120):
            for breakdown, weight in ((xi(N), H(N)), (omega(N), H(N) - 1)):
                if breakdown.special_case:
                    continue
                for f in breakdown.factors:
                    assert f.exponent == min(2 + f.indicator, vp_rational(weight, f.p)), (N, f)
            assert theta(N) == H(N).denominator
