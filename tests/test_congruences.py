import contextlib
import inspect
import io
import json
import math
import tracemalloc
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mirrorint.harmonic as harmonic_module
from mirrorint import congruences
from mirrorint.cli import _row_writer, main
from mirrorint.congruences import (
    SWEEPS,
    WHICH_OMEGA,
    WHICH_XI,
    _required_vp,
    coeff_C,
    coeff_C_valuations,
    sweep,
    vp3_probe,
)
from mirrorint.harmonic import _indicator, _wolstenholme_pairing
from mirrorint.padic import INFINITE, primes_upto, vp_big_B, vp_rational
from mirrorint.sieve import canonical_json
from oracles import (
    S_sum,
    Y_term,
    big_B,
    canonical_series,
    check_decomposition,
    check_dwork_S,
    check_harmonic_congruence,
    check_lemma11,
    check_lemma12,
    check_theorem_congruence,
    check_Y,
    harmonic,
    optimality_witness,
    ps_substitute_power,
)


def series_coefficient_C(N, k, p, index, shifted=False):
    """Oracle: the coefficient of F(z) G(z^p) - p F(z^p) G(z) computed by
    plain series arithmetic (G is the L = N map, or the shifted one)."""
    order = index
    if shifted:
        g, f = canonical_series("qtilde", N, k, order=order)
    else:
        g, f = canonical_series("qLN", N, k, L=N, order=order)
    diff = f * ps_substitute_power(g, p) - p * ps_substitute_power(f, p) * g
    return diff[index]


class TestCoefficientSums:
    def test_zero_at_origin(self):
        for N, k, p in [(2, 1, 3), (5, 2, 7), (1, 1, 2)]:
            assert coeff_C(N, k, p, 0, 0) == 0
            assert coeff_C(N, k, p, 0, 0, shifted=True) == 0

    def test_first_coefficient(self):
        # C(1) = -p * N!^k * H_N
        assert coeff_C(2, 1, 3, 1, 0) == -9
        assert coeff_C(7, 1, 3, 1, 0) == -3 * 5040 * F(363, 140)

    def test_tilde_vanishes_for_n1(self):
        for p, a, K in [(3, 1, 2), (2, 0, 3), (5, 4, 1)]:
            assert coeff_C(1, 2, p, a, K, shifted=True) == 0

    def test_against_series_expansion(self):
        # Every coefficient sum is literally a coefficient of the two-series
        # combination; cross-check both variants on the full small grid.
        for p in (2, 3, 5):
            for N in range(1, 6):
                for k in (1, 2):
                    for index in range(0, 21):
                        a, K = index % p, index // p
                        assert coeff_C(N, k, p, a, K) == series_coefficient_C(
                            N, k, p, index
                        ), (p, N, k, index)
                        assert coeff_C(N, k, p, a, K, shifted=True) == series_coefficient_C(
                            N, k, p, index, shifted=True
                        ), (p, N, k, index)


class TestTheoremCongruence:
    def test_margin_example(self):
        rep = check_theorem_congruence(2, 1, 3, 1, 0, "Xi")
        assert rep.holds and rep.achieved == 2 and rep.required == 1
        assert rep.margin == 1

    def test_special_case_margin(self):
        # C(1) for N = 7 has v_3 = 4; the requirement uses the pinned
        # constant 1/140 (3-exponent 0), so the margin is 1.
        rep = check_theorem_congruence(7, 1, 3, 1, 0, "Xi")
        assert rep.holds and rep.achieved == 4 and rep.required == 3
        assert rep.margin == 1

    def test_exhaustive_small_sweep(self):
        for a in range(2):
            for K in range(9):
                assert check_theorem_congruence(5, 1, 2, a, K, "Xi").holds

    def test_omega_requires_n2(self):
        with pytest.raises(ValueError):
            check_theorem_congruence(1, 1, 3, 0, 1, "Omega")

    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            check_theorem_congruence(2, 1, 3, 0, 1, "Zeta")


class TestSSum:
    def test_vanishes_beyond_range(self):
        # All terms vanish once m p^s exceeds K.
        assert S_sum(2, 1, 3, 1, 2, 0, 4) == 0
        assert S_sum(3, 2, 5, 0, 1, 2, 1) == 0

    def test_symmetric_cancellation(self):
        # Single j = 1 term with K - j = j: the two products coincide.
        assert S_sum(2, 1, 3, 1, 2, 0, 1) == 0

    def test_two_term_value(self):
        # j in {2, 3}: direct evaluation from the factorial coefficients.
        b = lambda m: big_B(3, 1, m) if m >= 0 else 0
        expected = sum(
            b(0 + 2 * j) * b(3 - j) - b(j) * b(0 + (3 - j) * 2) for j in (2, 3)
        )
        assert S_sum(3, 1, 2, 0, 3, 1, 1) == expected == 17351256

    def test_dwork_membership_sweep(self):
        for p in (2, 3, 5):
            for N in range(1, 6):
                for k in (1, 2):
                    for a in range(p):
                        for K in range(9):
                            for s in range(3):
                                for m in range(K // p**s + 2):
                                    rep = check_dwork_S(N, k, p, a, K, s, m)
                                    assert rep.holds, (p, N, k, a, K, s, m)


class TestYTerms:
    def test_zero_cases(self):
        assert Y_term(2, 1, 3, 1, 2, 0, 1) == 0  # S vanishes
        # p | m at s = 0: the harmonic factor vanishes.
        assert Y_term(2, 1, 3, 0, 6, 0, 3) == (
            harmonic(2 * 3) - harmonic(2 * 3)
        ) * S_sum(2, 1, 3, 0, 6, 0, 3)

    def test_nonzero_value(self):
        expected = (harmonic(4) - harmonic(0)) * S_sum(2, 1, 3, 1, 2, 0, 2)
        assert Y_term(2, 1, 3, 1, 2, 0, 2) == expected != 0

    def test_membership_sweep(self):
        for p in (2, 3, 5):
            for N in range(1, 6):
                for k in (1, 2):
                    for a in range(p):
                        for K in range(9):
                            for s in range(3):
                                for m in range(K // p**s + 2):
                                    assert check_Y(N, k, p, a, K, s, m).holds


class TestDecomposition:
    def test_trivial_k0(self):
        rep = check_decomposition(3, 1, 5, 2, 0)
        assert rep.equal and rep.lhs == 0

    def test_worked_example(self):
        rep = check_decomposition(2, 1, 3, 1, 2, r=1)
        assert rep.lhs == rep.rhs == rep.rhs_next == 7125
        assert rep.equal

    def test_explicit_r_stability(self):
        rep2 = check_decomposition(2, 1, 3, 1, 2, r=2)
        assert rep2.equal and rep2.lhs == 7125

    def test_r_too_small_rejected(self):
        with pytest.raises(ValueError):
            check_decomposition(2, 1, 3, 1, 2, r=0)

    def test_full_grid(self):
        for p in (2, 3, 5):
            for N in range(1, 6):
                for k in (1, 2):
                    for a in range(p):
                        for K in range(9):
                            assert check_decomposition(N, k, p, a, K).equal


class TestLemma12:
    def test_trivially_true_for_small_reach(self):
        # floor(Na/p) = 0 leaves an empty harmonic difference.
        rep = check_lemma12(2, 1, 7, 2, 3)
        assert rep.achieved == INFINITE and rep.holds

    def test_examples(self):
        assert check_lemma12(5, 1, 3, 2, 1).holds
        assert check_lemma12(7, 1, 3, 1, 0, K=1).holds

    def test_variant_requires_K(self):
        with pytest.raises(ValueError):
            check_lemma12(5, 1, 3, 1, 0)

    def test_sweep(self):
        for p in (2, 3, 5):
            for N in range(1, 6):
                for k in (1, 2):
                    for a in range(p):
                        for j in range(7):
                            if a == 1 and j == 0:
                                for K in range(1, 5):
                                    assert check_lemma12(N, k, p, a, j, K).holds
                            else:
                                assert check_lemma12(N, k, p, a, j).holds


class TestLemma11:
    def test_trivial_when_p_divides_m(self):
        rep = check_lemma11(3, 1, 3, 6, 1, "Xi")
        assert rep.holds

    def test_examples(self):
        assert check_lemma11(2, 1, 3, 1, 1, "Xi").holds
        assert check_lemma11(5, 1, 2, 3, 0, "Xi").holds

    def test_omega_variant_requires_n2(self):
        with pytest.raises(ValueError):
            check_lemma11(1, 1, 3, 1, 0, "Omega")

    @pytest.mark.parametrize(
        "args,message",
        [
            ((0, 1, 3, 1, 0), "N and k must be positive integers"),
            ((2, 0, 3, 1, 0), "N and k must be positive integers"),
            ((2, 1, 3, -1, 0), "m and s must be non-negative"),
            ((2, 1, 3, 1, -1), "m and s must be non-negative"),
        ],
    )
    def test_bad_parameters_name_the_condition(self, args, message):
        with pytest.raises(ValueError, match=message):
            check_lemma11(*args)

    def test_sweep_both_variants(self):
        for p in (2, 3, 5):
            for N in range(1, 6):
                for k in (1, 2):
                    for m in range(10):
                        for s in range(3):
                            assert check_lemma11(N, k, p, m, s, "Xi").holds
                            if N >= 2:
                                assert check_lemma11(N, k, p, m, s, "Omega").holds


class TestOptimalityWitnesses:
    def test_witness_values(self):
        for N in range(1, 8):
            for p in primes_upto(31):
                if p <= N:
                    continue
                a, v = optimality_witness(N, p)
                assert v == 0, (N, p, a)
                assert a == (1 if N == 1 else -(-p // N)) and a < p
                if N >= 2:
                    a2, v2 = optimality_witness(N, p, shifted=True)
                    assert v2 == 0, (N, p)

    def test_requires_large_prime(self):
        with pytest.raises(ValueError):
            optimality_witness(5, 5)

    def test_iterator_rows(self):
        rows = list(sweep("witness", Nmax=3, pmax=13, which="t"))
        assert all(row["holds"] for row in rows)
        assert {row["params"]["N"] for row in rows} == {1, 2, 3}


class TestCoeffCValuations:
    def test_matches_exact_coeff_C(self):
        # v_p(C(m)) exact below v0 + cap and capped there, against the exact
        # coeff_C, for every m < 40 and for a sparse reversed subset, whose
        # residue classes mod p are only some of them.
        capped = 0
        sparse = range(39, -1, -7)
        for N in range(1, 9):
            for p in (2, 3, 5, 7, 11):
                exact = []
                for m in range(40):
                    a, K = m % p, m // p
                    v0 = min(
                        vp_big_B(N, 1, a + j * p, p) + vp_big_B(N, 1, K - j, p)
                        for j in range(K + 1)
                    )
                    exact.append((vp_rational(coeff_C(N, 1, p, a, K), p), v0))
                for cap in (2, 3, 5):
                    expected = [
                        (v, False) if v < v0 + cap else (v0 + cap, True) for v, v0 in exact
                    ]
                    got = list(coeff_C_valuations(N, p, range(40), cap))
                    assert got == expected, (N, p, cap)
                    assert got[0] == (cap, True)  # C(0) = 0, with v0 = 0
                    got = list(coeff_C_valuations(N, p, sparse, cap))
                    assert got == [expected[m] for m in sparse], (N, p, cap)
                    capped += sum(c for _, c in expected)
        assert capped > 0

    def test_sweep_row_against_theorem_congruence(self):
        # coeff-c measures C(m) against theorem-congruence's bound at k = 1,
        # Xi: an uncapped row has its holds and margin, a capped row holds
        # with a margin no larger (theorem-congruence's is "inf" at C = 0).
        primes = [2, 3, 5, 7]
        theorem = {}
        rows = sweep("theorem-congruence", which=WHICH_XI, p=primes, Nmax=8, kmax=1, summax=30)
        for row in rows:
            q = row["params"]
            theorem[q["p"], q["N"], q["a"] + q["K"] * q["p"]] = row
        capped = 0
        for N in range(1, 9):
            for row in sweep("coeff-c", p=primes, N=N, mmax=30):
                q = row["params"]
                other = theorem[q["p"], N, q["m"]]
                if q["capped"]:
                    capped += 1
                    assert row["holds"] and row["margin"] <= float(other["margin"])
                else:
                    assert (row["holds"], row["margin"]) == (other["holds"], other["margin"])
        assert capped > 0

    def test_invalid(self):
        with pytest.raises(ValueError):
            next(coeff_C_valuations(7, 3, [1], 1))
        with pytest.raises(ValueError):
            next(coeff_C_valuations(7, 3, [-1], 4))
        assert list(coeff_C_valuations(7, 3, [], 4)) == []


class TestVp3Probe:
    def test_boyd_pair(self):
        probe = vp3_probe(11, 848)
        assert probe.harmonic_valuation == 3
        assert probe.outside
        assert probe.margin == -1  # misses p^4 N! Z_p by exactly one power

    def test_probe_consistency_with_exact(self):
        # Exact-rational evaluation of the same coefficient confirms the
        # modular route (feasible here because 848*11 is still small).
        N, p = 848, 11
        c = big_B(N, 1, 1) * harmonic(N) - big_B(N, 1, p) * p * harmonic(N * p)
        vfact = vp_rational(F(math.factorial(N)), p)
        assert vp_rational(c, p) - (4 + vfact) == -1

    def test_preconditions(self):
        with pytest.raises(ValueError, match="v_p"):
            vp3_probe(11, 849)  # v_11(H_849) != 3
        with pytest.raises(ValueError, match="p <= N"):
            vp3_probe(11, 7)
        with pytest.raises(ValueError, match="not dividing"):
            vp3_probe(11, 848 * 11)


def json_margin(achieved, required):
    return "inf" if achieved == INFINITE else int(achieved - required)


def member_row(point, rep):
    return dict(point), rep.holds, json_margin(rep.achieved, rep.required)


def j_mod_p_row(point):
    rep = check_harmonic_congruence("J_mod_p", point["p"], J=point["J"])
    return dict(point), rep.holds, json_margin(rep.achieved, rep.required)


def lemma12_row(point):
    rep = check_lemma12(**point)
    params = {name: value for name, value in point.items() if value is not None}
    return params, rep.holds, json_margin(rep.achieved, rep.required)


def decomposition_row(point):
    rep = check_decomposition(**point)
    return {**point, "r": rep.r}, rep.equal, None


def witness_row(point):
    a, v = optimality_witness(point["N"], point["p"], shifted=point["which"] == "u")
    return {**point, "a": a}, v == 0, v


def wolstenholme_row(point):
    v = _wolstenholme_pairing(point["p"], 3)
    return {"p": point["p"], "v_capped": v}, v >= 2, v - 2


def vp3_row(point):
    probe = vp3_probe(**point)
    return dict(point), probe.outside, probe.margin


def coeff_c_row(point):
    # The exact C(m) against bound = 1 + v_p(xi(N) N!), capped as the kernel
    # caps it: at v0 + bound + 1, with v0 = min_j v_p(B(a+jp) B(K-j)).
    N, p, m = point["N"], point["p"], point["m"]
    a, K = m % p, m // p
    bound = 1 + _required_vp(WHICH_XI, N, 1, p)
    v0 = min(vp_big_B(N, 1, a + j * p, p) + vp_big_B(N, 1, K - j, p) for j in range(K + 1))
    v = vp_rational(coeff_C(N, 1, p, a, K), p)
    capped = v >= v0 + bound + 1
    v = v0 + bound + 1 if capped else v
    return {**point, "capped": capped}, v >= bound, v - bound


def upto(bound, lo=0):
    return lambda g, v: range(lo, g[bound] + 1)


# Lemma 12's a = 1, j = 0 variant is checked at each K >= 1, in rows that
# come before the j >= 1 rows; every other row has K = None, not in params.
def lemma12_K(g, v):
    return (*range(1, g["Kmax"] + 1), None) if v["a"] == 1 else (None,)


def lemma12_j(g, v):
    if v["K"] is not None:
        return (0,)
    return range(1 if v["a"] == 1 else 0, g["jmax"] + 1)


def decomposition_K(g, v):
    return range(g["Kmax"] + 1) if g["K"] is None else (g["K"],)


WHICH_AXIS = ("which", lambda g, v: (g["which"],))
P_AXIS = ("p", lambda g, v: g["p"])
ONE_N_AXIS = ("N", lambda g, v: (g["N"],))
# N starts at 2 under the shifted variants, Omega and u.
N_AXIS = ("N", lambda g, v: range(2 if v.get("which") in (WHICH_OMEGA, "u") else 1, g["Nmax"] + 1))
PNK_AXES = (P_AXIS, N_AXIS, ("k", upto("kmax", 1)))
A_AXIS = ("a", lambda g, v: range(v["p"]))
S_AXES = (
    *PNK_AXES,
    A_AXIS,
    ("K", upto("Kmax")),
    ("s", upto("smax")),
    ("m", lambda g, v: range(v["K"] // v["p"] ** v["s"] + 2)),
)

# Per check: every axis of its grid, outermost first, and the row at one
# point from the check's per-point oracle (tests/oracles.py).
ORACLES = {
    "theorem-congruence": (
        (
            WHICH_AXIS,
            *PNK_AXES,
            A_AXIS,
            ("K", lambda g, v: range((g["summax"] - v["a"]) // v["p"] + 1)),
        ),
        lambda v: member_row(v, check_theorem_congruence(**v)),
    ),
    "dworkS": (S_AXES, lambda v: member_row(v, check_dwork_S(**v))),
    "yms": (S_AXES, lambda v: member_row(v, check_Y(**v))),
    "decomposition": ((*PNK_AXES, A_AXIS, ("K", decomposition_K)), decomposition_row),
    "lemma11": (
        (WHICH_AXIS, *PNK_AXES, ("m", upto("mmax")), ("s", upto("smax"))),
        lambda v: member_row(v, check_lemma11(**v)),
    ),
    "lemma12": ((*PNK_AXES, A_AXIS, ("K", lemma12_K), ("j", lemma12_j)), lemma12_row),
    "j-mod-p": (
        (("p", lambda g, v: primes_upto(g["pmax"])), ("J", upto("Jmax", 1))),
        j_mod_p_row,
    ),
    "witness": (
        (WHICH_AXIS, N_AXIS, ("p", lambda g, v: [p for p in primes_upto(g["pmax"]) if p > v["N"]])),
        witness_row,
    ),
    "wolstenholme": (
        (("p", lambda g, v: [p for p in primes_upto(g["pmax"]) if p >= max(5, g["pmin"])]),),
        wolstenholme_row,
    ),
    "vp3-probe": ((P_AXIS, ONE_N_AXIS), vp3_row),
    "coeff-c": ((P_AXIS, ONE_N_AXIS, ("m", upto("mmax", 1))), coeff_c_row),
}


def reference_rows(check, **params):
    """The full sweep grid walked by plain recursion over the oracle's
    axes, the first axis outermost, with each row from the check's
    per-point oracle. `sweep` must yield exactly these rows."""
    spec = SWEEPS[check]
    axes, row = ORACLES[check]
    grid = dict(spec.defaults)
    if spec.variants:
        grid["which"] = spec.variants[0]
    grid.update(params)
    point = {}

    def walk(depth):
        name, values = axes[depth]
        for value in values(grid, dict(point)):
            point[name] = value
            if depth + 1 < len(axes):
                yield from walk(depth + 1)
            else:
                row_params, holds, margin = row(dict(point))
                yield {"check": check, "params": row_params, "holds": holds, "margin": margin}
        point.pop(name, None)

    return list(walk(0))


SMALL_GRIDS = [
    ("theorem-congruence", {"p": [2, 3], "Nmax": 3, "kmax": 1, "summax": 8}),
    ("theorem-congruence", {"p": [3], "Nmax": 3, "kmax": 2, "summax": 8, "which": WHICH_OMEGA}),
    ("dworkS", {"p": [2, 3], "Nmax": 2, "kmax": 1, "Kmax": 3, "smax": 1}),
    ("dworkS", {"kmax": 0}),  # the k axis is empty under every N
    ("yms", {"p": [3], "Nmax": 2, "kmax": 2, "Kmax": 3, "smax": 1}),
    ("decomposition", {"p": [2, 3], "Nmax": 2, "kmax": 1, "Kmax": 2}),
    ("decomposition", {"p": [3], "K": 2, "Nmax": 3}),
    ("lemma11", {"p": [2, 3], "Nmax": 3, "kmax": 1, "mmax": 3, "smax": 1}),
    ("lemma11", {"p": [3], "Nmax": 3, "kmax": 1, "mmax": 3, "smax": 1, "which": WHICH_OMEGA}),
    ("lemma12", {"p": [2, 3], "Nmax": 2, "kmax": 1, "jmax": 2, "Kmax": 2}),
    ("lemma12", {"p": [2, 3], "Nmax": 2, "kmax": 1, "jmax": 2, "Kmax": 0}),  # a = 1: K has only None
    ("j-mod-p", {"pmax": 7, "Jmax": 10}),
    ("witness", {"Nmax": 7, "pmax": 5}),  # no prime above N for N >= 5
    ("witness", {"Nmax": 7, "pmax": 5, "which": "u"}),
    ("wolstenholme", {"pmin": 3, "pmax": 60}),
    ("vp3-probe", {"p": [11], "N": 848}),
    ("coeff-c", {"p": [2, 3, 5, 7], "N": 7, "mmax": 30}),
    ("coeff-c", {"p": [3], "N": 1, "mmax": 12}),
]


class TestSweepWalk:
    def test_every_check_has_a_grid(self):
        assert {check for check, _ in SMALL_GRIDS} == set(SWEEPS)

    @pytest.mark.parametrize("check,params", SMALL_GRIDS)
    def test_rows_match_the_recursive_walk(self, check, params):
        assert list(sweep(check, **params)) == reference_rows(check, **params)

    def test_empty_inner_axes(self):
        assert list(sweep("dworkS", kmax=0)) == []
        witness = list(sweep("witness", Nmax=7, pmax=5))
        assert [row["params"]["N"] for row in witness] == [1, 1, 1, 2, 2, 3, 4]
        lemma12 = list(sweep("lemma12", p=[3], Nmax=1, kmax=1, jmax=1, Kmax=0))
        assert [(r["params"]["a"], r["params"]["j"]) for r in lemma12] == [
            (0, 0), (0, 1), (1, 1), (2, 0), (2, 1)
        ]
        # j = 0 outside the grid takes the a = 1, j = 0 variant rows along.
        assert list(sweep("lemma12", jmax=-1)) == []

    @pytest.mark.parametrize("check", ["dworkS", "yms"])
    @pytest.mark.parametrize("axis", ["smax", "Kmax"])
    def test_empty_S_axes_build_no_table(self, monkeypatch, check, axis):
        # Like _pNk with no k: no B row, prefix list or weight is built
        # for a grid without rows.
        def refuse(*args):
            raise AssertionError("a table was built for no row")

        monkeypatch.setattr(congruences, "big_B_sequence", refuse)
        monkeypatch.setattr(congruences, "scaled_weights", refuse)
        assert list(sweep(check, **{axis: -1})) == []

    @pytest.mark.parametrize(
        "check,params",
        [
            ("theorem-congruence", {"which": WHICH_XI}),
            ("theorem-congruence", {"which": WHICH_OMEGA, "summax": 40}),
            ("yms", {"p": [3, 5, 7]}),
        ],
    )
    def test_weights_once_per_p_and_N(self, monkeypatch, check, params):
        # The weights and their valuations depend on neither k nor the
        # rows, so each (p, N) builds them once, for all of its k.
        calls = []
        build = congruences.scaled_weights

        def counting(N, ns, *args):
            calls.append(N)
            return build(N, ns, *args)

        monkeypatch.setattr(congruences, "scaled_weights", counting)
        grid = {**SWEEPS[check].defaults, **params}
        rows = list(sweep(check, **params))
        Ns = {row["params"]["N"] for row in rows}
        assert grid["kmax"] == 2 and len(calls) == len(grid["p"]) * len(Ns)

    @pytest.mark.parametrize("p", [(3, 3), [2, 3, 2]])
    def test_repeated_prime_rejected(self, p):
        # Each of its rows would come out once per repeat.
        with pytest.raises(ValueError, match="repeat"):
            sweep("dworkS", p=p, Nmax=1, kmax=1, Kmax=1, smax=0)

    def test_first_row_evaluates_one_block(self, monkeypatch):
        # The CLI takes the first row before it opens --out, so that a
        # failed precondition leaves the file untouched: that row must cost
        # the tables of one outer point, and no more.
        builds = []
        build = congruences.big_B_sequence

        def counting(*args):
            builds.append(args)
            return build(*args)

        monkeypatch.setattr(congruences, "big_B_sequence", counting)
        rows = sweep("dworkS", p=[3], Nmax=2, kmax=1, Kmax=2, smax=1)
        assert builds == []
        first = next(rows)
        assert builds == [(1, 1, 8)]
        assert first["params"] == {"p": 3, "N": 1, "k": 1, "a": 0, "K": 0, "s": 0, "m": 0}
        assert len(list(rows)) > 1 and builds == [(1, 1, 8), (2, 1, 8)]

    @pytest.mark.parametrize(
        "params,at_call,at_first_row",
        [
            ({"check": "decomposition", "K": -1}, None, "K must be non-negative"),
            ({"check": "vp3-probe", "p": [11], "N": 849}, None, "requires v_p"),
            ({"check": "vp3-probe", "p": [11, 13], "N": 849}, "exactly one prime", None),
            ({"check": "dworkS", "p": [4]}, "must be prime", None),
            ({"check": "dworkS", "Q": 1}, "does not take Q", None),
            ({"check": "vp3-probe", "p": [11]}, "requires N", None),
            ({"check": "theorem-congruence", "which": "Z"}, "which must be", None),
        ],
    )
    def test_when_each_precondition_raises(self, params, at_call, at_first_row):
        # The grid is checked at the call; a check's own preconditions only
        # when its first row is computed.
        if at_call:
            with pytest.raises(ValueError, match=at_call):
                sweep(**params)
            return
        rows = sweep(**params)
        with pytest.raises(ValueError, match=at_first_row):
            next(rows)

    @pytest.mark.parametrize("check", sorted(SWEEPS))
    def test_rows_is_a_generator_function(self, check):
        # So calling it runs nothing: _sweep_rows validates, and the first
        # row is computed only when the CLI asks for it.
        assert inspect.isgeneratorfunction(SWEEPS[check].rows)

    @pytest.mark.parametrize("which", [WHICH_XI, WHICH_OMEGA])
    def test_one_table_live_at_a_time(self, monkeypatch, which):
        # Each (p, N) builds a table of the entries its rows read, at most
        # 53 (Xi) or 92 (Omega) of them where every index up to
        # N mmax p^smax = 2500 would be 2501, and drops it before the next
        # one builds its own. So the whole sweep peaks under 256 KB. The
        # table is built under scaled_weights, so it is counted in harmonic.
        entries = []
        build = harmonic_module.harmonic_scaled

        def counting(stops):
            h, S = build(stops)
            entries.append(len(h))
            return h, S

        monkeypatch.setattr(harmonic_module, "harmonic_scaled", counting)
        rows = sweep("lemma11", mmax=20, which=which)
        tracemalloc.start()
        try:
            for _ in rows:
                pass
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert max(entries) <= {WHICH_XI: 53, WHICH_OMEGA: 92}[which], entries
        assert peak < 256 * 1024, peak


SMALL_PRIMES = st.sampled_from((2, 3, 5, 7))


def as_tuple(row):
    # A (params, holds, margin) row as a rows generator yields it: the flat
    # tuple (holds, margin, *values), the values in the sorted order of the
    # keys.
    params, holds, margin = row
    return (holds, margin, *(params[key] for key in sorted(params)))


def rows_at(check, rows, **point):
    # The rows of `check` whose params agree with `point`.
    keys = SWEEPS[check].keys.split()
    return [
        row
        for row in rows
        if all(dict(zip(keys[2 - len(row):], row[2:]))[name] == value for name, value in point.items())
    ]


class TestBlockKernels:
    """Each check's rows on a grid with one prime that ends at one point
    (p = (p,), Nmax = N, kmax = k), read at (N, k), against its
    per-point oracle, row for row, on random small grids: K <= 10 and
    smax <= 3, so m p^s > K occurs and gives zero S-sums (margin "inf")."""

    @given(SMALL_PRIMES, st.integers(1, 4), st.integers(1, 2), st.integers(0, 10),
           st.integers(0, 3))
    @settings(max_examples=40, deadline=None)
    def test_dwork_S_and_Y(self, p, N, k, Kmax, smax):
        point = {"p": p, "N": N, "k": k}
        grid = {"p": (p,), "Nmax": N, "kmax": k, "Kmax": Kmax, "smax": smax}
        cells = [
            {**point, "a": a, "K": K, "s": s, "m": m}
            for a in range(p)
            for K in range(Kmax + 1)
            for s in range(smax + 1)
            for m in range(K // p**s + 2)
        ]
        for check, per_point in (("dworkS", check_dwork_S), ("yms", check_Y)):
            got = rows_at(check, SWEEPS[check].rows(grid), N=N, k=k)
            assert got == [as_tuple(member_row(v, per_point(**v))) for v in cells], check
            assert got[-1][1] == "inf"  # m = Kmax // p^smax + 1: past K

    @given(SMALL_PRIMES, st.integers(1, 5), st.integers(1, 2), st.integers(0, 40),
           st.sampled_from((WHICH_XI, WHICH_OMEGA)))
    @settings(max_examples=60, deadline=None)
    def test_theorem_congruence(self, p, N, k, summax, which):
        if which == WHICH_OMEGA:
            N = max(N, 2)
        point = {"which": which, "p": p, "N": N, "k": k}
        grid = {"which": which, "p": (p,), "Nmax": N, "kmax": k, "summax": summax}
        got = rows_at("theorem-congruence", SWEEPS["theorem-congruence"].rows(grid), N=N, k=k)
        expected = [
            as_tuple(member_row(v, check_theorem_congruence(**v)))
            for a in range(p)
            for v in ({**point, "a": a, "K": K} for K in range((summax - a) // p + 1))
        ]
        assert got == expected

    @given(SMALL_PRIMES, st.integers(1, 5), st.integers(1, 2), st.integers(0, 12),
           st.integers(0, 3), st.sampled_from((WHICH_XI, WHICH_OMEGA)))
    @settings(max_examples=60, deadline=None)
    def test_lemma11(self, p, N, k, mmax, smax, which):
        if which == WHICH_OMEGA:
            N = max(N, 2)
        point = {"which": which, "p": p, "N": N, "k": k}
        grid = {"which": which, "p": (p,), "Nmax": N, "kmax": k, "mmax": mmax, "smax": smax}
        got = rows_at("lemma11", SWEEPS["lemma11"].rows(grid), N=N, k=k)
        expected = [
            as_tuple(member_row(v, check_lemma11(**v)))
            for m in range(mmax + 1)
            for v in ({**point, "m": m, "s": s} for s in range(smax + 1))
        ]
        assert got == expected

    @given(st.integers(1, 12), st.integers(-2, 200), st.sampled_from(("t", "u")))
    @settings(max_examples=60, deadline=None)
    def test_witness(self, N, pmax, which):
        if which == "u":
            N = max(N, 2)
        point = {"which": which, "N": N}
        grid = {"which": which, "Nmax": N, "pmax": pmax}
        got = rows_at("witness", SWEEPS["witness"].rows(grid), N=N)
        primes = [p for p in primes_upto(pmax) if p > N]
        assert got == [as_tuple(witness_row({**point, "p": p})) for p in primes]

    @given(SMALL_PRIMES, st.integers(1, 5), st.integers(1, 2), st.integers(-2, 10),
           st.none() | st.integers(-2, 12))
    @settings(max_examples=60, deadline=None)
    def test_decomposition(self, p, N, k, Kmax, K):
        point = {"p": p, "N": N, "k": k}
        grid = {"p": (p,), "Nmax": N, "kmax": k, "Kmax": Kmax, "K": K}
        rows = SWEEPS["decomposition"].rows(grid)
        if K is not None and K < 0:
            with pytest.raises(ValueError, match="K must be non-negative"):
                next(rows)
            with pytest.raises(ValueError, match="K must be non-negative"):
                check_decomposition(N, k, p, 0, K)
            return
        Ks = range(Kmax + 1) if K is None else (K,)
        expected = [
            as_tuple(decomposition_row({**point, "a": a, "K": K})) for a in range(p) for K in Ks
        ]
        assert rows_at("decomposition", rows, N=N, k=k) == expected

    @given(SMALL_PRIMES, st.integers(1, 5), st.integers(1, 2), st.integers(-2, 8),
           st.integers(-2, 6))
    @settings(max_examples=60, deadline=None)
    def test_lemma12(self, p, N, k, jmax, Kmax):
        point = {"p": p, "N": N, "k": k}
        grid = {"p": (p,), "Nmax": N, "kmax": k, "jmax": jmax, "Kmax": Kmax}
        got = rows_at("lemma12", SWEEPS["lemma12"].rows(grid), N=N, k=k)
        expected = []
        for a in range(p):
            # The K rows stand in for j = 0, so they need j = 0 in the grid.
            if a == 1 and jmax >= 0:
                expected += [
                    lemma12_row({**point, "a": 1, "K": K, "j": 0}) for K in range(1, Kmax + 1)
                ]
            expected += [
                lemma12_row({**point, "a": a, "K": None, "j": j})
                for j in range(1 if a == 1 else 0, jmax + 1)
            ]
        assert got == [as_tuple(row) for row in expected]

    @given(st.integers(-2, 40), st.integers(-2, 120))
    @settings(max_examples=40, deadline=None)
    def test_j_mod_p(self, pmax, Jmax):
        # No outer loop: every prime p <= pmax, then every J.
        got = list(SWEEPS["j-mod-p"].rows({"pmax": pmax, "Jmax": Jmax}))
        assert got == [
            as_tuple(j_mod_p_row({"p": p, "J": J}))
            for p in primes_upto(pmax)
            for J in range(1, Jmax + 1)
        ]

    def test_zero_S_sums_inside_the_range(self):
        # S(2, 1, 3, 1, 2, 0, 1) cancels to 0 with m p^s <= K: "inf" rows
        # come from cancellation too, not only from m p^s > K.
        rows = SWEEPS["yms"].rows({"p": (3,), "Nmax": 2, "kmax": 1, "Kmax": 2, "smax": 0})
        margins = [
            margin for _, margin, K, N, a, k, m, p, s in rows if (N, a, K, m) == (2, 1, 2, 1)
        ]
        assert margins == ["inf"]


class TestRequiredValuation:
    def test_values_match_the_exponents(self):
        # v_p(xi(N) N!^k) and v_p(omega(N) N!^k), recomputed from the exact
        # rationals: min(2 + indicator, v_p(w)) with w = H_N or H_N - 1, the
        # pinned xi(7) = 1/140 and xi(1) = 1, and v_p(N!) off the factorial.
        primes = primes_upto(41)
        xi_7 = {2: -2, 5: -1, 7: -1}
        for N in range(1, 41):
            h = harmonic(N)
            for p in primes:
                fact_vp = vp_rational(F(math.factorial(N)), p)
                if N == 7:
                    xi_vp = xi_7.get(p, 0)
                elif N == 1 or p > N:
                    xi_vp = 0
                else:
                    xi_vp = min(2 + _indicator(p, N, False), vp_rational(h, p))
                omega_vp = None
                if N >= 2:
                    omega_vp = 0
                    if p <= N:
                        omega_vp = min(2 + _indicator(p, N, True), vp_rational(h - 1, p))
                for k in range(4):
                    assert _required_vp(WHICH_XI, N, k, p) == xi_vp + k * fact_vp
                    if omega_vp is not None:
                        assert _required_vp(WHICH_OMEGA, N, k, p) == omega_vp + k * fact_vp

    def test_xi_7_is_pinned(self):
        xi_7 = math.prod(F(p) ** _required_vp(WHICH_XI, 7, 0, p) for p in primes_upto(41))
        assert xi_7 == F(1, 140)
        xi_7_fact = math.prod(F(p) ** _required_vp(WHICH_XI, 7, 1, p) for p in primes_upto(41))
        assert xi_7_fact == F(5040, 140)

    def test_bad_variant_raises(self):
        with pytest.raises(ValueError):
            _required_vp("foo", 5, 1, 3)


# Grids whose lines hold every form in which the CLI's templates write a
# field: "inf" margins, decomposition's null margin, coeff-c's capped true
# and false, lemma12 with only K-bearing rows at a = 1 (jmax 0) and mixed, both
# variants of witness and theorem-congruence, and empty grids.
LINE_EDGE_GRIDS = [
    ("yms", {"p": [3], "Nmax": 1, "kmax": 1, "Kmax": 1, "smax": 0}),
    ("decomposition", {"p": [5], "Nmax": 1, "kmax": 1, "K": 0}),
    ("coeff-c", {"p": [3], "N": 7, "mmax": 40}),
    ("lemma12", {"p": [3], "Nmax": 1, "kmax": 1, "jmax": 0, "Kmax": 3}),
    ("lemma12", {"p": [5], "Nmax": 2, "kmax": 1, "jmax": 1, "Kmax": 1}),
    ("witness", {"Nmax": 3, "pmax": 11, "which": "t"}),
    ("witness", {"Nmax": 3, "pmax": 11, "which": "u"}),
    ("theorem-congruence", {"p": [5], "Nmax": 2, "kmax": 1, "summax": 12, "which": WHICH_XI}),
    ("theorem-congruence", {"p": [5], "Nmax": 2, "kmax": 1, "summax": 12, "which": WHICH_OMEGA}),
    ("dworkS", {"kmax": 0}),
    ("j-mod-p", {"Jmax": 0}),
    ("theorem-congruence", {"summax": -1}),
]


def cli_lines(check, params):
    """The stdout lines of `mirrorint sweep --check <check>` at `params`."""
    argv = ["sweep", "--check", check]
    for name, value in params.items():
        argv += [f"--{name}", ",".join(map(str, value)) if name == "p" else str(value)]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        assert main(argv) == 0
    return out.getvalue().splitlines()


def encoded_rows(check, params):
    return [canonical_json(row) for row in sweep(check, **params)]


class TestSweepLines:
    """The CLI writes each row tuple through its check's template, and
    `sweep` zips the same tuples into dicts: every line must be the bytes
    canonical_json writes for the dict."""

    @pytest.mark.parametrize("check,params", SMALL_GRIDS + LINE_EDGE_GRIDS)
    def test_lines_are_the_encoded_dicts(self, check, params):
        assert cli_lines(check, params) == encoded_rows(check, params)

    def test_edge_grids_hold_every_field_form(self):
        grids = [cli_lines(check, params) for check, params in LINE_EDGE_GRIDS]
        text = "\n".join(line for lines in grids for line in lines)
        for form in (
            '"margin":"inf"', '"margin":null', '"capped":true', '"capped":false',
            '"which":"t"', '"which":"u"', '"which":"Xi"', '"which":"Omega"',
        ):
            assert form in text, form
        rows = [json.loads(line) for line in text.splitlines()]
        assert {"K" in row["params"] for row in rows if row["check"] == "lemma12"} == {True, False}
        assert grids.count([]) == 3

    @given(st.sampled_from(("dworkS", "yms", "theorem-congruence")),
           st.lists(SMALL_PRIMES, min_size=1, max_size=2, unique=True), st.integers(0, 3),
           st.integers(0, 2), st.integers(-1, 6), st.integers(-1, 2),
           st.sampled_from((WHICH_XI, WHICH_OMEGA)))
    @settings(max_examples=25, deadline=None)
    def test_random_grids(self, check, p, Nmax, kmax, bound, smax, which):
        if check != "theorem-congruence":
            params = {"p": p, "Nmax": Nmax, "kmax": kmax, "Kmax": bound, "smax": smax}
        else:
            params = {"p": p, "Nmax": Nmax, "kmax": kmax, "summax": 3 * bound, "which": which}
        assert cli_lines(check, params) == encoded_rows(check, params)

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_any_row(self, data):
        # Rows no small grid yields, failing ones too: any holds, margin and
        # values under any suffix of a check's keys.
        check = data.draw(st.sampled_from(sorted(SWEEPS)))
        keys = SWEEPS[check].keys.split()
        names = keys[data.draw(st.integers(0, len(keys))):]
        fields = {
            "which": st.sampled_from(SWEEPS[check].variants or ("Xi",)),
            "capped": st.booleans(),
        }
        values = [data.draw(fields.get(name, st.integers())) for name in names]
        holds = data.draw(st.booleans())
        margin = data.draw(st.integers() | st.sampled_from(("inf", None)))
        row = (holds, margin, *values)
        line = _row_writer(check)(row)
        params = dict(zip(names, values))
        assert line == canonical_json(
            {"check": check, "params": params, "holds": holds, "margin": margin}
        )


def holds_by_rule(check, margin):
    # The holds of a row with this margin: at margin >= 0 (an "inf" margin
    # holds), except that a witness holds at margin 0 and a vp3-probe row at
    # a negative margin, where C(p) misses p^4 N! Z_p.
    if check == "witness":
        return margin == 0
    if check == "vp3-probe":
        return margin < 0
    return margin == "inf" or margin >= 0


class TestHoldsMargin:
    @pytest.mark.parametrize("check,params", SMALL_GRIDS + LINE_EDGE_GRIDS)
    def test_holds_follows_the_margin(self, check, params):
        for row in sweep(check, **params):
            holds, margin = row["holds"], row["margin"]
            assert holds is True or holds is False, row
            if check == "decomposition":
                assert margin is None, row
            else:
                assert holds == holds_by_rule(check, margin), row

    def test_vp3_probe_holds_at_a_negative_margin(self):
        (row,) = sweep("vp3-probe", p=[11], N=848)
        assert (row["holds"], row["margin"]) == (True, -1)
