"""Coefficient-level congruences behind the integral-root theorems: the
convolution sums C and C-tilde, Dwork's decomposition of their harmonic part
into S-sums and Y-terms, the lemma memberships, and the optimality witnesses
showing the root constants are sharp, each read as a sweep over a grid.

A row never carries a bare boolean: it carries the margin of the achieved
over the required valuation, because sharpness arguments are precisely about
the margin (e.g. failure at exactly one extra power of p).

p is checked where it enters: `sweep` checks each prime of its grid once,
before any row, and every other function here takes p on trust.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate
from operator import add, mul, sub
from typing import Callable, Iterable, Iterator, NamedTuple

from .constants import omega, xi
from .harmonic import (
    ModularHarmonicSum,
    _wolstenholme_pairing,
    _wolstenholme_scan,
    harmonic_scaled,
    scaled_weights,
)
from .padic import (
    INFINITE,
    big_B_sequence,
    big_B_units,
    primes_upto,
    require_prime,
    vp_big_B,
    vp_int,
)
from .series import _dwork_difference, _weighted_row

WHICH_XI = "Xi"
WHICH_OMEGA = "Omega"


def _validate_core(N: int, k: int, p: int, a: int, K: int) -> None:
    if N < 1 or k < 1:
        raise ValueError("N and k must be positive integers")
    if not 0 <= a < p:
        raise ValueError("a must satisfy 0 <= a < p")
    if K < 0:
        raise ValueError("K must be non-negative")


def coeff_C(N: int, k: int, p: int, a: int, K: int, shifted: bool = False) -> Fraction:
    """sum_{j=0..K} B(a+jp) B(K-j) (w(K-j) - p w(a+jp)), with the harmonic
    weight w(m) = H_{Nm}, or H_{Nm} - H_m when shifted.

    This is exactly the (a+Kp)-th coefficient of F(z) G_L(z^p) - p F(z^p)
    G_L(z) with L = N, or of the same with Gt in place of G_L when shifted.
    """
    # S C(a+Kp) is the one-entry column at a + Kp of series._dwork_difference
    # of the B row and the B w list: the theorem-congruence sweep reads
    # every a and K off one column [0, summax].
    _validate_core(N, k, p, a, K)
    i = a + K * p
    b, bw, S = _weighted_row(N, N, k, i, shifted)
    return Fraction(_dwork_difference(b, bw, p, i, i + 1)[0], S)


def coeff_C_valuations(
    N: int, p: int, ms: Iterable[int], cap: int
) -> Iterator[tuple[int, bool]]:
    """(v, capped) for C(m) = coeff_C(N, 1, p, m % p, m // p), for each m
    of ms in order: v = v_p(C(m)) when that is below v0 + cap, with
    v0 = min_j v_p(B(a+jp) B(K-j)), else (v0 + cap, True).

    Modular throughout. C(m) reads H_{Nn} only at n = K - j and a + jp:
    n <= top // p and the classes of ms mod p, up to top = max(ms). One
    ModularHarmonicSum(p, cap - 1) reads each as R = p^s H_{Nn} mod
    p^(s+cap) at the least s >= 0 making it p-integral. Moved to the common
    scale W = max s, R and B(n) / p^v_p(B(n)) (from big_B_units) are known
    mod p^(W+cap), so each term of p^W C(m) is known mod p^(W+v0+cap). The
    least W, not floor(log_p(N top)), keeps the unit rows short. p^W C(m) is
    entry m of the one column [min(ms), top] of series._dwork_difference of
    c = B mod p^(v_p(B)+W+cap) and c R.
    """
    ms = list(ms)
    lo, top = min(ms, default=0), max(ms, default=0)
    if N < 1 or cap < 2 or lo < 0:
        raise ValueError("requires N >= 1, cap >= 2 and every m >= 0")
    classes = {m % p for m in ms}
    acc = ModularHarmonicSum(p, cap - 1)
    scale = [0] * (top + 1)
    R = [0] * (top + 1)  # H_0 = 0
    for n in range(1, top + 1):
        if n <= top // p or n % p in classes:
            acc.advance_to(N * n)
            scale[n] = s = max(0, -acc.valuation()[0])
            R[n] = acc.scaled_residue(s)
    W = max(scale)
    R = [r * p ** (W - s) for r, s in zip(R, scale)]
    bv, bu = zip(*big_B_units(N, 1, top, p, W + cap))
    c = [p**v * u for v, u in zip(bv, bu)]  # B(n) mod p^(v_p(B(n))+W+cap)
    column = _dwork_difference(c, list(map(mul, c, R)), p, lo, top + 1)
    for m in ms:
        # The terms of C(m) pair B(j) with B(m - jp), j <= m // p.
        v0 = min(map(add, bv, bv[m::-p]))
        v = vp_int(column[m - lo] % p ** (W + v0 + cap), p)
        yield (v - W, False) if v < W + v0 + cap else (v0 + cap, True)


# v_p(xi(N) N!^k), or of omega(N) N!^k: what every membership row below is
# measured against.
def _required_vp(which: str, N: int, k: int, p: int) -> int:
    if which not in (WHICH_XI, WHICH_OMEGA):
        raise ValueError(f"which must be {WHICH_XI!r} or {WHICH_OMEGA!r}")
    breakdown = xi(N) if which == WHICH_XI else omega(N)
    return breakdown.exponent_of(p) + k * vp_big_B(N, 1, 1, p)  # B(1) = N!


def _S_prefix(b: list[int], p: int, a: int, K: int) -> list[int]:
    """[P(0), ..., P(K+1)] with P(i) the sum over j < i of
    B(a+jp) B(K-j) - B(j) B(a+(K-j)p), off a B row b that reaches a + K p:
    every S-sum at (p, N, k, a, K) is a difference of two entries (_S_read)."""
    terms = (b[a + j * p] * b[K - j] - b[j] * b[a + (K - j) * p] for j in range(K + 1))
    return list(accumulate(terms, initial=0))


def _S_read(P: list[int], q: int, m: int) -> int:
    # The S-sum over m q <= j < (m+1) q, with q = p^s; j stops at K.
    end = len(P) - 1
    return P[min((m + 1) * q, end)] - P[min(m * q, end)]


def _levels(p: int, m: int, s: int) -> tuple[int, int]:
    # The two weight indices of a level gap: m p^s and floor(m/p) p^(s+1).
    return m * p**s, (m // p) * p ** (s + 1)


def _level_gap(w: dict[int, int], p: int, m: int, s: int) -> int:
    """w[m p^s] - w[floor(m/p) p^(s+1)], off weights w from scaled_weights
    that hold _levels(p, m, s)."""
    hi, lo = _levels(p, m, s)
    return w[hi] - w[lo]


class DecompositionCheck(NamedTuple):
    """Both evaluations of the harmonic convolution sum, at depth r and r+1."""

    r: int
    lhs: Fraction
    rhs: Fraction
    rhs_next: Fraction

    @property
    def equal(self) -> bool:
        return self.lhs == self.rhs == self.rhs_next


def _decomposition(
    b: list[int], w: dict[int, int], S: int, p: int, a: int, K: int, r: int
) -> DecompositionCheck:
    # sum_j H_{Nj} (B(a+jp) B(K-j) - B(j) B(a+(K-j)p)) against the double
    # sum of Y-terms over s <= depth, m < p^(depth+1-s), at depth r and
    # r + 1 (any r with K < p^r). Off a B row b that reaches a + K p and
    # weights w of scale S that hold every j <= K: an S-sum vanishes for
    # m p^s > K, so no index read is larger.
    P = _S_prefix(b, p, a, K)
    sums = [Fraction(sum(w[j] * (P[j + 1] - P[j]) for j in range(K + 1)), S)]
    for depth in (r, r + 1):
        total = sum(
            _level_gap(w, p, m, s) * _S_read(P, p**s, m)
            for s in range(depth + 1)
            for m in range(min(p ** (depth + 1 - s), K // p**s + 1))
        )
        sums.append(Fraction(total, S))
    return DecompositionCheck(r, *sums)


def _depth(p: int, K: int) -> int:
    # The least r with K < p^r.
    r = 0
    while K >= p**r:
        r += 1
    return r


def _lemma12(h: dict[int, int], p: int, N: int, k: int, a: int, j: int, K: int = 0) -> int | float:
    # v_p(B(a+pj) (H_{Nj + floor(Na/p)} - H_{Nj})) plus v_p(S), off a table
    # h of scale S that holds N j + floor(N a / p) and N j. The a = 1, j = 0
    # variant is that term times B(K), so K = 0 (B(0) = 1) gives the
    # general term.
    gap = vp_int(h[N * j + N * a // p] - h[N * j], p)
    return vp_big_B(N, k, a + p * j, p) + vp_big_B(N, k, K, p) + gap


def _lemma11(w: dict[int, int], p: int, N: int, k: int, m: int, s: int) -> int | float:
    # v_p(B(m) (w(m p^s) - w(floor(m/p) p^(s+1)))) plus v_p(S), off
    # weights w of scale S that hold the indices _level_gap reads.
    return vp_big_B(N, k, m, p) + vp_int(_level_gap(w, p, m, s), p)


def _witnesses(N: int, primes: list[int], shifted: bool) -> Iterator[tuple[int, int]]:
    # (a, v_p(B(a) w(a))) at each prime p > N of the ascending list
    # `primes`, off the weights of every witness index: a is the least with
    # a N >= p (a = 1 when N = 1), and v = 0 shows that p cannot divide the
    # maximal root.
    indices = [1 if N == 1 else -(-p // N) for p in primes]
    w, S = scaled_weights(N, indices, shifted)
    for p, a in zip(primes, indices):
        yield a, vp_big_B(N, 1, a, p) + vp_int(w[a], p) - vp_int(S, p)


class RootSharpnessProbe(NamedTuple):
    """Outcome of the conditional sharpness probe at a pair with
    v_p(H_N) = 3: the coefficient C(p) = B(1) H_N - p B(p) H_{Np} must miss
    p^4 N! Z_p, pinning the exponent of p in the maximal root."""

    p: int
    N: int
    harmonic_valuation: int
    achieved: int
    required: int

    @property
    def margin(self) -> int:
        return self.achieved - self.required

    @property
    def outside(self) -> bool:
        return self.achieved < self.required


def vp3_probe(p: int, N: int) -> RootSharpnessProbe:
    """Sharpness probe at user-supplied (p, N) with v_p(H_N) = 3, p <= N,
    p not Wolstenholme, p not dividing N (k = 1 throughout).

    C(p) is read by coeff_C_valuations to five digits past its coefficient
    valuation. The cost is O(N p) products for the (valuation, unit) rows
    up to B(p) = (Np)!/p!^N, plus jumps of the modular accumulator over
    O(log N) levels for H_N and H_{Np}.
    """
    if p < 7:
        raise ValueError("the probe applies to primes p >= 7")
    if p > N:
        raise ValueError("requires p <= N")
    if N % p == 0:
        raise ValueError("requires p not dividing N")
    acc = ModularHarmonicSum(p, cap=4)  # checks p before the pairing reads it
    if _wolstenholme_pairing(p, 3) >= 3:
        raise ValueError("requires a non-Wolstenholme prime")
    acc.advance_to(N)
    v_h, capped = acc.valuation()
    if capped:
        raise ValueError(
            f"v_{p}(H_{N}) is at least 4; beyond the probe's precondition "
            "(and a conjecture-level event in itself)"
        )
    if v_h != 3:
        raise ValueError(f"requires v_p(H_N) = 3, found {v_h}")
    ((achieved, _),) = coeff_C_valuations(N, p, [p], 5)
    return RootSharpnessProbe(
        p=p, N=N, harmonic_valuation=v_h, achieved=achieved, required=4 + vp_big_B(N, 1, 1, p)
    )


# ---------------------------------------------------------------------------
# Sweeps: a check run over a bounded parameter grid, one JSONL row per grid
# point. SWEEPS is the one table behind `sweep` and the CLI.

# A row is the flat tuple (holds, margin, *values), the values under the
# last len(values) of its check's keys: `sweep` zips them into its dicts, and
# the CLI writes rows through one template per check and row length.
Row = tuple


class Sweep(NamedTuple):
    """One check as a grid: `keys`, the parameter names of its rows, sorted
    and space-separated; its optional parameters with their defaults; and
    `rows`, the generator that walks the grid, outermost parameter first,
    and yields every row in order. A row with fewer values than `keys` lacks
    the leading ones (lemma12's rows without K). A check with `variants`
    also takes `which`, defaulting to the first variant; `required`
    parameters have no default."""

    keys: str
    defaults: dict
    rows: Callable[[dict], Iterator[Row]]
    variants: tuple[str, ...] = ()
    required: tuple[str, ...] = ()
    validate: Callable[[dict], None] | None = None


def _verdict(margin: int | float) -> tuple[bool, int | str]:
    # (holds, margin) of a row whose check holds at margin >= 0.
    return margin >= 0, "inf" if margin == INFINITE else margin


def _Ns(grid: dict) -> range:
    # N <= Nmax, from 1, or from 2 under the shifted variants (Omega, u).
    return range(2 if grid.get("which") in (WHICH_OMEGA, "u") else 1, grid["Nmax"] + 1)


def _pNk(grid: dict) -> Iterator[tuple[int, int, range]]:
    # (p, N, ks) at every prime of the grid, then every N, with ks the k
    # axis 1..kmax: the outer loops of the six checks that run per
    # (p, N, k). None when ks is empty, so no table is built for no row.
    ks = range(1, grid["kmax"] + 1)
    for p in grid["p"] if ks else ():
        for N in _Ns(grid):
            yield p, N, ks


# The rows below are generators, so the CLI can take the first row before
# it opens --out. Each builds a table per outer point and drops it (`del`)
# before the next point builds its own, so no two tables of a kind are live
# at once. The weight readers read w[n] off scaled_weights at the n their
# rows name; lemma12 and j-mod-p read plain H_n off harmonic_scaled. Each
# v_p(x / S) of an entry x is v_p(x) - v_p(S), with v_p(S) read per prime.


def _theorem_rows(grid: dict) -> Iterator[Row]:
    # C(a+Kp) in p xi(N) N!^k Z_p (the shifted sum in p omega(N) N!^k Z_p)
    # at every (p, N, k), then a < p and K with a + Kp <= summax: the
    # weights up to summax of one (p, N), then per k one B row, its B w list
    # and their column [0, summax] of series._dwork_difference, each class a
    # read off column[a::p].
    which, summax = grid["which"], grid["summax"]
    top = max(summax, 0)
    for p, N, ks in _pNk(grid):
        w, S = scaled_weights(N, range(top + 1), which == WHICH_OMEGA)
        vS = vp_int(S, p)
        for k in ks:
            b = big_B_sequence(N, k, top)
            bw = [x * w[m] for m, x in enumerate(b)]
            required = 1 + _required_vp(which, N, k, p) + vS
            column = _dwork_difference(b, bw, p, 0, summax + 1)
            for a in range(p):
                for K, value in enumerate(column[a::p]):
                    margin = vp_int(value, p) - required
                    if margin == INFINITE:
                        yield True, "inf", K, N, a, k, p, which
                    else:
                        yield margin >= 0, margin, K, N, a, k, p, which
            del b, bw, column
        del w


def _S_rows_at(
    grid: dict, p: int, N: int, k: int, required: list[list[int | float]]
) -> Iterator[Row]:
    # Rows at a < p, K <= Kmax, s <= smax and m <= K/p^s + 1 with margin
    # v_p(S-sum) minus required[s][m], each (a, K) off one prefix list of one
    # B row. The S-sums of one (a, K, s) are the differences of the edges
    # P[min(m q, K + 1)], q = p^s: P[::q] padded with P[K + 1]. The last m of
    # each s starts past K, where the S-sum is empty, so `required` needs
    # m <= Kmax // p^s only.
    Kmax = grid["Kmax"]
    b = big_B_sequence(N, k, max(p * Kmax + p - 1, 0))
    for a in range(p):
        for K in range(Kmax + 1):
            P = _S_prefix(b, p, a, K)
            for s, need in enumerate(required):
                q = p**s
                edges = P[::q]
                edges += [P[-1]] * (K // q + 3 - len(edges))
                for m, value in enumerate(map(sub, edges[1:], edges)):
                    margin = vp_int(value, p) - need[m] if value else INFINITE
                    if margin == INFINITE:
                        yield True, "inf", K, N, a, k, m, p, s
                    else:
                        yield margin >= 0, margin, K, N, a, k, m, p, s


def _dwork_rows(grid: dict) -> Iterator[Row]:
    # The S-sum in p^(s+1) B(m) Z_p at every (p, N, k, a, K, s, m). No
    # table is built when the K or s axis is empty, as in _pNk.
    Kmax, smax = grid["Kmax"], grid["smax"]
    if Kmax < 0 or smax < 0:
        return
    for p, N, ks in _pNk(grid):
        for k in ks:
            vB = [vp_big_B(N, k, m, p) for m in range(Kmax + 1)]
            required = [[s + 1 + v for v in vB[: Kmax // p**s + 1]] for s in range(smax + 1)]
            yield from _S_rows_at(grid, p, N, k, required)


def _yms_rows(grid: dict) -> Iterator[Row]:
    # The Y-term, the S-sum times its level gap, in p xi(N) N!^k Z_p at
    # every (p, N, k, a, K, s, m). A nonzero S-sum has m p^s <= K, so its
    # level gap reads the weights of one (p, N) to Kmax, valued once per
    # (p, N, s, m) before the weights are dropped. No table is built when
    # the K or s axis is empty, as in _pNk.
    Kmax, smax = grid["Kmax"], grid["smax"]
    if Kmax < 0 or smax < 0:
        return
    for p, N, ks in _pNk(grid):
        w, S = scaled_weights(N, range(Kmax + 1))
        gaps = [
            [vp_int(_level_gap(w, p, m, s), p) for m in range(Kmax // p**s + 1)]
            for s in range(smax + 1)
        ]
        vS = vp_int(S, p)
        del w
        for k in ks:
            required = 1 + _required_vp(WHICH_XI, N, k, p) + vS
            need = [[required - v for v in row] for row in gaps]
            yield from _S_rows_at(grid, p, N, k, need)


def _decomposition_rows(grid: dict) -> Iterator[Row]:
    # _decomposition at every (p, N, k), then a < p, then K <= Kmax (or
    # K = --K), off the weights of one (p, N) and one B row per (p, N, k),
    # each up to the largest K.
    Ks = range(grid["Kmax"] + 1) if grid["K"] is None else (grid["K"],)
    top = max(Ks, default=0)
    for p, N, ks in _pNk(grid):
        _validate_core(N, ks[0], p, 0, top)  # --K may be negative
        w, S = scaled_weights(N, range(top + 1))
        for k in ks:
            b = big_B_sequence(N, k, p - 1 + top * p)
            for a in range(p):
                for K in Ks:
                    r = _depth(p, K)
                    yield _decomposition(b, w, S, p, a, K, r).equal, None, K, N, a, k, p, r
            del b
        del w


def _lemma11_rows(grid: dict) -> Iterator[Row]:
    # B(m) (H_{N m p^s} - H_{N floor(m/p) p^(s+1)}) in p^(-s) xi(N) N!^k Z_p
    # (shifted: less the plain harmonic differences, against omega(N)) at
    # every (p, N, k), then m <= mmax, then s <= smax, off the weights of
    # one (p, N) at both levels of every (m, s).
    which = grid["which"]
    shifted = which == WHICH_OMEGA
    ms = [(m, s) for m in range(grid["mmax"] + 1) for s in range(grid["smax"] + 1)]
    for p, N, ks in _pNk(grid):
        w, S = scaled_weights(N, (n for m, s in ms for n in _levels(p, m, s)), shifted)
        for k in ks:
            required = _required_vp(which, N, k, p) + vp_int(S, p)
            for m, s in ms:
                margin = _lemma11(w, p, N, k, m, s) - required + s
                yield *_verdict(margin), N, k, m, p, s, which
        del w


def _lemma12_rows(grid: dict) -> Iterator[Row]:
    # Lemma 12's term in p xi(N) N!^k Z_p at every (p, N, k), then a < p,
    # then j <= jmax, off one table per (p, N). At a = 1 the rows of the
    # j = 0 variant, B(1) B(K) H_{floor(N/p)}, one per 1 <= K <= Kmax, come
    # first and replace j = 0, so they run only when j = 0 is in the grid;
    # only they have K in their params, so `head` is (K,) on them and ()
    # on the others.
    jmax = grid["jmax"]
    Ks = range(1, grid["Kmax"] + 1) if jmax >= 0 else ()
    for p, N, ks in _pNk(grid):
        h, S = harmonic_scaled(range(N * jmax + N * (p - 1) // p + 1))
        for k in ks:
            required = 1 + _required_vp(WHICH_XI, N, k, p) + vp_int(S, p)
            for a in range(p):
                cells = [((K,), 0) for K in Ks] if a == 1 else []
                for head, j in cells + [((), j) for j in range(a == 1, jmax + 1)]:
                    achieved = _lemma12(h, p, N, k, a, j, *head)
                    yield *_verdict(achieved - required), *head, N, a, j, k, p
        del h


def _j_mod_p_rows(grid: dict) -> Iterator[Row]:
    # v_p(p H_J - H_{floor(J/p)}) >= 1 at every prime p <= pmax, then
    # 1 <= J <= Jmax, off one table.
    Jmax = grid["Jmax"]
    h, S = harmonic_scaled(range(Jmax + 1))
    for p in primes_upto(grid["pmax"]) if Jmax > 0 else ():
        required = 1 + vp_int(S, p)
        for J in range(1, Jmax + 1):
            yield *_verdict(vp_int(p * h[J] - h[J // p], p) - required), J, p


def _witness_rows(grid: dict) -> Iterator[Row]:
    # The witness at every N, then every prime N < p <= pmax, off the
    # weights of one N.
    which = grid["which"]
    for N in _Ns(grid):
        primes = [p for p in primes_upto(grid["pmax"]) if p > N]
        for p, (a, val) in zip(primes, _witnesses(N, primes, which == "u")):
            yield val == 0, val, N, a, p, which


def _wolstenholme_rows(grid: dict) -> Iterator[Row]:
    # The primes max(5, pmin) <= p <= pmax.
    for p, val in _wolstenholme_scan(grid["pmin"], grid["pmax"], 3):
        yield *_verdict(val - 2), p, val


def _vp3_rows(grid: dict) -> Iterator[Row]:
    (p,) = grid["p"]
    probe = vp3_probe(p, grid["N"])
    yield probe.outside, probe.margin, grid["N"], p


def _one_prime(grid: dict) -> None:
    if len(grid["p"]) != 1:
        raise ValueError("vp3-probe takes exactly one prime")


def _coeff_c_rows(grid: dict) -> Iterator[Row]:
    # v_p(C(m)) at every p, then m = 1..mmax (k = 1), off one
    # coeff_C_valuations generator per p, against theorem-congruence's
    # bound at k = 1, Xi. The cap is bound + 1, so a failing v is exact, and
    # a capped row's margin (>= 1) a lower bound.
    N, ms = grid["N"], range(1, grid["mmax"] + 1)
    for p in grid["p"]:
        bound = 1 + _required_vp(WHICH_XI, N, 1, p)
        for m, (val, capped) in zip(ms, coeff_C_valuations(N, p, ms, bound + 1)):
            yield *_verdict(val - bound), N, capped, m, p


_DWORK = {"p": (2, 3, 5), "Nmax": 5, "kmax": 2, "Kmax": 8, "smax": 2}

SWEEPS: dict[str, Sweep] = {
    "theorem-congruence": Sweep(
        "K N a k p which",
        {"p": (2, 3, 5, 7), "Nmax": 8, "kmax": 2, "summax": 25},
        _theorem_rows,
        variants=(WHICH_XI, WHICH_OMEGA),
    ),
    "dworkS": Sweep("K N a k m p s", _DWORK, _dwork_rows),
    "yms": Sweep("K N a k m p s", _DWORK, _yms_rows),
    "decomposition": Sweep(
        "K N a k p r",
        {"p": (2, 3, 5), "Nmax": 5, "kmax": 2, "Kmax": 8, "K": None},  # None: K <= Kmax
        _decomposition_rows,
    ),
    "lemma11": Sweep(
        "N k m p s which",
        {"p": (2, 3, 5), "Nmax": 5, "kmax": 2, "mmax": 9, "smax": 2},
        _lemma11_rows,
        variants=(WHICH_XI, WHICH_OMEGA),
    ),
    "lemma12": Sweep(
        "K N a j k p",  # only the a = 1, j = 0 rows have K
        {"p": (2, 3, 5), "Nmax": 5, "kmax": 2, "jmax": 6, "Kmax": 8},
        _lemma12_rows,
    ),
    "j-mod-p": Sweep("J p", {"pmax": 13, "Jmax": 500}, _j_mod_p_rows),
    "witness": Sweep("N a p which", {"Nmax": 7, "pmax": 31}, _witness_rows, variants=("t", "u")),
    "wolstenholme": Sweep("p v_capped", {"pmin": 5}, _wolstenholme_rows, required=("pmax",)),
    "vp3-probe": Sweep("N p", {}, _vp3_rows, required=("p", "N"), validate=_one_prime),
    "coeff-c": Sweep("N capped m p", {"p": (3,), "N": 7, "mmax": 2500}, _coeff_c_rows),
}


def sweep(check: str, **params) -> Iterator[dict]:
    """Rows {"check", "params", "holds", "margin"} of `check` at every point
    of its grid, the first parameter outermost. Parameters not given take
    the table's defaults. The call checks the names, the required ones,
    `which`, the primes and vp3-probe's single prime; the check's own
    preconditions (vp3-probe's v_p(H_N) = 3, say) raise at the first row."""
    rows = _sweep_rows(check, **params)
    keys = SWEEPS[check].keys.split()
    return (
        {"check": check, "params": dict(zip(keys[-len(values):], values)),
         "holds": holds, "margin": margin}
        for holds, margin, *values in rows
    )


def _sweep_rows(check: str, **params) -> Iterator[Row]:
    # sweep's rows as tuples, read by `sweep` and the CLI: the check's rows
    # generator, its grid checked and not yet started.
    spec = SWEEPS.get(check)
    if spec is None:
        raise ValueError(f"unknown check {check!r}")
    grid = dict(spec.defaults)
    if spec.variants:
        grid["which"] = spec.variants[0]
    unknown = sorted(params.keys() - grid.keys() - set(spec.required))
    if unknown:
        raise ValueError(f"{check} does not take {', '.join(unknown)}")
    missing = [name for name in spec.required if name not in params]
    if missing:
        raise ValueError(f"{check} requires {' and '.join(missing)}")
    grid.update(params)
    if spec.variants and grid["which"] not in spec.variants:
        raise ValueError(f"{check}: which must be one of {', '.join(spec.variants)}")
    primes = grid.get("p", ())
    if len(set(primes)) != len(primes):
        raise ValueError(f"{check}: p must not repeat a prime")
    for p in primes:
        require_prime(p)
    if spec.validate is not None:
        spec.validate(grid)
    return spec.rows(grid)
