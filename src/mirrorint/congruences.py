"""Coefficient-level congruences behind the integral-root theorems: the
convolution sums C and C-tilde, Dwork's decomposition of their harmonic part
into S-sums and Y-terms, per-lemma membership checks with explicit valuation
margins, and the optimality witnesses showing the root constants are sharp.

Membership checks never return a bare boolean: they carry the achieved and
required valuations, because sharpness arguments are precisely about the
margin (e.g. failure at exactly one extra power of p).

p is checked where it enters: `sweep` checks each prime of its grid once,
before any row, and every other function here takes p on trust.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Iterable, Iterator

from .constants import omega, xi
from .harmonic import (
    ModularHarmonicSum,
    _wolstenholme_scan,
    check_harmonic_congruence,
    harmonic_scaled,
    is_wolstenholme,
    scaled_weight,
    vp_scaled,
)
from .padic import (
    INFINITE,
    big_B_sequence,
    big_B_units,
    primes_upto,
    require_prime,
    vp_big_B,
    vp_factorial,
    vp_int,
)

WHICH_XI = "Xi"
WHICH_OMEGA = "Omega"


@dataclass(frozen=True)
class Membership:
    """v_p membership report: value in p^required * Z_p, with margin."""

    achieved: int | float
    required: int

    @property
    def margin(self) -> int | float:
        return self.achieved - self.required

    @property
    def holds(self) -> bool:
        return self.achieved >= self.required


def _validate_core(N: int, k: int, p: int, a: int, K: int) -> None:
    if N < 1 or k < 1:
        raise ValueError("N and k must be positive integers")
    if not 0 <= a < p:
        raise ValueError("a must satisfy 0 <= a < p")
    if K < 0:
        raise ValueError("K must be non-negative")


def _b(row: list[int], n: int) -> int:
    # Convention: the coefficient vanishes at negative indices.
    return row[n] if n >= 0 else 0


def coeff_C(N: int, k: int, p: int, a: int, K: int, shifted: bool = False) -> Fraction:
    """sum_{j=0..K} B(a+jp) B(K-j) (w(K-j) - p w(a+jp)), with the harmonic
    weight w(m) = H_{Nm}, or H_{Nm} - H_m when shifted.

    This is exactly the (a+Kp)-th coefficient of F(z) G_L(z^p) - p F(z^p)
    G_L(z) with L = N, or of the same with Gt in place of G_L when shifted.
    """
    total, _, S = _coeff_C_scaled(N, k, p, a, K, shifted)
    return Fraction(total, S)


def _coeff_C_scaled(
    N: int, k: int, p: int, a: int, K: int, shifted: bool
) -> tuple[int, list[int], int]:
    # S * coeff_C, with the harmonic table h of scale S that it was read from.
    _validate_core(N, k, p, a, K)
    top = a + K * p
    b = big_B_sequence(N, k, top)
    h, S = harmonic_scaled(N * top)
    total = 0
    for j in range(K + 1):
        low, high = K - j, a + j * p
        total += (
            b[high]
            * b[low]
            * (scaled_weight(h, N, low, shifted) - p * scaled_weight(h, N, high, shifted))
        )
    return total, h, S


def coeff_C_tilde(N: int, k: int, p: int, a: int, K: int) -> Fraction:
    """Shifted analogue of coeff_C, with harmonic differences H_{Nm} - H_m;
    the (a+Kp)-th coefficient of F(z) Gt(z^p) - p F(z^p) Gt(z)."""
    return coeff_C(N, k, p, a, K, shifted=True)


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
    least W, not floor(log_p(N top)), keeps the unit rows short.
    """
    ms = list(ms)
    if N < 1 or cap < 2 or min(ms, default=0) < 0:
        raise ValueError("requires N >= 1, cap >= 2 and every m >= 0")
    top = max(ms, default=0)
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
    for m in ms:
        # The j-th term pairs a + jp (hi) with K - j (lo).
        hi, lo = slice(m % p, m + 1, p), slice(m // p, None, -1)
        v0 = min(x + y for x, y in zip(bv[hi], bv[lo]))
        total = sum(x * y * (r - p * q) for x, y, r, q in zip(c[hi], c[lo], R[lo], R[hi]))
        v = vp_int(total % p ** (W + v0 + cap), p)
        yield (v - W, False) if v < W + v0 + cap else (v0 + cap, True)


# v_p(xi(N) N!^k), or of omega(N) N!^k: what every membership check below is
# measured against. A sweep asks for the same few hundred keys in every row.
@lru_cache(maxsize=1024)
def _required_vp(which: str, N: int, k: int, p: int) -> int:
    if which not in (WHICH_XI, WHICH_OMEGA):
        raise ValueError(f"which must be {WHICH_XI!r} or {WHICH_OMEGA!r}")
    breakdown = xi(N) if which == WHICH_XI else omega(N)
    return breakdown.exponent_of(p) + k * vp_factorial(N, p)


def check_theorem_congruence(
    N: int, k: int, p: int, a: int, K: int, which: str = WHICH_XI
) -> Membership:
    """Membership of C(a+Kp) in p * xi(N) * N!^k * Z_p (or of the shifted sum
    in p * omega(N) * N!^k * Z_p)."""
    shifted = which == WHICH_OMEGA
    if shifted and N < 2:
        raise ValueError("the shifted variant requires N >= 2")
    required = 1 + _required_vp(which, N, k, p)
    value, h, _ = _coeff_C_scaled(N, k, p, a, K, shifted)
    return Membership(achieved=vp_scaled(value, p, len(h) - 1), required=required)


def S_sum(N: int, k: int, p: int, a: int, K: int, s: int, m: int) -> int:
    """sum_{j = m p^s .. (m+1) p^s - 1} of
    B(a+jp) B(K-j) - B(j) B(a+(K-j)p), coefficients vanishing at negative
    indices."""
    _validate_core(N, k, p, a, K)
    if s < 0 or m < 0:
        raise ValueError("s and m must be non-negative")
    lo = m * p**s
    if lo > K:
        return 0
    b = big_B_sequence(N, k, a + K * p)
    total = 0
    for j in range(lo, min((m + 1) * p**s, K + 1)):
        total += b[a + j * p] * _b(b, K - j) - _b(b, j) * _b(b, a + (K - j) * p)
    return total


def check_dwork_S(N: int, k: int, p: int, a: int, K: int, s: int, m: int) -> Membership:
    """Membership of the S-sum in p^(s+1) B(m) Z_p."""
    value = S_sum(N, k, p, a, K, s, m)
    required = s + 1 + vp_big_B(N, k, m, p)
    return Membership(achieved=vp_int(value, p), required=required)


def _level_gap(h: list[int], N: int, p: int, m: int, s: int, shifted: bool) -> int:
    """S (w(m p^s) - w(floor(m/p) p^(s+1))) for the harmonic weight w of
    harmonic_weight(N, ., shifted), read off a table h of scale S that
    covers N m p^s."""
    return scaled_weight(h, N, m * p**s, shifted) - scaled_weight(
        h, N, (m // p) * p ** (s + 1), shifted
    )


def Y_term(N: int, k: int, p: int, a: int, K: int, s: int, m: int) -> Fraction:
    """(H_{N m p^s} - H_{N floor(m/p) p^(s+1)}) * S(a, K, s, p, m)."""
    value = S_sum(N, k, p, a, K, s, m)
    if value == 0:
        return Fraction(0)
    h, S = harmonic_scaled(N * m * p**s)
    return Fraction(_level_gap(h, N, p, m, s, False) * value, S)


def check_Y(N: int, k: int, p: int, a: int, K: int, s: int, m: int) -> Membership:
    """Membership of the Y-term in p * xi(N) * N!^k * Z_p."""
    required = 1 + _required_vp(WHICH_XI, N, k, p)
    value = S_sum(N, k, p, a, K, s, m)
    if value == 0:
        return Membership(achieved=INFINITE, required=required)
    h, _ = harmonic_scaled(N * m * p**s)
    achieved = vp_int(value, p) + vp_scaled(_level_gap(h, N, p, m, s, False), p, len(h) - 1)
    return Membership(achieved=achieved, required=required)


@dataclass(frozen=True)
class DecompositionCheck:
    """Both evaluations of the harmonic convolution sum, at depth r and r+1."""

    r: int
    lhs: Fraction
    rhs: Fraction
    rhs_next: Fraction

    @property
    def equal(self) -> bool:
        return self.lhs == self.rhs == self.rhs_next


def check_decomposition(
    N: int, k: int, p: int, a: int, K: int, r: int | None = None
) -> DecompositionCheck:
    """Identity between sum_j H_{Nj} (B(a+jp)B(K-j) - B(j)B(a+(K-j)p)) and
    the double sum of Y-terms over s <= r, m < p^(r+1-s), for any r with
    K < p^r; verified at r and again at r + 1."""
    _validate_core(N, k, p, a, K)
    r_min = 0
    while K >= p**r_min:
        r_min += 1
    if r is None:
        r = r_min
    elif K >= p**r:
        raise ValueError(f"r must satisfy K < p^r (minimal r is {r_min})")

    b = big_B_sequence(N, k, a + K * p)
    # Every index read below is at most N K: S_sum vanishes for m p^s > K.
    h, S = harmonic_scaled(N * K)
    lhs = 0
    for j in range(K + 1):
        lhs += h[N * j] * (b[a + j * p] * _b(b, K - j) - _b(b, j) * _b(b, a + (K - j) * p))

    def rhs_at(depth: int) -> Fraction:
        total = 0
        for s in range(depth + 1):
            for m in range(p ** (depth + 1 - s)):
                if m * p**s > K:
                    break
                total += _level_gap(h, N, p, m, s, False) * S_sum(N, k, p, a, K, s, m)
        return Fraction(total, S)

    return DecompositionCheck(
        r=r, lhs=Fraction(lhs, S), rhs=rhs_at(r), rhs_next=rhs_at(r + 1)
    )


def check_lemma12(
    N: int, k: int, p: int, a: int, j: int, K: int | None = None
) -> Membership:
    """Membership of B(a+pj) (H_{Nj + floor(Na/p)} - H_{Nj}) in
    p * xi(N) * N!^k * Z_p; the (a=1, j=0) variant instead checks
    B(1) B(K) H_{floor(N/p)} and requires K >= 1."""
    _validate_core(N, k, p, a, max(K or 0, 0))
    if j < 0:
        raise ValueError("j must be non-negative")
    required = 1 + _required_vp(WHICH_XI, N, k, p)
    if a == 1 and j == 0:
        if K is None or K < 1:
            raise ValueError("the a=1, j=0 variant requires K >= 1")
        h, _ = harmonic_scaled(N // p)
        v_B = vp_big_B(N, k, 1, p) + vp_big_B(N, k, K, p)
        value = h[N // p]
    else:
        top = N * j + (N * a) // p
        h, _ = harmonic_scaled(top)
        v_B = vp_big_B(N, k, a + p * j, p)
        value = h[top] - h[N * j]
    return Membership(achieved=v_B + vp_scaled(value, p, len(h) - 1), required=required)


def check_lemma11(
    N: int, k: int, p: int, m: int, s: int, which: str = WHICH_XI
) -> Membership:
    """Membership of B(m) (H_{N m p^s} - H_{N floor(m/p) p^(s+1)}) in
    p^(-s) * xi(N) * N!^k * Z_p; the shifted variant subtracts the plain
    harmonic differences and uses omega(N)."""
    if N < 1 or k < 1 or m < 0 or s < 0:
        raise ValueError("invalid parameters")
    shifted = which == WHICH_OMEGA
    if shifted and N < 2:
        raise ValueError("the shifted variant requires N >= 2")
    required = -s + _required_vp(which, N, k, p)
    h, _ = harmonic_scaled(N * m * p**s)
    gap = _level_gap(h, N, p, m, s, shifted)
    achieved = vp_big_B(N, k, m, p) + vp_scaled(gap, p, len(h) - 1)
    return Membership(achieved=achieved, required=required)


def optimality_witness(N: int, p: int, shifted: bool = False) -> tuple[int, int]:
    """The witness a showing primes p > N cannot divide the maximal root:
    a is minimal with a*N >= p (a = 1 when N = 1), and
    v_p(B_N(a) * H_{Na}) = 0 (shifted: with H_{Na} - H_a). Returns (a, v)."""
    if N < 1:
        raise ValueError("N must be a positive integer")
    if p <= N:
        raise ValueError("the witness construction requires p > N")
    if shifted and N < 2:
        raise ValueError("the shifted witness requires N >= 2")
    a = 1 if N == 1 else -(-p // N)
    h, _ = harmonic_scaled(N * a)
    weight = scaled_weight(h, N, a, shifted)
    return a, vp_big_B(N, 1, a, p) + vp_scaled(weight, p, len(h) - 1)


@dataclass(frozen=True)
class RootSharpnessProbe:
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
    if is_wolstenholme(p):
        raise ValueError("requires a non-Wolstenholme prime")

    acc = ModularHarmonicSum(p, cap=4)
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
        p=p, N=N, harmonic_valuation=v_h, achieved=achieved, required=4 + vp_factorial(N, p)
    )


# ---------------------------------------------------------------------------
# Sweeps: a check run over a bounded parameter grid, one JSONL row dict per
# grid point. SWEEPS is the one table behind `sweep` and the CLI.

# An axis is (name, values): values(grid, point) gives the values `name`
# takes, from the grid parameters and the axes bound before it.
Axis = tuple[str, Callable[[dict, dict], Iterable]]


@dataclass(frozen=True)
class Sweep:
    """One check as a grid: its optional parameters with their defaults,
    the axes in nesting order (outermost first), and `run`, which evaluates
    the check at one grid point and returns (params, holds, margin). A check
    with `variants` also takes `which`, defaulting to the first variant;
    `required` parameters have no default."""

    defaults: dict
    axes: tuple[Axis, ...]
    run: Callable[[dict], tuple[dict, bool, int | str | None]]
    variants: tuple[str, ...] = ()
    required: tuple[str, ...] = ()
    validate: Callable[[dict], None] | None = None


def _upto(bound: str, lo: int = 0) -> Callable[[dict, dict], range]:
    return lambda g, v: range(lo, g[bound] + 1)


def _primes(g: dict, lo: int) -> list[int]:
    return [p for p in primes_upto(g["pmax"]) if p >= lo]


def _margin_json(m: int | float) -> int | str:
    return "inf" if m == INFINITE else int(m)


def _member(point: dict, rep: Membership) -> tuple[dict, bool, int | str]:
    return dict(point), rep.holds, _margin_json(rep.margin)


def _decomposition_row(point: dict):
    rep = check_decomposition(**point)
    return {**point, "r": rep.r}, rep.equal, None


# Lemma 12's a = 1, j = 0 variant is checked at each K >= 1, in rows that
# come before the j >= 1 rows; every other row has K = None, not in params.
def _lemma12_K(g: dict, v: dict) -> tuple:
    return (*range(1, g["Kmax"] + 1), None) if v["a"] == 1 else (None,)


def _lemma12_j(g: dict, v: dict) -> Iterable[int]:
    if v["K"] is not None:
        return (0,)
    return range(1 if v["a"] == 1 else 0, g["jmax"] + 1)


def _lemma12_row(point: dict):
    rep = check_lemma12(**point)
    params = dict(point)
    if params["K"] is None:
        del params["K"]
    return params, rep.holds, _margin_json(rep.margin)


def _j_mod_p_row(point: dict):
    rep = check_harmonic_congruence("J_mod_p", point["p"], J=point["J"])
    return dict(point), rep.holds, _margin_json(rep.achieved - rep.required)


def _witness_row(point: dict):
    a, v = optimality_witness(point["N"], point["p"], shifted=point["which"] == "u")
    return {**point, "a": a}, v == 0, v


def _wolstenholme_row(point: dict):
    p, v = point["p"]
    return {"p": p, "v_capped": v}, v >= 2, v - 2


def _vp3_row(point: dict):
    probe = vp3_probe(**point)
    return dict(point), probe.outside, probe.margin


def _one_prime(grid: dict) -> None:
    if len(grid["p"]) != 1:
        raise ValueError("vp3-probe takes exactly one prime")


_WHICH: Axis = ("which", lambda g, v: (g["which"],))
_P: Axis = ("p", lambda g, v: g["p"])
# The shifted variants (Omega, and u for the witness) start at N = 2.
_N: Axis = (
    "N",
    lambda g, v: range(2 if v.get("which") in (WHICH_OMEGA, "u") else 1, g["Nmax"] + 1),
)
_PNk = (_P, _N, ("k", _upto("kmax", 1)))
_PNka = (*_PNk, ("a", lambda g, v: range(v["p"])))
_DWORK = {"p": (2, 3, 5), "Nmax": 5, "kmax": 2, "Kmax": 8, "smax": 2}
_DWORK_AXES = (
    *_PNka,
    ("K", _upto("Kmax")),
    ("s", _upto("smax")),
    ("m", lambda g, v: range(v["K"] // v["p"] ** v["s"] + 2)),
)

SWEEPS: dict[str, Sweep] = {
    "theorem-congruence": Sweep(
        {"p": (2, 3, 5, 7), "Nmax": 8, "kmax": 2, "summax": 25},
        (
            _WHICH,
            *_PNka,
            ("K", lambda g, v: range((g["summax"] - v["a"]) // v["p"] + 1)),
        ),
        lambda v: _member(v, check_theorem_congruence(**v)),
        variants=(WHICH_XI, WHICH_OMEGA),
    ),
    "dworkS": Sweep(_DWORK, _DWORK_AXES, lambda v: _member(v, check_dwork_S(**v))),
    "yms": Sweep(_DWORK, _DWORK_AXES, lambda v: _member(v, check_Y(**v))),
    "decomposition": Sweep(
        {"p": (2, 3, 5), "Nmax": 5, "kmax": 2, "Kmax": 8, "K": None},  # None: K <= Kmax
        (
            *_PNka,
            ("K", lambda g, v: range(g["Kmax"] + 1) if g["K"] is None else (g["K"],)),
        ),
        _decomposition_row,
    ),
    "lemma11": Sweep(
        {"p": (2, 3, 5), "Nmax": 5, "kmax": 2, "mmax": 9, "smax": 2},
        (_WHICH, *_PNk, ("m", _upto("mmax")), ("s", _upto("smax"))),
        lambda v: _member(v, check_lemma11(**v)),
        variants=(WHICH_XI, WHICH_OMEGA),
    ),
    "lemma12": Sweep(
        {"p": (2, 3, 5), "Nmax": 5, "kmax": 2, "jmax": 6, "Kmax": 8},
        (*_PNka, ("K", _lemma12_K), ("j", _lemma12_j)),
        _lemma12_row,
    ),
    "j-mod-p": Sweep(
        {"pmax": 13, "Jmax": 500},
        (("p", lambda g, v: _primes(g, 2)), ("J", _upto("Jmax", 1))),
        _j_mod_p_row,
    ),
    "witness": Sweep(
        {"Nmax": 7, "pmax": 31},
        (_WHICH, _N, ("p", lambda g, v: _primes(g, v["N"] + 1))),
        _witness_row,
        variants=("t", "u"),
    ),
    "wolstenholme": Sweep(
        {"pmin": 5},
        # Each value is a pair (p, min(v_p(H_{p-1}), 3)).
        (("p", lambda g, v: _wolstenholme_scan(g["pmin"], g["pmax"], 3)),),
        _wolstenholme_row,
        required=("pmax",),
    ),
    "vp3-probe": Sweep(
        {},
        (_P, ("N", lambda g, v: (g["N"],))),
        _vp3_row,
        required=("p", "N"),
        validate=_one_prime,
    ),
}


def sweep(check: str, **params) -> Iterator[dict]:
    """Rows {"check", "params", "holds", "margin"} of `check` at every point
    of its grid, the first axis outermost. Parameters not given take the
    table's defaults. Every parameter is validated here, before any row."""
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
    for p in grid.get("p", ()):
        require_prime(p)
    if spec.validate is not None:
        spec.validate(grid)
    return _rows(check, spec, grid)


def _rows(check: str, spec: Sweep, grid: dict) -> Iterator[dict]:
    # An odometer: one live iterator per bound axis, the innermost last. The
    # innermost axis runs as a plain loop, so a row costs one loop step and
    # one call of `run`, however deep the grid is. An axis reads the current
    # values of the axes outside it from `point`.
    names = [name for name, _ in spec.axes]
    values = [fn for _, fn in spec.axes]
    last = len(names) - 1
    run = spec.run
    point: dict = {}
    stack = [iter(values[0](grid, point))]
    while stack:
        depth = len(stack) - 1
        name = names[depth]
        if depth == last:
            for point[name] in stack.pop():
                params, holds, margin = run(point)
                yield {"check": check, "params": params, "holds": holds, "margin": margin}
            continue
        for point[name] in stack[depth]:
            stack.append(iter(values[depth + 1](grid, point)))
            break
        else:
            stack.pop()
