"""Per-point reference checks: the oracles the sweeps, series kernels and
sieve are tested against.

Each congruence check evaluates one grid point on its own tables, through
the same private readers as its sweep (`_lemma11`, `_lemma12`,
`_decomposition`, `_witnesses`, `_S_prefix`, `_S_read`, `_level_gap`), and
returns the achieved and required valuations, because sharpness arguments
are precisely about the margin (e.g. failure at exactly one extra power of
p). The sieve's oracle walks every index with a running Fraction. The
exact readers at the end (harmonic, vp_harmonic, vp_factorial, big_B) are
the references for H_n, its valuations, v_p(n!) and B(m). p is taken on
trust throughout, except by vp_harmonic and vp_factorial, which check it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from mirrorint.congruences import (
    WHICH_OMEGA,
    WHICH_XI,
    DecompositionCheck,
    _decomposition,
    _depth,
    _lemma11,
    _lemma12,
    _level_gap,
    _levels,
    _required_vp,
    _S_prefix,
    _S_read,
    _validate_core,
    _witnesses,
    coeff_C,
)
from mirrorint.harmonic import TARGET_H1, _indicator, _walk, harmonic_scaled, scaled_weights
from mirrorint.padic import (
    _validate_b_params,
    big_B_sequence,
    require_prime,
    vp_big_B,
    vp_int,
)
from mirrorint.series import (
    KIND_QLN,
    KIND_QN,
    PSeries,
    canonical_parts,
    canonical_q,
    ps_pow,
)
from mirrorint.sieve import VALUATION_CAP, SieveRecord


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


def check_theorem_congruence(
    N: int, k: int, p: int, a: int, K: int, which: str = WHICH_XI
) -> Membership:
    """Membership of C(a+Kp) in p * xi(N) * N!^k * Z_p (or of the shifted sum
    in p * omega(N) * N!^k * Z_p)."""
    shifted = which == WHICH_OMEGA
    if shifted and N < 2:
        raise ValueError("the shifted variant requires N >= 2")
    required = 1 + _required_vp(which, N, k, p)
    c = coeff_C(N, k, p, a, K, shifted)
    achieved = vp_int(c.numerator, p) - vp_int(c.denominator, p)
    return Membership(achieved=achieved, required=required)


def S_sum(N: int, k: int, p: int, a: int, K: int, s: int, m: int) -> int:
    """sum_{j = m p^s .. (m+1) p^s - 1} of
    B(a+jp) B(K-j) - B(j) B(a+(K-j)p), coefficients vanishing at negative
    indices."""
    _validate_core(N, k, p, a, K)
    if s < 0 or m < 0:
        raise ValueError("s and m must be non-negative")
    return _S_read(_S_prefix(big_B_sequence(N, k, a + K * p), p, a, K), p**s, m)


def check_dwork_S(N: int, k: int, p: int, a: int, K: int, s: int, m: int) -> Membership:
    """Membership of the S-sum in p^(s+1) B(m) Z_p."""
    value = S_sum(N, k, p, a, K, s, m)
    required = s + 1 + vp_big_B(N, k, m, p)
    return Membership(achieved=vp_int(value, p), required=required)


def Y_term(N: int, k: int, p: int, a: int, K: int, s: int, m: int) -> Fraction:
    """(H_{N m p^s} - H_{N floor(m/p) p^(s+1)}) * S(a, K, s, p, m)."""
    value = S_sum(N, k, p, a, K, s, m)
    if value == 0:
        return Fraction(0)
    w, S = scaled_weights(N, _levels(p, m, s))
    return Fraction(_level_gap(w, p, m, s) * value, S)


def check_Y(N: int, k: int, p: int, a: int, K: int, s: int, m: int) -> Membership:
    """Membership of the Y-term in p * xi(N) * N!^k * Z_p."""
    y = Y_term(N, k, p, a, K, s, m)
    required = 1 + _required_vp(WHICH_XI, N, k, p)
    achieved = vp_int(y.numerator, p) - vp_int(y.denominator, p)
    return Membership(achieved=achieved, required=required)


def check_decomposition(
    N: int, k: int, p: int, a: int, K: int, r: int | None = None
) -> DecompositionCheck:
    """Identity between sum_j H_{Nj} (B(a+jp)B(K-j) - B(j)B(a+(K-j)p)) and
    the double sum of Y-terms over s <= r, m < p^(r+1-s), for any r with
    K < p^r; verified at r and again at r + 1."""
    _validate_core(N, k, p, a, K)
    if r is None:
        r = _depth(p, K)
    elif K >= p**r:
        raise ValueError(f"r must satisfy K < p^r (minimal r is {_depth(p, K)})")
    w, S = scaled_weights(N, range(K + 1))
    return _decomposition(big_B_sequence(N, k, a + K * p), w, S, p, a, K, r)


def check_lemma12(
    N: int, k: int, p: int, a: int, j: int, K: int | None = None
) -> Membership:
    """Membership of B(a+pj) (H_{Nj + floor(Na/p)} - H_{Nj}) in
    p * xi(N) * N!^k * Z_p; the (a=1, j=0) variant instead checks
    B(1) B(K) H_{floor(N/p)} and requires K >= 1."""
    _validate_core(N, k, p, a, max(K or 0, 0))
    if j < 0:
        raise ValueError("j must be non-negative")
    if a == 1 and j == 0:
        if K is None or K < 1:
            raise ValueError("the a=1, j=0 variant requires K >= 1")
    else:
        K = 0  # only the variant reads K
    h, S = harmonic_scaled([N * j + N * a // p, N * j])
    achieved = _lemma12(h, p, N, k, a, j, K) - vp_int(S, p)
    return Membership(achieved, 1 + _required_vp(WHICH_XI, N, k, p))


def check_lemma11(
    N: int, k: int, p: int, m: int, s: int, which: str = WHICH_XI
) -> Membership:
    """Membership of B(m) (H_{N m p^s} - H_{N floor(m/p) p^(s+1)}) in
    p^(-s) * xi(N) * N!^k * Z_p; the shifted variant subtracts the plain
    harmonic differences and uses omega(N)."""
    if N < 1 or k < 1:
        raise ValueError("N and k must be positive integers")
    if m < 0 or s < 0:
        raise ValueError("m and s must be non-negative")
    shifted = which == WHICH_OMEGA
    if shifted and N < 2:
        raise ValueError("the shifted variant requires N >= 2")
    required = _required_vp(which, N, k, p) - s
    w, S = scaled_weights(N, _levels(p, m, s), shifted)
    return Membership(_lemma11(w, p, N, k, m, s) - vp_int(S, p), required)


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
    return next(_witnesses(N, [p], shifted))


@dataclass(frozen=True)
class HarmonicCongruence:
    """Outcome of one congruence check, with the achieved valuation."""

    kind: str
    p: int
    params: dict = field(compare=False)
    achieved: int | float
    required: int
    holds: bool
    predicted: bool | None = None
    prediction_matches: bool | None = None


def check_harmonic_congruence(
    kind: str,
    p: int,
    *,
    J: int | None = None,
    r: int | None = None,
    N: int | None = None,
) -> HarmonicCongruence:
    """Evaluate one of the p*H_J vs H_{J/p} congruence statements exactly.

    Kinds:
      J_mod_p  v_p(p*H_J - H_{floor(J/p)}) >= 1, any J >= 1
      W1       v_p(H_{rp-1} - H_{rp-p}) >= 2, p >= 5
      W2       p | J: >= 3 for p >= 5, >= 2 for p = 3
      W3       p^2 | J, p >= 5: >= 5
      congH    p >= 5: v_p(p*H_{pN} - H_N) >= 4 iff Wolstenholme or p | N
      congH2   p >= 5: v_p(p*(H_{pN} - H_p) - (H_N - 1)) >= 4 iff
               Wolstenholme or N = +-1 mod p

    For congH/congH2 the report also carries the iff-criterion's prediction
    and whether it matches the computed outcome.
    """
    predicted: bool | None = None
    if kind in ("J_mod_p", "W2", "W3"):
        if kind == "J_mod_p":
            if J is None or J < 1:
                raise ValueError("J_mod_p requires J >= 1")
            required = 1
        elif kind == "W2":
            if p < 3:
                raise ValueError("W2 requires p >= 3")
            if J is None or J < 1 or J % p:
                raise ValueError("W2 requires J divisible by p")
            required = 3 if p >= 5 else 2
        else:
            if p < 5:
                raise ValueError("W3 requires p >= 5")
            if J is None or J < 1 or J % p**2:
                raise ValueError("W3 requires J divisible by p^2")
            required = 5
        h, S = harmonic_scaled([J, J // p])
        value = p * h[J] - h[J // p]
        params = {"J": J}
    elif kind == "W1":
        if p < 5:
            raise ValueError("W1 requires p >= 5")
        if r is None or r < 1:
            raise ValueError("W1 requires r >= 1")
        h, S = harmonic_scaled([r * p - 1, r * p - p])
        value = h[r * p - 1] - h[r * p - p]
        required = 2
        params = {"r": r}
    elif kind in ("congH", "congH2"):
        if p < 5:
            raise ValueError(f"{kind} requires p >= 5")
        if N is None or N < 1:
            raise ValueError(f"{kind} requires N >= 1")
        shifted = kind == "congH2"
        w, S = scaled_weights(N, [p, 1], shifted)
        value = p * w[p] - w[1]
        required = 4
        predicted = bool(_indicator(p, N, shifted))
        params = {"N": N}
    else:
        raise ValueError(f"unknown congruence kind {kind!r}")

    achieved = vp_int(value, p) - vp_int(S, p)
    holds = achieved >= required
    matches = None if predicted is None else (holds == predicted)
    return HarmonicCongruence(
        kind=kind,
        p=p,
        params=params,
        achieved=achieved,
        required=required,
        holds=holds,
        predicted=predicted,
        prediction_matches=matches,
    )


def canonical_series(
    kind: str, N: int, k: int = 1, L: int | None = None, order: int = 25
) -> tuple[PSeries, PSeries]:
    """(g, f): the rows (G, F, d) of canonical_parts as rational series,
    g = G / d, so that g / f is the logarithm of the canonical coordinate."""
    G, F, d = canonical_parts(kind, N, k, L, order)
    return PSeries([Fraction(x, d) for x in G]), PSeries(F)


def ps_substitute_power(s: PSeries, m: int) -> PSeries:
    """s(z^m). Knowing s to order M determines the result to order
    (M+1)*m - 1: intermediate indices are exactly zero."""
    if m < 1:
        raise ValueError("m must be a positive integer")
    new_order = (s.order + 1) * m - 1
    out = [Fraction(0)] * (new_order + 1)
    for i, x in enumerate(s.coefficients):
        out[i * m] = x
    return PSeries(out)


def p_integral_violation(s: PSeries, p: int) -> int | None:
    """Index of the first coefficient with v_p < 0, or None."""
    for i, x in enumerate(s.coefficients):
        if x.denominator % p == 0:
            return i
    return None


def verify_truemap_identity(N: int, k: int, order: int) -> bool:
    """Coefficientwise check that z^{-1} q(z) equals
    (q_{L=N} / q_{L=1})^{kN} up to the truncation order."""
    lhs = canonical_q(KIND_QN, N, k, order=order)
    q_nn = canonical_q(KIND_QLN, N, k, L=N, order=order)
    q_1n = canonical_q(KIND_QLN, N, k, L=1, order=order)
    rhs = ps_pow(q_nn, k * N) * ps_pow(q_1n, -k * N)
    return lhs == rhs


def exact_sieve(p: int, max_N: int, target: str) -> list[SieveRecord]:
    """SieveRun's records, off a running Fraction H_N at every N <= max_N:
    its work grows with max_N, where SieveRun reads only the candidate
    blocks of Boyd's tree."""
    records = []
    h = Fraction(0)
    for n in range(1, max_N + 1):
        h += Fraction(1, n)
        x = h
        if target == TARGET_H1:
            if n == 1:
                continue
            x = x - 1
        if x.denominator % p == 0 or x.numerator % p:
            continue
        v = vp_int(x.numerator, p)
        if v >= VALUATION_CAP:
            records.append(SieveRecord(p, n, VALUATION_CAP, True, target))
        else:
            records.append(SieveRecord(p, n, v, False, target))
    return records


def harmonic(n: int) -> Fraction:
    """Exact H_n = 1 + 1/2 + ... + 1/n (H_0 = 0), off one _walk to n."""
    if n < 0:
        raise ValueError("n must be non-negative")
    ((_, S, x),) = _walk([n])
    return Fraction(x, S)


def vp_harmonic(N: int, p: int, shifted: bool = False) -> int:
    """v_p(H_N), or v_p(H_N - 1) when shifted.

    N = 1 with shifted is rejected: H_1 - 1 = 0 has infinite valuation and
    sits outside every statement this toolkit checks.
    """
    require_prime(p)
    if N < 1:
        raise ValueError("N must be a positive integer")
    if shifted and N == 1:
        raise ValueError("H_1 - 1 = 0; shifted valuation requires N >= 2")
    ((_, S, x),) = _walk([N])
    return vp_int(x - S if shifted else x, p) - vp_int(S, p)


def vp_factorial(n: int, p: int) -> int:
    """v_p(n!) = sum_{l>=1} floor(n / p^l)."""
    require_prime(p)
    if n < 0:
        raise ValueError("n must be non-negative")
    total = 0
    q = p
    while q <= n:
        total += n // q
        q *= p
    return total


def big_B(N: int, k: int, m: int) -> int:
    """The integer ((Nm)! / m!^N)^k; equals 1 for m = 0."""
    _validate_b_params(N, k, m)
    if m == 0:
        return 1
    base, rem = divmod(math.factorial(N * m), math.factorial(m) ** N)
    if rem:
        raise ArithmeticError("multinomial coefficient is not an integer")
    return base**k
