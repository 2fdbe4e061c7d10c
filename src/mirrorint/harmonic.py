"""Harmonic numbers H_n as scaled integers and p-adic residues: the maps'
harmonic weights, the sieve's valuations and the Wolstenholme indicator.

Two evaluation routes are provided on purpose: exact rationals (the oracle)
and a modular route that tracks H_n in Z_p with just enough precision to
read off valuations, so large indices never require exact arithmetic. The
modular state moves only by advance_to, which rewrites just the levels whose
index changes: by the new units within a block of p, by Newton differences
of block sums (sums of 1/u over p - 1 units) across blocks. So the sieve and
the vp3 probe pay for the indices they read, not for those they pass. Every
modular sum of inverses (a block sum, a jump's tail, the Wolstenholme
pairing) goes through one kernel, _inverse_sum: the terms over one common
denominator, and one modular inverse for the whole sum.

The exact route is a table of integers, h[n] = S * H_n with
S = lcm(1..T), built afresh by each call and holding only the indices n
its caller names, T the largest. Every H_a - c H_b is then the integer
h[a] - c h[b] over S, of valuation v_p(h[a] - c h[b]) - v_p(S): no
Fraction is added and no gcd runs per term. scaled_weights alone reads the
maps' weight H_{Nn} (- H_n when shifted) off it, keyed by n. xi, omega,
theta and a wide Wolstenholme sweep walk one running sum S * H_n whose S
grows with n instead (_walk).
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator
from itertools import accumulate

from .padic import primes_upto, require_prime, vp_int

# The two targets of the valuation studies: H_N and H_N - 1.
TARGET_H = "H"
TARGET_H1 = "H1"


def harmonic_scaled(stops: Iterable[int]) -> tuple[dict[int, int], int]:
    """(h, S): a new dict with h[n] = S * H_n for exactly the n of
    ``stops``, and S = lcm(1..T) with T the largest (S = 1 for none), off
    one running sum of S / i to T that keeps only those entries."""
    keep = set(stops)
    if min(keep, default=0) < 0:
        raise ValueError("stops must be non-negative")
    top = max(keep, default=0)
    # Every i <= top/2 divides 2i, so the upper half of 1..top has the same lcm.
    S = math.lcm(*range(top // 2 + 1, top + 1))
    sums = accumulate(map(S.__floordiv__, range(1, top + 1)), initial=0)
    return {n: x for n, x in enumerate(sums) if n in keep}, S


def scaled_weights(N: int, ns: Iterable[int], shifted: bool = False) -> tuple[dict[int, int], int]:
    """(w, S): a new dict with w[n] = S times the harmonic weight of B(n)
    in the maps, for exactly the n of ``ns``: H_{Nn} for the q_L maps (at
    L = N), or H_{Nn} - H_n for the Dwork-Kontsevich maps when shifted (at
    n = 1, H_N and H_N - 1). Off one harmonic_scaled table of the entries
    N n (and n when shifted), S its scale."""
    ns = set(ns)
    h, S = harmonic_scaled([i for n in ns for i in ((N * n, n) if shifted else (N * n,))])
    return {n: h[N * n] - h[n] if shifted else h[N * n] for n in ns}, S


class ModularHarmonicSum:
    """Tracks H_n in Z_p precisely enough to decide valuations below a cap.

    For each w >= 0, ``sums[w]`` accumulates, modulo p^(cap+1+w), the sum of
    inverses of the p-free parts u over all indices u * p^w <= n. Then
    H_n = sum_w p^(-w) * sums[w]; combining the levels at the common scale
    p^W (W = floor(log_p n)) leaves exactly enough precision to read off
    v_p(H_n), or v_p(H_n - 1), whenever it is below ``cap`` -- and to report
    "at least cap" otherwise. New levels appear as n grows, so the state can
    be advanced indefinitely.

    The state is a function of n alone: level w holds S(floor(n/p^w)) mod
    p^(cap+1+w), where S(m) = sum of 1/u over u <= m with p not dividing u.
    ``advance_to`` is the one way to move it, and only forward, at a cost
    that does not grow with n. So a sieve checkpoint saves none of the
    state: the resumed run reaches its first pending index past ``last_N``
    with one jump from n = 0.
    """

    __slots__ = ("p", "cap", "n", "sums", "_jump")

    def __init__(self, p: int, cap: int = 4):
        require_prime(p)
        if cap < 1:
            raise ValueError("cap must be positive")
        self.p = p
        self.cap = cap
        self.n = 0
        self.sums: list[int] = []
        # Per level w, the Newton table D_s that advance_to jumps by.
        self._jump: list[list[int]] = []

    def advance_to(self, n: int) -> None:
        """Move to index n >= self.n, rewriting only the levels that change.

        Level w holds S(m) mod p^K with m = floor(n/p^w) and K = cap + 1 + w.
        Let o = floor(self.n/p^w) be its old index and q = floor(m/p). The
        walk goes up from w = 0:

        - m = o: the level is unchanged, and so is every level above, since
          floor(n/p^(w+1)) = floor(m/p). The walk stops.
        - floor(o/p) = q: the new units o < u <= m are q p + a with 0 < a < p,
          all prime to p, so S(m) is S(o) plus their inverses. A level not
          yet built has o = 0 and holds S(0) = 0.
        - otherwise S(m) is S(q p) plus the inverses of q p < u <= m, with
          S(q p) in closed form. Every u < q p prime to p is j p + a with
          0 <= j < q and 0 < a < p, so S(q p) = sum_{j<q} T(j) with
          T(j) = sum_{a<p} 1/(j p + a). With x = j p / a in p Z_p,

            (1 + x) * sum_{t<K} (-x)^t = 1 - (-x)^K = 1 mod p^K,

        so 1/(j p + a) = a^-1 / (1 + x) = sum_{t<K} (-p)^t j^t a^-(t+1)
        mod p^K: at every integer j, T(j) is congruent mod p^K to a
        polynomial in j of degree < K with coefficients in Z_p. Newton's
        formula for that polynomial gives T(j) = sum_{s<K} D_s C(j, s)
        mod p^K with D_s = Delta^s T(0): the polynomial's own differences
        at 0 are integer combinations of its values at 0..s, which agree
        with T's mod p^K. As sum_{j<q} C(j, s) = C(q, s+1),

            S(q p) = sum_{s<K} C(q, s+1) D_s   (mod p^K).

        The D_s depend on the level only and are built once per level from
        T(0..K-1), in O(p K + K^2). A move then costs O(K + p) per level
        that changes, so the next index within a block costs one inverse.
        """
        if n < self.n:
            raise ValueError("advance_to cannot move back")
        p = self.p
        sums = self.sums
        m, o, w = n, self.n, 0
        while m != o:
            q = m // p
            if w == len(sums):
                sums.append(0)
            if o // p == q:
                total, start = sums[w], o
            else:
                total, start, binom = 0, q * p, q
                for s, d in enumerate(self._level(w)):
                    if not binom:
                        break
                    total += binom * d
                    binom = binom * (q - s - 1) // (s + 2)
            mod = p ** (self.cap + 1 + w)
            sums[w] = (total + _inverse_sum(range(start + 1, m + 1), mod)) % mod
            m, o, w = m // p, o // p, w + 1
        self.n = n

    def _level(self, w: int) -> list[int]:
        """Newton's table D_s = Delta^s T(0) for s < K of level w, mod p^K
        (K = cap + 1 + w), by K - 1 rounds of differencing T(0..K-1)."""
        while len(self._jump) <= w:
            p = self.p
            K = self.cap + 1 + len(self._jump)
            mod = p**K
            D = [_inverse_sum(range(j * p + 1, j * p + p), mod) for j in range(K)]
            for s in range(1, K):
                for j in range(K - 1, s - 1, -1):
                    D[j] = (D[j] - D[j - 1]) % mod
            self._jump.append(D)
        return self._jump[w]

    def _combined(self) -> tuple[int, int, int]:
        # (scaled residue, scale exponent W, modulus p^(W+cap+1))
        if self.n < 1:
            raise ValueError("no terms accumulated yet")
        scale = len(self.sums) - 1
        mod = self.p ** (scale + self.cap + 1)
        x = 0
        for w, t in enumerate(self.sums):
            x += self.p ** (scale - w) * t
        return x % mod, scale, mod

    def valuation(self, shifted: bool = False) -> tuple[int, bool]:
        """(v, capped): v = v_p(H_n) (or of H_n - 1), exact when v < cap;
        (cap, True) means the valuation is at least cap."""
        x, scale, mod = self._combined()
        if shifted:
            x = (x - self.p**scale) % mod
        v = vp_int(x, self.p)
        if v >= scale + self.cap:
            return self.cap, True
        return v - scale, False

    def scaled_residue(self, scale: int) -> int:
        """p^scale * H_n mod p^(scale+cap+1), for scale >= -cap where
        p^scale * H_n is p-integral. The levels give p^W H_n to cap + 1
        digits, and moving it to any such scale keeps them."""
        if scale < -self.cap:
            raise ValueError("scale must be at least -cap")
        x, W, _ = self._combined()
        shift = self.p ** abs(W - scale)
        if scale < W and x % shift:
            raise ValueError(f"p^{scale} H_n is not p-integral at this index")
        x = x // shift if scale < W else x * shift
        return x % self.p ** (scale + self.cap + 1)


def _inverse_sum(units: Iterable[int], mod: int) -> int:
    """The sum of 1/u over ``units`` mod ``mod``, over one common
    denominator, so one ``pow`` inverts it. Every u must be a unit mod
    ``mod``."""
    num, den = 0, 1
    for u in units:
        num = (num * u + den) % mod
        den = den * u % mod
    return num * pow(den, -1, mod) % mod


def _walk(stops: list[int]) -> Iterator[tuple[int, int, int]]:
    """(n, S, x) at each n of the ascending list ``stops``: S = lcm(1..n)
    and x = S H_n. One running sum goes from n = 0 to the last stop; a step
    to n scales S and x by q when n is a power of the prime q, then adds
    S / n. Its two integers have about 1.44 n bits, and it keeps no table."""
    top = max(stops, default=0)
    base = [1] * (top + 1)  # base[n] = q when n is a power of the prime q
    for q in primes_upto(top):
        power = q
        while power <= top:
            base[power] = q
            power *= q
    S, x, done = 1, 0, 0  # x = S H_done with S = lcm(1..done)
    for stop in stops:
        for n in range(done + 1, stop + 1):
            q = base[n]
            if q > 1:
                S *= q
                x *= q
            x += S // n
        done = stop
        yield stop, S, x


def _walked_valuation(x: int, p: int, cap: int) -> int:
    """min(v_p(H_{p-1}), cap) off x = S H_{p-1} from _walk: S is prime to p,
    since no factor of 1..p-1 is, so v_p(H_{p-1}) = v_p(x), read off x mod p^cap."""
    r = x % p**cap
    return vp_int(r, p) if r else cap


def _wolstenholme_scan(pmin: int, pmax: int, cap: int) -> Iterator[tuple[int, int]]:
    """(p, min(v_p(H_{p-1}), cap)) for every prime max(5, pmin) <= p <= pmax,
    ascending; cap >= 2 is taken on trust.

    The path is the cheaper one by a cost model in pairing steps. Pairing
    the window costs (p - 1) / 2 steps per prime of it. The _walk to pmax,
    stopping at each p - 1, costs about 1 + n / 500 steps at n, whose
    integers have about 1.44 n bits, so about pmax + pmax^2 / 1000 in all,
    whatever pmin is. Where the pairing is cheaper, a narrow window just
    below pmax, each prime is paired as a single prime is: pmin = 16800,
    pmax = 16900 takes 0.08 s walked and 0.02 s paired. At the rule's edge
    the two paths differ by at most about 40%.
    """
    lo = max(5, pmin)
    primes = [p for p in primes_upto(pmax) if p >= lo]
    if sum(p // 2 for p in primes) < pmax + pmax * pmax // 1000:
        for p in primes:
            yield p, _wolstenholme_pairing(p, cap)
        return
    for n, _, x in _walk([p - 1 for p in primes]):
        yield n + 1, _walked_valuation(x, n + 1, cap)


def _wolstenholme_pairing(p: int, cap: int) -> int:
    """min(v_p(H_{p-1}), cap) for a prime p >= 5 and cap >= 2.

    Pairing 1/e with 1/(p-e) gives H_{p-1} = p * T with T in Z_p, so the
    valuation is read off T modulo p^(cap-1); H_{p-1} itself is never built.
    T = sum_{e<p/2} 1/(e (p-e)) is summed over one common denominator.

    This is the route for every single prime, and for each prime of a
    sweep window narrow enough that its (p - 1) / 2 steps per prime cost
    less than walking one running sum to pmax (_wolstenholme_scan); over a
    wide window they add up to about pmax^2 / (4 ln pmax).
    """
    t = _inverse_sum((e * (p - e) for e in range(1, (p + 1) // 2)), p ** (cap - 1))
    if t == 0:
        return cap
    return min(1 + vp_int(t, p), cap)


def _indicator(p: int, N: int, shifted: bool, walked: int | None = None) -> int:
    """The indicator at a prime p of xi(N), or of omega(N) when shifted: 1
    iff p divides N (shifted: N = +-1 mod p) or p is a Wolstenholme prime,
    else 0. The second branch is false for p in {2, 3} by convention, and
    v_p(H_{p-1}) >= 3 fails there anyway (H_1 = 1, H_2 = 3/2). It reads
    ``walked``, S H_{p-1} off _walk, when given, and pairs otherwise."""
    if N % p in ((1, p - 1) if shifted else (0,)):
        return 1
    if walked is not None:
        return 1 if _walked_valuation(walked, p, 3) >= 3 else 0
    return 1 if p >= 5 and _wolstenholme_pairing(p, 3) >= 3 else 0
