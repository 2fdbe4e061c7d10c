"""Truncated formal power series over exact rationals, the integer rows of
the hypergeometric series F, G, G_L, G-tilde, their canonical coordinates
exp(G/F), and certification of maximal integral roots.

Every series carries an explicit truncation order M: coefficients 0..M are
exact and nothing is claimed beyond. Arithmetic propagates the tightest
order still fully determined by the operands, so a "pass" is always a
certificate to a stated order while any violation found is unconditional.
No floating point is used anywhere.
"""

from __future__ import annotations

import contextlib
import math
import sys
from fractions import Fraction
from itertools import chain, compress, repeat
from operator import mul, or_
from typing import Iterable, Iterator, NamedTuple, Sequence, Union

from .harmonic import scaled_weights
from .padic import big_B_sequence, prime_divisors, require_prime, vp_int

Coeff = Union[int, Fraction]

KIND_QN = "qN"
KIND_QLN = "qLN"
KIND_QTILDE = "qtilde"
CANONICAL_KINDS = (KIND_QN, KIND_QLN, KIND_QTILDE)

STATUS_CERTIFIED = "certified"


class PSeries:
    """A power series known exactly up to (and including) its order."""

    __slots__ = ("_c",)

    def __init__(self, coefficients: Iterable[Coeff], order: int | None = None):
        c = [x if type(x) is Fraction else Fraction(x) for x in coefficients]
        if order is not None:
            if order < 0:
                raise ValueError("order must be non-negative")
            c = c[: order + 1] + [Fraction(0)] * (order + 1 - len(c))
        elif not c:
            raise ValueError("an empty coefficient list needs an explicit order")
        self._c = tuple(c)

    @property
    def order(self) -> int:
        return len(self._c) - 1

    @property
    def coefficients(self) -> tuple[Fraction, ...]:
        return self._c

    def __getitem__(self, i: int) -> Fraction:
        if not 0 <= i <= self.order:
            raise IndexError(f"coefficient {i} is beyond the truncation order")
        return self._c[i]

    def _coerce(self, other) -> "PSeries | None":
        if isinstance(other, PSeries):
            return other
        if isinstance(other, (int, Fraction)):
            return PSeries([other], order=self.order)
        return None

    def __eq__(self, other) -> bool:
        # Equality is coefficientwise up to the common truncation order.
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        m = min(self.order, rhs.order)
        return self._c[: m + 1] == rhs._c[: m + 1]

    __hash__ = None

    def __neg__(self) -> "PSeries":
        return PSeries([-x for x in self._c])

    def __add__(self, other) -> "PSeries":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        m = min(self.order, rhs.order)
        return PSeries([self._c[i] + rhs._c[i] for i in range(m + 1)])

    __radd__ = __add__

    def __sub__(self, other) -> "PSeries":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return self.__add__(-rhs)

    def __rsub__(self, other) -> "PSeries":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return rhs.__add__(-self)

    def __mul__(self, other) -> "PSeries":
        if isinstance(other, (int, Fraction)):
            return PSeries([x * other for x in self._c])
        if not isinstance(other, PSeries):
            return NotImplemented
        m = min(self.order, other.order)
        a, da = _over_lcm(self._c[: m + 1])
        b, db = _over_lcm(other._c[: m + 1])
        return PSeries(
            Fraction(sum(map(mul, a[: n + 1], b[n::-1])), da * db)
            for n in range(m + 1)
        )

    __rmul__ = __mul__

    def __truediv__(self, other) -> "PSeries":
        if isinstance(other, (int, Fraction)):
            if other == 0:
                raise ZeroDivisionError("division by zero scalar")
            return PSeries([x / other for x in self._c])
        if not isinstance(other, PSeries):
            return NotImplemented
        if other._c[0] == 0:
            raise ValueError("division requires a nonzero constant term")
        m = min(self.order, other.order)
        return PSeries(_solve(self._c[: m + 1], other._c, [other._c[0]] * (m + 1)))

    def __repr__(self) -> str:
        head = ", ".join(str(x) for x in self._c[:6])
        tail = ", ..." if self.order >= 6 else ""
        return f"PSeries([{head}{tail}], order={self.order})"

    def to_json(self) -> dict:
        with _int_str_digits(0):
            coefficients = [str(x) for x in self._c]
        return {"order": self.order, "coefficients": coefficients}


@contextlib.contextmanager
def _int_str_digits(limit: int):
    """Python's int->str digit limit set to `limit` (0: none) for a block,
    on interpreters that have the limit. Exact coefficients can have more
    digits than the default limit of 4300 allows."""
    set_limit = getattr(sys, "set_int_max_str_digits", None)
    if set_limit is None:
        yield
        return
    saved = sys.get_int_max_str_digits()
    set_limit(limit)
    try:
        yield
    finally:
        set_limit(saved)


def _over_lcm(c: tuple[Fraction, ...]) -> tuple[list[int], int]:
    """Integer numerators of c over the lcm of its denominators, and that lcm."""
    d = math.lcm(*(x.denominator for x in c))
    return [x.numerator * (d // x.denominator) for x in c], d


def _push(ints: list[int], lcm: int, x: Coeff) -> int:
    """Append x to ints, integers over their running lcm; the new lcm. A
    rescale is in place, so a long list is never held twice."""
    g = x.denominator // math.gcd(lcm, x.denominator)
    if g > 1:
        lcm *= g
        for i, v in enumerate(ints):
            ints[i] = v * g
    ints.append(x.numerator * (lcm // x.denominator))
    return lcm


def _solve(
    u: Sequence[Coeff], w: Iterable[Coeff], pivots: Sequence[Coeff]
) -> Iterator[Fraction]:
    """Yield out[n] = (u[n] - sum_{0<i<=n} w[i] out[n-i]) / pivots[n], n < len(u),
    reading w one term per step: w[n] just before out[n]. The outputs and the
    w read so far are integers over their own running lcms, so each step is
    one integer dot product and one reduced Fraction."""
    out, lcm, ws, dw = [], 1, [], 1
    for un, wn, pivot in zip(u, w, pivots):
        dw = _push(ws, dw, wn)
        acc = un.numerator * lcm * dw - sum(map(mul, out, ws[:0:-1])) * un.denominator
        x = Fraction(acc * pivot.denominator, un.denominator * lcm * dw * pivot.numerator)
        lcm = _push(out, lcm, x)
        yield x


def ps_exp(s: PSeries) -> PSeries:
    """exp of a series with zero constant term, by exp_quotient's kernel."""
    if s[0] != 0:
        raise ValueError("ps_exp requires a zero constant term")
    return PSeries(_exp(s.coefficients, s.order, 1))


def _exp(h: Iterable[Fraction], m: int, r: int) -> Iterator[Fraction]:
    # r n e[n] = sum_{j=1..n} j h[j] e[n-j], with e[0] = 1, for exp(h / r).
    w = (-j * x for j, x in enumerate(h))
    return _solve([1] + [0] * m, w, [1] + [n * r for n in range(1, m + 1)])


def exp_quotient(
    g: Sequence[Coeff], f: Sequence[Coeff], r: int
) -> Iterator[Fraction]:
    """Coefficients of exp(g / (r f)) to the common order, one at a time, for
    sequences g and f of ints or Fractions: step n of the quotient g / f
    feeds step n of exp, so a caller that stops at index n has paid for
    coefficients 0..n of each and nothing beyond."""
    if g[0] != 0:
        raise ValueError("exp_quotient requires g with zero constant term")
    if f[0] == 0:
        raise ValueError("division requires a nonzero constant term")
    if r == 0:
        raise ValueError("exp_quotient requires a nonzero r")
    m = min(len(g), len(f)) - 1
    return _exp(_solve(g[: m + 1], f, [f[0]] * (m + 1)), m, r)


def ps_log(s: PSeries) -> PSeries:
    """log of a series with constant term 1: the integral of s' / s."""
    if s[0] != 1:
        raise ValueError("ps_log requires constant term 1")
    c = s.coefficients
    quotient = _solve([n * c[n] for n in range(1, len(c))], c, [1] * s.order)
    return PSeries([0, *(x / n for n, x in enumerate(quotient, 1))])


def ps_pow(s: PSeries, exponent: Coeff) -> PSeries:
    """s**exponent for any exact rational exponent, via exp(exponent*log s);
    requires constant term 1."""
    if s[0] != 1:
        raise ValueError("ps_pow requires constant term 1")
    return ps_exp(ps_log(s) * Fraction(exponent))


def ps_revert(s: PSeries) -> PSeries:
    """Compositional inverse of s = z + O(z^2) with unit linear coefficient,
    by Lagrange inversion: [q^n] inverse = (1/n) [z^(n-1)] (z/s)^n."""
    if s[0] != 0 or s.order < 1 or s[1] != 1:
        raise ValueError("ps_revert requires s = z + O(z^2) with linear coefficient 1")
    m = s.order
    w = PSeries([1], order=m - 1) / PSeries(s.coefficients[1:])
    out = [Fraction(0), Fraction(1)]
    power = w
    for n in range(2, m + 1):
        power = power * w
        out.append(power[n - 1] / n)
    return PSeries(out)


def integrality_check(s: PSeries) -> int | None:
    """Index of the first non-integral coefficient, or None when every
    coefficient up to the order is an integer."""
    for i, x in enumerate(s.coefficients):
        if x.denominator != 1:
            return i
    return None


def _weighted_row(
    L: int, N: int, k: int, order: int, shifted: bool
) -> tuple[list[int], list[int], int]:
    """(b, bw, S): b[m] = ((Nm)!/m!^N)^k and bw[m] = S b[m] w(m) for
    m <= order, with S w the weights of scaled_weights(L, ., shifted) and
    S = lcm(1..L order) their scale. big_B_sequence checks N, k and order
    before any weight is built."""
    b = big_B_sequence(N, k, order)
    w, S = scaled_weights(L, range(order + 1), shifted)
    return b, [x * w[m] for m, x in enumerate(b)], S


def canonical_parts(
    kind: str, N: int, k: int = 1, L: int | None = None, order: int = 25
) -> tuple[list[int], list[int], int]:
    """Integer rows (G, F) to the order and their scale d, with G / (d F) the
    logarithm of the canonical coordinate:

    qLN     G / d = G_L, requires L
    qN      G / d = G = kN G-tilde, the log of z^{-1} q(z)
    qtilde  G / d = G-tilde, the log of (z^{-1} q(z))^{1/kN}

    F[m] = ((Nm)!/m!^N)^k, and G is F weighted by the harmonic weights of
    scaled_weights on their scale d = lcm(1..L order), L = N for qN and
    qtilde. Only qLN reads L, so the other kinds reject one.
    """
    if kind == KIND_QLN:
        if L is None:
            raise ValueError("qLN requires L")
        if L < 1:
            raise ValueError("L must be a positive integer")
        F, G, d = _weighted_row(L, N, k, order, shifted=False)
    elif L is not None and kind in CANONICAL_KINDS:
        raise ValueError(f"{kind} takes no L; only qLN reads it")
    elif kind in (KIND_QN, KIND_QTILDE):
        F, G, d = _weighted_row(N, N, k, order, shifted=True)
        if kind == KIND_QN:
            G = [k * N * x for x in G]
    else:
        raise ValueError(f"kind must be one of {CANONICAL_KINDS}")
    return G, F, d


def canonical_q(
    kind: str, N: int, k: int = 1, L: int | None = None, order: int = 25
) -> PSeries:
    """Canonical coordinates exp(G / (d F)) of canonical_parts(...), constant
    term 1."""
    return PSeries(exp_quotient(*canonical_parts(kind, N, k, L, order)))


class RootPrime(NamedTuple):
    p: int
    exponent: int
    witness: int | None

    def to_json(self) -> dict:
        return {"p": self.p, "e": self.exponent, "witness": self.witness}


class RootCertificate(NamedTuple):
    """Maximal integral root search outcome, valid to the stated order.

    For each listed prime, s^(1/p^e) is p-integral to the order while the
    witness index carries a coefficient of s^(1/p^(e+1)) with negative
    valuation; the integrality half is a truncation certificate, each
    witness is an unconditional fact. max_root lists the primes up to the
    order that divide the first nonzero non-constant coefficient, and the
    primes above the order that divide V.
    """

    order: int
    primes: tuple[RootPrime, ...]
    V: int
    status: str
    degenerate: bool = False

    def to_json(self) -> dict:
        with _int_str_digits(0):
            V = str(self.V)
        return {
            "order": self.order,
            "primes": [f.to_json() for f in self.primes],
            "V": V,
            "status": self.status,
            "degenerate": self.degenerate,
        }


def max_root(s: PSeries) -> RootCertificate:
    """Largest V (to the truncation order M) with s^(1/V) integral.

    With h = log s and D = h(z^p) - p h(z), the exponent of p is
    e = max(0, min_{1<=i<=M} v_p(D_i) - 1), and the witness is the first i
    with v_p(D_i) < e + 2:

    - That i is the first non-p-integral index of F = exp(h / tau) with
      tau = p^(e+1). By the Dieudonne-Dwork lemma truncated at n,
      coefficients 1..n of F are p-integral iff those of F(z^p) / F(z)^p =
      exp(D / tau) lie in p Z_p; exp and log keep p z Z_p[[z]] order by
      order, so iff those of D lie in p tau Z_p = p^(e+2) Z_p. This is
      dwork_criterion(1, h, tau, p), and e is the least exponent failing it.
    - D is read in place, D_i = [p | i] h_{i/p} - p h_i, so each prime
      costs O(M) coefficients and h(z^p) is never built.

    The candidate primes are those of gcd(c, Gamma M!), with c the first
    nonzero non-constant coefficient, at index ``first``, and Gamma =
    gcd(i h_i : 1 <= i <= M); c itself is never factored:

    - s is a unit of Z[[z]], so every i h_i, a coefficient of z s' / s, is
      an integer. Gamma is not 0, because h_first = c.
    - h(z^p) vanishes below index p * first, so D_first = -p c for every
      p: e <= v_p(c), and a prime with e >= 1 divides c.
    - For p > M no index in 1..M is divisible by p, so D_i = -p h_i,
      v_p(h_i) = v_p(i h_i) and e = v_p(Gamma): such a prime is a candidate
      iff it divides V. The primes <= M that divide c divide M!, so they
      are all candidates.

    So prime_divisors of the gcd strips the primes <= M within M trial
    divisors, and what is left divides V. Each listed prime is a prime
    <= M dividing c, or a prime above M dividing V; a prime above M with
    e = 0 is not listed. Trial division stops at a prime cofactor: V's part
    above M costs one is_prime if it is a prime below is_prime's limit,
    and trial division at most to its square root otherwise. Canonical maps
    at order M >= 2N have no such part (checked for N <= 8, k <= 3, M <= 20).
    """
    if s[0] != 1:
        raise ValueError("max_root requires constant term 1")
    bad = integrality_check(s)
    if bad is not None:
        raise ValueError(f"series has a non-integral coefficient at index {bad}")
    first = next((i for i in range(1, s.order + 1) if s[i] != 0), None)
    if first is None:
        return RootCertificate(
            order=s.order, primes=(), V=1, status=STATUS_CERTIFIED, degenerate=True
        )
    h, M = ps_log(s).coefficients, s.order
    gamma = math.gcd(*(int(i * x) for i, x in enumerate(h[1:], 1)))
    primes = []
    V = 1
    for p in prime_divisors(math.gcd(int(s[first]), gamma * math.factorial(M))):
        D = ((h[i // p] if i % p == 0 else 0) - p * h[i] for i in range(1, M + 1))
        v = [vp_int(x.numerator, p) - vp_int(x.denominator, p) for x in D]
        e = max(0, min(v) - 1)
        witness = 1 + next(i for i, vi in enumerate(v) if vi < e + 2)
        primes.append(RootPrime(p, e, witness))
        V *= p**e
    return RootCertificate(
        order=s.order, primes=tuple(primes), V=V, status=STATUS_CERTIFIED
    )


def _dwork_modulus(p: int, r: int) -> int:
    return p ** (1 + vp_int(r, p))


def _dwork_difference(
    f: Sequence[int], G: Sequence[int], p: int, lo: int, hi: int
) -> list[int]:
    """The column D[lo:hi] of D = f G(z^p) - p f(z^p) G, for integer lists f
    and G of at least hi entries; [] when hi <= lo. With g = G/d and
    r = d tau, it is read mod q = _dwork_modulus(p, r) for Dwork's criterion
    for exp(g / (tau f)) at p, on f and G reduced mod q.

    D[i] = sum_j G[j] f[i - jp] - p f[j] G[i - jp] over the stride terms
    j <= (hi - 1) // p. A term is dead when G[j] = f[j] = 0, as many are on
    residues mod p^e: v_p(B(m)) counts the carries of Kummer's theorem. The
    form is chosen from the inputs alone. When some term is dead, or there
    are fewer terms than p, the pass form skips the dead terms and sums the
    live ones over the whole column in one C-level pass. Otherwise, on rows
    with no zero such as B and its weighted lists, the index form reads
    each D[i] as two dot products over stride-p slices, which costs less
    per product than the pass form."""
    if hi <= lo:
        return []
    terms = (hi - 1) // p + 1
    live = list(compress(range(terms), map(or_, f[:terms], G[:terms])))
    if len(live) < terms or terms < p:
        return _dwork_passes(f, G, p, lo, hi, live)
    return _dwork_dots(f, G, p, lo, hi)


def _dwork_passes(
    f: Sequence[int], G: Sequence[int], p: int, lo: int, hi: int, live: list[int]
) -> list[int]:
    # The pass form of _dwork_difference. Term j reaches i >= max(lo, jp):
    # its parts G[j] f and -p f[j] G are lazy rows over the column, zero
    # below that index, and one pass of sum over the rows adds them up.
    rows = [repeat(0, hi - lo)]
    for j in live:
        start = max(lo, j * p)
        a, b, pad = start - j * p, hi - j * p, start - lo
        if G[j]:
            rows.append(chain(repeat(0, pad), map(mul, f[a:b], repeat(G[j]))))
        if f[j]:
            rows.append(chain(repeat(0, pad), map(mul, G[a:b], repeat(-p * f[j]))))
    return list(map(sum, zip(*rows)))


def _dwork_dots(
    f: Sequence[int], G: Sequence[int], p: int, lo: int, hi: int
) -> list[int]:
    # The index form of _dwork_difference.
    return [
        sum(map(mul, G, f[i::-p])) - p * sum(map(mul, f, G[i::-p]))
        for i in range(lo, hi)
    ]


def first_nonintegral(G: Sequence[int], F: Sequence[int], r: int) -> int | None:
    """Index of the first non-integral coefficient of exp(G / (r F)) to the
    common order M, or None; G and F integer rows, F[0] = 1, G[0] = 0, r >= 1.
    Any common scale serves: g = G/d gives exp(g / (tau F)) at r = d tau.

    The index is the least over primes p of Dwork's criterion's violating
    index, and nothing is expanded:

    - For p > i, F(z^p) = 1 and G(z^p) = 0 to order i, so the difference is
      -p G[i] and the criterion reads v_p(G[i] / r) >= 0. One pass finds the
      first i whose G[i] / r keeps a denominator factor once the primes
      <= i are stripped from it by gcds with their product. Neither r nor a
      denominator is ever factored, which is how primes above M are handled.
    - Each p below the best index so far reads the column [p, best) of
      _dwork_difference on residues mod q = p^(1 + v_p(r)), and its first
      entry not divisible by q becomes the best index. Many residues are
      zero, so the column is mostly built in the pass form.
    """
    if r < 1:
        raise ValueError("r must be a positive integer")
    if F[0] != 1:
        raise ValueError("F must have constant term 1")
    if G[0] != 0:
        raise ValueError("G must have zero constant term")
    m = min(len(G), len(F)) - 1
    best, primes, primorial = m + 1, [], 1
    for i in range(1, m + 1):
        # primorial is the product of the primes below i.
        if i > 1 and math.gcd(i, primorial) == 1:
            primes.append(i)
            primorial *= i
        # The denominator of G[i] / r.
        den = r // math.gcd(G[i], r)
        while (c := math.gcd(den, primorial)) > 1:
            den //= c
        if den > 1:
            best = i
            break
    moduli = {p: _dwork_modulus(p, r) for p in primes if p < best}
    # One reduction mod the product of all moduli shrinks the coefficients
    # that every prime reduces again.
    Q = math.prod(moduli.values())
    fi = [x % Q for x in F[:best]]
    G = [x % Q for x in G[:best]]
    for p, q in moduli.items():
        fq, Gq = [x % q for x in fi[:best]], [x % q for x in G[:best]]
        column = _dwork_difference(fq, Gq, p, p, best)
        best = next((i for i, x in enumerate(column, p) if x % q), best)
    return best if best <= m else None


def dwork_criterion(
    f: PSeries, g: PSeries, tau: int, p: int
) -> tuple[bool, int | None]:
    """Whether f(z) g(z^p) - p f(z^p) g(z) lies in p*tau*z*Z_p[[z]] up to the
    common order; on failure also the first violating index.

    With f in 1 + z Z[[z]] and g in z Q[[z]] this holds exactly when
    exp(g / (tau f)) has p-integral coefficients, order by order: the first
    violating index is that of exp's first non-p-integral coefficient. It
    is read off the column [1, M] of _dwork_difference on residues.
    """
    require_prime(p)
    if tau < 1:
        raise ValueError("tau must be a positive integer")
    if f[0] != 1:
        raise ValueError("f must have constant term 1")
    bad = integrality_check(f)
    if bad is not None:
        raise ValueError(f"f must have integral coefficients (index {bad})")
    if g[0] != 0:
        raise ValueError("g must have zero constant term")
    m = min(f.order, g.order)
    G, d = _over_lcm(g.coefficients[: m + 1])
    q = _dwork_modulus(p, d * tau)
    fq, Gq = [x.numerator % q for x in f.coefficients[: m + 1]], [x % q for x in G]
    column = _dwork_difference(fq, Gq, p, 1, m + 1)
    i = next((i for i, x in enumerate(column, 1) if x % q), None)
    return i is None, i
