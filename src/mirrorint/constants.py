"""The arithmetic constants governing maximal integral roots of the maps:
the harmonic denominator theta(N), the capped valuation products xi(N) and
omega(N), each prime's indicator in their breakdowns, and the sequences
t_N = xi(N) * N!^k and u_N = omega(N) * N!, the conjectured maximal roots
for k = 1. For k >= 2, t_N divides every computed maximal root and can be
a proper divisor of it.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from fractions import Fraction
from typing import NamedTuple

from .harmonic import _indicator, _walk
from .padic import primes_upto, vp_int
from .series import _int_str_digits

BRANCH_CAP = "cap"
BRANCH_VALUATION = "valuation"


class DegenerateCase(ValueError):
    """A parameter choice for which the quantity degenerates rather than
    taking a value (e.g. the shifted map at N = 1 is identically 1)."""


class PrimeFactor(NamedTuple):
    p: int
    exponent: int
    indicator: int
    branch: str

    def to_json(self) -> dict:
        return {
            "p": self.p,
            "e": self.exponent,
            "indicator": self.indicator,
            "branch": self.branch,
        }


class Breakdown(NamedTuple):
    """Per-prime factorisation of one capped valuation product.

    ``exponent = min(2 + indicator, v_p(w))`` for every listed prime, with
    w = H_N for xi and H_N - 1 for omega, except in the hard-coded special
    case (see ``xi``).
    """

    N: int
    factors: tuple[PrimeFactor, ...]
    product: Fraction
    special_case: bool = False

    def exponent_of(self, p: int) -> int:
        for f in self.factors:
            if f.p == p:
                return f.exponent
        return 0

    def to_json(self) -> dict:
        with _int_str_digits(0):
            product = str(self.product)
        return {
            "N": self.N,
            "product": product,
            "factors": [f.to_json() for f in self.factors],
            "special_case": self.special_case,
        }


def _breakdown(N: int, shifted: bool) -> Breakdown:
    # One _walk gives each prime p <= N its Wolstenholme flag at p - 1,
    # then the weight x = S H_N, or x - S when shifted, at N.
    primes = primes_upto(N)
    indicators = []
    for n, S, x in _walk([p - 1 for p in primes] + [N]):
        if n < N:
            indicators.append(_indicator(n + 1, N, shifted, x))
    weight = x - S if shifted else x
    factors = []
    for p, ind in zip(primes, indicators):
        v = vp_int(weight, p) - vp_int(S, p)
        branch = BRANCH_CAP if 2 + ind <= v else BRANCH_VALUATION
        factors.append(PrimeFactor(p, min(2 + ind, v), ind, branch))
    product = _product((f.p, f.exponent) for f in factors)
    return Breakdown(N=N, factors=tuple(factors), product=product)


def _product(exponents: Iterable[tuple[int, int]]) -> Fraction:
    num = den = 1
    for p, e in exponents:
        if e > 0:
            num *= p**e
        elif e < 0:
            den *= p**-e
    return Fraction(num, den)


# xi(7) differs from the generic product by dropping the factor 3; the value
# is pinned and the breakdown records the literal exponents of 1/140.
_XI_7 = Fraction(1, 140)
_XI_7_EXPONENTS = {2: -2, 3: 0, 5: -1, 7: -1}


def xi(N: int) -> Breakdown:
    """The product over primes p <= N of p^min(2 + indicator, v_p(H_N)),
    with the hard-coded special values xi(1) = 1 and xi(7) = 1/140."""
    if N < 1:
        raise ValueError("N must be a positive integer")
    if N == 1:
        return Breakdown(N=1, factors=(), product=Fraction(1))
    if N == 7:
        factors = tuple(
            PrimeFactor(p, e, _indicator(p, 7, False), BRANCH_VALUATION)
            for p, e in sorted(_XI_7_EXPONENTS.items())
        )
        return Breakdown(N=7, factors=factors, product=_XI_7, special_case=True)
    return _breakdown(N, False)


def omega(N: int) -> Breakdown:
    """The product over primes p <= N of p^min(2 + indicator,
    v_p(H_N - 1)); defined for N >= 2."""
    if N < 2:
        raise ValueError("N must be at least 2")
    return _breakdown(N, True)


def theta(N: int) -> int:
    """Denominator of H_N in lowest terms.

    Cross-checked on every call against the valuation product
    prod_{p <= N} p^(-min(0, v_p(H_N))).
    """
    if N < 1:
        raise ValueError("N must be a positive integer")
    ((_, S, x),) = _walk([N])
    den = S // math.gcd(x, S)
    product = 1
    for p in primes_upto(N):
        v = vp_int(x, p) - vp_int(S, p)
        if v < 0:
            product *= p ** (-v)
    if product != den:
        raise ArithmeticError("valuation product disagrees with the denominator")
    return den


def t_conjectured(N: int, k: int = 1) -> tuple[Fraction, bool]:
    """xi(N) * N!^k and whether it is a positive integer.

    Integrality is verified, not assumed; a False flag is a reportable
    finding, never an exception.
    """
    if k < 1:
        raise ValueError("k must be a positive integer")
    value = xi(N).product * Fraction(math.factorial(N)) ** k
    return value, value.denominator == 1 and value > 0


def u_conjectured(N: int) -> tuple[Fraction, bool]:
    """omega(N) * N! and whether it is a positive integer.

    N = 1 is degenerate: the shifted map is identically 1 there, every root
    is integral, and no finite maximal root exists.
    """
    if N < 1:
        raise ValueError("N must be a positive integer")
    if N == 1:
        raise DegenerateCase(
            "degenerate for N = 1: the series is identically 1 and every root "
            "of it is integral"
        )
    value = omega(N).product * math.factorial(N)
    return value, value.denominator == 1 and value > 0
