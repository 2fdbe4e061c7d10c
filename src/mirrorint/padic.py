"""Exact p-adic valuations and the integer coefficient family ((Nm)!/m!^N)^k.

The valuation of zero is represented by ``math.inf``: a distinguished value
that compares greater than every integer, so membership tests of the form
``v_p(x) >= c`` accept x = 0 without special-casing.
"""

from __future__ import annotations

import math
from fractions import Fraction

INFINITE = math.inf

# Miller-Rabin with the primes up to 41 as witnesses is exact below psi_13,
# the least strong pseudoprime to all of them (Sorenson-Webster).
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Deterministic primality test for n < 3317044064679887385961981;
    ValueError from there up, where the fixed witnesses prove nothing."""
    if n < 2:
        return False
    if n >= _MR_LIMIT:
        raise ValueError(f"is_prime is exact only below {_MR_LIMIT}, got {n}")
    for q in _MR_WITNESSES:
        if n % q == 0:
            return n == q
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def primes_upto(n: int) -> list[int]:
    """All primes <= n, by a plain sieve of Eratosthenes."""
    if n < 2:
        return []
    sieve = bytearray([1]) * (n + 1)
    sieve[0] = sieve[1] = 0
    for i in range(2, math.isqrt(n) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytearray(len(range(i * i, n + 1, i)))
    return [i for i in range(2, n + 1) if sieve[i]]


def prime_divisors(n: int) -> list[int]:
    """The distinct primes dividing n, ascending, by trial division that stops
    once the cofactor is prime: is_prime tests it whenever it changes, if it
    is below _MR_LIMIT."""
    if n == 0:
        raise ValueError("every prime divides 0")
    n = abs(n)
    primes = []
    d = 2
    done = n < _MR_LIMIT and is_prime(n)
    while not done and d * d <= n:
        if n % d == 0:
            primes.append(d)
            while n % d == 0:
                n //= d
            done = n < _MR_LIMIT and is_prime(n)
        d += 1
    if n > 1:
        primes.append(n)
    return primes


def require_prime(p: int) -> None:
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")


def vp_int(n: int, p: int) -> int | float:
    """Valuation of an integer; INFINITE for n = 0. Assumes p prime, but
    raises ValueError for p < 2, where the loop would not end."""
    if p < 2:
        raise ValueError(f"p must be prime, got {p}")
    if n == 0:
        return INFINITE
    v = 0
    if n.bit_length() > 64:
        # A big n sheds p^24 at a time, and only its residue mod p^24, which
        # has the rest of the valuation, is trial-divided: a division by p
        # costs a pass over n's digits, one of the small residue does not.
        q = p**24
        r = n % q
        while not r:
            n //= q
            v += 24
            r = n % q
        n = r
    while n % p == 0:
        n //= p
        v += 1
    return v


def vp_rational(x: Fraction | int, p: int) -> int | float:
    """v_p(x) for an exact rational; INFINITE for x = 0."""
    require_prime(p)
    x = Fraction(x)
    if x == 0:
        return INFINITE
    return vp_int(x.numerator, p) - vp_int(x.denominator, p)


def _validate_b_params(N: int, k: int, m: int) -> None:
    if N < 1:
        raise ValueError("N must be a positive integer")
    if k < 1:
        raise ValueError("k must be a positive integer")
    if m < 0:
        raise ValueError("m must be non-negative")


def big_B_sequence(N: int, k: int, m_max: int) -> list[int]:
    """A new list of the values ((Nm)!/m!^N)^k for m = 0..m_max, built by
    the exact ratio B(m)/B(m-1) so repeated factorials are never
    reconstructed."""
    _validate_b_params(N, k, m_max)
    row = [1]
    for m in range(1, m_max + 1):
        ratio_num = math.prod(range(N * (m - 1) + 1, N * m + 1))
        value, rem = divmod(row[-1] * ratio_num**k, m ** (N * k))
        if rem:
            raise ArithmeticError("coefficient ratio did not divide exactly")
        row.append(value)
    return row


def vp_big_B(N: int, k: int, m: int, p: int) -> int:
    """v_p of ((Nm)!/m!^N)^k via the Legendre double sum, never touching the
    factorials themselves. Assumes p prime, but raises ValueError for p < 2,
    where the loop would not end."""
    if p < 2:
        raise ValueError(f"p must be prime, got {p}")
    _validate_b_params(N, k, m)
    total = 0
    q = p
    while q <= N * m:
        total += (N * m) // q - N * (m // q)
        q *= p
    return k * total


def big_B_units(N: int, k: int, m_max: int, p: int, exponent: int) -> list[tuple[int, int]]:
    """Rows (v_p(B(m)), B(m)/p^v mod p^exponent) of B(m) = ((Nm)!/m!^N)^k
    for m = 0..m_max.

    Built by the ratio B(m)/B(m-1) = (prod_{i=1}^{N} (N(m-1)+i) / m^N)^k with
    every factor split into its p-part and its unit: O(N m_max) products
    below p^exponent, never a factorial or a B(m).
    """
    require_prime(p)
    _validate_b_params(N, k, m_max)
    if exponent < 1:
        raise ValueError("exponent must be positive")
    mod = p**exponent
    v, unit = 0, 1  # of the k = 1 multinomial (Nm)!/m!^N
    rows = [(0, 1)]
    for m in range(1, m_max + 1):
        d = m
        while d % p == 0:
            d //= p
            v -= N
        unit = unit * pow(d, -N, mod) % mod
        for n in range(N * (m - 1) + 1, N * m + 1):
            while n % p == 0:
                n //= p
                v += 1
            unit = unit * n % mod
        rows.append((k * v, pow(unit, k, mod)))
    return rows
