"""Exact integer arithmetic underneath every tiling criterion: deterministic
primality, factorization with divisor enumeration, bounded discrete logarithms,
and the quadratic/quartic residue characters of Z_q.

Everything here is a pure function of its arguments.  Inputs are capped at
64 bits; group orders in this project stay far below that, but the cap keeps
the deterministic primality guarantee honest.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import IntEnum
from functools import lru_cache

__all__ = [
    "Factorization",
    "QuarticClass",
    "discrete_log",
    "factorize",
    "gcd",
    "is_prime",
    "legendre",
    "primes_upto",
    "quartic_class",
    "sqrt_minus_one",
]

gcd = math.gcd

_UINT64_MAX = 2**64 - 1

# Witness set proven sufficient for all 64-bit integers.
_MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

_TRIAL_LIMIT = 10**6


def _check_range(m: int, what: str = "m") -> None:
    if m < 1:
        raise ValueError(f"{what} must be a positive integer, got {m}")
    if m > _UINT64_MAX:
        raise ValueError(f"{what} must fit in 64 bits, got {m}")


@lru_cache(maxsize=1 << 16)
def is_prime(m: int) -> bool:
    """Deterministic Miller-Rabin primality test for 64-bit integers.

    Cached: the criteria re-test the same group orders constantly, and
    legendre/quartic_class validate their modulus on every call.
    """
    _check_range(m)
    if m < 2:
        return False
    for p in _MILLER_RABIN_BASES:
        if m % p == 0:
            return m == p
    d = m - 1
    r = (d & -d).bit_length() - 1
    d >>= r
    for a in _MILLER_RABIN_BASES:
        x = pow(a, d, m)
        if x == 1 or x == m - 1:
            continue
        for _ in range(r - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


def primes_upto(limit: int) -> list[int]:
    """All primes <= limit, ascending."""
    if limit < 2:
        return []
    sieve = bytearray([1]) * (limit + 1)
    sieve[0] = sieve[1] = 0
    for i in range(2, math.isqrt(limit) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytearray(len(range(i * i, limit + 1, i)))
    return [i for i in range(2, limit + 1) if sieve[i]]


@dataclass(frozen=True)
class Factorization:
    """Prime factorization as (prime, exponent) pairs with primes ascending."""

    value: int
    factors: tuple[tuple[int, int], ...]

    def __post_init__(self):
        prod = 1
        last = 1
        for p, e in self.factors:
            if p <= last:
                raise ValueError("factor primes must be strictly increasing")
            if e < 1:
                raise ValueError(f"exponent of {p} must be >= 1, got {e}")
            if not is_prime(p):
                raise ValueError(f"factor {p} is not prime")
            prod *= p**e
            last = p
        if prod != self.value:
            raise ValueError(f"factors multiply to {prod}, not {self.value}")

    def divisors(self) -> list[int]:
        """All positive divisors of the value, ascending."""
        divs = [1]
        for p, e in self.factors:
            pk = 1
            block = []
            for _ in range(e):
                pk *= p
                block.extend(d * pk for d in divs)
            divs.extend(block)
        return sorted(divs)


def factorize(m: int) -> Factorization:
    """Factor a positive 64-bit integer.

    Trial division runs through 10**6 (enough to finish any value this
    project produces); a deterministic Brent-rho fallback splits whatever
    survives, so arbitrary 64-bit inputs still factor correctly.
    """
    _check_range(m)
    value = m
    out: list[tuple[int, int]] = []
    for p in (2, 3, 5):
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            out.append((p, e))
    i = 7
    wheel = (4, 2, 4, 2, 4, 6, 2, 6)
    w = 0
    while i <= _TRIAL_LIMIT and i * i <= m:
        if m % i == 0:
            e = 0
            while m % i == 0:
                m //= i
                e += 1
            out.append((i, e))
        i += wheel[w]
        w = (w + 1) % 8
    if m > 1:
        if i * i > m or is_prime(m):
            out.append((m, 1))
        else:
            rest: dict[int, int] = {}
            _rho_split(m, rest)
            out.extend(sorted(rest.items()))
    out.sort()
    return Factorization(value, tuple(out))


def _rho_split(n: int, acc: dict[int, int]) -> None:
    if is_prime(n):
        acc[n] = acc.get(n, 0) + 1
        return
    d = _brent_rho(n)
    _rho_split(d, acc)
    _rho_split(n // d, acc)


def _brent_rho(n: int) -> int:
    # n is an odd composite with no prime factor <= 10**6.  The polynomial
    # increment c walks a fixed sequence, so the result is deterministic.
    for c in range(1, 100):
        y, r, q = 2, 1, 1
        g, x, ys = 1, 0, 0
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += 128
            r <<= 1
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g
    raise ArithmeticError(f"failed to split {n}")


def discrete_log(base: int, target: int, q: int, bound: int) -> int | None:
    """Smallest t with 0 <= t < bound and base**t = target (mod q), or None.

    Shanks's baby-step giant-step: with m = ceil(sqrt(bound)), the baby
    steps map base**j to j for j < m, and giant step i looks up
    target * base**(-m*i).  The first giant step that hits gives the
    smallest t = m*i + j; the baby-step table keeps the smallest j of a
    repeated power, so a base of order below m still does.  About
    2*sqrt(bound) multiplications in all.  base must be a unit mod q, else
    ValueError.
    """
    if gcd(base, q) != 1:
        raise ValueError(f"base={base} shares a factor with q={q}")
    if bound <= 0:
        return None
    m = math.isqrt(bound - 1) + 1
    baby: dict[int, int] = {}
    power = 1 % q
    for j in range(m):
        baby.setdefault(power, j)
        power = power * base % q
    stride = pow(base, -m, q)
    y = target % q
    for i in range(0, bound, m):
        j = baby.get(y)
        if j is not None:
            return i + j if i + j < bound else None
        y = y * stride % q
    return None


def legendre(a: int, p: int) -> int:
    """Legendre symbol (a|p) via Euler's criterion.

    Returns +1 when a is a nonzero square mod p, -1 when it is not,
    and 0 when p divides a.  p must be an odd prime.
    """
    if p < 3 or p % 2 == 0 or not is_prime(p):
        raise ValueError(f"p must be an odd prime, got {p}")
    a %= p
    if a == 0:
        return 0
    t = pow(a, (p - 1) // 2, p)
    return 1 if t == 1 else -1


class QuarticClass(IntEnum):
    """Exponent j with chi(a) = i**j under the canonical order-4 character."""

    ONE = 0
    I = 1
    MINUS_ONE = 2
    MINUS_I = 3


def _require_quartic_modulus(q: int) -> None:
    if q % 4 != 1 or not is_prime(q):
        raise ValueError(f"q must be a prime congruent to 1 mod 4, got {q}")


@lru_cache(maxsize=None)
def sqrt_minus_one(q: int) -> int:
    """Canonical square root of -1 mod q: the smaller of the two roots.

    Found by testing a**((q-1)/4) for a = 2, 3, ...; half of all bases hit a
    root, so the loop is short.
    """
    _require_quartic_modulus(q)
    e = (q - 1) // 4
    for a in range(2, q):
        t = pow(a, e, q)
        if t * t % q == q - 1:
            return min(t, q - t)
    raise ArithmeticError(f"no square root of -1 modulo {q}")


def quartic_class(a: int, q: int) -> QuarticClass:
    """Class index of a under the order-4 character of Z_q.

    Computed from t = a**((q-1)/4) mod q, which lands in {1, r, -1, -r} for
    r the canonical root of -1.  Class 0 means a is a fourth power mod q.
    Fixing r rather than its negative picks one of the two conjugate
    characters; every consumer in this package is invariant under that choice.
    """
    _require_quartic_modulus(q)
    if math.gcd(a, q) != 1:
        raise ValueError(f"a={a} shares a factor with q={q}")
    r = sqrt_minus_one(q)
    t = pow(a, (q - 1) // 4, q)
    if t == 1:
        return QuarticClass.ONE
    if t == q - 1:
        return QuarticClass.MINUS_ONE
    if t == r:
        return QuarticClass.I
    if t == q - r:
        return QuarticClass.MINUS_I
    raise ArithmeticError(f"{a}**((q-1)/4) is not a fourth root of 1 mod {q}")

