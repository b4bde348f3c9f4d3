"""Exact integer arithmetic underneath every tiling criterion: deterministic
primality, factorization with divisor enumeration, bounded discrete logarithms,
and the quadratic/quartic residue characters of Z_q.

Everything here is a pure function of its arguments.  Inputs are capped at
64 bits, the range on which the Miller-Rabin base set is proven to decide
primality.  Group orders reach that cap: check accepts every n whose
q = n(k+ + k-) + 1 fits in 64 bits.

The package no longer calls legendre, quartic_class, QuarticClass or
sqrt_minus_one: the character criteria read a shape's class table
(splitting.QuasiCrossShape.class_table).  They serve only the tests, as the
reference the class table is checked against, and the perfbench replay,
and go when the benchmark no longer times them (ROADMAP.md).
"""

from __future__ import annotations

import math
from enum import IntEnum
from functools import lru_cache
from typing import Iterable

__all__ = [
    "QuarticClass",
    "discrete_log",
    "divisors",
    "factorize",
    "is_prime",
    "legendre",
    "quartic_class",
    "sqrt_minus_one",
]

_UINT64_MAX = 2**64 - 1

# Witness set proven sufficient for all 64-bit integers.
_MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# (bound, bases): the shortest prefix of _MILLER_RABIN_BASES proven to decide
# every m < bound.  Each bound but the last is the least strong pseudoprime
# to all bases of its prefix (OEIS A014233, see is_prime).
_MILLER_RABIN_PREFIXES = tuple(
    (bound, _MILLER_RABIN_BASES[:k])
    for bound, k in (
        (2_047, 1),
        (1_373_653, 2),
        (25_326_001, 3),
        (3_215_031_751, 4),
        (2_152_302_898_747, 5),
        (3_474_749_660_383, 6),
        (341_550_071_728_321, 7),
        (3_825_123_056_546_413_051, 9),
        (2**64, 12),
    )
)


def _check_range(m: int) -> None:
    if m < 1:
        raise ValueError(f"m must be a positive integer, got {m}")
    if m > _UINT64_MAX:
        raise ValueError(f"m must fit in 64 bits, got {m}")


@lru_cache(maxsize=1 << 16)
def is_prime(m: int) -> bool:
    """Deterministic Miller-Rabin primality test for 64-bit integers.

    After trial division by the twelve prime bases, m runs through
    Miller-Rabin on the shortest prefix of them proven to decide every
    integer below its bound: base 2 below 2 047, bases 2 and 3 below
    1 373 653, and so on, up to all twelve from 3 825 123 056 546 413 051
    on.  The bounds are the least strong pseudoprimes to all of the first k
    prime bases (OEIS A014233): through k = 8 from G. Jaeschke, "On strong
    pseudoprimes to several bases", Math. Comp. 61 (1993), 915-926; k = 9
    from Y. Jiang and Y. Deng, Math. Comp. 83 (2014), 2915-2924; and the
    twelve bases past 2**64 from J. Sorenson and J. Webster, Math. Comp. 86
    (2017), 985-1003.

    Cached: the verdict walk, the criteria and the class table each test
    the same group order.
    """
    _check_range(m)
    if m < 2:
        return False
    for p in _MILLER_RABIN_BASES:
        if m % p == 0:
            return m == p
    for bound, bases in _MILLER_RABIN_PREFIXES:
        if m < bound:
            break
    d = m - 1
    r = (d & -d).bit_length() - 1
    d >>= r
    for a in bases:
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


def factorize(m: int) -> tuple[tuple[int, int], ...]:
    """Factor a positive 64-bit integer into (prime, exponent) pairs, primes
    ascending; factorize(1) == ().

    The twelve Miller-Rabin base primes 2 to 37 are divided out first.
    Pollard's rho with Floyd cycle finding splits whatever remains: each
    part is tested for primality before it is split, so a prime cofactor
    costs one is_prime call.
    """
    _check_range(m)
    acc: dict[int, int] = {}
    for p in _MILLER_RABIN_BASES:
        while m % p == 0:
            m //= p
            acc[p] = acc.get(p, 0) + 1
    if m > 1:
        _rho_split(m, acc)
    return tuple(sorted(acc.items()))


def divisors(factors: Iterable[tuple[int, int]]) -> list[int]:
    """All positive divisors of the product of the (prime, exponent) pairs
    factors, ascending.  The primes must be distinct."""
    divs = [1]
    for p, e in factors:
        pk = 1
        block = []
        for _ in range(e):
            pk *= p
            block.extend(d * pk for d in divs)
        divs.extend(block)
    return sorted(divs)


def _rho_split(n: int, acc: dict[int, int]) -> None:
    if is_prime(n):
        acc[n] = acc.get(n, 0) + 1
        return
    d = _pollard_rho(n)
    _rho_split(d, acc)
    _rho_split(n // d, acc)


def _pollard_rho(n: int) -> int:
    # n is an odd composite with no prime factor <= 37.  The polynomial
    # increment c walks a fixed sequence, so the result is deterministic.
    for c in range(1, 100):
        x = y = 2
        g = 1
        while g == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            g = math.gcd(x - y, n)
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
    if math.gcd(base, q) != 1:
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
    root, so the loop is short.  The package no longer calls it:
    quartic_class reads the canonical root off a**((q-1)/4) itself.  It
    stays as the tests' reference for the quartic orientation.
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

    Computed from t = a**((q-1)/4) mod q, a fourth root of 1: t = 1 gives
    class 0 (a is a fourth power mod q) and t = q - 1 class 2.  Otherwise
    t*t = -1, and t is the canonical root r of -1 (the smaller one, as
    sqrt_minus_one returns) exactly when 2t < q, so 2t < q gives class 1 and
    2t > q class 3.  Fixing r rather than its negative picks one of the two
    conjugate characters.  Verdicts are invariant under that choice, but
    quartic_generic's classes witness swaps its counts of classes 1 and 3.
    """
    _require_quartic_modulus(q)
    if math.gcd(a, q) != 1:
        raise ValueError(f"a={a} shares a factor with q={q}")
    t = pow(a, (q - 1) // 4, q)
    if t == 1:
        return QuarticClass.ONE
    if t == q - 1:
        return QuarticClass.MINUS_ONE
    return QuarticClass.I if 2 * t < q else QuarticClass.MINUS_I
