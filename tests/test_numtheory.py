import math

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from quasicross.numtheory import (
    Factorization,
    QuarticClass,
    discrete_log,
    factorize,
    is_prime,
    legendre,
    quartic_class,
    sqrt_minus_one,
)


def trial_division_is_prime(m):
    """Independent primality oracle."""
    if m < 2:
        return False
    i = 2
    while i * i <= m:
        if m % i == 0:
            return False
        i += 1
    return True


def trial_division_factors(m):
    out = []
    i = 2
    while i * i <= m:
        e = 0
        while m % i == 0:
            m //= i
            e += 1
        if e:
            out.append((i, e))
        i += 1
    if m > 1:
        out.append((m, 1))
    return tuple(out)


def test_is_prime_examples():
    assert is_prime(13)
    assert not is_prime(1)
    assert is_prime(1009) == trial_division_is_prime(1009)
    assert is_prime(2)
    assert not is_prime(4)
    # 2047 = 23 * 89 falls to trial division; 8321 = 53 * 157 is the least
    # strong pseudoprime to base 2 that does not.
    assert not is_prime(8321)


def test_is_prime_matches_trial_division_exhaustively():
    for m in range(1, 5000):
        assert is_prime(m) == trial_division_is_prime(m), m


@given(st.integers(min_value=1, max_value=10**6))
def test_is_prime_matches_trial_division(m):
    assert is_prime(m) == trial_division_is_prime(m)


def test_is_prime_rejects_out_of_range():
    with pytest.raises(ValueError):
        is_prime(0)
    with pytest.raises(ValueError):
        is_prime(-7)
    with pytest.raises(ValueError):
        is_prime(2**64)


# OEIS A014233 below 2**64: the least strong pseudoprime to all of the first
# k prime bases, with the k that is_prime is proven to need just below it
# (the value for k = 8 equals the one for k = 7, and those for k = 10 and 11
# equal the one for k = 9).
A014233_BELOW_2_64 = (
    (2_047, 1),
    (1_373_653, 2),
    (25_326_001, 3),
    (3_215_031_751, 4),
    (2_152_302_898_747, 5),
    (3_474_749_660_383, 6),
    (341_550_071_728_321, 7),
    (3_825_123_056_546_413_051, 9),
)
FIRST_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def assert_strong_pseudoprime(m, bases):
    """m is odd and composite, yet passes the strong probable-prime test to
    every one of bases: the test run on those bases alone would call m prime."""
    assert m % 2 == 1 and not sympy.isprime(m)
    d, r = m - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    for a in bases:
        x = pow(a, d, m)
        assert x in (1, m - 1) or any(pow(x, 2**i, m) == m - 1 for i in range(1, r)), (m, a)


@pytest.mark.parametrize("psi, k", A014233_BELOW_2_64, ids=[str(k) for _, k in A014233_BELOW_2_64])
def test_is_prime_past_each_base_set_bound(psi, k):
    # Just below psi the first k bases decide; psi itself fools them, so
    # is_prime must switch to a longer base set exactly at psi.
    assert_strong_pseudoprime(psi, FIRST_PRIMES[:k])
    assert not is_prime(psi)
    assert is_prime(psi - 2) == sympy.isprime(psi - 2)


@given(
    st.one_of(
        st.integers(min_value=1, max_value=2**64 - 1),
        st.integers(min_value=3, max_value=2**64 - 1).map(sympy.prevprime),
    )
)
def test_is_prime_matches_sympy_below_2_64(m):
    assert is_prime(m) == sympy.isprime(m)


def test_factorize_large_primes():
    for p in (2**64 - 59, 2**61 - 1):
        assert factorize(p).factors == ((p, 1),)


def test_factorize_examples():
    assert factorize(45).factors == ((3, 2), (5, 1))
    assert factorize(1).factors == ()
    assert factorize(1001).factors == trial_division_factors(1001)
    assert factorize(1001).factors == ((7, 1), (11, 1), (13, 1))


def test_factorize_roundtrip_exhaustive():
    # Smallest-prime-factor sieve as the independent oracle.
    limit = 1_000_000
    spf = list(range(limit + 1))
    for i in range(2, math.isqrt(limit) + 1):
        if spf[i] == i:
            for j in range(i * i, limit + 1, i):
                if spf[j] == j:
                    spf[j] = i
    for m in range(1, limit + 1):
        expected = {}
        r = m
        while r > 1:
            p = spf[r]
            expected[p] = expected.get(p, 0) + 1
            r //= p
        assert factorize(m).factors == tuple(sorted(expected.items())), m


@settings(deadline=None)
@given(st.integers(min_value=1, max_value=10**12))
def test_factorize_roundtrip_random(m):
    fact = factorize(m)
    assert fact.value == m
    assert math.prod(p**e for p, e in fact.factors) == m
    assert all(is_prime(p) for p, _ in fact.factors)


def test_factorize_two_primes_past_a_million():
    p, q = 1_000_003, 1_000_033
    assert is_prime(p) and is_prime(q)
    assert factorize(p * q).factors == ((p, 1), (q, 1))


@settings(deadline=None)
@given(st.integers(min_value=1, max_value=2**64 - 1))
def test_factorize_matches_sympy_below_2_64(m):
    assert factorize(m).factors == tuple(sorted(sympy.factorint(m).items()))


def test_factorize_prime_powers_past_the_trial_primes():
    # Every p**e < 2**64 for a prime p past 37, the last trial divisor, so
    # rho alone splits each power with e >= 2.
    for p in sympy.primerange(41, 5000):
        pe, e = p, 1
        while pe < 2**64:
            assert factorize(pe).factors == ((p, e),), (p, e)
            pe, e = pe * p, e + 1


def test_factorize_products_of_two_primes_past_the_trial_primes():
    primes = list(sympy.primerange(41, 1000))
    for i, a in enumerate(primes):
        for b in primes[i + 1 :]:
            assert factorize(a * b).factors == ((a, 1), (b, 1)), (a, b)


@pytest.mark.parametrize(
    "p, q",
    [
        (sympy.prevprime(sympy.prevprime(2**32)), sympy.prevprime(2**32)),
        (sympy.prevprime(2**32 - 10**6), sympy.prevprime(2**32)),
        (999_983, sympy.prevprime(2**64 // 999_983)),
    ],
    ids=["largest-two-below-2**32", "near-2**32", "small-times-large"],
)
def test_factorize_products_of_two_large_primes(p, q):
    assert p * q < 2**64
    assert factorize(p * q).factors == ((p, 1), (q, 1))


def test_factorize_rejects_out_of_range():
    for m in (0, -7, 2**64):
        with pytest.raises(ValueError):
            factorize(m)


def test_factorization_validates():
    with pytest.raises(ValueError, match="^factors multiply to 2, not 10$"):
        Factorization(10, ((2, 1),))
    with pytest.raises(ValueError, match="^factor primes must be strictly increasing$"):
        Factorization(12, ((3, 1), (2, 2)))
    with pytest.raises(ValueError, match="^factor 8 is not prime$"):
        Factorization(8, ((8, 1),))
    with pytest.raises(ValueError, match="^exponent of 3 must be >= 1, got 0$"):
        Factorization(2, ((2, 1), (3, 0)))
    for name in ("value", "factors"):
        with pytest.raises(AttributeError):
            setattr(factorize(12), name, 1)


def test_divisors():
    assert factorize(45).divisors() == [1, 3, 5, 9, 15, 45]
    assert factorize(1).divisors() == [1]
    assert factorize(66).divisors() == [1, 2, 3, 6, 11, 22, 33, 66]


def test_legendre_examples():
    assert legendre(2, 13) == -1
    assert legendre(3, 13) == 1
    for p in (3, 5, 13, 101, 9973):
        assert legendre(1, p) == 1
        assert legendre(p * 7, p) == 0
    with pytest.raises(ValueError):
        legendre(2, 15)
    with pytest.raises(ValueError):
        legendre(2, 2)


def test_legendre_matches_exhaustive_squaring():
    for p in sympy.primerange(10_001):
        if p == 2:
            continue
        squares = {x * x % p for x in range(1, p)}
        for a in range(1, p):
            assert (legendre(a, p) == 1) == (a in squares), (a, p)


def test_legendre_congruence_rows():
    for p in sympy.primerange(10_001):
        if p == 2:
            continue
        assert (legendre(-1, p) == 1) == (p % 4 == 1), p
        assert (legendre(2, p) == 1) == (p % 8 in (1, 7)), p
        assert (legendre(3, p) == 1) == (p % 12 in (1, 11)), p
        assert (legendre(5, p) == 1) == (p % 10 in (1, 9)), p


@given(st.sampled_from([p for p in sympy.primerange(1001) if p > 2]),
       st.integers(min_value=1, max_value=10**6),
       st.integers(min_value=1, max_value=10**6))
def test_legendre_multiplicative(p, a, b):
    assert legendre(a * b, p) == legendre(a, p) * legendre(b, p)


def brute_force_root_of_minus_one(q):
    roots = [x for x in range(1, q) if x * x % q == q - 1]
    return min(roots)


def test_sqrt_minus_one_is_canonical():
    for q in (5, 13, 29, 101, 997):
        r = sqrt_minus_one(q)
        assert r * r % q == q - 1
        assert r == brute_force_root_of_minus_one(q)


def test_quartic_class_examples():
    # Independent check at q=29: 2**7 = 128 = 12 (mod 29), and 12 is the
    # smaller root of -1, so 2 sits in class 1.
    assert pow(2, 7, 29) == 12 == brute_force_root_of_minus_one(29)
    assert quartic_class(2, 29) == QuarticClass.I
    for q in (5, 13, 29, 101):
        assert quartic_class(1, q) == QuarticClass.ONE
    assert quartic_class(-1, 29) == QuarticClass.MINUS_ONE


def test_quartic_class_rejects_bad_input():
    with pytest.raises(ValueError):
        quartic_class(13, 13)
    with pytest.raises(ValueError):
        quartic_class(2, 7)  # 7 = 3 (mod 4)
    with pytest.raises(ValueError):
        quartic_class(2, 21)  # 21 = 1 (mod 4) but composite


def test_quartic_refines_quadratic():
    for q in [p for p in sympy.primerange(1001) if p % 4 == 1]:
        for a in range(1, q):
            cls = quartic_class(a, q)
            assert (cls in (QuarticClass.ONE, QuarticClass.MINUS_ONE)) == (legendre(a, q) == 1)


def test_quartic_class_multiplicative_exhaustive():
    for q in [p for p in sympy.primerange(1001) if p % 4 == 1]:
        table = np.array([0] + [int(quartic_class(a, q)) for a in range(1, q)], dtype=np.int64)
        a = np.arange(1, q, dtype=np.int64)
        prod = np.outer(a, a) % q
        lhs = table[prod]
        rhs = (table[a][:, None] + table[a][None, :]) % 4
        assert np.array_equal(lhs, rhs), q


def brute_force_log(base, target, q, bound):
    """Smallest t < bound with base**t = target (mod q), by trying each t."""
    power = 1 % q
    for t in range(bound):
        if power == target % q:
            return t
        power = power * base % q
    return None


def multiplicative_order(base, q):
    t, power = 1, base % q
    while power != 1:
        t, power = t + 1, power * base % q
    return t


def test_discrete_log_matches_brute_force_exhaustively():
    for q in sympy.primerange(60):
        for base in range(1, q):
            order = multiplicative_order(base, q)
            for target in range(1, q):
                for bound in (0, 1, order - 1, order + 1):
                    expected = brute_force_log(base, target, q, bound)
                    assert discrete_log(base, target, q, bound) == expected, (base, target, q, bound)


@given(st.sampled_from([p for p in sympy.primerange(5001) if p > 60]), st.data())
@settings(max_examples=200, deadline=None)
def test_discrete_log_matches_brute_force(q, data):
    base = data.draw(st.integers(min_value=1, max_value=q - 1))
    target = data.draw(st.integers(min_value=-q, max_value=2 * q))
    bound = data.draw(st.integers(min_value=0, max_value=2 * q))
    assert discrete_log(base, target, q, bound) == brute_force_log(base, target, q, bound)


def test_discrete_log_small_order_base():
    # Baby steps repeat once the step count exceeds the order of the base;
    # the smallest exponent must still come back.
    q = 10_007  # q - 1 = 2 * 5003
    assert discrete_log(1, 1, q, q) == 0
    assert discrete_log(q - 1, q - 1, q, q) == 1
    assert discrete_log(q - 1, 1, q, q) == 0
    for q, order in ((13, 3), (13, 4), (97, 6), (1009, 16)):
        base = next(b for b in range(2, q) if multiplicative_order(b, q) == order)
        for t in range(order):
            assert discrete_log(base, pow(base, t, q), q, 10 * q) == t
            assert discrete_log(base, pow(base, t, q), q, t) is None


def test_discrete_log_target_outside_subgroup():
    # <3> = {1, 3, 9} mod 13; 0 is never a power of a unit.
    for target in (0, 2, 4, 5, 6, 7, 8, 10, 11, 12):
        assert discrete_log(3, target, 13, 100) is None
    assert discrete_log(1, 2, 13, 100) is None
    assert discrete_log(2, -1, 13, 12) == 6  # targets are read mod q


def test_discrete_log_requires_a_unit_base():
    for base, q in ((0, 13), (13, 13), (26, 13), (6, 12), (4, 6)):
        with pytest.raises(ValueError):
            discrete_log(base, 1, q, 5)
        with pytest.raises(ValueError):
            discrete_log(base, 1, q, 0)
