import math
import tracemalloc
from math import gcd

import pytest

from quasicross import criteria
from quasicross.classify import Verdicts, classify_range, default_registry
from quasicross.criteria import (
    CRITERION_ORDER,
    CriterionStatus,
    VerdictStatus,
    check_arm_gcd,
    check_char4_literal,
    check_divisors,
    check_geometry,
    check_odd_prime_order,
    check_power_cube,
    check_power_square,
    check_psquare,
    check_quadratic_balance,
    check_quartic_generic,
    check_vandermonde,
    outcomes,
)
from quasicross.numtheory import discrete_log, is_prime, legendre, quartic_class
from quasicross.search import SearchStatus, count_splittings, find_splitting
from quasicross.splitting import QuasiCrossShape, interval_multipliers, multiplier_set

RULED_OUT = CriterionStatus.RULED_OUT
INCONCLUSIVE = CriterionStatus.INCONCLUSIVE
INAPPLICABLE = CriterionStatus.INAPPLICABLE


def shape(k_plus, k_minus, n):
    return QuasiCrossShape(k_plus, k_minus, n)


def trial_division_primes(limit):
    """Primes <= limit, independent of numtheory."""
    return [p for p in range(2, limit + 1) if all(p % d for d in range(2, p))]


def primorial(m):
    """m#, the product of all primes <= m."""
    return math.prod(trial_division_primes(m))


def test_primorial():
    assert primorial(1) == 1
    assert primorial(3) == primorial(4) == 6
    assert primorial(5) == 30
    assert primorial(47) == 614889782588491410


def test_geometry():
    out = check_geometry(shape(3, 1, 2))
    assert out.status is RULED_OUT and out.witness == {"lhs": 11, "rhs": 8}
    assert check_geometry(shape(3, 2, 2)).witness == {"lhs": 14, "rhs": 10}
    assert check_geometry(shape(3, 1, 3)).status is INCONCLUSIVE
    assert check_geometry(shape(3, 1, 1)).status is INAPPLICABLE


def test_arm_gcd():
    out = check_arm_gcd(shape(3, 2, 2))
    assert out.status is RULED_OUT and out.witness["gcd"] == 1
    assert check_arm_gcd(shape(3, 2, 13)).status is INCONCLUSIVE
    assert check_arm_gcd(shape(3, 1, 5)).status is INAPPLICABLE


def test_quadratic_balance():
    out = check_quadratic_balance(shape(3, 1, 3))
    assert out.status is RULED_OUT and out.witness == {"qr": 3, "qnr": 1}
    out = check_quadratic_balance(shape(5, 1, 5))  # q = 31
    assert out.status is RULED_OUT and out.witness == {"qr": 4, "qnr": 2}
    assert check_quadratic_balance(shape(3, 1, 4)).status is INCONCLUSIVE  # even n
    assert check_quadratic_balance(shape(3, 1, 5)).status is INAPPLICABLE  # q = 21
    assert check_quadratic_balance(shape(3, 1, 7)).status is INCONCLUSIVE  # balanced M


def test_char4_literal():
    out = check_char4_literal(shape(3, 1, 7))
    assert out.status is RULED_OUT and out.witness == {"q": 29, "six_pow_n": 28}
    assert pow(6, 37, 149) == 1  # dimension 37 tiles, so the test cannot fire
    assert check_char4_literal(shape(3, 1, 37)).status is INCONCLUSIVE
    assert check_char4_literal(shape(3, 1, 4)).status is INAPPLICABLE
    assert check_char4_literal(shape(3, 2, 7)).status is INAPPLICABLE


def test_quartic_generic():
    out = check_quartic_generic(shape(3, 1, 7))
    assert out.status is RULED_OUT and out.witness["classes"] == (1, 2, 1, 0)
    assert check_quartic_generic(shape(3, 1, 37)).status is INCONCLUSIVE
    assert check_quartic_generic(shape(3, 1, 4)).status is INAPPLICABLE
    assert check_quartic_generic(shape(3, 1, 1)).witness["classes"] == (1, 1, 1, 1)


def test_odd_prime_order():
    out = check_odd_prime_order(shape(3, 2, 2))
    assert out.status is RULED_OUT and out.witness == {"p": 5, "n_mod_p": 2}
    assert check_odd_prime_order(shape(3, 2, 5)).status is INAPPLICABLE  # q = 26
    assert check_odd_prime_order(shape(3, 2, 10)).status is INAPPLICABLE  # q = 51 = 3*17
    assert check_odd_prime_order(shape(3, 2, 20)).status is INCONCLUSIVE  # q = 101, 5 | 20
    assert check_odd_prime_order(shape(3, 1, 3)).status is INAPPLICABLE  # arm sum 4


def test_power_square():
    out = check_power_square(shape(3, 1, 5))
    assert out.status is RULED_OUT and out.witness == {"k": 1, "kn_mod_9": 5}
    out = check_power_square(shape(7, 1, 4))
    assert out.status is RULED_OUT and out.witness == {"k": 2, "kn_mod_9": 8}
    assert check_power_square(shape(3, 1, 9)).status is INCONCLUSIVE
    assert check_power_square(shape(3, 2, 5)).status is INAPPLICABLE
    assert check_power_square(shape(6, 1, 5)).status is INAPPLICABLE


def test_power_cube():
    assert check_power_cube(shape(6, 1, 3)).status is RULED_OUT
    assert check_power_cube(shape(10, 1, 7)).status is RULED_OUT
    assert check_power_cube(shape(6, 1, 5)).status is INCONCLUSIVE
    assert check_power_cube(shape(3, 1, 3)).status is INAPPLICABLE


def test_vandermonde():
    # Independent power sums at q = 13, M = {-1, 1, 2, 3}.
    sums = [sum(pow(m, i, 13) for m in (12, 1, 2, 3)) % 13 for i in (1, 2, 3)]
    assert sums == [5, 2, 9]
    assert check_vandermonde(shape(3, 1, 3)).status is RULED_OUT
    assert check_vandermonde(shape(3, 1, 6)).status is INAPPLICABLE  # q = 25
    out = check_vandermonde(shape(3, 1, 37))  # dimension 37 tiles: some sum vanishes
    assert out.status is INCONCLUSIVE
    i = out.witness["first_zero_power"]
    assert sum(pow(m, i, 149) for m in multiplier_set(shape(3, 1, 37)).residues) % 149 == 0


def _vandermonde_by_definition(sh):
    q = sh.group_order
    if sh.n >= q - 1 or not is_prime(q):
        return INAPPLICABLE, None
    residues = multiplier_set(sh).residues
    for i in range(1, sh.n + 1):
        if sum(pow(m, i, q) for m in residues) % q == 0:
            return INCONCLUSIVE, {"first_zero_power": i}
    return RULED_OUT, {"q": q, "powers_checked": sh.n}


def _power_sum_vanishes(sh, i):
    q = sh.group_order
    return sum(pow(m, i, q) for m in multiplier_set(sh).residues) % q == 0


def test_vandermonde_matches_power_sum_definition(monkeypatch):
    # The lane labels below are for blocks of 64 values of t; the outcome
    # does not depend on the block length.
    monkeypatch.setattr(criteria, "_VANDERMONDE_BLOCK", 64)
    sweep = [(kp, km, n) for kp in range(1, 7) for km in range(1, kp + 1) for n in range(1, 301)]
    # The first vanishing sum of these lies at exponent n + 1, just past the range.
    beyond_n = [(7, 3, 3), (7, 3, 27), (5, 3, 527)]
    # Prime q past 2**16, so that rows * q**2 >= 2**32 and a lane spans two
    # 64-bit words: zeros at t = 286, 193, 103, 13, 30 and 298, two shapes
    # with no zero up to n, and classes of 3, 4 and 5 rows.
    two_words = [
        (3, 1, 12004), (3, 1, 12007), (5, 2, 12118), (5, 1, 12046), (5, 1, 12003),
        (6, 1, 12090), (6, 1, 12964), (6, 4, 13557),
    ]
    seen = set()
    for k_plus, k_minus, n in sweep + beyond_n + two_words:
        sh = shape(k_plus, k_minus, n)
        q = sh.group_order
        out = check_vandermonde(sh)
        status, witness = _vandermonde_by_definition(sh)
        assert (out.status, out.witness) == (status, witness), (k_plus, k_minus, n)
        # q - 1 = n * (k_plus + k_minus) >= 2n, so n >= q - 1 cannot be built
        # from a shape; only composite q makes the test inapplicable.
        assert sh.n < sh.group_order - 1
        if status is INAPPLICABLE:
            seen.add("composite q")
            continue
        # The even class scans k_plus - 1 rows when that is 2 or more, unless
        # a one-row odd class vanishes at exponent 1 and leaves nothing to scan.
        if k_plus >= 3 and (k_plus - 1) * q * q >= 2**32 and witness != {"first_zero_power": 1}:
            seen.add("two-word lanes")
            if k_plus >= 4:
                seen.add("three or more rows, two-word lanes")
        if status is RULED_OUT:
            if _power_sum_vanishes(sh, n + 1):
                seen.add("zero at n + 1")
                # n + 1 odd: the zero belongs to the class solved as a discrete log.
                if k_plus - k_minus == 2 and n % 2 == 0:
                    seen.add("one-term zero past n")
            seen.add("ruled out")
        elif k_plus == k_minus:
            assert witness == {"first_zero_power": 1}
            seen.add("symmetric arms")
        else:
            i = witness["first_zero_power"]
            seen.add("odd exponent" if i % 2 else "even exponent")
            if i > 256:
                seen.add("past the first block")
            if k_plus - k_minus == 2 and i % 2:
                seen.add("one-term odd class")
                # The even class has rows to scan and a zero between i and n.
                if k_plus > 2 and any(_power_sum_vanishes(sh, e) for e in range(i + 1, n + 1, 2)):
                    seen.add("one-term hit bounds the scan")
            if k_plus == 2 and i % 2 == 0:
                seen.add("one-term even class")
            # Both classes have 2 or more rows, and the odd class's zero cuts
            # off a zero of the even class below n + 1.
            if k_plus - k_minus >= 3 and i % 2:
                if any(_power_sum_vanishes(sh, e) for e in range(i + 1, n + 1, 2)):
                    seen.add("the odd class's scan bounds a multi-row even class")
            # The class of exponent i has 2 or more rows, so the scan found
            # this zero, at t = (i - 1) // 2.
            if (k_plus - k_minus >= 3 if i % 2 else k_plus >= 3):
                t = (i - 1) // 2
                seen.add({0: "zero in lane 0", 63: "zero in the last lane of the first block",
                          64: "zero in the first lane of the second block"}.get(t, "zero in a scan"))
                # Both classes scanned: does the other one vanish in this block too?
                if k_plus - k_minus >= 3 and (n + 1) // 2 >= 64:
                    t0 = t // 64 * 64
                    other = 2 if i % 2 else 1
                    if any(_power_sum_vanishes(sh, 2 * u + other) for u in range(t0, t0 + 64)):
                        seen.add("both classes vanish in one block")
    assert seen == {
        "composite q", "ruled out", "zero at n + 1", "symmetric arms", "odd exponent",
        "even exponent", "past the first block", "one-term odd class", "one-term even class",
        "one-term hit bounds the scan", "one-term zero past n", "two-word lanes",
        "three or more rows, two-word lanes", "zero in a scan", "zero in lane 0",
        "zero in the last lane of the first block", "zero in the first lane of the second block",
        "both classes vanish in one block", "the odd class's scan bounds a multi-row even class",
    }


@pytest.mark.parametrize("q", [48017, 2**31 - 1, 2**61 - 1, 2**64 - 59])
def test_first_solution_matches_direct_sums(q):
    # The solver of check_vandermonde against the sums themselves.  A target
    # planted at t = 0, 63, 64 and 130 (lane 0, the last lane of a block, the
    # first lane of the next and a lane of the third block) enters as the
    # constant term (q - target, 1), once last, where it is the term the
    # solver divides by, and once first.  One term and the constant are a
    # discrete logarithm; two and four terms and the constant are the packed
    # scan, with lanes of 2, 2, 4 and 5 words.  The bounds are 0, the first
    # solution itself, one past it, and 100, which ends inside the second
    # block.
    assert is_prime(q)
    for w, r in (([3], [2]), ([5], [q - 5]), ([3, 5], [2, 3]), ([3, 5, 7, 11], [2, 3, q - 5, 7])):
        for planted in (0, 63, 64, 130):
            sums = [sum(x * pow(y, t, q) for x, y in zip(w, r)) % q for t in range(planted + 1)]
            target = sums[planted]
            first = sums.index(target)
            rows = list(zip(w, r))
            for terms in (rows + [(q - target, 1)], [(q - target, 1)] + rows):
                for bound in (0, first, first + 1, 100):
                    expected = first if first < bound else None
                    got = criteria._first_zero(terms, bound, q)
                    assert got == expected, (w, planted, terms[0], bound)
                    if len(w) == 1:
                        assert got == discrete_log(r[0], target * pow(w[0], -1, q), q, bound)
    # The empty class vanishes at t = 0; a single term never vanishes.
    for bound in (0, 1, 2, 100):
        assert criteria._first_zero([], bound, q) == (0 if bound >= 1 else None)
        assert criteria._first_zero([(3, 2)], bound, q) is None


def test_vandermonde_counts_to_4000():
    # Fired counts and the summed witness exponents (first_zero_power or
    # powers_checked) of the per-exponent definition, n = 1..4000.
    for (k_plus, k_minus), fired, steps in (((3, 1), 644, 1_555_592), ((3, 2), 507, 1_002_742)):
        outs = [check_vandermonde(shape(k_plus, k_minus, n)) for n in range(1, 4001)]
        assert sum(o.fired for o in outs) == fired
        total = sum(
            o.witness.get("first_zero_power", o.witness.get("powers_checked", 0))
            for o in outs
            if o.witness
        )
        assert total == steps, (k_plus, k_minus)


def test_psquare():
    out = check_psquare(shape(3, 1, 11))  # q = 45, p = 3, exception n = 2
    assert out.status is RULED_OUT and out.witness == {"p": 3}
    out = check_psquare(shape(3, 2, 3))  # q = 16, p = 2, exception n = 1
    assert out.status is RULED_OUT and out.witness == {"p": 2}
    assert check_psquare(shape(3, 1, 2)).status is INCONCLUSIVE  # n = 2 is the exception
    assert check_psquare(shape(3, 1, 3)).status is INAPPLICABLE  # q = 13 squarefree


def test_psquare_matches_its_definition():
    # The definition: the primes p <= k_plus with p**2 > k_plus and p**2 | q,
    # in ascending order; the first that fires rules the shape out, else the
    # last exempt p is the witness.
    statuses = set()
    several = set()
    for k_plus in range(1, 17):
        primes = [p for p in trial_division_primes(k_plus) if p * p > k_plus]
        for k_minus in range(1, k_plus + 1):
            for n in range(1, 301):
                sh = shape(k_plus, k_minus, n)
                qualifying = [p for p in primes if sh.group_order % (p * p) == 0]
                fires = [p for p in qualifying if n * (k_plus % p + k_minus % p) != p - 1]
                if fires:
                    expected = (RULED_OUT, {"p": fires[0]})
                elif qualifying:
                    expected = (INCONCLUSIVE, {"p": qualifying[-1]})
                else:
                    expected = (INAPPLICABLE, None)
                out = check_psquare(sh)
                assert (out.status, out.witness) == expected, (k_plus, k_minus, n)
                statuses.add(out.status)
                if len(qualifying) > 1:
                    several.add(k_plus)
    assert statuses == {RULED_OUT, INCONCLUSIVE, INAPPLICABLE}
    # e.g. (10, 2, 102): q = 1225 = 5**2 * 7**2; (16, 1, 72): q = 1225 too.
    assert {10, 16} <= several


def test_criteria_memory_does_not_grow_with_k_plus():
    # q = 10**7 + 2 is even, so no criterion that needs a prime q runs here.
    # At a prime q, quadratic_balance and vandermonde take time and memory
    # linear in k+ (README, "Known defect").
    sh = shape(10**7, 1, 1)
    tracemalloc.start()
    try:
        tuple(outcomes(sh, {}))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10**6


def test_divisors():
    out = check_divisors(shape(3, 1, 5), {})  # q = 21, d = 7 fails divisibility
    assert out.status is RULED_OUT and out.witness == {"d": 7}
    oracle = {1: VerdictStatus.TILES, 2: VerdictStatus.NO_TILING}
    out = check_divisors(shape(3, 1, 11), oracle)  # q = 45, d = 5 reaches n' = 2
    assert out.status is RULED_OUT and out.witness == {"d": 5, "n_prime": 2}
    out = check_divisors(shape(3, 2, 13), {1: VerdictStatus.TILES})  # q = 66, d = 11 reaches n' = 1
    assert out.status is INCONCLUSIVE


def test_divisors_matches_its_definition():
    # The definition: the d | q with 1 < d < q and gcd(d, k_plus#) = 1, in
    # ascending order; the first whose n' is not a positive integer, or is
    # ruled out, rules the shape out.  The oracle is classify_range's.
    statuses = set()
    skips_q = square_below_k_plus = False
    for k_plus in range(1, 17):
        primes = trial_division_primes(k_plus)
        prim = math.prod(primes)
        for k_minus in range(1, k_plus + 1):
            oracle = {v.n: v.status for v in classify_range(k_plus, k_minus, 300).verdicts}
            for n in range(1, 301):
                sh = shape(k_plus, k_minus, n)
                q = sh.group_order
                small = [d for d in range(2, math.isqrt(q) + 1) if q % d == 0]
                proper = sorted(set(small + [q // d for d in small]))
                expected = (INCONCLUSIVE, None)
                for d in proper:
                    if gcd(d, prim) != 1:
                        continue
                    if (q - d) % (sh.arm_sum * d) != 0:
                        expected = (RULED_OUT, {"d": d})
                        break
                    n_prime = (q - d) // (sh.arm_sum * d)
                    if oracle[n_prime] is VerdictStatus.NO_TILING:
                        expected = (RULED_OUT, {"d": d, "n_prime": n_prime})
                        break
                out = check_divisors(sh, oracle)
                assert (out.status, out.witness) == expected, (k_plus, k_minus, n)
                statuses.add(out.status)
                skips_q |= bool(proper) and gcd(q, prim) == 1
                square_below_k_plus |= any(q % (p * p) == 0 for p in primes)
    assert statuses == {RULED_OUT, INCONCLUSIVE}
    # e.g. (3, 1, 12): q = 49 is composite and 3-rough, so d = q is skipped;
    # (3, 1, 2): q = 9 = 3**2 with 3 <= k_plus.
    assert skips_q and square_below_k_plus


def test_divisors_for_arms_past_the_64_bit_primorial():
    # k_plus = 60: 60# does not fit in 64 bits; q = 2319 = 3 * 773, and 3 <= k_plus
    out = check_divisors(shape(60, 1, 38), {})
    assert out.status is RULED_OUT and out.witness == {"d": 773}


def test_divisors_missing_oracle_is_hard_error():
    with pytest.raises(LookupError, match="n'=2"):
        check_divisors(shape(3, 1, 11), {})


def test_ruled_out_witnesses_reverify():
    # Every firing of every criterion on the 21 shapes with arms up to 6
    # re-derives from its witness by direct arithmetic; a criterion with no
    # re-check here fails.
    primes = set(trial_division_primes(150 * 12 + 1))
    fired = set()
    for k_plus in range(1, 7):
        for k_minus in range(1, k_plus + 1):
            run = classify_range(k_plus, k_minus, 150)
            oracle = {v.n: v.status for v in run.verdicts}
            for n in range(1, 151):
                sh = shape(k_plus, k_minus, n)
                q = sh.group_order
                for out in outcomes(sh, oracle):
                    if not out.fired:
                        continue
                    fired.add(out.criterion_id)
                    w = out.witness
                    if out.criterion_id == "geometry":
                        assert w["lhs"] == 2 * sh.k_plus * (sh.k_minus + 1) - sh.k_minus**2
                        assert w["rhs"] == sh.n * sh.arm_sum
                        assert w["lhs"] > w["rhs"]
                    elif out.criterion_id == "arm_gcd":
                        assert sh.k_minus == sh.k_plus - 1
                        assert w == {"k": sh.k_plus, "q": q, "gcd": 1}
                        assert math.gcd(sh.k_plus, q) == 1
                    elif out.criterion_id == "odd_prime_order":
                        p = sh.arm_sum
                        assert p > 2 and p in primes and q in primes
                        assert w == {"p": p, "n_mod_p": sh.n % p} and sh.n % p != 0
                    elif out.criterion_id == "power_cube":
                        assert sh.k_minus == 1 and sh.k_plus >= 6 and sh.k_plus % 4 == 2
                        assert w == {"n_mod_8": sh.n % 8} and sh.n % 8 in (3, 7)
                    elif out.criterion_id == "divisors":
                        d = w["d"]
                        assert q % d == 0 and 1 < d < q
                        assert gcd(d, primorial(sh.k_plus)) == 1
                        if "n_prime" in w:
                            assert (q - d) % (sh.arm_sum * d) == 0
                            assert (q - d) // (sh.arm_sum * d) == w["n_prime"]
                            assert oracle[w["n_prime"]] is VerdictStatus.NO_TILING
                        else:
                            assert (q - d) % (sh.arm_sum * d) != 0
                    elif out.criterion_id == "char4_literal":
                        assert (sh.k_plus, sh.k_minus) == (3, 1) and sh.n % 2 == 1 and q in primes
                        assert pow(6, sh.n, q) == w["six_pow_n"] != 1
                    elif out.criterion_id == "power_square":
                        assert sh.k_minus == 1 and (sh.k_plus + 1) == 4 * w["k"]
                        assert w["kn_mod_9"] == w["k"] * sh.n % 9
                        assert w["kn_mod_9"] in (5, 8)
                    elif out.criterion_id == "psquare":
                        p = w["p"]
                        assert q % (p * p) == 0 and p <= sh.k_plus < p * p
                        assert sh.n * ((sh.k_plus % p) + (sh.k_minus % p)) != p - 1
                    elif out.criterion_id == "vandermonde":
                        residues = multiplier_set(sh).residues
                        assert all(
                            sum(pow(m, i, q) for m in residues) % q != 0 for i in range(1, sh.n + 1)
                        )
                    elif out.criterion_id == "quadratic_balance":
                        # Euler's criterion: r is a square mod the prime q iff r**((q-1)/2) = 1.
                        residues = multiplier_set(sh).residues
                        qr = sum(pow(r, (q - 1) // 2, q) == 1 for r in residues)
                        assert q in primes and sh.n % 2 == 1
                        assert w == {"qr": qr, "qnr": len(residues) - qr} and w["qr"] != w["qnr"]
                    elif out.criterion_id == "quartic_generic":
                        c = w["classes"]
                        assert q in primes and q % 4 == 1 and sh.n % 2 == 1
                        assert sum(c) == sh.arm_sum and (c[0] != c[2] or c[1] != c[3])
                        # r**((q-1)/4) is i**j for the class j of r, with i a square
                        # root of -1; the other root swaps classes 1 and 3.
                        x = next(x for x in range(2, q) if pow(x, (q - 1) // 2, q) == q - 1)
                        roots = [pow(x, j * (q - 1) // 4, q) for j in range(4)]
                        counts = [0, 0, 0, 0]
                        for r in multiplier_set(sh).residues:
                            counts[roots.index(pow(r, (q - 1) // 4, q))] += 1
                        assert (counts[0], counts[2]) == (c[0], c[2])
                        assert sorted((counts[1], counts[3])) == sorted((c[1], c[3]))
                    else:
                        pytest.fail(f"no re-check for {out.criterion_id}")
    assert fired == set(CRITERION_ORDER)


def test_soundness_against_exhaustive_search():
    # Wherever any criterion fires at desk scale, exhaustive counting must
    # find zero splitter sets.
    for k_plus, k_minus, n_max in ((3, 1, 8), (3, 2, 6)):
        run = classify_range(k_plus, k_minus, n_max)
        oracle = {v.n: v.status for v in run.verdicts}
        for n in range(1, n_max + 1):
            if any(o.fired for o in outcomes(shape(k_plus, k_minus, n), oracle)):
                q = n * (k_plus + k_minus) + 1
                counted = count_splittings(q, interval_multipliers(k_plus, k_minus, q))
                assert counted.complete and counted.count == 0, (k_plus, k_minus, n)


def test_vandermonde_firings_are_exhausted_by_search():
    # Every firing of the power-sum test on arms up to 7 and q <= 500 must
    # close the search tree.  The power-sum test applies only to prime q, and
    # Z_q is the only group of prime order q, so each exhausted search is a
    # proof on its own.
    firings = 0
    for k_plus in range(1, 8):
        for k_minus in range(1, k_plus + 1):
            for n in range(1, 499 // (k_plus + k_minus) + 1):
                sh = shape(k_plus, k_minus, n)
                if check_vandermonde(sh).fired:
                    out = find_splitting(sh.group_order, multiplier_set(sh))
                    assert out.status is SearchStatus.EXHAUSTED, (k_plus, k_minus, n)
                    firings += 1
    assert firings == 389


def test_quadratic_subsumes_three_mod_six_list():
    for n in range(1, 251):
        if is_prime(4 * n + 1) and n % 6 == 3:
            assert check_quadratic_balance(shape(3, 1, n)).status is RULED_OUT, n


def test_characters_subsume_char4_firings():
    extras = []
    for n in range(1, 251):
        sh = shape(3, 1, n)
        literal = check_char4_literal(sh).fired
        quad = check_quadratic_balance(sh).fired
        quartic = check_quartic_generic(sh).fired
        if literal:
            assert quad or quartic, n
        if quartic and not (literal or quad):
            extras.append(n)
    # Dimensions where the generalized order-4 test fires beyond the two
    # specific ones, recorded for the log rather than asserted away.
    print(f"quartic_generic-only firings for (3,1), n <= 250: {extras or 'none'}")


def test_outcomes_are_pure():
    oracle = {n: VerdictStatus.UNKNOWN for n in range(1, 20)}
    oracle[2] = VerdictStatus.NO_TILING
    for n in (1, 5, 11, 19):
        sh = shape(3, 1, n)
        assert tuple(outcomes(sh, oracle)) == tuple(outcomes(sh, oracle))


@pytest.mark.parametrize(
    "k_plus, k_minus, n_max, dims",
    [
        (3, 1, 11, [11]),
        (3, 1, 20, [20]),
        (3, 2, 13, [13]),
        (2, 2, 9, [9]),
        (5, 1, 12, [12]),
        (3, 1, 600, range(1, 601)),
        (3, 2, 600, range(1, 601)),
    ],
    ids=["3-1-11", "3-1-20", "3-2-13", "2-2-9", "5-1-12", "3-1-to-600", "3-2-to-600"],
)
def test_firings_are_the_firing_outcomes(k_plus, k_minus, n_max, dims):
    # The verdict walk skips the criteria that cannot fire; it must yield
    # every firing outcome of the ungated criteria, in reporting order, on a
    # memo that classifies the dimensions the divisor recursion reads.
    registry = default_registry(k_plus, k_minus)
    run = classify_range(k_plus, k_minus, n_max, registry=registry)
    oracle = {v.n: v.status for v in run.verdicts}
    memo = Verdicts(k_plus, k_minus, n_max, registry)
    for n in dims:
        sh = shape(k_plus, k_minus, n)
        every = tuple(outcomes(sh, oracle))
        assert [o.criterion_id for o in every] == list(CRITERION_ORDER)
        assert tuple(memo.firings(sh)) == tuple(o for o in every if o.fired), sh


def test_criterion_order():
    assert CRITERION_ORDER == (
        "geometry",
        "arm_gcd",
        "quadratic_balance",
        "char4_literal",
        "quartic_generic",
        "odd_prime_order",
        "power_square",
        "power_cube",
        "vandermonde",
        "psquare",
        "divisors",
    )


def test_walk_rules_name_only_criteria():
    # The walk's rule gives every criterion one entry, in reporting order,
    # and names nothing else, on every shape, class of q and parity of n; a
    # misspelt id would gate nothing.
    for k_plus in range(1, 8):
        for k_minus in range(1, k_plus + 1):
            for prime in (True, False):
                for odd in (True, False):
                    assert tuple(criteria.last_firing_n(k_plus, k_minus, prime, odd)) == CRITERION_ORDER


def test_class_table_and_its_readers_match_legendre_and_quartic_class():
    # On every shape with k_plus <= 7 at every prime q < 3000 it meets, at
    # odd and even n: the class table names each multiplier's classes as
    # numtheory.legendre and quartic_class do, and the three criteria that
    # read it give the outcomes those two define, so check prints the same
    # rows.  At composite q there is no table.
    primes = 0
    for k_plus in range(1, 8):
        for k_minus in range(1, k_plus + 1):
            for n in range(1, 2999 // (k_plus + k_minus) + 1):
                sh = shape(k_plus, k_minus, n)
                q = sh.group_order
                if not is_prime(q):
                    with pytest.raises(ValueError, match=rf"^class table needs a prime group order, got q={q}$"):
                        sh.class_table
                    continue
                primes += 1
                residues = multiplier_set(sh).residues
                table = sh.class_table
                symbols = [legendre(r, q) for r in residues]
                squares = symbols.count(1)
                assert [1 if t * t % q == 1 and (q % 4 == 1 or t == 1) else -1 for t in table] == symbols
                balanced = squares == len(residues) - squares
                assert check_quadratic_balance(sh) == (
                    "quadratic_balance",
                    INCONCLUSIVE if n % 2 == 0 or balanced else RULED_OUT,
                    {"qr": squares, "qnr": len(residues) - squares},
                )
                if q % 4 == 1:
                    classes = [quartic_class(r, q) for r in residues]
                    assert [0 if t == 1 else 2 if t == q - 1 else 1 if 2 * t < q else 3 for t in table] == classes
                    counts = tuple(map(classes.count, range(4)))
                    paired = counts[0] == counts[2] and counts[1] == counts[3]
                    if n % 2 == 0:
                        assert check_quartic_generic(sh).status is INAPPLICABLE
                    elif paired:
                        assert check_quartic_generic(sh) == ("quartic_generic", INCONCLUSIVE, {"classes": counts})
                    else:
                        assert check_quartic_generic(sh) == (
                            "quartic_generic", RULED_OUT, {"classes": counts, "q": q}
                        )
                if (k_plus, k_minus) == (3, 1) and n % 2 == 1:
                    assert check_char4_literal(sh).witness == {"q": q, "six_pow_n": pow(6, n, q)}
    assert primes == 3408


def test_class_table_holds_each_root_of_one_once():
    # q = 100003 is prime and 3 mod 4, so the 100002 entries are the two
    # square roots of 1, each one int object, not one object per entry.
    table = shape(100001, 1, 1).class_table
    assert len(table) == 100002 and set(table) == {1, 100002}
    assert len(set(map(id, table))) == 2
