"""Non-existence criteria.

Each check decides, for one quasi-cross shape, whether a lattice tiling of
R^n can be ruled out.  A RULED_OUT outcome always carries a witness from
which the firing condition can be re-verified by direct arithmetic;
INCONCLUSIVE means the criterion applies but does not fire; INAPPLICABLE
means its hypotheses are not met.

All checks are pure functions of the shape (plus, for the divisor recursion,
a read-only verdict oracle for smaller dimensions), so repeated evaluation
is bit-identical and concurrent evaluation needs no coordination.
"""

from __future__ import annotations

import struct
from enum import Enum
from functools import lru_cache
from math import gcd, inf
from operator import mul
from typing import Iterator, Mapping, NamedTuple

from .numtheory import discrete_log, divisors, is_prime
from .splitting import QuasiCrossShape

__all__ = [
    "COMPOSITE_Q_ONLY",
    "CRITERION_ORDER",
    "CriterionOutcome",
    "CriterionStatus",
    "LAST_FIRING_N",
    "ODD_N_ONLY",
    "PRIME_Q_ONLY",
    "SHAPE_CRITERIA",
    "VerdictStatus",
    "check_arm_gcd",
    "check_char4_literal",
    "check_divisors",
    "check_geometry",
    "check_odd_prime_order",
    "check_power_cube",
    "check_power_square",
    "check_psquare",
    "check_quadratic_balance",
    "check_quartic_generic",
    "check_vandermonde",
    "outcomes",
]


class CriterionStatus(Enum):
    RULED_OUT = "ruled_out"
    INCONCLUSIVE = "inconclusive"
    INAPPLICABLE = "inapplicable"


class VerdictStatus(Enum):
    """Aggregate status of one dimension.  The divisor recursion consumes
    the statuses of the smaller dimensions it reaches."""

    TILES = "tiles"
    NO_TILING = "no_tiling"
    UNKNOWN = "unknown"


# Each member read once, here.  On Python 3.10 and 3.11 EnumType defines
# __getattr__, so a read such as CriterionStatus.RULED_OUT costs several
# times a module global.  The per-dimension paths, here and in classify, use
# these names, and classify's rows read a member's _value_, not the slower
# .value property.
_RULED_OUT, _INCONCLUSIVE, _INAPPLICABLE = CriterionStatus
_TILES, _NO_TILING, _UNKNOWN = VerdictStatus


class CriterionOutcome(NamedTuple):
    criterion_id: str
    status: CriterionStatus
    witness: dict | None = None

    @property
    def fired(self) -> bool:
        return self.status is _RULED_OUT


def _ruled_out(cid: str, **witness) -> CriterionOutcome:
    return CriterionOutcome(cid, _RULED_OUT, witness)


def _inconclusive(cid: str, **witness) -> CriterionOutcome:
    return CriterionOutcome(cid, _INCONCLUSIVE, witness or None)


@lru_cache(maxsize=None)
def _inapplicable(cid: str) -> CriterionOutcome:
    """One shared outcome per criterion: an immutable tuple with no
    witness dict, so no caller can change it."""
    return CriterionOutcome(cid, _INAPPLICABLE)


def _geometry_lhs(k_plus: int, k_minus: int) -> int:
    """The left side of the geometric packing bound, 2*k_plus*(k_minus + 1) - k_minus**2."""
    return 2 * k_plus * (k_minus + 1) - k_minus**2


def check_geometry(shape: QuasiCrossShape) -> CriterionOutcome:
    """Geometric packing bound: for n >= 2 no lattice tiling exists when
    2*k_plus*(k_minus + 1) - k_minus**2 exceeds n*(k_plus + k_minus)."""
    if shape.n < 2:
        return _inapplicable("geometry")
    lhs = _geometry_lhs(shape.k_plus, shape.k_minus)
    rhs = shape.n * shape.arm_sum
    if lhs > rhs:
        return _ruled_out("geometry", lhs=lhs, rhs=rhs)
    return _inconclusive("geometry", lhs=lhs, rhs=rhs)


def check_arm_gcd(shape: QuasiCrossShape) -> CriterionOutcome:
    """Consecutive arms (k, k-1): a splitting of a group of order q forces
    gcd(k, q) > 1, so gcd(k_plus, q) = 1 rules the shape out."""
    if shape.k_minus != shape.k_plus - 1:
        return _inapplicable("arm_gcd")
    g = gcd(shape.k_plus, shape.group_order)
    if g == 1:
        return _ruled_out("arm_gcd", k=shape.k_plus, q=shape.group_order, gcd=g)
    return _inconclusive("arm_gcd", gcd=g)


def check_quadratic_balance(shape: QuasiCrossShape) -> CriterionOutcome:
    """Quadratic residue balance.  For prime q the products M*S sweep the
    nonzero residues once, which forces residues and non-residues to balance
    inside M or inside S.  An unbalanced M pushes the balance onto S, making
    |S| = n even; so odd n with unbalanced M admits no splitting.  The
    squares of M are read off the shape's class table: their entries are 1,
    and also q - 1 when q = 1 (mod 4), where the entries are fourth roots."""
    q = shape.group_order
    if not is_prime(q):
        return _inapplicable("quadratic_balance")
    table = shape.class_table
    qr = table.count(1) + (table.count(q - 1) if q % 4 == 1 else 0)
    qnr = len(table) - qr
    if shape.n % 2 == 1 and qr != qnr:
        return _ruled_out("quadratic_balance", qr=qr, qnr=qnr)
    return _inconclusive("quadratic_balance", qr=qr, qnr=qnr)


def check_char4_literal(shape: QuasiCrossShape) -> CriterionOutcome:
    """Order-4 character test specific to arms (3, 1): with q = 4n + 1 prime
    and n odd, 6**n != 1 (mod q) rules the shape out.  The condition says 6
    is not a fourth power mod q, which forces the character sum over M away
    from zero; the sum over S must then vanish, impossible for odd |S|.
    With n = (q - 1) / 4, 6**n is the product of the class table's entries
    for 2 and 3, the last two of M = (-1, 1, 2, 3)."""
    if (shape.k_plus, shape.k_minus) != (3, 1) or shape.n % 2 == 0:
        return _inapplicable("char4_literal")
    q = shape.group_order
    if not is_prime(q):
        return _inapplicable("char4_literal")
    *_, u2, u3 = shape.class_table
    t = u2 * u3 % q
    if t != 1:
        return _ruled_out("char4_literal", q=q, six_pow_n=t)
    return _inconclusive("char4_literal", q=q, six_pow_n=t)


def check_quartic_generic(shape: QuasiCrossShape) -> CriterionOutcome:
    """Order-4 character test for any shape with q prime, q = 1 (mod 4) and
    n odd.  Classes of M are counted; the character sum over M is zero only
    when class counts pair up (c0 = c2 and c1 = c3).  Unpaired counts force
    the sum over S to vanish, which needs |S| even.  The classes are read
    off the shape's class table as numtheory.quartic_class names them:
    class 1 is the smaller root of -1, which is below q / 2, as 1 is and
    q - 1 is not."""
    q = shape.group_order
    if shape.n % 2 == 0 or q % 4 != 1 or not is_prime(q):
        return _inapplicable("quartic_generic")
    table = shape.class_table
    c0, c2 = table.count(1), table.count(q - 1)
    c1 = sum(2 * t < q for t in table) - c0
    classes = (c0, c1, c2, len(table) - c0 - c1 - c2)
    if c0 != c2 or c1 != classes[3]:
        return _ruled_out("quartic_generic", classes=classes, q=q)
    return _inconclusive("quartic_generic", classes=classes)


def check_odd_prime_order(shape: QuasiCrossShape) -> CriterionOutcome:
    """Character of odd prime order p = k_plus + k_minus; applies when q is
    also prime.  The sum over M of p-th roots of unity cannot vanish (the
    trivial root appears twice, via 1 and -1), so the sum over S must, which
    forces p | n."""
    p = shape.arm_sum
    if p == 2 or not is_prime(p) or not is_prime(shape.group_order):
        return _inapplicable("odd_prime_order")
    if shape.n % p != 0:
        return _ruled_out("odd_prime_order", p=p, n_mod_p=shape.n % p)
    return _inconclusive("odd_prime_order", p=p)


def check_power_square(shape: QuasiCrossShape) -> CriterionOutcome:
    """Squaring character for arms (4k - 1, 1): comparing the sum of squared
    products with the full sum of squares mod q makes 3 a zero divisor on one
    side only when k*n = 5 or 8 (mod 9), a contradiction."""
    if shape.k_minus != 1 or (shape.k_plus + 1) % 4 != 0:
        return _inapplicable("power_square")
    k = (shape.k_plus + 1) // 4
    r = k * shape.n % 9
    if r in (5, 8):
        return _ruled_out("power_square", k=k, kn_mod_9=r)
    return _inconclusive("power_square", k=k, kn_mod_9=r)


def check_power_cube(shape: QuasiCrossShape) -> CriterionOutcome:
    """Cubing character for arms (4k + 2, 1), k >= 1: the cube-sum identity
    makes 2 a zero divisor on one side only when n = 3 or 7 (mod 8)."""
    if shape.k_minus != 1 or shape.k_plus < 6 or (shape.k_plus - 2) % 4 != 0:
        return _inapplicable("power_cube")
    r = shape.n % 8
    if r in (3, 7):
        return _ruled_out("power_cube", n_mod_8=r)
    return _inconclusive("power_cube", n_mod_8=r)


# Values of t scanned at a time by _first_zero for three or more terms: the
# length of the packed rows, built once per class.  The outcome does not
# depend on it.  Timed as the CPU time of check_vandermonde on the 564
# dimensions whose scan the classify walk of (3,1) and (3,2) up to n = 4000
# reaches, best of 25 in three interleaved runs (Python 3.11, shared 2-vCPU
# Xeon VM): 64 took 0.042-0.050 s, 32 and 128 0.053-0.059 s, 256
# 0.064-0.071 s.  On all 8000 dimensions of those shapes, best of 7: 64
# 0.113 s, 128 0.122 s, 32 0.143 s, 256 0.152 s.  Shorter rows cost more
# blocks, longer ones a longer row build than most scans use.
_VANDERMONDE_BLOCK = 64


def _geometric_row(first: int, ratio: int, length: int, q: int) -> list[int]:
    """[first * ratio**t % q for t in range(length)]."""
    x = first % q
    return [x] + [x := x * ratio % q for _ in range(length - 1)]


def _first_zero(terms: list[tuple[int, int]], bound: int, q: int) -> int | None:
    """The smallest t with 0 <= t < bound and
    sum(w * g**t for w, g in terms) = 0 (mod q), or None.  q must be an odd
    prime below 2**64, and every w and g a unit mod q.  The empty sum
    vanishes at t = 0 and one term never does; otherwise the sum is divided
    once by its last term's g**t, as check_vandermonde describes.  Two terms
    are then a bounded discrete logarithm; three or more are scanned a block
    of values of t at a time, and the first block with a hit ends the scan."""
    if bound <= 0 or len(terms) == 1:
        return None
    if not terms:
        return 0
    *heads, (w_last, g_last) = terms
    inverse = pow(g_last, -1, q)
    ratios = [g * inverse % q for _, g in heads]
    if len(heads) == 1:
        return discrete_log(ratios[0], -w_last * pow(heads[0][0], -1, q), q, bound)
    block = min(_VANDERMONDE_BLOCK, bound)
    steps = [pow(r, block, q) for r in ratios]
    width = ((len(heads) * q + 1) * q).bit_length()  # W: every lane stays below 2**W
    stride = 64 * -(-2 * width // 64)  # bits per lane: whole words, at least 2W
    lanes = "<" + ("Q" + "x" * (stride // 8 - 8)) * block
    rows = [
        int.from_bytes(struct.pack(lanes, *_geometric_row(w, r, block, q)), "little")
        for (w, _), r in zip(heads, ratios)
    ]
    ones = int.from_bytes(struct.pack(lanes, *[1] * block), "little")
    constant = w_last % q * ones
    top = (1 << width) - 1
    low = top * ones  # the low W bits of every lane
    miss = (top - top // q) * ones  # carries a lane x * q^-1 into bit W iff q does not divide x
    flags = ones << width  # bit W of every lane
    q_inverse = pow(q, -1, 1 << width)
    coeffs = [1] * len(rows)
    for t0 in range(0, bound, block):
        v = sum(map(mul, coeffs, rows), constant)
        hits = flags & ~((v * q_inverse & low) + miss)
        if hits:
            t = t0 + ((hits & -hits).bit_length() - 1) // stride
            return t if t < bound else None
        coeffs = [c * s % q for c, s in zip(coeffs, steps)]
    return None


def check_vandermonde(shape: QuasiCrossShape) -> CriterionOutcome:
    """Power-sum test for prime q: a splitting forces the power sum
    P(i) = sum(m**i for m in M) to vanish mod q for some 1 <= i <= n, else
    the all-ones vector would be a kernel vector of an invertible Vandermonde
    matrix built from S.  All n power sums nonzero therefore rules the shape
    out; otherwise the witness is the smallest vanishing exponent.

    The sums are folded by sign and parity instead of summed over M.  With
    M = {-k_minus..-1, 1..k_plus} and (-j)**i = (-1)**i * j**i,

        P(2t + 1) = sum(j * (j*j)**t for k_minus < j <= k_plus)
        P(2t + 2) = 2 + sum(c(j) * j*j * (j*j)**t for 2 <= j <= k_plus)

    with c(j) = 2 for j <= k_minus and 1 above; j = 1 gives 0 to the odd sums
    and 2 to the even ones.  Each parity class is thus a sum of terms
    w * g**t, and P = 0 asks for the smallest t with sum(w * g**t) = 0.  The
    odd class is solved first, below n + 1, then the even class below the
    odd class's zero if it has one.  The empty class (the odd class of
    symmetric arms, k_plus = k_minus) vanishes at t = 0, so the first zero
    power is 1; a class of one term never vanishes.

    A class of m >= 2 terms is divided once by its last term's g**t, which
    leaves sum(w_i * r_i**t for i < m) + w_m = 0 with r_i = g_i / g_m and
    the constant w_m.  Two terms (the odd class when k_plus - k_minus == 2,
    the even class when k_plus == 2) ask for the smallest t with
    r**t = -w_m / w, a bounded discrete logarithm.  Three or more are
    scanned a block of B values of t at a time.

    The scan keeps its rows fixed and moves only scalars.  For t = t0 + j
    with j < B the equation reads sum(c_i * R_i[j] for i < m) + w_m = 0 with
    the fixed rows R_i[j] = w_i * r_i**j and the scalars c_i = r_i**t0.  The
    rows and the constant row w_m * ONES are built once per class; from one
    block to the next c_i gains a factor r_i**B, and nothing else moves.

    Each row is packed into one integer, one lane per j.  Its entries lie
    below q, and q < 2**64 since is_prime refuses larger moduli, so each
    packs as one little-endian 64-bit word.  A block then costs a few
    big-integer operations: v = sum(c_i * R_i for i < m) + w_m * ONES holds
    in lane j a value x_j < (m - 1) * q**2 + q, and W is chosen with
    (m - 1) * q**2 + q < 2**W; x_j is 0 mod q exactly when t0 + j solves the
    equation.  The lane stride is a whole number of 64-bit words and at
    least 2W bits, so the lanes of v * q^-1 do not overlap, with q^-1 the
    inverse of q mod 2**W.  Here q is an odd prime, and x_j = 0 (mod q) if
    and only if x_j * q^-1 mod 2**W is at most floor((2**W - 1) / q):
    multiplication by q^-1 permutes the residues mod 2**W and maps each
    multiple k * q below 2**W to k (the exact-division test of T. Granlund
    and P. L. Montgomery, "Division by invariant integers using
    multiplication", PLDI 1994).  Adding 2**W - 1 - floor((2**W - 1) / q) to
    each lane masked to W bits carries into bit W exactly in the lanes that
    miss, so the lowest lane without that bit is the smallest t of the block.
    """
    q = shape.group_order
    if not is_prime(q):
        return _inapplicable("vandermonde")
    k_plus, k_minus = shape.k_plus, shape.k_minus
    odd = [(j, j * j) for j in range(k_minus + 1, k_plus + 1)]
    even = [(2, 1)] + [((2 if j <= k_minus else 1) * j * j, j * j) for j in range(2, k_plus + 1)]
    first = shape.n + 1  # the smallest vanishing exponent found so far, or n + 1
    for offset, terms in ((1, odd), (2, even)):
        # t with 2t + offset < first.
        t = _first_zero(terms, (first - offset + 1) // 2, q)
        if t is not None:
            first = 2 * t + offset
    if first <= shape.n:
        return _inconclusive("vandermonde", first_zero_power=first)
    return _ruled_out("vandermonde", q=q, powers_checked=shape.n)


def check_psquare(shape: QuasiCrossShape) -> CriterionOutcome:
    """Zero-divisor accounting for a prime p with p <= k_plus < p**2 and
    p**2 | q: the p-torsion coset must be covered by multiplier multiples of
    p, which pins n*((k_plus mod p) + (k_minus mod p)) = p - 1; any other n
    is ruled out.  Every such p divides q, so they are read off q's
    factorization, ascending."""
    exempt = None
    for p, e in shape.factorization:
        if e >= 2 and p <= shape.k_plus < p * p:
            if shape.n * ((shape.k_plus % p) + (shape.k_minus % p)) != p - 1:
                return _ruled_out("psquare", p=p)
            exempt = p
    if exempt is None:
        return _inapplicable("psquare")
    return _inconclusive("psquare", p=exempt)


def check_divisors(
    shape: QuasiCrossShape, verdict_oracle: Mapping[int, VerdictStatus]
) -> CriterionOutcome:
    """Divisor recursion.  A splitting of Z_q together with d | q,
    gcd(d, k_plus#) = 1, collapses to a splitting of Z_(q/d) in dimension
    n' = (q - d) / ((k_plus + k_minus) * d).  So for every such proper
    divisor d, either that quotient fails to be a positive integer (which
    refutes dimension n outright) or dimension n' must not already be ruled
    out.  Divisors larger than n always fail the divisibility, so this loop
    subsumes the zero-divisor unique-representation bounds as special cases;
    prime-power divisors of q make it propagate non-existence upward.

    The d | q with gcd(d, k_plus#) = 1 are those with no prime factor
    p <= k_plus, so they are exactly the divisors of q's k_plus-rough part,
    the product of its prime powers p**e with p > k_plus.  Only those are
    enumerated, ascending, with d = 1 and d = q skipped.

    The oracle is read only at the reachable n' (all satisfy n' < n), in
    ascending order of d, and only until a divisor rules n out.  It may
    compute a verdict on lookup, as classify.Verdicts does.  A lookup that
    raises KeyError is a hard error (LookupError), never a silent pass.
    """
    q = shape.group_order
    step = shape.arm_sum
    for d in divisors((p, e) for p, e in shape.factorization if p > shape.k_plus):
        if d == 1 or d == q:
            continue
        if (q - d) % (step * d) != 0:
            return _ruled_out("divisors", d=d)
        n_prime = (q - d) // (step * d)
        try:
            status = verdict_oracle[n_prime]
        except KeyError:
            raise LookupError(
                f"divisor recursion at n={shape.n} reached n'={n_prime} (d={d}) "
                "with no verdict available"
            ) from None
        if status is _NO_TILING:
            return _ruled_out("divisors", d=d, n_prime=n_prime)
    return _inconclusive("divisors")


# Reporting order: cheapest and most explainable first.  The order only
# affects which criterion gets the first-fired attribution, never whether a
# dimension is ruled out.
SHAPE_CRITERIA: tuple[tuple[str, object], ...] = (
    ("geometry", check_geometry),
    ("arm_gcd", check_arm_gcd),
    ("quadratic_balance", check_quadratic_balance),
    ("char4_literal", check_char4_literal),
    ("quartic_generic", check_quartic_generic),
    ("odd_prime_order", check_odd_prime_order),
    ("power_square", check_power_square),
    ("power_cube", check_power_cube),
    ("vandermonde", check_vandermonde),
    ("psquare", check_psquare),
)

CRITERION_ORDER: tuple[str, ...] = tuple(cid for cid, _ in SHAPE_CRITERIA) + ("divisors",)

# Where a criterion can fire, when that is narrower than everywhere, keyed by
# criterion id: the class of q, the parity of n, and the last n for the
# shape, 0 where the shape never lets it fire.  Each rule restates a
# condition the check itself tests, so the criterion never fires elsewhere
# and classify's verdict walk does not call it there.
PRIME_Q_ONLY = frozenset({
    "quadratic_balance",  # Legendre symbols mod q need q prime
    "char4_literal",  # 6**n mod q decides a fourth power only for q prime
    "quartic_generic",  # order-4 characters mod q need q prime
    "odd_prime_order",  # a character of order p of Z_q*, which is cyclic for q prime
    "vandermonde",  # the Vandermonde matrix is invertible over the field Z_q
})
COMPOSITE_Q_ONLY = frozenset({
    "psquare",  # needs p**2 | q
    "divisors",  # needs a proper divisor of q
})
ODD_N_ONLY = frozenset({
    "quadratic_balance",  # an unbalanced M forces |S| = n even
    "char4_literal",  # a sum over S that must vanish forces |S| = n even
    "quartic_generic",  # unpaired classes force |S| = n even
})


def _never_unless(fires: bool) -> float:
    """LAST_FIRING_N of a criterion that can fire at every n or at none."""
    return inf if fires else 0


# Criterion id -> the largest n at which it can fire, from (k_plus, k_minus).
LAST_FIRING_N = {
    # fires only while n*(k_plus + k_minus) < lhs
    "geometry": lambda k_plus, k_minus: (_geometry_lhs(k_plus, k_minus) - 1) // (k_plus + k_minus),
    # consecutive arms only
    "arm_gcd": lambda k_plus, k_minus: _never_unless(k_minus == k_plus - 1),
    "char4_literal": lambda k_plus, k_minus: _never_unless((k_plus, k_minus) == (3, 1)),
    # q = n*(k_plus + k_minus) + 1 = 1 (mod 4) with n odd needs 4 | k_plus + k_minus
    "quartic_generic": lambda k_plus, k_minus: _never_unless((k_plus + k_minus) % 4 == 0),
    "odd_prime_order": lambda k_plus, k_minus: _never_unless(k_plus + k_minus > 2 and is_prime(k_plus + k_minus)),
    # arms (4k - 1, 1) and (4k + 2, 1), k >= 1
    "power_square": lambda k_plus, k_minus: _never_unless(k_minus == 1 and (k_plus + 1) % 4 == 0),
    "power_cube": lambda k_plus, k_minus: _never_unless(k_minus == 1 and k_plus >= 6 and (k_plus - 2) % 4 == 0),
    # k_plus = k_minus makes P(1) = sum(M) = 0
    "vandermonde": lambda k_plus, k_minus: _never_unless(k_plus != k_minus),
    # needs a prime p <= k_plus
    "psquare": lambda k_plus, k_minus: _never_unless(k_plus >= 2),
}


def outcomes(
    shape: QuasiCrossShape, verdict_oracle: Mapping[int, VerdictStatus]
) -> Iterator[CriterionOutcome]:
    """Every criterion's outcome on a shape, in reporting order: the shape
    criteria, then the divisor recursion reading verdict_oracle.  Every
    criterion runs, also where PRIME_Q_ONLY, COMPOSITE_Q_ONLY, ODD_N_ONLY or
    LAST_FIRING_N say it cannot fire, so check prints every row and takes
    its verdict from the rows that fire, and the tests have an ungated
    reference; classify.Verdicts.firings walks only the criteria that can
    fire.  Each outcome is computed only when the caller asks for it.
    SHAPE_CRITERIA is read on every call."""
    for _, check in SHAPE_CRITERIA:
        yield check(shape)
    yield check_divisors(shape, verdict_oracle)
