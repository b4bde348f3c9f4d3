"""Core data model: quasi-cross shapes, multiplier sets, splittings (each
verified when it is built), and integer bases for the lattice a splitting
induces.

A splitting of Z_q pairs the multiplier set M (here the interval
-k_minus..k_plus with 0 removed, reduced mod q) with a splitter set S such
that the products m*s sweep every nonzero residue exactly once.  Such a
splitting with |S| = n is equivalent to a lattice tiling of R^n by the
(k_plus, k_minus, n)-quasi-cross, the lattice being the kernel of
phi(x_1..x_n) = sum x_i s_i mod q.
"""

from __future__ import annotations

import json
from collections import namedtuple
from functools import cached_property
from itertools import accumulate
from math import gcd, prod
from typing import Iterable, NamedTuple, Sequence

from .numtheory import factorize, is_prime

__all__ = [
    "LatticeBasis",
    "MultiplierSet",
    "QuasiCrossShape",
    "Splitting",
    "VerificationResult",
    "check_arms",
    "from_json_line",
    "interval_multipliers",
    "lattice_basis",
    "multiplier_set",
    "phi_kernel_basis",
    "to_json_line",
    "verify_cover",
]


def check_arms(k_plus: int, k_minus: int) -> None:
    """Raise ValueError unless the arm lengths are ints and satisfy
    1 <= k_minus <= k_plus.  An int is tested by type(), so a bool is
    refused too."""
    if not type(k_plus) is type(k_minus) is int:
        raise ValueError(f"arms must be ints, got ({k_plus!r}, {k_minus!r})")
    if k_minus < 1 or k_plus < k_minus:
        raise ValueError(f"arms must satisfy 1 <= k_minus <= k_plus, got ({k_plus}, {k_minus})")


class QuasiCrossShape(namedtuple("QuasiCrossShape", "k_plus k_minus n")):
    """Arm lengths (k_plus forward, k_minus backward along each axis) and
    dimension n.  The cyclic group split by a lattice tiling has order
    q = n*(k_plus + k_minus) + 1.

    Construction refuses, with ValueError, arms that check_arms refuses, a
    dimension that is not an int (by type(), so a bool too) or is below 1,
    and any q that does not fit in 64 bits, the range of numtheory's exact
    arithmetic.  So every shape has int fields and 1 < q < 2**64.

    The shape is the tuple (k_plus, k_minus, n), so equality, hashing and
    repr see only those.  It also carries, in its instance __dict__, the
    facts that several criteria read: arm_sum and group_order are stored
    once, at construction, and the factorization of q and, at prime q, the
    class table of M are each computed once, on first use.  Assigning any
    attribute raises AttributeError."""

    def __new__(cls, k_plus: int, k_minus: int, n: int):
        # A shape is built per dimension walked, so valid input costs one
        # chained type test, one chained comparison and one shift;
        # check_arms is called only to raise its message.
        if not (type(k_plus) is type(k_minus) is type(n) is int and 1 <= k_minus <= k_plus):
            check_arms(k_plus, k_minus)
            raise ValueError(f"dimension must be an int, got {n!r}")
        if n < 1:
            raise ValueError(f"dimension must be >= 1, got {n}")
        # As the namedtuple's own __new__ does, without one more call.
        self = tuple.__new__(cls, (k_plus, k_minus, n))
        facts = self.__dict__
        facts["arm_sum"] = arm_sum = k_plus + k_minus
        facts["group_order"] = q = n * arm_sum + 1
        if q >> 64:
            raise ValueError(f"dimensions up to {n} reach q={q}; group orders must fit in 64 bits")
        return self

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    @cached_property
    def factorization(self) -> tuple[tuple[int, int], ...]:
        """q's (prime, exponent) pairs, primes ascending."""
        return factorize(self.group_order)

    @cached_property
    def class_table(self) -> tuple[int, ...]:
        """m**e mod q for each m of M, in M's order (-k_minus..-1, then
        1..k_plus), with e = (q - 1) / d, d = 4 if q = 1 (mod 4) and else 2.
        q must be prime, else ValueError.

        Each entry is a d-th root of 1 and names the class of m under the
        characters of order d.  m is a square exactly when m**((q - 1) / 2)
        is 1: the entry itself at d = 2, its square at d = 4.  At d = 4 the
        entries 1, r, q - 1 and q - r, with r the smaller root of -1, are
        the quartic classes 0 to 3 of numtheory.quartic_class.  One pow per
        arm length j <= k_plus; -j takes the sign (-1)**e."""
        q = self.group_order
        if not is_prime(q):
            raise ValueError(f"class table needs a prime group order, got q={q}")
        e = (q - 1) // (4 if q % 4 == 1 else 2)
        roots: dict[int, int] = {}  # one int object per root, however long M is
        powers = [roots.setdefault(u, u) for u in (pow(j, e, q) for j in range(1, self.k_plus + 1))]
        negated = powers[self.k_minus - 1 :: -1]
        if e % 2:
            negated = [roots.setdefault(q - u, q - u) for u in negated]
        return (*negated, *powers)


def _check_residues(values: Sequence[int], q: int, what: str) -> None:
    """Raise ValueError at the first value that is not an int (by type(), so
    a bool is refused too), lies outside [1, q - 1] or was seen before,
    calling it a `what`."""
    seen = set()
    for v in values:
        if type(v) is not int:
            raise ValueError(f"{what} {v!r} is not an int")
        if not 1 <= v <= q - 1:
            raise ValueError(f"{what} {v} outside [1, {q - 1}]")
        if v in seen:
            raise ValueError(f"duplicate {what} {v}")
        seen.add(v)


class MultiplierSet(namedtuple("MultiplierSet", "q residues")):
    """Distinct nonzero residues mod q acting as multipliers.

    Construction refuses, with ValueError, a q that is not an int (by
    type(), so a bool too), is below 2 or does not fit in 64 bits, an empty
    set, and a residue that is not an int, lies outside [1, q - 1] or
    repeats.  The search takes its q from here.  residues may be any
    iterable: it is read into the stored tuple only after q has passed."""

    __slots__ = ()

    def __new__(cls, q: int, residues: Iterable[int]):
        if type(q) is not int or q >> 64 > 0:
            need = "fit in 64 bits" if type(q) is int else "be ints"
            raise ValueError(f"multiplier set got q={q!r}; group orders must {need}")
        if q < 2:
            raise ValueError(f"group order must be >= 2, got {q}")
        residues = tuple(residues)
        if not residues:
            raise ValueError("multiplier set must not be empty")
        _check_residues(residues, q, "multiplier residue")
        return super().__new__(cls, q, residues)


def interval_multipliers(k_plus: int, k_minus: int, q: int) -> MultiplierSet:
    """Residues of -k_minus..-1, 1..k_plus reduced mod q, in that order.

    Raises ValueError for arms that check_arms refuses, for an int q <=
    k_plus + k_minus, where the residues would not be distinct, and for any
    q that MultiplierSet refuses; Splitting relies on all three."""
    check_arms(k_plus, k_minus)
    # Any other q reaches MultiplierSet, which refuses it before it reads
    # the residues, so none is computed from it.
    if type(q) is int and q <= k_plus + k_minus:
        raise ValueError(f"q={q} too small for arms ({k_plus}, {k_minus})")
    return MultiplierSet(q, (m % q for m in range(-k_minus, k_plus + 1) if m))


def multiplier_set(shape: QuasiCrossShape) -> MultiplierSet:
    """Interval multiplier set of a shape over its group order."""
    return interval_multipliers(shape.k_plus, shape.k_minus, shape.group_order)


class Splitting(namedtuple("Splitting", "q k_plus k_minus splitters")):
    """A splitting of Z_q: a splitter set S for the interval multiplier set
    M of a (k_plus, k_minus) quasi-cross over Z_q, such that the products
    m*s are exactly Z_q minus 0.

    Construction is the one place a certificate is verified.  q, the arms
    and every splitter must be ints, the splitters distinct and in
    [1, q - 1], and verify_cover must accept the products; anything else
    raises ValueError.  _make, and so _replace, builds through the
    constructor, as copy and pickle do, so every Splitting is a splitting.
    Splitters are stored sorted, the canonical form used for certificate
    deduplication.
    """

    __slots__ = ()

    def __new__(cls, q: int, k_plus: int, k_minus: int, splitters: Sequence[int]):
        splitters = tuple(splitters)
        # type() rather than isinstance(): JSON true/false must not pass as
        # 1/0.  Checked first, so no sort or comparison meets a non-int.
        if not all(type(v) is int for v in (q, k_plus, k_minus, *splitters)):
            raise ValueError("certificate fields must be integers and a list of integers")
        multipliers = interval_multipliers(k_plus, k_minus, q)
        ordered = tuple(sorted(splitters))
        _check_residues(ordered, q, "splitter")
        check = verify_cover(q, multipliers.residues, ordered)
        if not check:
            raise ValueError(f"certificate q={q} does not verify: {check.reason}")
        return super().__new__(cls, q, k_plus, k_minus, ordered)

    @classmethod
    def _make(cls, iterable) -> Splitting:
        return cls(*iterable)

    @property
    def multipliers(self) -> MultiplierSet:
        return interval_multipliers(self.k_plus, self.k_minus, self.q)

    @property
    def dimension(self) -> int:
        return len(self.splitters)


class VerificationResult(NamedTuple):
    """Whether a cover holds, and if not, why.  Its truth value is ok."""

    ok: bool
    reason: str | None = None

    def __bool__(self) -> bool:
        return self.ok


def verify_cover(q: int, multipliers: Sequence[int], splitters: Sequence[int]) -> VerificationResult:
    """Decide whether {m*s mod q} is exactly Z_q minus 0.

    All products must be nonzero and pairwise distinct, and every nonzero
    residue must be hit.  On failure the reason names the first zero
    product, collision, or missed residue.  O(|M|*|S|) time and memory:
    the products are distinct nonzero residues, so the cover is complete
    exactly when there are q - 1 of them, and otherwise the first missed
    residue is at most one more than their number.
    """
    owner: dict[int, tuple[int, int]] = {}
    for s in splitters:
        for m in multipliers:
            p = m * s % q
            if p == 0:
                return VerificationResult(False, f"zero product {m}*{s} = 0 (mod {q})")
            if p in owner:
                m0, s0 = owner[p]
                return VerificationResult(
                    False, f"collision at {p}: {m0}*{s0} = {m}*{s} (mod {q})"
                )
            owner[p] = (m, s)
    if len(owner) < q - 1:
        missed = next(e for e in range(1, q) if e not in owner)
        return VerificationResult(False, f"residue {missed} not covered")
    return VerificationResult(True)


class LatticeBasis(NamedTuple):
    """Row basis in reduced Hermite form: n rows of n entries, upper
    triangular, positive diagonal, and 0 <= a_ij < a_jj right of the
    diagonal, so the entries off the diagonal lie in the pivot columns, those
    of diagonal > 1.  Built by lattice_basis, which checks all of this."""

    rows: tuple[tuple[int, ...], ...]

    @property
    def determinant(self) -> int:
        return prod(row[i] for i, row in enumerate(self.rows))


def phi_kernel_basis(q: int, splitters: Sequence[int]) -> list[list[int]]:
    """Hermite-form basis of {x in Z^n : sum x_i s_i = 0 (mod q)}.

    Works for any splitter list, splitting or not; only the homomorphism phi
    matters.  The basis is read off the gcd chain g_i = gcd(s_i, ..., s_n, q),
    with g_{n+1} = q.  The subgroups H_i = g_i Z_q form a chain, and each
    step H_j / H_{j+1} is cyclic of order d_j = g_{j+1}/g_j, generated by s_j
    since s_j/g_j is a unit mod d_j.  So every t in H_{i+1} is sum x_j s_j
    for exactly one digit vector with 0 <= x_j < d_j, j > i: walking j
    upwards, x_j = (t/g_j) (s_j/g_j)^-1 mod d_j and t becomes t - x_j s_j,
    which lies in H_{j+1}.  Row i has diagonal d_i, the least x_i that the
    columns to its right can cancel, and to its right the digits of
    t = -d_i s_i mod q.  That is upper triangular with a positive diagonal
    and 0 <= a_ij < a_jj: the unique reduced Hermite form.

    Only pivot columns, those with d_j > 1, carry digits, so a row takes
    O(|P|) Python steps for |P| <= log2(q) pivots, plus writing out the n
    rows of length n.  Each pivot costs one modular inverse.
    """
    n = len(splitters)
    if n == 0:
        raise ValueError("need at least one splitter")
    if q < 2:
        raise ValueError(f"group order must be >= 2, got {q}")
    s = [x % q for x in splitters]
    gs = list(accumulate(reversed(s), gcd, initial=q))[::-1]
    rows = [[0] * n for _ in range(n)]
    # gs[i] = g_{i+1} of the docstring.  (j, g, d, (s_j/g)^-1 mod d, s_j) of
    # each pivot column right of row i, ascending.
    pivots: list[tuple[int, int, int, int, int]] = []
    for i in range(n - 1, -1, -1):
        g, d = gs[i], gs[i + 1] // gs[i]
        row = rows[i]
        row[i] = d
        t = -d * s[i] % q
        for j, g_j, d_j, inverse, s_j in pivots:
            row[j] = x = t // g_j * inverse % d_j
            t = (t - x * s_j) % q
        if d > 1:
            pivots.insert(0, (i, g, d, pow(s[i] // g, -1, d), s[i]))
    return rows


def _row_defect(rows: Sequence[Sequence[int]], i: int, q: int) -> str:
    """Name the first defect of basis row i + 1, read densely: an entry left
    of its diagonal or a diagonal <= 0, a nonzero entry a right of it
    outside 0 < a < a_jj, or else phi of the row nonzero mod q."""
    row = rows[i]
    if row[i] <= 0 or any(row[:i]):
        return f"basis row {i + 1} is not upper triangular with a positive diagonal"
    for j in range(i + 1, len(row)):
        if row[j] and not 0 < row[j] < rows[j][j]:
            return f"basis row {i + 1} is not reduced: entry {row[j]} in column {j + 1}, whose diagonal is {rows[j][j]}"
    return f"basis row {i + 1} is not in the kernel of phi mod {q}"


def lattice_basis(splitting: Splitting) -> LatticeBasis:
    """Canonical basis of the tiling lattice of a splitting, which verified
    itself when it was built.

    Postconditions are checked, under python -O too: the basis is n rows of
    n entries, |det| equals q, and every row is in the reduced Hermite form
    that LatticeBasis claims (zero left of its diagonal, positive on it,
    every nonzero entry a right of it in a pivot column j with
    0 < a < a_jj) and maps to 0 under phi.
    So the diagonal product that LatticeBasis.determinant takes is the
    determinant.  A failure raises AssertionError naming the bad shape, or
    the first bad row and its defect.

    A row is read at its diagonal and its pivot columns to the right, and
    row.count(0) proves every other entry zero: O(|P|) Python steps per row
    plus one C-level scan.  Only a rejected row is read densely, to name
    its defect.
    """
    q, splitters = splitting.q, splitting.splitters
    n = len(splitters)
    basis = LatticeBasis(tuple(map(tuple, phi_kernel_basis(q, splitters))))
    rows = basis.rows
    if len(rows) != n or set(map(len, rows)) != {n}:
        raise AssertionError(f"basis shape {len(rows)} x {sorted(set(map(len, rows)))} is not {n} x {n}")
    diagonal = [row[i] for i, row in enumerate(rows)]
    if abs(prod(diagonal)) != q:
        raise AssertionError(f"basis determinant {prod(diagonal)} is not +-{q}")
    # (column, diagonal, splitter) of each pivot column right of the row.
    right = [(j, a_jj, splitters[j]) for j, a_jj in enumerate(diagonal) if a_jj > 1]
    for i, row in enumerate(rows):
        if right and right[0][0] == i:
            right = right[1:]
        total, nonzero, ok = row[i] * splitters[i], 1, row[i] > 0
        for j, a_jj, s_j in right:
            a = row[j]
            if a:
                ok &= 0 < a < a_jj
                total += a * s_j
                nonzero += 1
        if not ok or row.count(0) != n - nonzero or total % q:
            raise AssertionError(_row_defect(rows, i, q))
    return basis


def to_json_line(splitting: Splitting) -> str:
    """One-line JSON certificate: {"q", "k_plus", "k_minus", "splitters"}."""
    return json.dumps(
        {
            "q": splitting.q,
            "k_plus": splitting.k_plus,
            "k_minus": splitting.k_minus,
            "splitters": list(splitting.splitters),
        }
    )


def from_json_line(line: str) -> Splitting:
    """Parse a certificate line into a Splitting, which checks the field
    types and verifies the cover; raises ValueError with context on bad
    input."""
    try:
        obj = json.loads(line)
    except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nesting too deep
        raise ValueError(f"bad certificate line: {exc}") from exc
    if not isinstance(obj, dict):
        raise ValueError("certificate line must be a JSON object")
    missing = [k for k in ("q", "k_plus", "k_minus", "splitters") if k not in obj]
    if missing:
        raise ValueError(f"certificate line missing fields: {', '.join(missing)}")
    if not isinstance(obj["splitters"], list):
        raise ValueError("certificate fields must be integers and a list of integers")
    return Splitting(obj["q"], obj["k_plus"], obj["k_minus"], obj["splitters"])
