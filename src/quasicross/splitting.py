"""Core data model: quasi-cross shapes, multiplier and splitter sets,
splitting verification, and integer bases for the lattice a verified
splitting induces.

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
from functools import cached_property, lru_cache
from itertools import accumulate
from math import gcd, prod
from typing import NamedTuple, Sequence

from .numtheory import factorize

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
    "verify_splitting",
]


def check_arms(k_plus: int, k_minus: int) -> None:
    """Raise ValueError unless the arm lengths satisfy 1 <= k_minus <= k_plus."""
    if k_minus < 1 or k_plus < k_minus:
        raise ValueError(f"arms must satisfy 1 <= k_minus <= k_plus, got ({k_plus}, {k_minus})")


class QuasiCrossShape(namedtuple("QuasiCrossShape", "k_plus k_minus n")):
    """Arm lengths (k_plus forward, k_minus backward along each axis) and
    dimension n.  The cyclic group split by a lattice tiling has order
    q = n*(k_plus + k_minus) + 1.

    The shape is the tuple (k_plus, k_minus, n), so equality, hashing and
    repr see only those.  It also carries, in its instance __dict__, the
    facts that several criteria read: arm_sum and group_order are stored
    once, at construction, and the factorization of q is computed once, on
    first use.  Assigning any attribute raises AttributeError."""

    def __new__(cls, k_plus: int, k_minus: int, n: int):
        check_arms(k_plus, k_minus)
        if n < 1:
            raise ValueError(f"dimension must be >= 1, got {n}")
        self = super().__new__(cls, k_plus, k_minus, n)
        arm_sum = k_plus + k_minus
        self.__dict__.update(arm_sum=arm_sum, group_order=n * arm_sum + 1)
        return self

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    @cached_property
    def factorization(self) -> tuple[tuple[int, int], ...]:
        """q's (prime, exponent) pairs, primes ascending."""
        return factorize(self.group_order)


def _check_residues(values: Sequence[int], q: int, what: str) -> None:
    """Raise ValueError at the first value outside [1, q - 1] or seen before,
    calling it a `what`."""
    seen = set()
    for v in values:
        if not 1 <= v <= q - 1:
            raise ValueError(f"{what} {v} outside [1, {q - 1}]")
        if v in seen:
            raise ValueError(f"duplicate {what} {v}")
        seen.add(v)


class MultiplierSet(namedtuple("MultiplierSet", "q residues")):
    """Distinct nonzero residues mod q acting as multipliers."""

    __slots__ = ()

    def __new__(cls, q: int, residues: tuple[int, ...]):
        if q < 2:
            raise ValueError(f"group order must be >= 2, got {q}")
        if not residues:
            raise ValueError("multiplier set must not be empty")
        _check_residues(residues, q, "multiplier residue")
        return super().__new__(cls, q, residues)


def interval_multipliers(k_plus: int, k_minus: int, q: int) -> MultiplierSet:
    """Residues of -k_minus..-1, 1..k_plus reduced mod q, in that order."""
    check_arms(k_plus, k_minus)
    if q <= k_plus + k_minus:
        raise ValueError(f"q={q} leaves interval multipliers indistinct")
    res = [q + m for m in range(-k_minus, 0)] + list(range(1, k_plus + 1))
    return MultiplierSet(q, tuple(res))


def multiplier_set(shape: QuasiCrossShape) -> MultiplierSet:
    """Interval multiplier set of a shape over its group order."""
    return interval_multipliers(shape.k_plus, shape.k_minus, shape.group_order)


class Splitting(namedtuple("Splitting", "q k_plus k_minus splitters")):
    """Splitter-set certificate for the interval multiplier set of a
    (k_plus, k_minus) quasi-cross over Z_q.

    Construction enforces structure only (splitters distinct, in range);
    whether the products actually cover Z_q minus 0 is decided by
    verify_splitting.  Splitters are stored sorted, the canonical form used
    for certificate deduplication.
    """

    __slots__ = ()

    def __new__(cls, q: int, k_plus: int, k_minus: int, splitters: Sequence[int]):
        check_arms(k_plus, k_minus)
        if q <= k_plus + k_minus:
            raise ValueError(f"q={q} too small for arms ({k_plus}, {k_minus})")
        ordered = tuple(sorted(splitters))
        _check_residues(ordered, q, "splitter")
        return super().__new__(cls, q, k_plus, k_minus, ordered)

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


@lru_cache(maxsize=None)
def verify_splitting(splitting: Splitting) -> VerificationResult:
    """verify_cover applied to a candidate certificate.

    This is the one place that decides whether a certificate verifies.  The
    result is memoized by the Splitting, an immutable tuple (q, k_plus,
    k_minus, sorted splitters), so each distinct certificate is
    covered once per process, whichever of store, load, classify_range or
    lattice_basis asks first.  A failing result is memoized too; every
    caller still raises on it, on every call.
    """
    return verify_cover(splitting.q, splitting.multipliers.residues, splitting.splitters)


class LatticeBasis(NamedTuple):
    """Row basis in reduced Hermite form: upper triangular, positive
    diagonal, and 0 <= a_ij < a_jj right of the diagonal, so the entries off
    the diagonal lie in the pivot columns, those of diagonal > 1.  Built by
    lattice_basis, which checks all of this."""

    rows: tuple[tuple[int, ...], ...]

    @property
    def determinant(self) -> int:
        out = 1
        for i, row in enumerate(self.rows):
            out *= row[i]
        return out


def _ext_gcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, x, y) with g = gcd(a, b) = x*a + y*b."""
    x0, y0, x1, y1 = 1, 0, 0, 1
    while b:
        t = a // b
        a, b = b, a - t * b
        x0, x1 = x1, x0 - t * x1
        y0, y1 = y1, y0 - t * y1
    if a < 0:
        a, x0, y0 = -a, -x0, -y0
    return a, x0, y0


def phi_kernel_basis(q: int, splitters: Sequence[int]) -> list[list[int]]:
    """Hermite-form basis of {x in Z^n : sum x_i s_i = 0 (mod q)}.

    Works for any splitter list, splitting or not; only the homomorphism phi
    matters.  The basis is written down from the gcd chain
    g_i = gcd(s_i, ..., s_n, q), with g_{n+1} = q, walking i = n down to 1.
    Row i has diagonal g_{i+1}/g_i, the least x_i that the columns to its
    right can cancel, and to its right -(s_i/g_i) times a Bezout vector c
    with sum_{j>i} c_j s_j = g_{i+1} (mod q).  Each row is then reduced
    against the rows below it, giving the unique Hermite form: upper
    triangular, positive diagonal, 0 <= a_ij < a_jj.

    Only pivot columns, those with diagonal g_{i+1}/g_i > 1, carry entries
    off the diagonal.  Where g_{i+1} divides s_i, row i is no pivot: its
    Bezout step would give x = 0 and y = 1, so c keeps its support on pivot
    columns and _ext_gcd is not run at all.  A row therefore lives on its
    own column and the pivot columns to its right, and reducing it against
    a row of diagonal 1 changes nothing.  The rows from one pivot (or the
    first row) up to the next pivot see the same pivot columns to their
    right, so their entries there are computed and reduced against the
    pivot rows a column at a time, one list comprehension per pair of pivot
    columns: O(|P|) Python steps per row for |P| <= log2(q) pivots, plus
    writing out the n rows of length n.
    """
    n = len(splitters)
    if n == 0:
        raise ValueError("need at least one splitter")
    if q < 2:
        raise ValueError(f"group order must be >= 2, got {q}")
    s = [x % q for x in splitters]
    gs = list(accumulate(reversed(s), gcd, initial=q))[::-1]
    rows = [[0] * n for _ in range(n)]
    for i, row in enumerate(rows):
        row[i] = gs[i + 1] // gs[i]
    # gs[i] = g_{i+1} of the docstring.  The pivot columns right of the rows
    # lo..hi-1, ascending; for each, its row restricted to itself and the
    # pivot columns after it; and the Bezout vector on them:
    # sum bezout[k] * s[pivots[k]] = gs[hi] (mod q).
    pivots: list[int] = []
    pivot_rows: list[list[int]] = []
    bezout: list[int] = []
    starts = sorted({0, *(i for i in range(n) if gs[i] != gs[i + 1])})
    for lo, hi in reversed(list(zip(starts, starts[1:] + [n]))):
        tails = [[-(s[r] // gs[r]) * c % q for r in range(lo, hi)] for c in bezout]
        for k, pivot_row in enumerate(pivot_rows):
            ts = [a // pivot_row[0] for a in tails[k]]
            if any(ts):
                for m, b in enumerate(pivot_row, start=k):
                    tails[m] = [a - t * b for a, t in zip(tails[m], ts)]
        for j, tail in zip(pivots, tails):
            for row, a in zip(rows[lo:hi], tail):
                row[j] = a
        if gs[lo] != gs[lo + 1]:
            _, x, y = _ext_gcd(s[lo], gs[lo + 1])
            pivots.insert(0, lo)
            pivot_rows.insert(0, [rows[lo][lo]] + [tail[0] for tail in tails])
            bezout = [x % q] + [y * c % q for c in bezout]
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
    """Canonical basis of the tiling lattice of a verified splitting.

    Rejects splittings that fail verification.  Postconditions are checked,
    under python -O too: |det| equals q, and every row is in the reduced
    Hermite form that LatticeBasis claims (zero left of its diagonal,
    positive on it, every nonzero entry a right of it in a pivot column j
    with 0 < a < a_jj) and maps to 0 under phi.  So the diagonal product
    that LatticeBasis.determinant takes is the determinant.  A failure
    raises AssertionError naming the first bad row and its defect.

    A row is read at its diagonal and its pivot columns to the right, and
    row.count(0) proves every other entry zero: O(|P|) Python steps per row
    plus one C-level scan.  Only a rejected row is read densely, to name
    its defect.
    """
    check = verify_splitting(splitting)
    if not check:
        raise ValueError(f"splitting does not verify: {check.reason}")
    q, splitters = splitting.q, splitting.splitters
    n = len(splitters)
    basis = LatticeBasis(tuple(map(tuple, phi_kernel_basis(q, splitters))))
    rows = basis.rows
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
    """Parse a certificate line; raises ValueError with context on bad input."""
    try:
        obj = json.loads(line)
    except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nesting too deep
        raise ValueError(f"bad certificate line: {exc}") from exc
    if not isinstance(obj, dict):
        raise ValueError("certificate line must be a JSON object")
    missing = [k for k in ("q", "k_plus", "k_minus", "splitters") if k not in obj]
    if missing:
        raise ValueError(f"certificate line missing fields: {', '.join(missing)}")
    q, kp, km, spl = obj["q"], obj["k_plus"], obj["k_minus"], obj["splitters"]
    # type() rather than isinstance(): JSON true/false must not pass as 1/0.
    if not all(type(v) is int for v in (q, kp, km)) or not (
        isinstance(spl, list) and all(type(s) is int for s in spl)
    ):
        raise ValueError("certificate fields must be integers and a list of integers")
    return Splitting(q, kp, km, tuple(spl))
