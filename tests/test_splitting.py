import math
import random

import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from quasicross import splitting
from quasicross.classify import default_certificates_path, load_certificates
from quasicross.search import SearchStatus, find_splitting
from quasicross.splitting import (
    _ext_gcd,
    MultiplierSet,
    QuasiCrossShape,
    Splitting,
    VerificationResult,
    from_json_line,
    interval_multipliers,
    lattice_basis,
    multiplier_set,
    phi_kernel_basis,
    to_json_line,
    verify_cover,
    verify_splitting,
)

Q25_SPLITTERS = (1, 5, 6, 11, 16, 21)


def test_shape_validation():
    QuasiCrossShape(3, 1, 1)
    QuasiCrossShape(3, 3, 2)  # equal arms admitted
    with pytest.raises(ValueError, match=r"^arms must satisfy 1 <= k_minus <= k_plus, got \(1, 2\)$"):
        QuasiCrossShape(1, 2, 3)
    with pytest.raises(ValueError, match=r"^arms must satisfy 1 <= k_minus <= k_plus, got \(3, 0\)$"):
        QuasiCrossShape(3, 0, 3)
    with pytest.raises(ValueError, match="^dimension must be >= 1, got 0$"):
        QuasiCrossShape(3, 1, 0)


def test_group_order():
    assert QuasiCrossShape(3, 1, 6).group_order == 25
    assert QuasiCrossShape(3, 2, 13).group_order == 66


def test_shape_identity_is_its_arms_and_dimension():
    shape = QuasiCrossShape(3, 2, 13)
    assert (shape.arm_sum, shape.group_order) == (5, 66)
    assert repr(shape) == "QuasiCrossShape(k_plus=3, k_minus=2, n=13)"
    shape.factorization  # cached on the instance
    assert shape == QuasiCrossShape(3, 2, 13) and hash(shape) == hash(QuasiCrossShape(3, 2, 13))
    assert shape != QuasiCrossShape(3, 2, 12)
    for name in ("k_plus", "k_minus", "n", "arm_sum", "group_order", "factorization"):
        with pytest.raises(AttributeError):
            setattr(shape, name, 1)
    assert (shape.n, shape.group_order, shape.factorization) == (13, 66, ((2, 1), (3, 1), (11, 1)))


def test_multiplier_set_examples():
    assert multiplier_set(QuasiCrossShape(3, 1, 1)).residues == (4, 1, 2, 3)
    assert multiplier_set(QuasiCrossShape(3, 1, 3)).residues == (12, 1, 2, 3)
    assert multiplier_set(QuasiCrossShape(3, 2, 2)).residues == (9, 10, 1, 2, 3)


def test_multiplier_set_validation():
    with pytest.raises(ValueError):
        interval_multipliers(3, 1, 4)  # residues would collide
    for residues, message in (
        ((3, 3), "duplicate multiplier residue 3"),
        ((0,), "multiplier residue 0 outside [1, 9]"),
        ((10, 3), "multiplier residue 10 outside [1, 9]"),
    ):
        with pytest.raises(ValueError) as info:
            MultiplierSet(10, residues)
        assert str(info.value) == message
    with pytest.raises(ValueError, match="empty"):
        MultiplierSet(5, ())
    with pytest.raises(ValueError, match="^group order must be >= 2, got 1$"):
        MultiplierSet(1, (1,))
    with pytest.raises(AttributeError):
        MultiplierSet(10, (1, 9)).residues = (1,)


def test_verify_q5():
    s = Splitting(5, 3, 1, (1,))
    assert verify_splitting(s)


def test_verify_q25_against_exhaustive_products():
    s = Splitting(25, 3, 1, Q25_SPLITTERS)
    products = {m * t % 25 for m in s.multipliers.residues for t in s.splitters}
    assert products == set(range(1, 25))
    assert verify_splitting(s)


def test_verify_collision_diagnostic():
    s = Splitting(13, 3, 1, (1, 2, 3))
    result = verify_splitting(s)
    assert not result
    assert "collision at 2" in result.reason


def test_verify_missed_element_diagnostic():
    result = verify_cover(25, (24, 1, 2, 3), (1, 5, 6, 11, 16))
    assert not result
    assert "4 not covered" in result.reason
    # memory follows the products, not q
    result = verify_cover(2**61 - 1, (2**61 - 2, 1, 2, 3), (1,))
    assert not result
    assert result.reason == "residue 4 not covered"


def test_verify_zero_product():
    result = verify_cover(10, (5,), (2, 3))
    assert not result
    assert "zero product" in result.reason
    # A non-empty tuple is truthy; every `if not check:` relies on __bool__.
    assert bool(VerificationResult(False, "r")) is False
    assert bool(VerificationResult(True)) is True


def test_structural_errors_differ_from_verification_failure():
    for splitters, message in (
        ((0, 2), "splitter 0 outside [1, 12]"),
        ((13,), "splitter 13 outside [1, 12]"),
        ((2, 2), "duplicate splitter 2"),
        ((7, 2, 7, 2), "duplicate splitter 2"),  # checked in sorted order
    ):
        with pytest.raises(ValueError) as info:
            Splitting(13, 3, 1, splitters)
        assert str(info.value) == message
    with pytest.raises(ValueError, match=r"^q=4 too small for arms \(3, 1\)$"):
        Splitting(4, 3, 1, (1,))
    with pytest.raises(ValueError, match=r"^arms must satisfy 1 <= k_minus <= k_plus, got \(1, 3\)$"):
        Splitting(13, 1, 3, (1,))
    # whereas a wrong-but-well-formed splitting just fails verification
    assert not verify_splitting(Splitting(13, 3, 1, (1, 2, 3)))


def test_splitters_canonically_sorted():
    s = Splitting(25, 3, 1, (21, 1, 16, 5, 11, 6))
    assert s.splitters == Q25_SPLITTERS
    other = Splitting(25, 3, 1, [6, 11, 5, 16, 1, 21])
    assert s == other and hash(s) == hash(other)
    for name in ("q", "k_plus", "k_minus", "splitters"):
        with pytest.raises(AttributeError):
            setattr(s, name, 1)


def test_verified_size_invariant():
    for s in (Splitting(5, 3, 1, (1,)), Splitting(25, 3, 1, Q25_SPLITTERS), Splitting(6, 3, 2, (1,))):
        assert verify_splitting(s)
        k = len(s.multipliers.residues)
        assert (s.q - 1) % k == 0
        assert len(s.splitters) == (s.q - 1) // k


@given(st.integers(min_value=1, max_value=24))
def test_unit_action_preserves_verification(u):
    if math.gcd(u, 25) != 1:
        return
    base = Splitting(25, 3, 1, Q25_SPLITTERS)
    scaled = Splitting(25, 3, 1, tuple(u * s % 25 for s in base.splitters))
    assert verify_splitting(scaled)


@given(st.integers(min_value=1, max_value=12))
def test_unit_action_prime_case(u):
    # q = 13 with the full interval -6..6 splits with S = {1}.
    base = Splitting(13, 6, 6, (1,))
    assert verify_splitting(base)
    scaled = Splitting(13, 6, 6, (u,))
    assert verify_splitting(scaled)


def _check_basis_postconditions(q, splitters, rows):
    # Kernel rows of the right index span the kernel; triangular and reduced
    # then makes them its unique Hermite basis.
    n = len(splitters)
    assert len(rows) == n
    det = sympy.Matrix(rows).det()
    assert abs(int(det)) == q // math.gcd(q, *splitters)
    for row in rows:
        assert sum(x * s for x, s in zip(row, splitters)) % q == 0
    for i in range(n):
        assert rows[i][i] > 0
        for j in range(i):
            assert rows[i][j] == 0
        for j in range(i + 1, n):
            assert 0 <= rows[i][j] < rows[j][j]


def test_lattice_basis_dimension_one():
    basis = lattice_basis(Splitting(5, 3, 1, (1,)))
    assert basis.rows == ((5,),)
    assert basis.determinant == 5


def test_lattice_basis_q25():
    s = Splitting(25, 3, 1, Q25_SPLITTERS)
    basis = lattice_basis(s)
    _check_basis_postconditions(25, s.splitters, [list(r) for r in basis.rows])
    assert abs(basis.determinant) == 25


def test_phi_kernel_basis_without_splitting():
    # S = {1, 3, 9} is not a splitting for arms (3,1) at q=13, but the kernel
    # of phi exists regardless.
    rows = phi_kernel_basis(13, (1, 3, 9))
    _check_basis_postconditions(13, (1, 3, 9), rows)
    # phi not onto: 4*x1 + 6*x2 = 0 (mod 12) has index 6 = 12 / gcd(4, 6, 12).
    assert phi_kernel_basis(12, (4, 6)) == [[3, 0], [0, 2]]
    assert phi_kernel_basis(12, (-8, 18)) == [[3, 0], [0, 2]]
    for q, splitters in ((12, (0, -4, 16, 8, 8)), (30, (0, 0)), (7, (14, -7, 3))):
        _check_basis_postconditions(q, splitters, phi_kernel_basis(q, splitters))
    with pytest.raises(ValueError, match="^need at least one splitter$"):
        phi_kernel_basis(13, ())
    with pytest.raises(ValueError, match="^group order must be >= 2, got 1$"):
        phi_kernel_basis(1, (1,))


def test_lattice_basis_raises_on_a_wrong_basis(monkeypatch):
    # Explicit raises, not asserts, so python -O keeps these checks.
    cert = Splitting(25, 3, 1, Q25_SPLITTERS)
    unimodular = [[int(i == j) for j in range(6)] for i in range(6)]
    monkeypatch.setattr(splitting, "phi_kernel_basis", lambda q, s: unimodular)
    with pytest.raises(AssertionError, match="determinant 1 is not"):
        lattice_basis(cert)
    # Determinant 25, but e_1 maps to splitter 1, not to 0.
    diagonal = [row[:] for row in unimodular]
    diagonal[1][1] = 25
    monkeypatch.setattr(splitting, "phi_kernel_basis", lambda q, s: diagonal)
    with pytest.raises(AssertionError, match="row 1 is not in the kernel"):
        lattice_basis(cert)


def test_lattice_basis_raises_on_a_basis_that_is_not_triangular(monkeypatch):
    # Every row in the kernel and a diagonal product of 25, so only the
    # shape of the rows tells these bases from a Hermite basis.
    cert = Splitting(25, 3, 1, Q25_SPLITTERS)
    rows = [list(row) for row in lattice_basis(cert).rows]
    below = [row[:] for row in rows]
    below[5][0] += 25  # 25 * e_1 is in the kernel
    negated = [row[:] for row in rows]
    negated[0] = [-a for a in rows[0]]
    negated[1] = [-a for a in rows[1]]
    for bad, row in ((below, 6), (negated, 1)):
        monkeypatch.setattr(splitting, "phi_kernel_basis", lambda q, s, bad=bad: bad)
        with pytest.raises(AssertionError, match=f"row {row} is not upper triangular with a positive diagonal"):
            lattice_basis(cert)


def _dense_basis_defect(q, splitters, rows):
    """Reference for lattice_basis's row checks, read entry by entry: the
    message naming the first row that is not triangular with a positive
    diagonal, not reduced (0 < a < a_jj for each nonzero a right of the
    diagonal) or not in the kernel of phi, or None."""
    for i, row in enumerate(rows):
        if row[i] <= 0 or any(row[j] for j in range(i)):
            return f"basis row {i + 1} is not upper triangular with a positive diagonal"
        for j in range(i + 1, len(row)):
            if row[j] and not 0 < row[j] < rows[j][j]:
                return (
                    f"basis row {i + 1} is not reduced: entry {row[j]} in column {j + 1}, "
                    f"whose diagonal is {rows[j][j]}"
                )
        if sum(a * s for a, s in zip(row, splitters)) % q:
            return f"basis row {i + 1} is not in the kernel of phi mod {q}"
    return None


def _gcd_first_half_system(q):
    # q - x where x shares a factor with q, else x: the largest splitters are
    # then non-units, so the basis has more than one pivot column.
    return Splitting(q, 1, 1, tuple(q - x if math.gcd(x, q) > 1 else x for x in range(1, (q - 1) // 2 + 1)))


def test_lattice_basis_rejects_exactly_what_a_dense_check_rejects(monkeypatch):
    # Entries off the diagonal are perturbed, the diagonal (and so the
    # determinant check) kept: lattice_basis must fail at the same first row,
    # with the same message, as the dense reference.
    rng = random.Random(37)
    certs = [Splitting(25, 3, 1, Q25_SPLITTERS), *map(_gcd_first_half_system, (45, 105, 225))]
    certs.append(next(c for c in load_certificates(default_certificates_path()) if c.q == 125))
    goods = [[list(row) for row in lattice_basis(cert).rows] for cert in certs]
    kinds = set()
    for cert, good in zip(certs, goods):
        q, n = cert.q, len(cert.splitters)
        pivots = [j for j in range(n) if good[j][j] > 1]
        assert len(pivots) == (2 if cert.q in (45, 105, 225) else 1)
        for _ in range(600):
            bad = [row[:] for row in good]
            for _ in range(rng.randint(1, 3)):
                i = rng.randrange(n)
                j = rng.choice([j for j in range(n) if j != i] + pivots)
                if i == j:
                    continue
                move = rng.randrange(4)
                if move == 0:  # any value
                    bad[i][j] = rng.randint(-q, q)
                elif move == 1:  # a kernel vector's worth: stays in the kernel
                    bad[i][j] += rng.choice((-q, q))
                elif move == 2 and j > i:  # add a row below: in the kernel, maybe unreduced
                    bad[i] = [a + rng.choice((-1, 1)) * b for a, b in zip(bad[i], bad[j])]
                else:  # just inside or outside the reduced range
                    bad[i][j] = rng.choice((-1, 0, 1, good[j][j] - 1, good[j][j], good[j][j] + 1))
                bad[i][i] = good[i][i]
            expected = _dense_basis_defect(q, cert.splitters, bad)
            monkeypatch.setattr(splitting, "phi_kernel_basis", lambda q, s, bad=bad: bad)
            try:
                lattice_basis(cert)
                got = None
            except AssertionError as exc:
                got = str(exc)
            assert got == expected, (cert.q, bad)
            kinds.add(expected and next(k for k in ("triangular", "reduced", "kernel") if k in expected))
    assert kinds == {None, "triangular", "reduced", "kernel"}


def test_lattice_basis_rejects_unreduced_bases(monkeypatch):
    # Triangular, positive diagonal, determinant 25 and every row in the
    # kernel: a check of those alone accepts both, but LatticeBasis claims
    # the reduced Hermite form.
    cert = Splitting(25, 3, 1, Q25_SPLITTERS)
    rows = [list(row) for row in lattice_basis(cert).rows]
    assert rows[0] == [1, 0, 0, 0, 0, 19]
    past_diagonal = [row[:] for row in rows]
    past_diagonal[0] = [a + b for a, b in zip(rows[0], rows[5])]  # 19 + 25 in column 6
    unit_column = [row[:] for row in rows]
    unit_column[0] = [a + b for a, b in zip(rows[0], rows[2])]  # 1 in column 3, whose diagonal is 1
    for bad, message in (
        (past_diagonal, "basis row 1 is not reduced: entry 44 in column 6, whose diagonal is 25"),
        (unit_column, "basis row 1 is not reduced: entry 1 in column 3, whose diagonal is 1"),
    ):
        assert all(sum(a * s for a, s in zip(row, Q25_SPLITTERS)) % 25 == 0 for row in bad)
        monkeypatch.setattr(splitting, "phi_kernel_basis", lambda q, s, bad=bad: bad)
        with pytest.raises(AssertionError) as info:
            lattice_basis(cert)
        assert str(info.value) == message


def test_lattice_basis_rejects_unverified():
    messages = []
    for _ in range(2):  # the second call meets a memoized failure
        with pytest.raises(ValueError, match="does not verify") as info:
            lattice_basis(Splitting(13, 3, 1, (1, 2, 3)))
        messages.append(str(info.value))
    assert messages == ["splitting does not verify: collision at 2: 2*1 = 1*2 (mod 13)"] * 2


def test_lattice_basis_postconditions_across_small_orders():
    # Arms (1,1) split every odd q with S = 1..n, exercising the basis code
    # across many unit/non-unit splitter mixes.
    for q in list(range(3, 102, 2)) + [199]:
        n = (q - 1) // 2
        s = Splitting(q, 1, 1, tuple(range(1, n + 1)))
        assert verify_splitting(s)
        basis = lattice_basis(s)
        _check_basis_postconditions(q, s.splitters, [list(r) for r in basis.rows])


def test_lattice_basis_on_search_results_up_to_200():
    for k_plus, k_minus in ((3, 1), (3, 2)):
        step = k_plus + k_minus
        for q in range(step + 2, 201):
            if (q - 1) % step:
                continue
            outcome = find_splitting(q, interval_multipliers(k_plus, k_minus, q), node_budget=200_000)
            if outcome.status is not SearchStatus.FOUND:
                continue
            s = Splitting(q, k_plus, k_minus, outcome.splitters)
            basis = lattice_basis(s)
            _check_basis_postconditions(q, s.splitters, [list(r) for r in basis.rows])


def test_lattice_basis_on_the_store_workloads_inputs():
    # What a store of certificates meets: random (1,1) half-systems, unit
    # multiples u*S of search finds, and every packaged certificate (n up to
    # 216; q = 125 and 625 are prime powers).
    rng = random.Random(11)
    certs = []
    for n in range(1, 121):
        q = 2 * n + 1
        certs.append(Splitting(q, 1, 1, tuple(x if rng.random() < 0.5 else q - x for x in range(1, n + 1))))
    packaged = load_certificates(default_certificates_path())
    assert {125, 625} <= {cert.q for cert in packaged} and max(cert.dimension for cert in packaged) == 216
    finds = [*packaged]
    for q, k_plus, k_minus in ((25, 2, 2), (65, 2, 2), (49, 4, 2), (49, 5, 1), (37, 3, 3), (97, 4, 4)):
        outcome = find_splitting(q, interval_multipliers(k_plus, k_minus, q))
        assert outcome.status is SearchStatus.FOUND
        finds.append(Splitting(q, k_plus, k_minus, outcome.splitters))
    certs += packaged
    for base in finds:
        u = rng.choice([u for u in range(2, base.q) if math.gcd(u, base.q) == 1])
        certs.append(base._replace(splitters=tuple(sorted(u * s % base.q for s in base.splitters))))
    for cert in certs:
        assert verify_splitting(cert)
        rows = [list(row) for row in lattice_basis(cert).rows]
        _check_basis_postconditions(cert.q, cert.splitters, rows)
        if cert.dimension <= 40:
            assert rows == _dense_kernel_basis(cert.q, cert.splitters)


def test_basis_rows_are_hermite():
    basis = lattice_basis(Splitting(25, 3, 1, Q25_SPLITTERS))
    _check_basis_postconditions(25, Q25_SPLITTERS, [list(r) for r in basis.rows])


def test_json_line_roundtrip():
    s = Splitting(25, 3, 1, Q25_SPLITTERS)
    line = to_json_line(s)
    assert from_json_line(line) == s
    assert to_json_line(from_json_line(line)) == line


def test_json_line_errors():
    with pytest.raises(ValueError, match="bad certificate line"):
        from_json_line("{not json")
    with pytest.raises(ValueError, match="missing fields"):
        from_json_line('{"q": 25}')
    with pytest.raises(ValueError, match="integers"):
        from_json_line('{"q": 25, "k_plus": 3, "k_minus": 1, "splitters": ["1"]}')
    with pytest.raises(ValueError):
        from_json_line('[1, 2, 3]')
    with pytest.raises(ValueError, match="integers"):
        from_json_line('{"q": 25, "k_plus": 3, "k_minus": true, "splitters": [1, 5, 6, 11, 16, 21]}')
    with pytest.raises(ValueError, match="integers"):
        from_json_line('{"q": 25, "k_plus": 3, "k_minus": 1, "splitters": [true, 5, 6, 11, 16, 21]}')


@settings(deadline=None)
@given(st.integers(min_value=2, max_value=60), st.data())
def test_kernel_basis_postconditions_random(q, data):
    n = data.draw(st.integers(min_value=1, max_value=6))
    # Zero, negative, >= q and repeated splitters; phi need not be onto.
    splitters = data.draw(st.lists(st.integers(min_value=-2 * q, max_value=2 * q), min_size=n, max_size=n))
    rows = phi_kernel_basis(q, splitters)
    _check_basis_postconditions(q, splitters, rows)


def _dense_kernel_basis(q, splitters):
    """Reference oracle: the same Hermite basis, each row reduced densely
    against every row below it rather than against the pivot rows only."""
    n = len(splitters)
    s = [x % q for x in splitters]
    rows = [[] for _ in range(n)]
    bezout = [0] * n
    g = q
    for i in range(n - 1, -1, -1):
        g_i, x, y = _ext_gcd(s[i], g)
        row = [0] * n
        row[i] = g // g_i
        cofactor = s[i] // g_i
        row[i + 1:] = [-cofactor * c % q for c in bezout[i + 1:]]
        for j in range(i + 1, n):
            t = row[j] // rows[j][j]
            if t:
                row[j:] = [a - t * b for a, b in zip(row[j:], rows[j][j:])]
        rows[i] = row
        bezout = [y * c % q for c in bezout]
        bezout[i] = x % q
        g = g_i
    return rows


def test_kernel_basis_matches_dense_oracle_on_fixed_cases():
    cases = [
        (12, (4, 6)),
        (12, (-8, 18)),
        (12, (0, -4, 16, 8, 8)),
        (30, (0, 0)),
        (7, (14, -7, 3)),
        (13, (1, 3, 9)),
        (25, Q25_SPLITTERS),
        (2, (0,)),
        (2**10 * 3**5 * 5**2, (2**10, 3**5, 5**2, 6, 0, -15, 2**9 * 3, 1)),
    ]
    for q, splitters in cases:
        assert phi_kernel_basis(q, splitters) == _dense_kernel_basis(q, splitters)


@settings(deadline=None, max_examples=300)
@given(st.data())
def test_kernel_basis_matches_dense_oracle(data):
    # q = 2^a 3^b 5^c <= 10^6 has up to log2(q) pivot columns; splitters that
    # share factors with q, zero and negative ones among them, make many.
    q, factors = 1, []
    for p in (2, 3, 5):
        top = 0
        while q * p ** (top + 1) <= 10**6:
            top += 1
        e = data.draw(st.integers(min_value=0, max_value=top))
        q *= p**e
        factors.append((p, e))
    assume(q >= 2)
    n = data.draw(st.integers(min_value=1, max_value=40))
    divisor = st.builds(
        lambda exps, m: math.prod(p**i for (p, _), i in zip(factors, exps)) * m,
        st.tuples(*(st.integers(0, e) for _, e in factors)),
        st.integers(-5, 5),
    )
    splitters = data.draw(
        st.lists(divisor | st.integers(min_value=-2 * q, max_value=2 * q), min_size=n, max_size=n)
    )
    assert phi_kernel_basis(q, splitters) == _dense_kernel_basis(q, splitters)
