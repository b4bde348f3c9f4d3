"""Acceptance suite: one test per exit criterion, each printing a pass/fail
line (run with -s to watch them)."""

import time

from quasicross.classify import (
    classify_range,
    default_registry,
    load_certificates,
    store_certificate,
)
from quasicross.criteria import (
    CriterionStatus,
    VerdictStatus,
    check_char4_literal,
    check_quadratic_balance,
    check_vandermonde,
    outcomes,
)
from quasicross.numtheory import is_prime
from quasicross.search import SearchStatus, count_splittings, find_splitting
from quasicross.splitting import (
    QuasiCrossShape,
    Splitting,
    interval_multipliers,
    lattice_basis,
)

QUADRATIC_RULEOUTS_3_1 = {
    3, 9, 15, 27, 39, 45, 57, 69, 87, 93, 99, 105,
    135, 153, 165, 177, 183, 189, 207, 213, 219, 249,
}

CHAR4_RULEOUTS_3_1 = {
    3, 7, 9, 13, 15, 25, 27, 39, 45, 49, 57, 67, 69, 73, 79, 87, 93, 99, 105,
    127, 135, 153, 165, 175, 177, 183, 189, 193, 205, 207, 213, 219, 249,
}

UNKNOWN_3_1 = {22, 24, 60, 111, 114, 121, 144, 220, 234, 235}
UNKNOWN_3_2 = {13, 37, 49, 73, 85, 121, 145, 157, 181, 217, 229}
REGISTRY_3_1 = {1, 6, 31, 156} | {37, 43, 97, 102, 115, 139, 163, 169, 186, 199, 216}


def report(name, ok, detail=""):
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())


def test_01_quadratic_three_mod_six_list():
    t0 = time.perf_counter()
    eligible = {n for n in range(1, 251) if is_prime(4 * n + 1) and n % 6 == 3}
    fired = {
        n
        for n in eligible
        if check_quadratic_balance(QuasiCrossShape(3, 1, n)).status is CriterionStatus.RULED_OUT
    }
    elapsed = time.perf_counter() - t0
    ok = eligible == QUADRATIC_RULEOUTS_3_1 and fired == eligible and elapsed < 1.0
    report(
        "1 quadratic-balance 3-mod-6 list",
        ok,
        f"({len(eligible)} dims, {elapsed:.3f}s)",
    )
    assert eligible == QUADRATIC_RULEOUTS_3_1
    assert fired == eligible
    assert elapsed < 1.0


def test_02_char4_literal_list():
    t0 = time.perf_counter()
    fired = {
        n
        for n in range(1, 251)
        if check_char4_literal(QuasiCrossShape(3, 1, n)).status is CriterionStatus.RULED_OUT
    }
    elapsed = time.perf_counter() - t0
    ok = fired == CHAR4_RULEOUTS_3_1 and elapsed < 1.0
    report("2 order-4 character literal list", ok, f"({len(fired)} dims, {elapsed:.3f}s)")
    assert fired == CHAR4_RULEOUTS_3_1
    assert elapsed < 1.0


def test_03_vandermonde_count():
    t0 = time.perf_counter()
    fired = {
        n
        for n in range(1, 251)
        if check_vandermonde(QuasiCrossShape(3, 1, n)).status is CriterionStatus.RULED_OUT
    }
    elapsed = time.perf_counter() - t0
    ok = len(fired) == 59 and elapsed < 5.0
    report("3 vandermonde firing count", ok, f"(count={len(fired)}, {elapsed:.3f}s)")
    if len(fired) != 59:
        # Fallback diagnostic: how often the criterion fires where nothing
        # else resolves the dimension.
        run = classify_range(3, 1, 250, registry=default_registry(3, 1))
        oracle = {v.n: v.status for v in run.verdicts}
        exclusive = sorted(
            n
            for n in fired
            if n not in REGISTRY_3_1
            and not any(
                o.fired and o.criterion_id != "vandermonde"
                for o in outcomes(QuasiCrossShape(3, 1, n), oracle)
            )
        )
        print(
            f"[acceptance] 3 note: fired-count={len(fired)}; restricted to otherwise-unresolved "
            f"dimensions: {len(exclusive)} ({exclusive})"
        )
    assert len(fired) == 59
    assert elapsed < 5.0


def test_04_aggregate_3_1():
    registry = default_registry(3, 1)
    assert {c.dimension for c in registry} == REGISTRY_3_1
    t0 = time.perf_counter()
    run = classify_range(3, 1, 250, registry=registry)
    elapsed = time.perf_counter() - t0
    unknown = {v.n for v in run.verdicts if v.status is VerdictStatus.UNKNOWN}
    ok = unknown == UNKNOWN_3_1 and elapsed < 10.0
    report("4 (3,1) aggregate unknown set", ok, f"({sorted(unknown)}, {elapsed:.2f}s)")
    assert unknown == UNKNOWN_3_1
    assert elapsed < 10.0


def test_05_aggregate_3_2():
    registry = default_registry(3, 2)
    assert {c.dimension for c in registry} == {1}
    t0 = time.perf_counter()
    run = classify_range(3, 2, 250, registry=registry)
    elapsed = time.perf_counter() - t0
    unknown = {v.n for v in run.verdicts if v.status is VerdictStatus.UNKNOWN and v.n >= 2}
    ok = unknown == UNKNOWN_3_2 and elapsed < 10.0
    report("5 (3,2) aggregate unknown set", ok, f"({sorted(unknown)}, {elapsed:.2f}s)")
    assert unknown == UNKNOWN_3_2
    assert elapsed < 10.0


def test_06_analytic_corollaries():
    run31 = classify_range(3, 1, 250, registry=default_registry(3, 1))
    bad31 = [
        v.n
        for v in run31.verdicts
        if v.n % 3 == 2 and v.status is not VerdictStatus.NO_TILING
    ]
    run32 = classify_range(3, 2, 250, registry=default_registry(3, 2))
    bad32 = [
        v.n
        for v in run32.verdicts
        if v.n >= 2
        and v.status is not VerdictStatus.NO_TILING
        and v.n % 36 not in (1, 13)
    ]
    ok = not bad31 and not bad32
    report("6 analytic corollaries", ok, f"(violations: {bad31 + bad32 or 'none'})")
    assert bad31 == []
    assert bad32 == []


def test_07_small_scale_oracle_equivalence():
    t0 = time.perf_counter()
    expectations = {
        (3, 1): {1: "found", 2: "zero", 3: "zero", 4: "zero", 5: "zero",
                 6: "found", 7: "zero", 8: "zero"},
        (3, 2): {1: "found", 2: "zero", 3: "zero", 4: "zero", 5: "zero", 6: "zero"},
    }
    failures = []
    for (k_plus, k_minus), expected in expectations.items():
        run = classify_range(k_plus, k_minus, max(expected))
        for n, want in expected.items():
            q = n * (k_plus + k_minus) + 1
            m = interval_multipliers(k_plus, k_minus, q)
            t_search = time.perf_counter()
            counted = count_splittings(q, m)
            found = find_splitting(q, m)
            t_search = time.perf_counter() - t_search
            assert t_search < 60.0
            assert counted.complete
            verdict = run.verdicts[n - 1]
            if want == "found":
                if counted.count < 1 or found.status is not SearchStatus.FOUND:
                    failures.append((k_plus, k_minus, n, "expected a splitting"))
                if verdict.status is VerdictStatus.NO_TILING:
                    failures.append((k_plus, k_minus, n, "pipeline contradicts existence"))
            else:
                if counted.count != 0 or found.status is not SearchStatus.EXHAUSTED:
                    failures.append((k_plus, k_minus, n, f"count={counted.count}"))
                if verdict.status is not VerdictStatus.NO_TILING and n != 1:
                    failures.append((k_plus, k_minus, n, "pipeline did not rule out"))
            # Zero splittings exactly where the pipeline proves non-existence.
            if verdict.status is VerdictStatus.NO_TILING and counted.count != 0:
                failures.append((k_plus, k_minus, n, "fatal: certificate vs NoTiling"))
    elapsed = time.perf_counter() - t0
    report("7 small-scale oracle equivalence", not failures, f"({elapsed:.2f}s)")
    assert failures == []


def test_08_certificate_roundtrip(tmp_path):
    cert = Splitting(25, 3, 1, (1, 5, 6, 11, 16, 21))  # raises unless it verifies
    path = tmp_path / "certs.jsonl"
    store_certificate(cert, path)
    (reloaded,) = load_certificates(path)
    ok_roundtrip = reloaded == cert
    basis = lattice_basis(reloaded)
    ok_det = abs(basis.determinant) == 25
    ok_kernel = all(
        sum(x * s for x, s in zip(row, reloaded.splitters)) % 25 == 0 for row in basis.rows
    )
    ok = ok_roundtrip and ok_det and ok_kernel
    report("8 q=25 certificate roundtrip", ok, f"(det={basis.determinant})")
    assert ok_roundtrip and ok_det and ok_kernel


def test_09_number_theory_substrate():
    import sympy

    from quasicross.numtheory import legendre, quartic_class

    t0 = time.perf_counter()
    for p in sympy.primerange(10_001):
        if p == 2:
            continue
        assert (legendre(-1, p) == 1) == (p % 4 == 1), p
        assert (legendre(2, p) == 1) == (p % 8 in (1, 7)), p
        assert (legendre(3, p) == 1) == (p % 12 in (1, 11)), p
        assert (legendre(5, p) == 1) == (p % 10 in (1, 9)), p
    for q in [p for p in sympy.primerange(1001) if p % 4 == 1]:
        table = [0] + [int(quartic_class(a, q)) for a in range(1, q)]
        for a in range(1, q):
            ta = table[a]
            for b in range(a, q):
                assert table[a * b % q] == (ta + table[b]) % 4, (a, b, q)
    elapsed = time.perf_counter() - t0
    ok = elapsed < 30.0
    report("9 number-theory substrate", ok, f"({elapsed:.2f}s)")
    assert elapsed < 30.0
