import ast
import hashlib
import importlib.util
import json
import os
import re
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import quasicross
from quasicross import classify, cli, splitting
from quasicross.cli import run
from quasicross.classify import (
    Verdicts,
    classify_range,
    default_certificates_path,
    default_registry,
    report_text,
)
from quasicross.criteria import CRITERION_ORDER

# summarize --max-n 250 with the packaged registries: the paper's tables.
SUMMARY_250 = {
    1: (
        "shape (3,1), dimensions 1..250\n"
        "status counts: tiles=15 no_tiling=225 unknown=10\n"
        "tiles: 1 6 31 37 43 97 102 115 139 156 163 169 186 199 216\n"
        "unknown: 22 24 60 111 114 121 144 220 234 235\n"
        "criterion            fired  first-attributed\n"
        "  geometry                1      1\n"
        "  arm_gcd                 0      0\n"
        "  quadratic_balance      22     22\n"
        "  char4_literal          33     11\n"
        "  quartic_generic        33      0\n"
        "  odd_prime_order         0      0\n"
        "  power_square           55     55\n"
        "  power_cube              0      0\n"
        "  vandermonde            59     29\n"
        "  psquare                27     27\n"
        "  divisors              160     80\n"
        "n = 2 (mod 3), n >= 2: 83/83 ruled out\n"
        "surviving residues mod 36 (n >= 2): 0 1 3 4 6 7 12 13 18 19 22 24 25 30 31\n"
    ),
    2: (
        "shape (3,2), dimensions 1..250\n"
        "status counts: tiles=1 no_tiling=238 unknown=11\n"
        "tiles: 1\n"
        "unknown: 13 37 49 73 85 121 145 157 181 217 229\n"
        "criterion            fired  first-attributed\n"
        "  geometry                1      1\n"
        "  arm_gcd               166    165\n"
        "  quadratic_balance       0      0\n"
        "  char4_literal           0      0\n"
        "  quartic_generic         0      0\n"
        "  odd_prime_order        40      0\n"
        "  power_square            0      0\n"
        "  power_cube              0      0\n"
        "  vandermonde            47      0\n"
        "  psquare                83     42\n"
        "  divisors              180     30\n"
        "n = 2 (mod 3), n >= 2: 83/83 ruled out\n"
        "surviving residues mod 36 (n >= 2): 1 13\n"
    ),
}


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def packaged_store(monkeypatch, path):
    """Make the CLI read path as the packaged certificate store."""
    monkeypatch.setattr(classify, "default_certificates_path", lambda: path)


def test_classify_csv_golden(capsys):
    code, out, _ = invoke(
        capsys, "classify", "--kplus", "3", "--kminus", "1", "--max-n", "8",
        "--no-registry", "--format", "csv",
    )
    assert code == 0
    assert out == (
        "n,q,status,criterion,witness\n"
        "1,5,tiles,,trivial\n"
        "2,9,no_tiling,geometry,lhs=11 rhs=8\n"
        "3,13,no_tiling,quadratic_balance,qr=3 qnr=1\n"
        "4,17,no_tiling,vandermonde,q=17 powers_checked=4\n"
        "5,21,no_tiling,power_square,k=1 kn_mod_9=5\n"
        "6,25,unknown,,\n"
        "7,29,no_tiling,char4_literal,q=29 six_pow_n=28\n"
        "8,33,no_tiling,power_square,k=1 kn_mod_9=8\n"
    )


def test_classify_stdout_is_byte_identical(capsys):
    argv = ["classify", "--kplus", "3", "--kminus", "1", "--max-n", "30", "--format", "text"]
    code1, out1, _ = invoke(capsys, *argv)
    code2, out2, _ = invoke(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2


def test_classify_json_format(capsys):
    code, out, _ = invoke(
        capsys, "classify", "--kplus", "3", "--kminus", "2", "--max-n", "13", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload[12]["status"] == "unknown"
    assert payload[1]["criterion"] == "geometry"


def test_classify_contradiction_exits_2(firing_at, capsys):
    # The packaged certificate for n = 37 verifies; the criterion is wrong.
    # q = 149 is prime, so the walk calls quadratic_balance there.
    firing_at("quadratic_balance", {37})
    code, _, err = invoke(capsys, "classify", "--kplus", "3", "--kminus", "1", "--max-n", "40")
    assert code == 2
    assert err.startswith("contradiction: dimension 37: tiling evidence (registry) contradicts "
                          "criterion quadratic_balance firing"), err
    # q = 25 at n = 6 is composite; power_square runs at either class of q.
    firing_at("power_square", {6})
    code, _, err = invoke(capsys, "classify", "--kplus", "3", "--kminus", "1", "--max-n", "8")
    assert code == 2
    assert err.startswith("contradiction: dimension 6: tiling evidence (registry) contradicts "
                          "criterion power_square firing"), err


def test_check_lists_all_criteria(capsys):
    code, out, _ = invoke(capsys, "check", "--kplus", "3", "--kminus", "2", "--n", "13")
    assert code == 0
    assert "verdict: unknown" in out
    for cid in (
        "geometry", "arm_gcd", "quadratic_balance", "char4_literal", "quartic_generic",
        "odd_prime_order", "power_square", "power_cube", "vandermonde", "psquare", "divisors",
    ):
        assert cid in out


@pytest.mark.parametrize("n", [3, 30])  # q = 13 (prime) and q = 121 (composite)
def test_check_rows_are_the_criteria_in_reporting_order(capsys, n):
    # One row per criterion, in CRITERION_ORDER, though the verdict walk
    # skips criteria that cannot fire at that class of q.
    code, out, _ = invoke(capsys, "check", "--kplus", "3", "--kminus", "1", "--n", str(n))
    assert code == 0
    rows = out.split("criteria:\n", 1)[1].splitlines()
    assert [row.split()[0] for row in rows] == list(CRITERION_ORDER)


def test_check_prints_the_full_row(capsys):
    # The verdict needs only arm_gcd; check still prints every criterion.
    code, out, _ = invoke(capsys, "check", "--kplus", "3", "--kminus", "2", "--n", "12")
    assert code == 0
    assert out == (
        "shape (3,2) n=12 q=61\n"
        "verdict: no_tiling\n"
        "criteria:\n"
        "  geometry           inconclusive  lhs=14 rhs=60\n"
        "  arm_gcd            ruled_out     k=3 q=61 gcd=1\n"
        "  quadratic_balance  inconclusive  qr=3 qnr=2\n"
        "  char4_literal      inapplicable\n"
        "  quartic_generic    inapplicable\n"
        "  odd_prime_order    ruled_out     p=5 n_mod_p=2\n"
        "  power_square       inapplicable\n"
        "  power_cube         inapplicable\n"
        "  vandermonde        ruled_out     q=61 powers_checked=12\n"
        "  psquare            inapplicable\n"
        "  divisors           inconclusive\n"
    )


def test_check_renders_list_witnesses(capsys):
    code, out, _ = invoke(capsys, "check", "--kplus", "3", "--kminus", "1", "--n", "3")
    assert code == 0
    assert out == (
        "shape (3,1) n=3 q=13\n"
        "verdict: no_tiling\n"
        "criteria:\n"
        "  geometry           inconclusive  lhs=11 rhs=12\n"
        "  arm_gcd            inapplicable\n"
        "  quadratic_balance  ruled_out     qr=3 qnr=1\n"
        "  char4_literal      ruled_out     q=13 six_pow_n=8\n"
        "  quartic_generic    ruled_out     classes=2+0+1+1 q=13\n"
        "  odd_prime_order    inapplicable\n"
        "  power_square       inconclusive  k=1 kn_mod_9=3\n"
        "  power_cube         inapplicable\n"
        "  vandermonde        ruled_out     q=13 powers_checked=3\n"
        "  psquare            inapplicable\n"
        "  divisors           inconclusive\n"
    )


def test_check_tiles_dimension(capsys):
    code, out, _ = invoke(capsys, "check", "--kplus", "3", "--kminus", "1", "--n", "6")
    assert code == 0
    assert "verdict: tiles (registry)" in out


def test_check_raises_the_walks_first_contradiction(firing_at, capsys):
    # A wrong psquare rules out n = 31 and 37, which packaged certificates
    # show to tile; the walk meets 31 first.
    firing_at("psquare", {31, 37})
    shape = ("--kplus", "3", "--kminus", "1")
    code, _, walk_err = invoke(capsys, "classify", *shape, "--max-n", "40")
    assert code == 2 and walk_err.startswith("contradiction: dimension 31: ")
    assert "criterion psquare firing" in walk_err
    assert invoke(capsys, "check", *shape, "--n", "40") == (2, "", walk_err)
    code, out, _ = invoke(capsys, "check", *shape, "--n", "30")
    assert code == 0 and out.startswith("shape (3,1) n=30 q=121\n")


def test_check_classifies_only_what_it_reaches(monkeypatch, capsys):
    memos = []

    class Recorded(Verdicts):
        def __init__(self, *args):
            super().__init__(*args)
            memos.append(self)

    monkeypatch.setattr(cli, "Verdicts", Recorded)
    code, out, _ = invoke(capsys, "check", "--kplus", "3", "--kminus", "1", "--n", "400000")
    assert code == 0 and out.startswith("shape (3,1) n=400000 q=1600001\n")
    # The 15 registry dimensions, which check classifies to find any
    # contradiction below n, and the few its divisor recursion reaches.
    assert len(memos) == 1 and len(memos[0]) <= 20


@pytest.mark.parametrize("n", [111, 400000, 922337203685477580])
def test_check_factorizes_each_q_once(monkeypatch, capsys, n):
    # check's printout and its verdict read one shape, so q(n) is factorized
    # once, as is each q its divisor recursion and evidence reach.
    calls = []
    factorize = splitting.factorize

    def counted(m):
        calls.append(m)
        return factorize(m)

    monkeypatch.setattr(splitting, "factorize", counted)
    code, out, _ = invoke(capsys, "check", "--kplus", "3", "--kminus", "1", "--n", str(n))
    assert code == 0 and out.startswith(f"shape (3,1) n={n} q={4 * n + 1}\n")
    assert 4 * n + 1 in calls
    assert len(calls) == len(set(calls)), sorted(calls)


def test_check_runs_each_criterion_once(counting_criteria, capsys):
    # check's verdict is the first firing row of its printout, so no
    # criterion runs twice at n: here the O(n) Vandermonde scan at the
    # prime q = 8000009.
    calls = counting_criteria()
    code, out, _ = invoke(capsys, "check", "--kplus", "3", "--kminus", "1", "--n", "2000002")
    assert code == 0 and out.startswith("shape (3,1) n=2000002 q=8000009\n")
    assert [shape.n for cid, shape in calls if cid == "vandermonde"].count(2000002) == 1
    assert len(calls) == len(set(calls))


# check at n whose q has 64 bits.  The divisors row needs q's factorization,
# and each q here leaves a cofactor with no prime factor below 10**6 once its
# small primes are divided out, which factorize must split or prove prime.
CHECK_64_BIT = {
    (3, 1, 922337203685477580): (
        "shape (3,1) n=922337203685477580 q=3689348814741910321\n"
        "verdict: no_tiling\n"
        "criteria:\n"
        "  geometry           inconclusive  lhs=11 rhs=3689348814741910320\n"
        "  arm_gcd            inapplicable\n"
        "  quadratic_balance  inapplicable\n"
        "  char4_literal      inapplicable\n"
        "  quartic_generic    inapplicable\n"
        "  odd_prime_order    inapplicable\n"
        "  power_square       inconclusive  k=1 kn_mod_9=0\n"
        "  power_cube         inapplicable\n"
        "  vandermonde        inapplicable\n"
        "  psquare            inapplicable\n"
        "  divisors           ruled_out     d=2551\n"
    ),
    (3, 2, 922337203685477580): (
        "shape (3,2) n=922337203685477580 q=4611686018427387901\n"
        "verdict: no_tiling\n"
        "criteria:\n"
        "  geometry           inconclusive  lhs=14 rhs=4611686018427387900\n"
        "  arm_gcd            ruled_out     k=3 q=4611686018427387901 gcd=1\n"
        "  quadratic_balance  inapplicable\n"
        "  char4_literal      inapplicable\n"
        "  quartic_generic    inapplicable\n"
        "  odd_prime_order    inapplicable\n"
        "  power_square       inapplicable\n"
        "  power_cube         inapplicable\n"
        "  vandermonde        inapplicable\n"
        "  psquare            inapplicable\n"
        "  divisors           ruled_out     d=37\n"
    ),
    (3, 2, 768614336404564650): (
        "shape (3,2) n=768614336404564650 q=3843071682022823251\n"
        "verdict: no_tiling\n"
        "criteria:\n"
        "  geometry           inconclusive  lhs=14 rhs=3843071682022823250\n"
        "  arm_gcd            ruled_out     k=3 q=3843071682022823251 gcd=1\n"
        "  quadratic_balance  inapplicable\n"
        "  char4_literal      inapplicable\n"
        "  quartic_generic    inapplicable\n"
        "  odd_prime_order    inapplicable\n"
        "  power_square       inapplicable\n"
        "  power_cube         inapplicable\n"
        "  vandermonde        inapplicable\n"
        "  psquare            inapplicable\n"
        "  divisors           ruled_out     d=17\n"
    ),
    (4, 2, 4611686018427387): (
        "shape (4,2) n=4611686018427387 q=27670116110564323\n"
        "verdict: no_tiling\n"
        "criteria:\n"
        "  geometry           inconclusive  lhs=20 rhs=27670116110564322\n"
        "  arm_gcd            inapplicable\n"
        "  quadratic_balance  inapplicable\n"
        "  char4_literal      inapplicable\n"
        "  quartic_generic    inapplicable\n"
        "  odd_prime_order    inapplicable\n"
        "  power_square       inapplicable\n"
        "  power_cube         inapplicable\n"
        "  vandermonde        inapplicable\n"
        "  psquare            inapplicable\n"
        "  divisors           ruled_out     d=11\n"
    ),
}


@pytest.mark.parametrize("k_plus, k_minus, n", list(CHECK_64_BIT))
def test_check_at_64_bit_n(capsys, k_plus, k_minus, n):
    code, out, _ = invoke(capsys, "check", "--kplus", str(k_plus), "--kminus", str(k_minus), "--n", str(n))
    assert code == 0
    assert out == CHECK_64_BIT[k_plus, k_minus, n]


def test_search_finds_stores_and_verifies(tmp_path, capsys):
    store = tmp_path / "certs.jsonl"
    argv = ("search", "--kplus", "3", "--kminus", "1", "--q", "25",
            "--node-budget", "1000000", "--store", str(store))
    code, out, err = invoke(capsys, *argv)
    assert code == 0
    assert "status: found" in out
    assert "splitters:" in out
    assert "stored certificate" in err
    code, _, err = invoke(capsys, *argv)
    assert code == 0
    assert f"certificate already present in {store}\n" in err
    code, out, _ = invoke(capsys, "verify", "--certificates", str(store))
    assert code == 0
    assert "1 certificate(s) verified" in out


def test_search_exhausted(capsys):
    code, out, _ = invoke(capsys, "search", "--kplus", "3", "--kminus", "1", "--q", "13")
    assert code == 0
    assert "status: exhausted" in out
    # |M| = 4 does not divide q - 1 = 25, so no splitting exists and no node is visited.
    code, out, _ = invoke(capsys, "search", "--kplus", "3", "--kminus", "1", "--q", "26")
    assert code == 0
    assert "note: |M| = 4 does not divide q - 1 = 25\n" in out
    assert out.endswith("nodes: 0\n")


def test_search_symmetric_exhaustion_stdout(capsys):
    # M = -M, so the search keeps one splitter per +-s pair and exhausts in
    # 35 nodes; searching both splitters of each pair took 393 213.
    code, out, _ = invoke(capsys, "search", "--kplus", "2", "--kminus", "2", "--q", "77")
    assert code == 0
    assert out == "status: exhausted\nq: 77\nmultipliers: -2..2\nnodes: 35\n"


def test_search_stdout_deterministic(tmp_path, capsys):
    argv = ["search", "--kplus", "3", "--kminus", "1", "--q", "25"]
    _, out1, _ = invoke(capsys, *argv)
    _, out2, _ = invoke(capsys, *argv)
    assert out1 == out2
    assert "nodes:" in out1
    # A spent budget stops at exactly the budget, so it too prints the same
    # report every time.
    argv = ["search", "--kplus", "3", "--kminus", "2", "--q", "186", "--node-budget", "2000"]
    expected = ("status: timed_out\nq: 186\nmultipliers: -2..3\n"
                "note: node budget of 2000 exhausted\nnodes: 2000\n")
    for _ in range(2):
        code, out, _ = invoke(capsys, *argv)
        assert (code, out) == (0, expected)


@pytest.mark.parametrize(
    "argv, expected",
    [
        (("--kminus", "1", "--q", "25"),
         "status: found\nq: 25\nmultipliers: -1..3\nsplitters: 1 5 6 11 16 21\nnodes: 15\n"),
        (("--kminus", "1", "--q", "13"), "status: exhausted\nq: 13\nmultipliers: -1..3\nnodes: 1\n"),
        (("--kminus", "1", "--q", "26"), "status: exhausted\nq: 26\nmultipliers: -1..3\n"
                                         "note: |M| = 4 does not divide q - 1 = 25\nnodes: 0\n"),
        (("--kminus", "2", "--q", "186", "--node-budget", "2000"),
         "status: timed_out\nq: 186\nmultipliers: -2..3\n"
         "note: node budget of 2000 exhausted\nnodes: 2000\n"),
    ],
    ids=["found", "exhausted", "not-divisible", "timed-out"],
)
def test_search_times_the_search_on_stderr(capsys, argv, expected):
    # The CLI times its find_splitting call; the report on stdout holds no time.
    code, out, err = invoke(capsys, "search", "--kplus", "3", *argv)
    assert (code, out) == (0, expected)
    assert re.fullmatch(r"elapsed: \d+\.\d{3}s\n", err), err


def test_search_out_of_memory_exits_2_without_traceback(monkeypatch, capsys):
    # A candidate table too large for the machine is refused like an input
    # past the 64-bit limit: exit 2, one error line, nothing on stdout.
    def out_of_memory(*_args):
        raise MemoryError

    monkeypatch.setattr(quasicross.search, "_candidate_table", out_of_memory)
    code, out, err = invoke(capsys, "search", "--kplus", "3", "--kminus", "1", "--q", "1000000009",
                            "--node-budget", "10")
    assert (code, out) == (2, "")
    assert err == "error: out of memory\n"
    assert "Traceback" not in err


def test_verify_shipped_store(capsys):
    code, out, _ = invoke(capsys, "verify")
    assert code == 0
    assert "q=25" in out
    assert out.endswith("\n16 certificate(s) verified\n")


def test_verify_mutated_certificate_exits_2(tmp_path, capsys):
    store = tmp_path / "certs.jsonl"
    lines = default_certificates_path().read_text().splitlines()
    (i,) = [i for i, line in enumerate(lines) if line.startswith('{"q": 25,')]
    lines[i] = lines[i].replace("21", "22")
    store.write_text("\n".join(lines) + "\n")
    code, _, err = invoke(capsys, "verify", "--certificates", str(store))
    assert code == 2
    assert f"line {i + 1}: certificate q=25 does not verify" in err


def test_non_utf8_certificate_store_names_the_file(tmp_path, capsys):
    good = default_certificates_path().read_bytes().splitlines()[0]
    for data, lineno in ((b"\xff\xfe{}\n", 1), (good + b'\n{"note": "\xe9"}\n', 2)):
        store = tmp_path / "bad.jsonl"
        store.write_bytes(data)
        code, out, err = invoke(capsys, "verify", "--certificates", str(store))
        assert code == 2 and out == ""
        assert err.startswith(f"error: {store}, line {lineno}: 'utf-8' codec can't decode"), err


def test_verify_huge_q_exits_2(tmp_path, capsys):
    store = tmp_path / "certs.jsonl"
    store.write_text('{"q": 2305843009213693951, "k_plus": 3, "k_minus": 1, "splitters": [1]}\n')
    code, _, err = invoke(capsys, "verify", "--certificates", str(store))
    assert code == 2
    assert "q=2305843009213693951 does not verify: residue 4 not covered" in err


def test_classify_arms_past_the_64_bit_primorial(capsys):
    code, out, _ = invoke(capsys, "classify", "--kplus", "60", "--kminus", "1", "--max-n", "5")
    assert code == 0
    assert out.splitlines()[0].split()[:3] == ["n", "q", "status"]


def test_classify_arms_past_any_prime_sieve(capsys):
    # k_plus = 2**62: no criterion may enumerate the primes up to k_plus.
    code, out, _ = invoke(
        capsys, "classify", "--kplus", str(2**62), "--kminus", "1", "--max-n", "1", "--format", "csv"
    )
    assert code == 0
    assert out == f"n,q,status,criterion,witness\n1,{2**62 + 2},tiles,,trivial\n"


def test_dimensions_past_64_bit_q_exit_2(capsys):
    # 4 * 10**20 + 1 >= 2**64: refused before the walk, which could never end.
    big = "99999999999999999999"
    err_line = (
        f"error: dimensions up to {big} reach q=399999999999999999997; "
        "group orders must fit in 64 bits\n"
    )
    for argv in (
        ("check", "--kplus", "3", "--kminus", "1", "--n", big),
        ("classify", "--kplus", "3", "--kminus", "1", "--max-n", big),
        ("summarize", "--kplus", "3", "--kminus", "1", "--max-n", big),
    ):
        code, out, err = invoke(capsys, *argv)
        assert (code, out, err) == (2, "", err_line), argv
    # search refuses such a q before it builds its candidate table, one list
    # per residue: the multiplier set refuses it.  At 10**20 - 1, |M| = 4
    # does not divide q - 1, which would otherwise report exhausted.
    for q in (2**64 + 1, 10**20 - 1):
        argv = ("search", "--kplus", "3", "--kminus", "1", "--q", str(q), "--node-budget", "10")
        code, out, err = invoke(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert err == f"error: multiplier set got q={q}; group orders must fit in 64 bits\n"


def test_boolean_integer_fields_exit_2(tmp_path, capsys):
    store = tmp_path / "certs.jsonl"
    store.write_text('{"q": 25, "k_plus": 3, "k_minus": true, "splitters": [1, 5, 6, 11, 16, 21]}\n')
    code, _, err = invoke(capsys, "verify", "--certificates", str(store))
    assert code == 2
    assert "integers" in err
    code, out, err = invoke(capsys, "classify", "--kplus", "3", "--kminus", "1",
                            "--max-n", "6", "--certificates", str(store))
    assert code == 2 and out == ""
    assert "integers" in err


def test_unreadable_registry_names_the_file(tmp_path, monkeypatch, capsys):
    # The registry is the packaged store; a bad one is named with its line.
    for name, data in (("notes.md", b"# not JSON\n"), ("latin1.jsonl", b'{"source": "\xe9"}\n')):
        reg = tmp_path / name
        reg.write_bytes(data)
        packaged_store(monkeypatch, reg)
        code, out, err = invoke(capsys, "classify", "--kplus", "3", "--kminus", "1", "--max-n", "3")
        assert code == 2 and out == ""
        assert err.startswith(f"error: {reg}, line 1: "), err
        code, out, _ = invoke(capsys, "classify", "--kplus", "3", "--kminus", "1", "--max-n", "3",
                              "--no-registry")
        assert code == 0 and out.endswith("3 13 no_tiling quadratic_balance qr=3 qnr=1\n")


def test_usage_errors_exit_1(capsys):
    code, _, err = invoke(capsys, "classify", "--kplus", "3")
    assert code == 1
    assert "usage" in err
    code, _, err = invoke(capsys, "--bogus-flag")
    assert code == 1
    code, _, err = invoke(capsys)
    assert code == 1
    code, _, err = invoke(capsys, "search", "--kplus", "3", "--kminus", "1", "--q", "25",
                          "--node-budget", "many")
    assert code == 1
    # The search stops on its node budget alone; there is no wall-clock cap.
    code, out, err = invoke(capsys, "search", "--kplus", "3", "--kminus", "1", "--q", "25",
                            "--time-budget", "60")
    assert (code, out) == (1, "")
    assert "unrecognized arguments: --time-budget 60" in err


def test_search_stores_only_with_store(tmp_path, monkeypatch, capsys):
    # A found splitting is written only to a store that --store names.
    monkeypatch.chdir(tmp_path)
    code, out, err = invoke(capsys, "search", "--kplus", "3", "--kminus", "1", "--q", "25")
    assert code == 0
    assert "status: found\n" in out
    assert "certificate" not in err
    assert list(tmp_path.iterdir()) == []
    # An empty store path is a usage error before any search, like an
    # empty --certificates path, not a directory to append to.
    code, out, err = invoke(capsys, "search", "--kplus", "3", "--kminus", "1", "--q", "25",
                            "--store", "")
    assert (code, out) == (1, "")
    assert err.startswith("error: --store must name a file, got ''\n")
    assert "elapsed" not in err
    assert list(tmp_path.iterdir()) == []
    code, out, err = invoke(capsys, "search", "--kplus", "3", "--kminus", "1", "--q", "25",
                            "--no-store")
    assert (code, out) == (1, "")
    assert "unrecognized arguments: --no-store" in err


@pytest.mark.parametrize(
    "store, code, message",
    [
        (".", 1, "error: --store must name a file, got '.'\n"),
        ("missing/x.jsonl", 1,
         "error: --store must name a file in an existing directory, got 'missing/x.jsonl'\n"),
        ("corrupt.jsonl", 2, "error: corrupt.jsonl, line 2: certificate q=16 does not verify: "),
    ],
    ids=["directory", "missing-directory", "corrupt-store"],
)
def test_search_refuses_a_bad_store_before_the_search(tmp_path, monkeypatch, capsys, store, code,
                                                      message):
    # A store the append would fail on exits before find_splitting runs,
    # with nothing on stdout and nothing written.
    monkeypatch.chdir(tmp_path)
    lines = default_certificates_path().read_text().splitlines()
    lines[1] = lines[1].replace('"q": 6,', '"q": 16,')
    (tmp_path / "corrupt.jsonl").write_text("\n".join(lines) + "\n")
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}

    def no_search(*args, **kwargs):
        raise AssertionError("the search ran")

    monkeypatch.setattr(cli, "find_splitting", no_search)
    got, out, err = invoke(capsys, "search", "--kplus", "3", "--kminus", "1", "--q", "25",
                           "--store", store)
    assert (got, out) == (code, "")
    assert err.startswith(message), err
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


def test_missing_registry_exits_1(tmp_path, monkeypatch, capsys):
    # As from an installation that lacks the packaged store.
    reg = tmp_path / "absent.jsonl"
    packaged_store(monkeypatch, reg)
    code, out, err = invoke(capsys, "classify", "--kplus", "3", "--kminus", "1", "--max-n", "5")
    assert code == 1 and out == ""
    assert err.startswith("error: ") and f"No such file or directory: '{reg}'" in err


def test_missing_or_empty_certificates_path_exits_1(tmp_path, capsys):
    # An empty path is unreadable like any other, not "no store given".
    for path in (str(tmp_path / "missing.jsonl"), ""):
        for argv in (
            ("classify", "--kplus", "3", "--kminus", "1", "--max-n", "5"),
            ("check", "--kplus", "3", "--kminus", "1", "--n", "5"),
            ("summarize", "--kplus", "3", "--kminus", "1", "--max-n", "5"),
            ("verify",),
        ):
            code, out, err = invoke(capsys, *argv, "--certificates", path)
            assert (code, out) == (1, ""), (argv, path)
            assert err.startswith("error: ") and f"No such file or directory: '{path}'" in err


@pytest.mark.parametrize(
    "k_minus, unknown",
    [
        (1, "22 24 60 111 114 121 144 220 234 235"),
        (2, "13 37 49 73 85 121 145 157 181 217 229"),
    ],
)
def test_summarize_prints_the_packaged_table(capsys, k_minus, unknown):
    code, out, _ = invoke(capsys, "summarize", "--kplus", "3", "--kminus", str(k_minus),
                          "--max-n", "250")
    assert code == 0
    assert out == SUMMARY_250[k_minus]
    assert f"unknown: {unknown}\n" in out


@pytest.mark.parametrize(
    "command, k_minus, sha256",
    [
        ("classify", 1, "bcda68adaa3514aa7b4a9b9a5063be824c4b9071282ff5204ead8b54eaa65551"),
        ("classify", 2, "ccf52b30d2f86e6439bad45badab71367afde3119e5c3e24928c7011f1c4567d"),
        ("summarize", 1, "179850c6f85be5d1b58c732e8fd01343787f7d26d430c11f9a572874acca1271"),
        ("summarize", 2, "06ddaa294e0088f36eea906f5debe56b14f7697a22af6c804456d85485100c2d"),
    ],
    ids=["3-1", "3-2", "summarize-3-1", "summarize-3-2"],
)
def test_default_table_digest(capsys, command, k_minus, sha256):
    # The paper's table at N = 4000 with the packaged registries, as JSON
    # and as its summary, byte for byte.
    fmt = ("--format", "json") if command == "classify" else ()
    code, out, err = invoke(capsys, command, "--kplus", "3", "--kminus", str(k_minus),
                            "--max-n", "4000", *fmt)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == sha256


def run_module(*args):
    """python -m quasicross in a child that imports the same package as
    this test, installed or not."""
    src = str(Path(quasicross.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    argv = [sys.executable, "-m", "quasicross", *args]
    return subprocess.run(argv, capture_output=True, text=True, env=env)


def test_module_entry_point():
    argv = ["classify", "--kplus", "3", "--kminus", "1", "--max-n", "6", "--no-registry", "--format", "csv"]
    first = run_module(*argv)
    second = run_module(*argv)
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout
    assert "6,25,unknown,," in first.stdout


def test_importing_the_package_loads_no_dataclasses_or_inspect():
    # -S keeps site-packages hooks, which may import either, out of the check.
    src = str(Path(quasicross.__file__).resolve().parents[1])
    code = "import sys, quasicross, quasicross.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    result = subprocess.run(
        [sys.executable, "-S", "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert (result.returncode, result.stdout, result.stderr) == (0, "[]\n", "")


def test_every_exported_and_imported_name_resolves():
    # A stale __all__ entry breaks only a star import, so deleting a public
    # name could leave one behind unnoticed.  __main__ is skipped: importing
    # it runs the CLI.
    package = Path(quasicross.__file__).parent
    for path in sorted(package.glob("*.py")):
        if path.stem in ("__init__", "__main__"):
            continue
        module = importlib.import_module(f"quasicross.{path.stem}")
        missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
        assert missing == [], (path.stem, missing)
    tree = ast.parse((package / "__init__.py").read_text(encoding="utf-8"))
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        source = importlib.import_module(f"quasicross.{node.module}")
        for alias in node.names:
            assert hasattr(source, alias.name), (node.module, alias.name)
            assert hasattr(quasicross, alias.asname or alias.name), alias.name


def test_deeply_nested_certificate_line_exits_2(tmp_path):
    store = tmp_path / "deep.jsonl"
    store.write_text("[" * 100_000)
    result = run_module("verify", "--certificates", str(store))
    assert (result.returncode, result.stdout) == (2, "")
    assert result.stderr.startswith(f"error: {store}, line 1: bad certificate line: "), result.stderr
    assert "Traceback" not in result.stderr


def test_deeply_nested_registry_exits_2(tmp_path, monkeypatch, capsys):
    reg = tmp_path / "deep.jsonl"
    reg.write_text("[" * 100_000)
    packaged_store(monkeypatch, reg)
    code, out, err = invoke(capsys, "classify", "--kplus", "3", "--kminus", "1", "--max-n", "3")
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {reg}, line 1: bad certificate line: "), err


def test_shape_flag_validation_is_usage_error(capsys):
    code, _, err = invoke(capsys, "classify", "--kplus", "1", "--kminus", "2", "--max-n", "5")
    assert code == 1
    assert "kminus <= kplus" in err
    code, _, err = invoke(capsys, "check", "--kplus", "3", "--kminus", "1", "--n", "0")
    assert code == 1
    code, _, err = invoke(capsys, "search", "--kplus", "3", "--kminus", "1", "--q", "4")
    assert code == 1
    assert "must exceed" in err


def test_check_uses_certificates(capsys):
    argv = ("check", "--kplus", "3", "--kminus", "1", "--n", "6", "--no-registry")
    code, out, _ = invoke(capsys, *argv)
    assert code == 0
    assert "verdict: unknown" in out
    code, out, _ = invoke(capsys, *argv, "--certificates", str(default_certificates_path()))
    assert code == 0
    assert "verdict: tiles (certificate)" in out
    code, out, _ = invoke(capsys, "classify", "--kplus", "3", "--kminus", "1", "--max-n", "6",
                          "--no-registry", "--certificates", str(default_certificates_path()),
                          "--format", "csv")
    assert out.splitlines()[-1] == "6,25,tiles,,certificate"


def readme_commands():
    """The quasicross lines of README's "Command line" block, as argv lists."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Command line\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    argvs = [shlex.split(line, comments=True) for line in block.splitlines()]
    return [argv[1:] for argv in argvs if argv and argv[0] == "quasicross"]


def test_readme_commands_run(tmp_path, monkeypatch, capsys):
    # A flag the CLI no longer accepts cannot stay documented.  The block's
    # certificates.jsonl is a copy of the packaged store in the working
    # directory.
    shutil.copyfile(default_certificates_path(), tmp_path / "certificates.jsonl")
    monkeypatch.chdir(tmp_path)
    argvs = readme_commands()
    assert [argv[0] for argv in argvs] == [
        "classify", "check", "check", "search", "verify", "verify", "summarize"
    ]
    for argv in argvs:
        code, _, err = invoke(capsys, *argv)
        assert code == 0, (argv, err)


def load_script(name):
    """The module scripts/<name>.py, loaded from its file."""
    path = Path(__file__).resolve().parents[1] / "scripts" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def reproduce_tables():
    return load_script("reproduce_tables")


def test_reproduce_tables_prints_both_summaries(capsys):
    script = reproduce_tables()
    script.main(["--max-n", "250"])
    assert capsys.readouterr().out == SUMMARY_250[1] + "\n" + SUMMARY_250[2] + "\n"
    script.main(["--max-n", "250", "--table"])
    tables = {
        k_minus: report_text(classify_range(3, k_minus, 250, registry=default_registry(3, k_minus)))
        for k_minus in (1, 2)
    }
    expected = "".join(tables[k] + SUMMARY_250[k] + "\n" for k in (1, 2))
    assert capsys.readouterr().out == expected


def test_reproduce_tables_rejects_nonpositive_max_n(capsys):
    script = reproduce_tables()
    for value in ("0", "-3", "99999999999999999999"):
        with pytest.raises(SystemExit) as exc:
            script.main(["--max-n", value])
        assert exc.value.code != 0
        assert "--max-n" in capsys.readouterr().err


def test_code_lines_counts_code_not_docstrings_or_comments(tmp_path):
    # Every code-line figure quoted for the package comes from this count.
    # A line counts once however many tokens it holds, and a token spanning
    # lines counts on each; docstrings, lone strings and comments do not.
    module = tmp_path / "module.py"
    module.write_text(
        '''"""Module docstring."""


def f(x):
    """Two-line
    docstring."""
    # A comment line.
    x += 1  # A trailing comment.
    y = """one
    two"""
    return max(
        x,
        len(y),
    )


"A lone string statement."
''',
        encoding="utf-8",
    )
    assert load_script("code_lines").code_lines(module) == 8
