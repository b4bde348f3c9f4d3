import hashlib
import importlib.util
import json
import os
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import quasicross
from quasicross import classify, cli
from quasicross.cli import run
from quasicross.classify import (
    Verdicts,
    classify_range,
    default_certificates_path,
    default_registry,
    report_text,
)

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
    # The packaged certificate for n = 6 verifies; the criterion is wrong.
    firing_at("quadratic_balance", {6})
    code, _, err = invoke(capsys, "classify", "--kplus", "3", "--kminus", "1", "--max-n", "8")
    assert code == 2
    assert err.startswith("contradiction: dimension 6: tiling evidence (registry) contradicts "
                          "criterion quadratic_balance firing"), err


def test_check_lists_all_criteria(capsys):
    code, out, _ = invoke(capsys, "check", "--kplus", "3", "--kminus", "2", "--n", "13")
    assert code == 0
    assert "verdict: unknown" in out
    for cid in (
        "geometry", "arm_gcd", "quadratic_balance", "char4_literal", "quartic_generic",
        "odd_prime_order", "power_square", "power_cube", "vandermonde", "psquare", "divisors",
    ):
        assert cid in out


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
    code, out, _ = invoke(
        capsys, "search", "--kplus", "3", "--kminus", "1", "--q", "13", "--no-store",
    )
    assert code == 0
    assert "status: exhausted" in out
    # |M| = 4 does not divide q - 1 = 25, so no splitting exists and no node is visited.
    code, out, _ = invoke(capsys, "search", "--kplus", "3", "--kminus", "1", "--q", "26", "--no-store")
    assert code == 0
    assert "note: |M| = 4 does not divide q - 1 = 25\n" in out
    assert out.endswith("nodes: 0\n")


def test_search_symmetric_exhaustion_stdout(capsys):
    # M = -M, so the search keeps one splitter per +-s pair and exhausts in
    # 35 nodes; searching both splitters of each pair took 393 213.
    code, out, _ = invoke(capsys, "search", "--kplus", "2", "--kminus", "2", "--q", "77", "--no-store")
    assert code == 0
    assert out == "status: exhausted\nq: 77\nmultipliers: -2..2\nnodes: 35\n"


def test_search_stdout_deterministic(tmp_path, capsys):
    argv = ["search", "--kplus", "3", "--kminus", "1", "--q", "25", "--no-store"]
    _, out1, _ = invoke(capsys, *argv)
    _, out2, _ = invoke(capsys, *argv)
    assert out1 == out2
    assert "nodes:" in out1
    # A spent budget stops at exactly the budget, so it too prints the same
    # report every time.
    argv = ["search", "--kplus", "3", "--kminus", "2", "--q", "186", "--no-store",
            "--node-budget", "2000"]
    expected = ("status: timed_out\nq: 186\nmultipliers: -2..3\n"
                "note: node budget of 2000 exhausted\nnodes: 2000\n")
    for _ in range(2):
        code, out, _ = invoke(capsys, *argv)
        assert (code, out) == (0, expected)


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
    # per residue; at 10**20 - 1, |M| = 4 does not divide q - 1, which would
    # otherwise report exhausted.
    for q in (2**64 + 1, 10**20 - 1):
        argv = ("search", "--kplus", "3", "--kminus", "1", "--q", str(q), "--no-store",
                "--node-budget", "10")
        code, out, err = invoke(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert err == f"error: search got q={q}; group orders must fit in 64 bits\n"


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
                            "--no-store", "--time-budget", "60")
    assert (code, out) == (1, "")
    assert "unrecognized arguments: --time-budget 60" in err


def test_store_flags_exclude_each_other(tmp_path, monkeypatch, capsys):
    # --no-store must not silently drop --store FILE, the default name included.
    monkeypatch.chdir(tmp_path)
    for store in ("certificates.jsonl", str(tmp_path / "certs.jsonl")):
        code, out, err = invoke(capsys, "search", "--kplus", "3", "--kminus", "1", "--q", "25",
                                "--store", store, "--no-store")
        assert code == 1 and out == "", store
        assert "argument --no-store: not allowed with argument --store" in err
    assert list(tmp_path.iterdir()) == []


def test_search_stores_in_certificates_jsonl_by_default(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code, _, err = invoke(capsys, "search", "--kplus", "3", "--kminus", "1", "--q", "25")
    assert code == 0
    assert "stored certificate in certificates.jsonl\n" in err
    assert [path.name for path in tmp_path.iterdir()] == ["certificates.jsonl"]


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
    "k_minus, sha256",
    [
        (1, "bcda68adaa3514aa7b4a9b9a5063be824c4b9071282ff5204ead8b54eaa65551"),
        (2, "ccf52b30d2f86e6439bad45badab71367afde3119e5c3e24928c7011f1c4567d"),
    ],
    ids=["3-1", "3-2"],
)
def test_default_table_digest(capsys, k_minus, sha256):
    # The paper's table at N = 4000 with the packaged registries, byte for byte.
    code, out, err = invoke(capsys, "classify", "--kplus", "3", "--kminus", str(k_minus),
                            "--max-n", "4000", "--format", "json")
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


def reproduce_tables():
    path = Path(__file__).resolve().parents[1] / "scripts" / "reproduce_tables.py"
    spec = importlib.util.spec_from_file_location("reproduce_tables", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


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
