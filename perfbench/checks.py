"""Correctness checks on the outputs of each workload.

Every check returns a list of failure messages; an empty list means the
output is correct.  A failed check counts its operation as failed in the
benchmark's `failed` / `attempted` totals.  `self_test` feeds each check one
corrupted output and confirms that it is caught.
"""

from __future__ import annotations

import hashlib

SETTLED = ("found", "exhausted")


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def check_table(shape, rc: int, text: str, ref_digest: str) -> list[str]:
    """A classify call must exit 0 and print exactly the recorded report."""
    if rc != 0:
        return [f"classify {shape} exited {rc}"]
    if digest(text) != ref_digest:
        return [f"classify {shape} output differs from the recorded digest"]
    return []


def check_find(call, status: str, splitters, ref_status: str) -> list[str]:
    """A settled reference status may not change; a found splitter set must
    pass verify_cover, called here and not inside the search."""
    from quasicross import interval_multipliers, verify_cover

    kp, km, n = call[:3]
    q = n * (kp + km) + 1
    out = []
    if ref_status in SETTLED and status != ref_status:
        out.append(f"find {call}: status {status}, reference {ref_status}")
    if status == "found":
        check = verify_cover(q, interval_multipliers(kp, km, q).residues, splitters or ())
        if not check:
            out.append(f"find {call}: returned splitters do not split Z_{q}: {check.reason}")
        elif len(splitters) != n:
            out.append(f"find {call}: {len(splitters)} splitters for dimension {n}")
    return out


def check_count(call, count: int, complete: bool, ref_count: int) -> list[str]:
    if not complete or count != ref_count:
        return [f"count {call}: {count} (complete={complete}), reference {ref_count}"]
    return []


def check_append(key, returned, expect_new: bool) -> list[str]:
    if returned is not expect_new:
        return [f"append q={key[0]}: returned {returned}, expected {expect_new}"]
    return []


def check_load(loaded, expected_keys) -> list[str]:
    """A load must return exactly the distinct certificates appended so far, in order."""
    keys = [(c.q, c.k_plus, c.k_minus, c.splitters) for c in loaded]
    if keys != list(expected_keys):
        return [f"load returned {len(keys)} certificates, expected {len(expected_keys)} in append order"]
    return []


def check_basis(key, rows) -> list[str]:
    """n rows, upper triangular with |det| = q, and every row in ker(phi)."""
    q, _kp, _km, splitters = key
    n = len(splitters)
    if len(rows) != n or any(len(r) != n for r in rows):
        return [f"basis q={q}: shape is not {n}x{n}"]
    if any(rows[i][j] for i in range(n) for j in range(i)):
        return [f"basis q={q}: not upper triangular"]
    det = 1
    for i in range(n):
        det *= rows[i][i]
    out = []
    if abs(det) != q:
        out.append(f"basis q={q}: |det| = {abs(det)}")
    for row in rows:
        if sum(x * s for x, s in zip(row, splitters)) % q:
            out.append(f"basis q={q}: a row does not map to 0 under phi")
            break
    return out


def check_drift(name: str, values) -> list[str]:
    """Exact counts must repeat between passes of the same code."""
    values = list(values)
    if any(v != values[0] for v in values[1:]):
        return [f"{name} drifted between passes: {values}"]
    return []


def self_test(ref) -> list[str]:
    """Feed every check a correct and a corrupted output.  Returns problems:
    a correct output flagged, or a corrupted one passed."""
    from quasicross import Splitting, lattice_basis

    cases = []
    shape = (3, 1)
    text = "[]\n"
    cases.append(("table output", check_table(shape, 0, text, digest(text)),
                  check_table(shape, 0, text.replace("]", "}"), digest(text))))
    cases.append(("table exit code", check_table(shape, 0, text, digest(text)),
                  check_table(shape, 2, text, digest(text))))

    found = next(c for c in ref["search"]["find"] if c["status"] == "found")
    call = (found["k_plus"], found["k_minus"], found["n"], found["budget"])
    good = tuple(found["splitters"])
    bad = good[:-1] + (good[-1] + 1,)
    cases.append(("find splitters", check_find(call, "found", good, "found"),
                  check_find(call, "found", bad, "found")))
    cases.append(("find status", check_find(call, "found", good, "timed_out"),
                  check_find(call, "exhausted", None, "found")))

    cnt = ref["search"]["count"][0]
    ccall = (cnt["k_plus"], cnt["k_minus"], cnt["n"])
    cases.append(("count", check_count(ccall, cnt["count"], True, cnt["count"]),
                  check_count(ccall, cnt["count"] - 1, True, cnt["count"])))

    cert = Splitting(7, 1, 1, (1, 2, 4))
    key = (cert.q, cert.k_plus, cert.k_minus, cert.splitters)
    cases.append(("append", check_append(key, True, True), check_append(key, True, False)))

    other = Splitting(9, 1, 1, (1, 2, 3, 4))
    okey = (other.q, other.k_plus, other.k_minus, other.splitters)
    cases.append(("load", check_load((cert, other), [key, okey]),
                  check_load((other, cert), [key, okey])))

    rows = [list(r) for r in lattice_basis(cert).rows]
    corrupt = [list(r) for r in rows]
    corrupt[-1][-1] += 1
    cases.append(("lattice basis", check_basis(key, rows), check_basis(key, corrupt)))

    cases.append(("drift", check_drift("nodes", [5, 5, 5]), check_drift("nodes", [5, 5, 6])))

    problems = []
    for name, good_result, bad_result in cases:
        if good_result:
            problems.append(f"self-test {name}: correct output flagged: {good_result}")
        if not bad_result:
            problems.append(f"self-test {name}: corrupted output passed")
    return problems
