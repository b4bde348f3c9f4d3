import json

import pytest

from quasicross import classify, criteria, splitting
from quasicross.classify import (
    ContradictionError,
    Registry,
    TilesSource,
    Verdicts,
    classify_range,
    default_certificates_path,
    default_registry,
    load_certificates,
    load_registry,
    report_csv,
    report_json,
    report_text,
    store_certificate,
    summarize,
)
from quasicross.criteria import CRITERION_ORDER, CriterionStatus, VerdictStatus, outcomes
from quasicross.numtheory import is_prime
from quasicross.search import count_splittings, find_splitting
from quasicross.splitting import (
    QuasiCrossShape,
    Splitting,
    interval_multipliers,
    lattice_basis,
    verify_cover,
    verify_splitting,
)

Q25_CERT = Splitting(25, 3, 1, (1, 5, 6, 11, 16, 21))
# Well formed, but 1*2 and 2*1 collide at 2.
BAD_Q13_LINE = '{"q": 13, "k_plus": 3, "k_minus": 1, "splitters": [1, 2, 3]}\n'


def statuses(run):
    return {v.n: v.status for v in run.verdicts}


def attributions(run):
    return {v.n: v.criterion_id for v in run.verdicts if v.status is VerdictStatus.NO_TILING}


def test_dimension_one_is_trivial_tiles():
    run = classify_range(3, 2, 1)
    assert run.verdicts[0].status is VerdictStatus.TILES
    assert run.verdicts[0].source is TilesSource.TRIVIAL


def test_31_small_range_attribution():
    run = classify_range(3, 1, 10)
    attr = attributions(run)
    assert attr[2] == "geometry"
    assert attr[3] == "quadratic_balance"
    assert attr[4] == "vandermonde"
    assert attr[5] == "power_square"
    assert attr[7] == "char4_literal"
    assert attr[8] == "power_square"
    assert attr[9] == "quadratic_balance"
    assert attr[10] == "vandermonde"
    assert statuses(run)[6] is VerdictStatus.UNKNOWN
    assert statuses(run)[1] is VerdictStatus.TILES


def test_32_small_range_attribution():
    run = classify_range(3, 2, 6, registry=Registry(3, 2, (1,)))
    attr = attributions(run)
    assert attr[2] == "geometry"
    assert attr[3] == "arm_gcd"
    assert attr[4] == "divisors"
    assert attr[5] == "arm_gcd"
    assert attr[6] == "arm_gcd"


def test_registry_marks_tiles():
    reg = Registry(3, 1, (1, 6), "test")
    run = classify_range(3, 1, 6, registry=reg)
    v = run.verdicts[5]
    assert v.status is VerdictStatus.TILES and v.source is TilesSource.REGISTRY


def test_certificates_mark_tiles():
    run = classify_range(3, 1, 6, certificates=[Q25_CERT])
    v = run.verdicts[5]
    assert v.status is VerdictStatus.TILES and v.source is TilesSource.CERTIFICATE


def test_registry_shape_mismatch_rejected():
    with pytest.raises(ValueError, match="registry is for shape"):
        classify_range(3, 1, 5, registry=Registry(3, 2, (1,)))


def test_unverified_certificate_rejected():
    messages = []
    for _ in range(2):  # the second call meets a memoized failure
        with pytest.raises(ValueError, match="does not verify") as info:
            classify_range(3, 1, 5, certificates=[Splitting(13, 3, 1, (1, 2, 3))])
        messages.append(str(info.value))
    assert messages == ["certificate q=13 does not verify: collision at 2: 2*1 = 1*2 (mod 13)"] * 2


def test_tiling_evidence_precedence():
    # Trivial beats registry beats certificate when they name the same dimension.
    run = classify_range(
        3, 1, 6, registry=Registry(3, 1, (1, 6)), certificates=[Splitting(5, 3, 1, (1,)), Q25_CERT]
    )
    assert [run.verdicts[n - 1].source for n in (1, 6)] == [TilesSource.TRIVIAL, TilesSource.REGISTRY]
    # A certificate for another shape is neither evidence nor verified.
    run = classify_range(3, 1, 6, certificates=[Splitting(13, 2, 1, (1, 2, 3))])
    assert run.verdicts == classify_range(3, 1, 6).verdicts


def test_evidence_is_checked_before_the_walk(monkeypatch):
    calls = counting_criteria(monkeypatch)
    bad = Splitting(13, 3, 1, (1, 2, 3))  # dimension 3, past n_max
    with pytest.raises(ValueError, match="certificate q=13 does not verify"):
        classify_range(3, 1, 2, certificates=[Q25_CERT, bad])
    with pytest.raises(ValueError, match="registry is for shape"):
        classify_range(3, 1, 2, registry=Registry(3, 2, (1,)), certificates=[bad])
    assert calls == []


def test_contradiction_aborts():
    reg = Registry(3, 1, (1, 3), "bogus: 3 is ruled out")
    with pytest.raises(ContradictionError) as exc_info:
        classify_range(3, 1, 5, registry=reg)
    err = exc_info.value
    assert err.n == 3
    assert err.outcome.criterion_id == "quadratic_balance"
    assert "registry" in str(err) and "witness" in str(err)


def outcome_rows(run):
    """Every criterion's outcome at every n of run, with its verdicts as the oracle."""
    oracle = {v.n: v.status for v in run.verdicts}
    return {
        v.n: tuple(outcomes(QuasiCrossShape(run.k_plus, run.k_minus, v.n), oracle)) for v in run.verdicts
    }


def test_verdicts_independent_of_criterion_order():
    # Attribution aside, the ruled-out set only depends on which criteria
    # fire, so recomputing statuses from reversed outcome order must agree.
    run = classify_range(3, 1, 80, registry=default_registry(3, 1))
    rows = outcome_rows(run)
    for v in run.verdicts:
        fired_any = any(o.fired for o in reversed(rows[v.n]))
        assert (v.status is VerdictStatus.NO_TILING) == (
            fired_any and v.status is not VerdictStatus.TILES
        )
        if v.status is VerdictStatus.TILES:
            assert not fired_any


@pytest.mark.parametrize(
    "k_plus, k_minus, registry",
    [(3, 1, default_registry(3, 1)), (3, 2, default_registry(3, 2)), (2, 2, None), (4, 1, None), (1, 1, None)],
)
def test_independent_counts_equal_evaluate_all(k_plus, k_minus, registry):
    # summarize runs only the criteria after each verdict's first firing one;
    # its counts must be those of every criterion at every n.
    run = classify_range(k_plus, k_minus, 300, registry=registry)
    expected = dict.fromkeys(CRITERION_ORDER, 0)
    for row in outcome_rows(run).values():
        for out in row:
            expected[out.criterion_id] += out.fired
    assert summarize(run).independent_fired == expected


def counting_criteria(monkeypatch):
    """Wrap every entry of the criterion table criteria.outcomes reads;
    returns the list of (criterion, shape) calls made from then on."""
    calls = []

    def counted(cid, fn):
        def check(shape):
            calls.append((cid, shape))
            return fn(shape)

        return check

    monkeypatch.setattr(
        criteria, "SHAPE_CRITERIA", tuple((cid, counted(cid, fn)) for cid, fn in criteria.SHAPE_CRITERIA)
    )
    return calls


def test_verdicts_stop_at_the_first_firing_criterion(monkeypatch):
    calls = counting_criteria(monkeypatch)
    n_max = 500
    run = classify_range(3, 2, n_max, registry=default_registry(3, 2))
    vandermonde = [shape for cid, shape in calls if cid == "vandermonde"]
    # arm_gcd rules out every prime q of (3,2), so the walk never scans
    # power sums; it reaches vandermonde only where 3 | q, and returns at
    # once, because q is not prime.
    assert not any(is_prime(shape.group_order) for shape in vandermonde)
    assert all(shape.group_order % 3 == 0 for shape in vandermonde)
    summarize(run)
    for cid, _ in criteria.SHAPE_CRITERIA:
        dims = sorted(shape.n for c, shape in calls if c == cid)
        assert dims == list(range(1, n_max + 1)), cid


def test_tiling_evidence_runs_every_criterion(monkeypatch):
    with pytest.raises(ContradictionError) as info:
        classify_range(3, 1, 25, registry=Registry(3, 1, (1, 20)))
    assert info.value.n == 20
    assert info.value.outcome.criterion_id == "psquare" == CRITERION_ORDER[9]
    # (3,2) n = 4 is ruled out by the divisor recursion alone.
    with pytest.raises(ContradictionError) as info:
        classify_range(3, 2, 6, registry=Registry(3, 2, (1, 4)))
    assert info.value.n == 4 and info.value.outcome.criterion_id == "divisors"
    calls = counting_criteria(monkeypatch)
    run = classify_range(3, 1, 6, registry=Registry(3, 1, (1, 6)))
    for n in (1, 6):
        assert [cid for cid, shape in calls if shape.n == n] == list(CRITERION_ORDER[:-1])
    assert all(o.status is not CriterionStatus.RULED_OUT for o in outcome_rows(run)[6])


@pytest.mark.parametrize(
    "k_plus, k_minus, registry",
    [(3, 1, default_registry(3, 1)), (3, 2, default_registry(3, 2)), (5, 1, None)],
)
def test_memo_answers_one_dimension_as_the_walk_does(k_plus, k_minus, registry):
    # A fresh memo asked for one n classifies only the dimensions the divisor
    # recursion reaches from n; its verdict, every criterion's outcome and
    # every status it holds must be the walk's.
    run = classify_range(k_plus, k_minus, 1000, registry=registry)
    oracle = {v.n: v.status for v in run.verdicts}
    for v in run.verdicts:
        memo = Verdicts(k_plus, k_minus, v.n, registry)
        assert memo.verdict(v.n) == v
        sh = QuasiCrossShape(k_plus, k_minus, v.n)
        assert tuple(outcomes(sh, memo)) == tuple(outcomes(sh, oracle))
        assert all(oracle[n] is status for n, status in memo.items())


def test_classify_range_refuses_q_past_64_bits():
    # q = n * (k_plus + k_minus) + 1; the walk's last q must fit in 64 bits.
    run = classify_range(2**64 - 3, 1, 1)  # q = 2**64 - 1, the largest allowed
    assert [(v.q, v.status) for v in run.verdicts] == [(2**64 - 1, VerdictStatus.TILES)]
    with pytest.raises(ValueError, match=r"^dimensions up to 1 reach q=18446744073709551616; "):
        classify_range(2**64 - 2, 1, 1)
    # 4n + 1 >= 2**64 from n = 2**62 on; refused at once, not after a walk.
    with pytest.raises(ValueError, match="group orders must fit in 64 bits"):
        classify_range(3, 1, 2**62)
    with pytest.raises(ValueError, match="^n_max must be >= 1, got 0$"):
        classify_range(3, 1, 0)


def test_registry_validation():
    with pytest.raises(ValueError, match="^registry dimensions must be distinct$"):
        Registry(3, 1, (5, 5))
    with pytest.raises(ValueError, match="^registry dimensions must be >= 1$"):
        Registry(3, 1, (0, 2))
    with pytest.raises(ValueError, match=r"^arms must satisfy 1 <= k_minus <= k_plus, got \(1, 3\)$"):
        Registry(1, 3, (2,))
    registry = Registry(3, 1, (6, 1))
    assert registry.dimensions == (1, 6) and registry.source == ""
    other = Registry(3, 1, [1, 6])
    assert registry == other and hash(registry) == hash(other)
    for name in ("k_plus", "k_minus", "dimensions", "source"):
        with pytest.raises(AttributeError):
            setattr(registry, name, 1)


def test_records_refuse_assignment():
    run = classify_range(3, 1, 6, registry=default_registry(3, 1))
    records = (
        run,
        run.verdicts[-1],
        summarize(run),
        next(outcomes(QuasiCrossShape(3, 1, 6), statuses(run))),
        find_splitting(25, interval_multipliers(3, 1, 25)),
        count_splittings(5, interval_multipliers(3, 1, 5)),
        verify_cover(5, (4, 1, 2, 3), (1,)),
        lattice_basis(Q25_CERT),
    )
    for record in records:
        for name in record._fields:
            with pytest.raises(AttributeError):
                setattr(record, name, None)


def test_load_registry(tmp_path):
    path = tmp_path / "reg.json"
    path.write_text(json.dumps({"k_plus": 3, "k_minus": 1, "dimensions": [6, 1], "source": "t"}))
    reg = load_registry(path)
    assert reg.dimensions == (1, 6) and reg.source == "t"
    path.write_text(json.dumps([3, 1, [6]]))  # valid JSON, not an object
    with pytest.raises(ValueError, match=r"^registry .*reg\.json: expected a JSON object$"):
        load_registry(path)
    path.write_text(json.dumps({"k_plus": 3, "dimensions": []}))
    with pytest.raises(ValueError, match="missing fields"):
        load_registry(path)
    path.write_text(json.dumps({"k_plus": 3, "k_minus": 1, "dimensions": [True, 6]}))
    with pytest.raises(ValueError, match="dimensions must be a list of integers"):
        load_registry(path)
    for kp, km in ((3, True), ("3", 1), (3.0, 1)):
        path.write_text(json.dumps({"k_plus": kp, "k_minus": km, "dimensions": [1]}))
        with pytest.raises(ValueError, match="k_plus and k_minus must be integers"):
            load_registry(path)
    path.write_text(json.dumps({"k_plus": 1, "k_minus": 3, "dimensions": [2]}))
    with pytest.raises(ValueError, match=r"^registry .*reg\.json: arms must satisfy"):
        load_registry(path)
    path.write_text(json.dumps({"k_plus": 3, "k_minus": 1, "dimensions": [6, 6]}))
    with pytest.raises(ValueError, match=r"^registry .*reg\.json: registry dimensions must be distinct"):
        load_registry(path)


def test_default_registries_ship():
    reg31 = default_registry(3, 1)
    assert reg31 is not None
    assert set(reg31.dimensions) == {1, 6, 31, 156} | {37, 43, 97, 102, 115, 139, 163, 169, 186, 199, 216}
    reg32 = default_registry(3, 2)
    assert reg32 is not None and reg32.dimensions == (1,)
    assert default_registry(9, 4) is None


def test_shipped_certificates_verify():
    certs = load_certificates(default_certificates_path())
    assert Q25_CERT in certs


def test_store_certificate_roundtrip(tmp_path):
    path = tmp_path / "certs.jsonl"
    assert store_certificate(Q25_CERT, path) is True
    first = path.read_bytes()
    assert store_certificate(Q25_CERT, path) is False
    assert path.read_bytes() == first
    (loaded,) = load_certificates(path)
    assert loaded == Q25_CERT
    assert store_certificate(loaded, path) is False
    assert path.read_bytes() == first


def test_store_rejects_unverified(tmp_path):
    messages = []
    for _ in range(2):  # the second call meets a memoized failure
        with pytest.raises(ValueError, match="refusing to store") as info:
            store_certificate(Splitting(13, 3, 1, (1, 2, 3)), tmp_path / "c.jsonl")
        messages.append(str(info.value))
    assert messages == ["refusing to store unverified splitting: collision at 2: 2*1 = 1*2 (mod 13)"] * 2
    assert not (tmp_path / "c.jsonl").exists()


def test_store_appends_after_a_last_line_without_newline(tmp_path):
    path = tmp_path / "certs.jsonl"
    path.write_text('{"q": 5, "k_plus": 3, "k_minus": 1, "splitters": [1]}')
    assert store_certificate(Q25_CERT, path) is True
    assert load_certificates(path) == (Splitting(5, 3, 1, (1,)), Q25_CERT)
    assert store_certificate(Q25_CERT, path) is False


def test_certificate_verified_once_across_store_load_classify_basis(tmp_path, monkeypatch):
    calls = []

    def counting_verify_cover(*args):
        calls.append(args)
        return verify_cover(*args)

    verify_splitting.cache_clear()
    monkeypatch.setattr(splitting, "verify_cover", counting_verify_cover)
    path = tmp_path / "certs.jsonl"
    assert store_certificate(Q25_CERT, path) is True
    (loaded,) = load_certificates(path)
    run = classify_range(3, 1, 6, certificates=[loaded])
    assert run.verdicts[5].source is TilesSource.CERTIFICATE
    assert lattice_basis(loaded).determinant == 25
    assert len(calls) == 1


def test_load_certificates_errors(tmp_path):
    path = tmp_path / "certs.jsonl"
    path.write_text('{"q": 25, "k_plus": 3, "k_minus": 1, "splitters": [1, 5]}\n')
    with pytest.raises(ValueError, match="line 1"):
        load_certificates(path)
    path.write_text(BAD_Q13_LINE)
    with pytest.raises(ValueError, match="collision at 2"):
        load_certificates(path)
    path.write_text("{broken\n")
    with pytest.raises(ValueError, match="line 1"):
        load_certificates(path)
    path.write_text(BAD_Q13_LINE)
    with pytest.raises(ValueError) as info:
        load_certificates(path)
    assert str(info.value) == (
        f"{path}, line 1: certificate q=13 does not verify: collision at 2: 2*1 = 1*2 (mod 13)"
    )


def test_edited_store_line_is_verified_again(tmp_path):
    path = tmp_path / "certs.jsonl"
    q5 = Splitting(5, 3, 1, (1,))
    assert store_certificate(q5, path) and store_certificate(Q25_CERT, path)
    assert load_certificates(path) == (q5, Q25_CERT)
    first, _ = path.read_text().splitlines(keepends=True)
    path.write_text(first + BAD_Q13_LINE)
    with pytest.raises(ValueError, match="line 2: .*collision"):
        load_certificates(path)


def test_failing_store_line_fails_on_every_load(tmp_path):
    path = tmp_path / "certs.jsonl"
    path.write_text(BAD_Q13_LINE)
    for _ in range(2):
        with pytest.raises(ValueError, match="line 1: .*does not verify"):
            load_certificates(path)


def test_store_refuses_to_append_to_a_bad_store(tmp_path):
    path = tmp_path / "certs.jsonl"
    path.write_text(BAD_Q13_LINE)
    with pytest.raises(ValueError, match="line 1: .*collision at 2"):
        store_certificate(Q25_CERT, path)
    assert path.read_text() == BAD_Q13_LINE


Q5_LINE = b'{"q": 5, "k_plus": 3, "k_minus": 1, "splitters": [1]}'
Q25_LINE = b'{"q": 25, "k_plus": 3, "k_minus": 1, "splitters": [1, 5, 6, 11, 16, 21]}'
Q5 = Splitting(5, 3, 1, (1,))
Q5_OTHER = Splitting(5, 3, 1, (2,))  # {2*m} = {3, 2, 4, 1} also covers Z_5 minus 0


@pytest.fixture
def parsed_lines(monkeypatch):
    """The store lines from_json_line is asked to parse, in order."""
    seen = []

    def counting(line):
        seen.append(line)
        return splitting.from_json_line(line)

    monkeypatch.setattr(classify, "from_json_line", counting)
    return seen


def test_reread_parses_only_lines_appended_by_another_writer(tmp_path, parsed_lines):
    path = tmp_path / "certs.jsonl"
    path.write_bytes(Q5_LINE + b"\n")
    assert load_certificates(path) == (Q5,)
    parsed_lines.clear()
    with open(path, "ab") as fh:
        fh.write(Q25_LINE + b"\n")
    assert load_certificates(path) == (Q5, Q25_CERT)
    assert parsed_lines == [Q25_LINE.decode()]
    parsed_lines.clear()
    assert store_certificate(Q25_CERT, path) is False
    assert load_certificates(path) == (Q5, Q25_CERT)
    assert parsed_lines == []


def test_reread_after_an_edit_in_place_of_the_same_length(tmp_path):
    path = tmp_path / "certs.jsonl"
    path.write_bytes(Q5_LINE + b"\n" + Q25_LINE + b"\n")
    assert load_certificates(path) == (Q5, Q25_CERT)
    edited = Q5_LINE.replace(b"[1]", b"[2]")
    path.write_bytes(edited + b"\n" + Q25_LINE + b"\n")
    assert load_certificates(path) == (Q5_OTHER, Q25_CERT)
    path.write_bytes(Q5_LINE.replace(b"[1]", b"[0]") + b"\n" + Q25_LINE + b"\n")
    with pytest.raises(ValueError, match="line 1: splitter 0 outside"):
        load_certificates(path)


def test_reread_after_a_truncation(tmp_path):
    path = tmp_path / "certs.jsonl"
    path.write_bytes(Q5_LINE + b"\n" + Q25_LINE + b"\n")
    assert load_certificates(path) == (Q5, Q25_CERT)
    path.write_bytes(Q5_LINE + b"\n")
    assert load_certificates(path) == (Q5,)
    path.write_bytes(b"")
    assert load_certificates(path) == ()
    assert store_certificate(Q25_CERT, path) is True
    assert path.read_bytes() == Q25_LINE + b"\n"


def test_last_line_without_newline_completed_later(tmp_path):
    path = tmp_path / "certs.jsonl"
    path.write_bytes(Q25_LINE + b"\n" + Q5_LINE[:-5])
    for _ in range(2):
        with pytest.raises(ValueError, match="line 2: bad certificate line"):
            load_certificates(path)
    with pytest.raises(ValueError, match="line 2: bad certificate line"):
        store_certificate(Q5, path)
    with open(path, "ab") as fh:
        fh.write(b"[2]}")
    assert load_certificates(path) == (Q25_CERT, Q5_OTHER)
    with open(path, "ab") as fh:
        fh.write(b"\n" + Q5_LINE)
    assert load_certificates(path) == (Q25_CERT, Q5_OTHER, Q5)
    assert store_certificate(Q5, path) is False
    path.write_bytes(Q25_LINE + b"\n" + Q5_LINE[:-5])
    with pytest.raises(ValueError, match="line 2: bad certificate line"):
        load_certificates(path)


def test_crlf_store(tmp_path, parsed_lines):
    path = tmp_path / "certs.jsonl"
    path.write_bytes(Q5_LINE + b"\r\n")
    assert load_certificates(path) == (Q5,)
    assert store_certificate(Q25_CERT, path) is True
    assert path.read_bytes() == Q5_LINE + b"\r\n" + Q25_LINE + b"\n"
    assert load_certificates(path) == (Q5, Q25_CERT)
    parsed_lines.clear()
    with open(path, "ab") as fh:
        fh.write(b"\r\n" + BAD_Q13_LINE.encode().replace(b"\n", b"\r\n"))
    with pytest.raises(ValueError, match="line 4: .*collision at 2"):
        load_certificates(path)
    assert len(parsed_lines) == 1


def test_bare_carriage_return_inside_a_line(tmp_path):
    # JSON whitespace, so the line is one line, as file iteration splits it.
    path = tmp_path / "certs.jsonl"
    path.write_bytes(Q25_LINE.replace(b"25,", b"25,\r", 1) + b"\n")
    assert load_certificates(path) == (Q25_CERT,)
    with open(path, "ab") as fh:
        fh.write(b"{broken\r}\n")
    with pytest.raises(ValueError, match="line 2: bad certificate line"):
        load_certificates(path)


def test_error_line_numbers_after_a_reread(tmp_path):
    path = tmp_path / "certs.jsonl"
    path.write_bytes(Q5_LINE + b"\n\n  \n" + Q25_LINE + b"\n")
    assert load_certificates(path) == (Q5, Q25_CERT)
    with open(path, "ab") as fh:
        fh.write(b"\n" + BAD_Q13_LINE.encode())
    for _ in range(2):
        with pytest.raises(ValueError) as info:
            load_certificates(path)
        assert str(info.value).startswith(f"{path}, line 6: certificate q=13 does not verify")
    with pytest.raises(ValueError, match="line 6: .*collision"):
        store_certificate(Q5_OTHER, path)
    assert path.read_bytes().endswith(BAD_Q13_LINE.encode())


def test_two_stores_read_in_turn(tmp_path, parsed_lines):
    first, second = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    first.write_bytes(Q5_LINE + b"\n" + Q25_LINE + b"\n")
    second.write_bytes(Q25_LINE + b"\n")
    for _ in range(2):
        assert load_certificates(first) == (Q5, Q25_CERT)
        assert load_certificates(second) == (Q25_CERT,)
    assert store_certificate(Q5, second) is True
    assert store_certificate(Q5, first) is False
    assert load_certificates(second) == (Q25_CERT, Q5)
    # The same bytes parse to the same certificates, whichever file holds them.
    parsed_lines.clear()
    third = tmp_path / "c.jsonl"
    third.write_bytes(second.read_bytes() + Q5_LINE.replace(b"[1]", b"[2]") + b"\n")
    assert load_certificates(third) == (Q25_CERT, Q5, Q5_OTHER)
    assert len(parsed_lines) == 1


def test_store_opens_the_store_once(tmp_path, monkeypatch):
    opened = []

    def counting_open(*args, **kwargs):
        opened.append(args)
        return open(*args, **kwargs)

    path = tmp_path / "certs.jsonl"
    monkeypatch.setattr(classify, "open", counting_open, raising=False)
    assert store_certificate(Q5, path) is True
    assert store_certificate(Q5, path) is False
    assert store_certificate(Q25_CERT, path) is True
    assert opened == [(path, "a+b")] * 3
    assert path.read_bytes() == Q5_LINE + b"\n" + Q25_LINE + b"\n"


def test_append_then_load_parses_nothing(tmp_path, parsed_lines):
    path = tmp_path / "certs.jsonl"
    assert store_certificate(Q5, path) is True
    assert store_certificate(Q25_CERT, path) is True
    assert store_certificate(Q5, path) is False
    assert load_certificates(path) == (Q5, Q25_CERT)
    assert parsed_lines == []


def test_load_after_appends_equals_a_parse_from_scratch(tmp_path, monkeypatch, parsed_lines):
    path = tmp_path / "certs.jsonl"
    path.write_bytes(Q25_LINE + b"\n")
    for cert in (Q5, Q5_OTHER):
        assert store_certificate(cert, path) is True
    remembered = load_certificates(path)
    monkeypatch.setattr(classify, "_last_store", (b"", 0, (), frozenset()))
    parsed_lines.clear()
    assert load_certificates(path) == remembered == (Q25_CERT, Q5, Q5_OTHER)
    assert len(parsed_lines) == 3


def test_append_after_a_last_line_without_newline_is_parsed_again(tmp_path, parsed_lines):
    path = tmp_path / "certs.jsonl"
    path.write_bytes(Q5_LINE)
    assert store_certificate(Q25_CERT, path) is True
    parsed_lines.clear()
    assert load_certificates(path) == (Q5, Q25_CERT)
    assert parsed_lines == [Q5_LINE.decode(), Q25_LINE.decode()]


def test_lines_of_another_writer_are_parsed_after_an_append(tmp_path, parsed_lines):
    path = tmp_path / "certs.jsonl"
    assert store_certificate(Q5, path) is True
    with open(path, "ab") as fh:
        fh.write(Q25_LINE + b"\n")
    assert load_certificates(path) == (Q5, Q25_CERT)
    assert parsed_lines == [Q25_LINE.decode()]


def test_a_line_appended_between_the_read_and_the_write_is_parsed(tmp_path, monkeypatch, parsed_lines):
    path = tmp_path / "certs.jsonl"
    other_line = Q5_LINE.replace(b"[1]", b"[2]") + b"\n"

    def racing_to_json_line(cert):
        with open(path, "ab") as fh:
            fh.write(other_line)
        return splitting.to_json_line(cert)

    monkeypatch.setattr(classify, "to_json_line", racing_to_json_line)
    assert store_certificate(Q25_CERT, path) is True
    assert path.read_bytes() == other_line + Q25_LINE + b"\n"
    assert load_certificates(path) == (Q5_OTHER, Q25_CERT)
    assert len(parsed_lines) == 2


def report_json_oracle(run):
    """report_json as one json.dumps over a list of dicts."""
    items = [
        {
            "n": v.n,
            "q": v.q,
            "status": v.status.value,
            "source": v.source.value if v.source is not None else None,
            "criterion": v.criterion_id,
            "witness": v.witness,
        }
        for v in run.verdicts
    ]
    return json.dumps(items, separators=(",", ":")) + "\n"


def test_report_json_matches_a_dict_per_row():
    certificates = load_certificates(default_certificates_path())
    runs = [
        classify_range(3, 1, 4000, registry=default_registry(3, 1)),
        classify_range(3, 2, 4000, registry=default_registry(3, 2)),
        classify_range(2, 2, 1000),
        classify_range(5, 1, 1000),
        classify_range(6, 1, 300),
        classify_range(7, 1, 300),
        classify_range(3, 1, 200, certificates=certificates),
    ]
    for run in runs:
        assert report_json(run) == report_json_oracle(run)
    verdicts = [v for run in runs for v in run.verdicts]
    assert {v.status for v in verdicts} == set(VerdictStatus)
    assert {v.source for v in verdicts} == set(TilesSource) | {None}
    assert {v.criterion_id for v in verdicts} == set(CRITERION_ORDER) | {None}


def test_summarize_counts():
    run = classify_range(3, 1, 10)
    summary = summarize(run)
    assert summary.status_counts == {"tiles": 1, "no_tiling": 8, "unknown": 1}
    assert summary.unknown_dims == (6,)
    assert summary.first_fired["power_square"] == 2
    # Independent counts can only exceed first-fired counts.
    for cid in CRITERION_ORDER:
        assert summary.independent_fired[cid] >= summary.first_fired[cid]
    text = summary.to_text()
    assert "surviving residues mod 36" in text
    assert "n = 2 (mod 3)" in text


def test_summarize_32_survivor_residues():
    run = classify_range(3, 2, 120, registry=default_registry(3, 2))
    summary = summarize(run)
    survivors = [v.n for v in run.verdicts if v.n >= 2 and v.status is not VerdictStatus.NO_TILING]
    assert survivors, "expected some survivors below 120"
    assert all(n % 36 in (1, 13) for n in survivors)
    assert "surviving residues mod 36 (n >= 2): 1 13" in summary.to_text()


def test_reports_are_stable_and_ordered():
    run = classify_range(3, 1, 12, registry=default_registry(3, 1))
    for render in (report_csv, report_json, report_text):
        assert render(run) == render(run)
    csv_lines = report_csv(run).splitlines()
    assert csv_lines[0] == "n,q,status,criterion,witness"
    assert [int(line.split(",")[0]) for line in csv_lines[1:]] == list(range(1, 13))
    payload = json.loads(report_json(run))
    assert [item["n"] for item in payload] == list(range(1, 13))
    assert payload[5]["status"] == "tiles" and payload[5]["source"] == "registry"
    text = report_text(run)
    assert text.splitlines()[0].split() == ["n", "q", "status", "criterion", "witness"]


def test_report_csv_row_content():
    run = classify_range(3, 1, 5)
    lines = report_csv(run).splitlines()
    assert lines[1] == "1,5,tiles,,trivial"
    assert lines[2] == "2,9,no_tiling,geometry,lhs=11 rhs=8"
    assert lines[3] == "3,13,no_tiling,quadratic_balance,qr=3 qnr=1"
    assert lines[4] == "4,17,no_tiling,vandermonde,q=17 powers_checked=4"
    assert lines[5] == "5,21,no_tiling,power_square,k=1 kn_mod_9=5"


def test_summarize_empty_rejected():
    from quasicross.classify import ClassificationRun

    empty = ClassificationRun(3, 1, 0, ())
    with pytest.raises(ValueError):
        summarize(empty)
    # The reports of a run with no verdicts are their header lines.
    assert report_csv(empty) == "n,q,status,criterion,witness\n"
    assert report_json(empty) == "[]\n"
    assert report_text(empty) == "n q status criterion witness\n"
