import gc
import json
import re
import weakref
from math import inf

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quasicross import classify, criteria, splitting
from quasicross.classify import (
    ClassificationRun,
    ContradictionError,
    TilesSource,
    Verdict,
    Verdicts,
    classify_range,
    default_certificates_path,
    default_registry,
    load_certificates,
    report_csv,
    report_json,
    report_text,
    store_certificate,
    summarize,
)
from quasicross.criteria import CRITERION_ORDER, CriterionStatus, VerdictStatus, check_divisors, outcomes
from quasicross.numtheory import is_prime
from quasicross.search import count_splittings, find_splitting
from quasicross.splitting import (
    QuasiCrossShape,
    Splitting,
    interval_multipliers,
    lattice_basis,
    verify_cover,
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
    run = classify_range(3, 2, 6, registry=default_registry(3, 2))
    attr = attributions(run)
    assert attr[2] == "geometry"
    assert attr[3] == "arm_gcd"
    assert attr[4] == "divisors"
    assert attr[5] == "arm_gcd"
    assert attr[6] == "arm_gcd"


def test_registry_marks_tiles():
    run = classify_range(3, 1, 6, registry=[Q25_CERT])
    v = run.verdicts[5]
    assert v.status is VerdictStatus.TILES and v.source is TilesSource.REGISTRY


def test_certificates_mark_tiles():
    run = classify_range(3, 1, 6, certificates=[Q25_CERT])
    v = run.verdicts[5]
    assert v.status is VerdictStatus.TILES and v.source is TilesSource.CERTIFICATE


def test_unverified_certificate_rejected():
    # A certificate that does not verify cannot be built, so it never
    # reaches classify_range; every attempt fails alike, nothing is memoized.
    messages = []
    for _ in range(2):
        with pytest.raises(ValueError, match="does not verify") as info:
            classify_range(3, 1, 5, certificates=[Splitting(13, 3, 1, (1, 2, 3))])
        messages.append(str(info.value))
    assert messages == ["certificate q=13 does not verify: collision at 2: 2*1 = 1*2 (mod 13)"] * 2


def test_tiling_evidence_precedence():
    # Trivial beats registry beats certificate when they name the same dimension.
    five = Splitting(5, 3, 1, (1,))
    run = classify_range(3, 1, 6, registry=[five, Q25_CERT], certificates=[five, Q25_CERT])
    assert [run.verdicts[n - 1].source for n in (1, 6)] == [TilesSource.TRIVIAL, TilesSource.REGISTRY]
    # An entry for another shape is not evidence, in the registry or among
    # the certificates: (2,2) at q = 25 splits with n = 6, as (3,1) does.
    other = Splitting(25, 2, 2, (1, 4, 5, 6, 9, 11))
    run = classify_range(3, 1, 6, registry=[other], certificates=[other])
    assert run.verdicts == classify_range(3, 1, 6).verdicts
    # A certificate that does not verify cannot be built, for any shape.
    with pytest.raises(ValueError, match=r"^certificate q=13 does not verify: collision at 2: 2\*1 = 1\*2 \(mod 13\)$"):
        Splitting(13, 2, 1, (1, 2, 3))


def test_evidence_is_checked_before_the_walk(counting_criteria):
    # Evidence that does not verify is rejected where it is built, so no
    # classification starts and no criterion runs.
    calls = counting_criteria()
    with pytest.raises(ValueError, match="certificate q=13 does not verify"):
        classify_range(3, 1, 2, certificates=[Q25_CERT, Splitting(13, 3, 1, (1, 2, 3))])
    with pytest.raises(ValueError, match="certificate q=13 does not verify"):
        classify_range(3, 1, 2, registry=[Q25_CERT, Splitting(13, 3, 1, (1, 2, 3))])
    assert calls == []


def test_contradiction_aborts(firing_at):
    # q = 149 at n = 37 is prime, so the walk calls quadratic_balance there.
    firing_at("quadratic_balance", {37})
    with pytest.raises(ContradictionError) as exc_info:
        classify_range(3, 1, 40, registry=default_registry(3, 1))
    err = exc_info.value
    assert err.n == 37
    assert err.outcome.criterion_id == "quadratic_balance"
    assert "registry" in str(err) and "witness" in str(err)
    # q = 25 at n = 6 is composite; power_square runs at either class of q.
    firing_at("power_square", {6})
    with pytest.raises(ContradictionError) as exc_info:
        classify_range(3, 1, 8, registry=[Q25_CERT])
    assert exc_info.value.n == 6 and exc_info.value.outcome.criterion_id == "power_square"


def outcome_rows(run):
    """Every criterion's outcome at every n of run, with its verdicts as the oracle."""
    oracle = {v.n: v.status for v in run.verdicts}
    return {
        v.n: tuple(outcomes(QuasiCrossShape(run.k_plus, run.k_minus, v.n), oracle)) for v in run.verdicts
    }


def can_fire(cid, shape):
    """Whether the walk's rule, criteria.last_firing_n, lets criterion cid
    fire at shape."""
    last = criteria.last_firing_n(shape.k_plus, shape.k_minus, is_prime(shape.group_order), shape.n % 2 == 1)
    return shape.n <= last[cid]


def test_walk_head_holds_the_only_criterion_bounded_in_n():
    # The tails call their checks at every n of their class, which is sound
    # only while geometry, the one criterion whose last n is finite, sits in
    # the head: geometry, then arm_gcd for consecutive arms.
    for k_plus in range(1, 8):
        for k_minus in range(1, k_plus + 1):
            head = [check for _, check in Verdicts(k_plus, k_minus, 1).head]
            assert head == [criteria.check_geometry] + [criteria.check_arm_gcd] * (k_minus == k_plus - 1)
            for prime in (True, False):
                for odd in (True, False):
                    last = criteria.last_firing_n(k_plus, k_minus, prime, odd)
                    assert last.pop("geometry") >= 1
                    assert not [cid for cid, n in last.items() if 0 < n < inf], (k_plus, k_minus, last)


def test_verdicts_independent_of_criterion_order():
    # Attribution aside, the ruled-out set only depends on which criteria
    # fire, so recomputing statuses from reversed outcome order must agree.
    # The walk skips the criteria its rules say cannot fire; each rule must
    # hold against the checks, and each verdict must name the first firing
    # outcome of criteria.outcomes, which calls every criterion.
    runs = [classify_range(kp, km, 600, registry=default_registry(kp, km)) for kp, km in ((3, 1), (3, 2))]
    runs += [classify_range(kp, km, 600) for kp in range(1, 8) for km in range(1, kp + 1)]
    for run in runs:
        rows = outcome_rows(run)
        for v in run.verdicts:
            fired_any = any(o.fired for o in reversed(rows[v.n]))
            assert (v.status is VerdictStatus.NO_TILING) == (
                fired_any and v.status is not VerdictStatus.TILES
            )
            if v.status is VerdictStatus.TILES:
                assert not fired_any
            first = next((o for o in rows[v.n] if o.status is CriterionStatus.RULED_OUT), None)
            if v.status is VerdictStatus.NO_TILING:
                assert (v.criterion_id, v.witness) == (first.criterion_id, first.witness)
            shape = QuasiCrossShape(run.k_plus, run.k_minus, v.n)
            assert all(can_fire(o.criterion_id, shape) for o in rows[v.n] if o.fired), (shape, rows[v.n])


def test_walks_test_the_primality_of_each_q_they_reach_once():
    # One is_prime miss per q the walks reach past their head, as when each
    # prime-q criterion tested q itself, plus one per cofactor factorize
    # tests after dividing out the primes 2..37.
    is_prime.cache_clear()
    for k_plus, k_minus in ((3, 1), (3, 2)):
        classify_range(k_plus, k_minus, 4000, registry=default_registry(k_plus, k_minus))
    assert is_prime.cache_info().currsize == 5334


@pytest.mark.parametrize(
    "k_plus, k_minus, registry",
    [(3, 1, default_registry(3, 1)), (3, 2, default_registry(3, 2)), (2, 2, None), (4, 1, None), (1, 1, None)],
)
def test_independent_counts_equal_evaluate_all(k_plus, k_minus, registry):
    # summarize runs only the criteria that can fire; its counts must be
    # those of every criterion at every n, and its verdicts classify_range's.
    run = classify_range(k_plus, k_minus, 300, registry=registry or ())
    expected = dict.fromkeys(CRITERION_ORDER, 0)
    for row in outcome_rows(run).values():
        for out in row:
            expected[out.criterion_id] += out.fired
    summary = summarize(k_plus, k_minus, 300, registry=registry or ())
    assert summary.independent_fired == expected
    by_status = {status: tuple(v.n for v in run.verdicts if v.status is status) for status in VerdictStatus}
    assert summary.status_counts == {status.value: len(dims) for status, dims in by_status.items()}
    assert summary.tiles_dims == by_status[VerdictStatus.TILES]
    assert summary.unknown_dims == by_status[VerdictStatus.UNKNOWN]
    first = dict.fromkeys(CRITERION_ORDER, 0)
    for cid in attributions(run).values():
        first[cid] += 1
    assert summary.first_fired == first


def test_independent_counts_equal_ungated_counts_on_small_arms():
    # On every shape with k_plus <= 7 to n = 600, summarize's resumed walks
    # count each criterion's firings as calling every criterion at every n
    # does.
    for k_plus in range(1, 8):
        for k_minus in range(1, k_plus + 1):
            run = classify_range(k_plus, k_minus, 600)
            expected = dict.fromkeys(CRITERION_ORDER, 0)
            for row in outcome_rows(run).values():
                for out in row:
                    expected[out.criterion_id] += out.fired
            assert summarize(k_plus, k_minus, 600).independent_fired == expected, (k_plus, k_minus)


def test_a_memo_is_freed_with_its_last_reference():
    # The walk's divisor step reads its memo through a weak proxy, so no
    # reference cycle keeps a memo, and every status it holds, alive until
    # the cycle collector runs.
    gc.disable()
    try:
        memo = Verdicts(3, 1, 6)
        memo[6]  # q = 25: the divisor recursion reads n' = 1
        assert list(memo) == [1, 6]
        ref = weakref.ref(memo)
        del memo
        assert ref() is None
    finally:
        gc.enable()


def test_divisor_recursion_runs_where_its_rule_lets_it(monkeypatch):
    # The walk takes the divisor recursion from criteria.last_firing_n's
    # divisors entry alone: by default it runs at composite q, at every such
    # q that no shape criterion rules out first, and with the entry 0 never.
    calls = []

    def divisors(shape, oracle):
        calls.append(shape.n)
        return check_divisors(shape, oracle)

    monkeypatch.setattr(criteria, "check_divisors", divisors)
    run = classify_range(3, 1, 300)
    assert calls and all(not is_prime(v.q) for v in run.verdicts if v.n in calls)
    reached = [v.n for v in run.verdicts if not is_prime(v.q) and v.criterion_id in (None, "divisors")]
    assert set(reached) <= set(calls)
    last_firing_n = criteria.last_firing_n
    monkeypatch.setattr(criteria, "last_firing_n", lambda *args: {**last_firing_n(*args), "divisors": 0})
    del calls[:]
    classify_range(3, 1, 300)
    assert calls == []


@pytest.mark.parametrize("k_minus, calls", [(1, 3079), (2, 3437)])
def test_summarize_factorizes_each_q_once(monkeypatch, k_minus, calls):
    # One walk per dimension on one shape: each q the walk factorizes, it
    # factorizes once.
    registry = default_registry(3, k_minus)
    factorized = []
    factorize = splitting.factorize

    def counted(m):
        factorized.append(m)
        return factorize(m)

    monkeypatch.setattr(splitting, "factorize", counted)
    summarize(3, k_minus, 4000, registry=registry)
    assert len(factorized) == len(set(factorized)) == calls


def test_verdicts_stop_at_the_first_firing_criterion(monkeypatch, counting_criteria):
    calls = counting_criteria()

    def divisors(shape, oracle):
        calls.append(("divisors", shape))
        return check_divisors(shape, oracle)

    monkeypatch.setattr(criteria, "check_divisors", divisors)
    n_max = 500
    for kp, km in ((3, 1), (3, 2)):
        classify_range(kp, km, n_max, registry=default_registry(kp, km))
    # The walk calls a criterion only where its rule lets it fire: the class
    # of q, the parity of n, the arms and geometry's bound.
    assert not [(cid, shape) for cid, shape in calls if not can_fire(cid, shape)]
    # geometry's bound is n = 2 for both shapes.
    geometry = sorted(shape for cid, shape in calls if cid == "geometry")
    assert geometry == [(3, 1, 1), (3, 1, 2), (3, 2, 1), (3, 2, 2)]
    # arm_gcd rules out every prime q of (3,2), so the walk never scans
    # power sums there.
    assert not [shape for cid, shape in calls if cid == "vandermonde" and shape.k_minus == 2]
    # Each shape calls only the criteria that can fire for its arms; (3,2)
    # calls none after arm_gcd at prime q.
    called = {km: {cid for cid, shape in calls if shape.k_minus == km} for km in (1, 2)}
    assert called == {
        1: {"geometry", "quadratic_balance", "char4_literal", "quartic_generic", "power_square", "vandermonde",
            "psquare", "divisors"},
        2: {"geometry", "arm_gcd", "psquare", "divisors"},
    }
    # summarize walks every dimension once, to its end, so it alone calls
    # each criterion exactly once at every n where it can fire.
    del calls[:]
    for kp, km in ((3, 1), (3, 2)):
        summarize(kp, km, n_max, registry=default_registry(kp, km))
    shapes = [QuasiCrossShape(kp, km, n) for kp, km in ((3, 1), (3, 2)) for n in range(1, n_max + 1)]
    expected = [(cid, shape) for shape in shapes for cid in CRITERION_ORDER if can_fire(cid, shape)]
    assert calls == expected


def test_tiling_evidence_runs_every_criterion(counting_criteria):
    # No certificate verifies at a ruled-out dimension, so the evidence is
    # claimed in the memo itself.  psquare rules out (3,1) n = 20.
    memo = Verdicts(3, 1, 25)
    memo.evidence[20] = TilesSource.REGISTRY
    with pytest.raises(ContradictionError) as info:
        memo[20]
    assert info.value.n == 20
    assert info.value.outcome.criterion_id == "psquare" == CRITERION_ORDER[9]
    # (3,2) n = 4 is ruled out by the divisor recursion alone.
    memo = Verdicts(3, 2, 6)
    memo.evidence[4] = TilesSource.REGISTRY
    with pytest.raises(ContradictionError) as info:
        memo[4]
    assert info.value.n == 4 and info.value.outcome.criterion_id == "divisors"
    # Each evidence dimension runs every shape criterion that can fire at it.
    calls = counting_criteria()
    run = classify_range(3, 1, 6, registry=[Q25_CERT])
    # Of the others, arm_gcd needs consecutive arms, odd_prime_order an odd
    # prime k_plus + k_minus, and power_cube arms (4k + 2, 1).
    assert [cid for cid, shape in calls if shape.n == 1] == [  # q = 5, prime, n odd
        "geometry", "quadratic_balance", "char4_literal", "quartic_generic", "power_square", "vandermonde",
    ]
    assert [cid for cid, shape in calls if shape.n == 6] == [  # q = 25, composite, n even
        "power_square", "psquare",
    ]
    assert all(o.status is not CriterionStatus.RULED_OUT for o in outcome_rows(run)[6])


@pytest.mark.parametrize(
    "k_plus, k_minus, registry",
    [(3, 1, default_registry(3, 1)), (3, 2, default_registry(3, 2)), (5, 1, None)],
)
def test_memo_answers_one_dimension_as_the_walk_does(k_plus, k_minus, registry):
    # A fresh memo asked for one n classifies only the dimensions the divisor
    # recursion reaches from n; its verdict, every criterion's outcome and
    # every status it holds must be the walk's.
    registry = registry or ()
    run = classify_range(k_plus, k_minus, 1000, registry=registry)
    oracle = {v.n: v.status for v in run.verdicts}
    for v in run.verdicts:
        memo = Verdicts(k_plus, k_minus, v.n, registry)
        sh = QuasiCrossShape(k_plus, k_minus, v.n)
        assert memo.verdict(sh, memo.walk(sh)[0]) == v
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
    with pytest.raises(ValueError, match="^dimension must be >= 1, got 0$"):
        classify_range(3, 1, 0)


@pytest.mark.parametrize(
    "k_plus, k_minus, n_max, message",
    [
        (3, 1, 2.5, "dimension must be an int, got 2.5"),
        (3.0, 1, 5, "arms must be ints, got (3.0, 1)"),
        (3, 1.0, 5, "arms must be ints, got (3, 1.0)"),
        (3, 1, True, "dimension must be an int, got True"),
        (True, 1, 5, "arms must be ints, got (True, 1)"),
        (3, 1, "5", "dimension must be an int, got '5'"),
    ],
    ids=["3-1-2.5", "3.0-1-5", "3-1.0-5", "3-1-True", "True-1-5", "3-1-5"],
)
def test_run_sizes_must_be_ints(k_plus, k_minus, n_max, message):
    # The n_max shape refuses them once per run, before n_max >= 1 and the
    # 64-bit bound; a bool is refused too, so summarize cannot report
    # "dimensions 1..True".
    for run in (classify_range, summarize, Verdicts):
        with pytest.raises(ValueError) as info:
            run(k_plus, k_minus, n_max)
        assert str(info.value) == message


def test_run_arms_are_checked_before_the_walk():
    # The walk's table of last firing dimensions divides by k_plus + k_minus,
    # which is 0 for arms (-1, 1); the arm rule must refuse them first.
    for run in (classify_range, summarize, Verdicts):
        with pytest.raises(ValueError, match=r"^arms must satisfy 1 <= k_minus <= k_plus, got \(-1, 1\)$"):
            run(-1, 1, 5)


def test_records_refuse_assignment():
    run = classify_range(3, 1, 6, registry=default_registry(3, 1))
    records = (
        run,
        run.verdicts[-1],
        summarize(3, 1, 6, registry=default_registry(3, 1)),
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


def test_default_registries_ship():
    # The packaged store is the registry, and derived data: find_splitting
    # returns exactly the splitters of every line, so quasicross search
    # --store regenerates it.
    certs = load_certificates(default_certificates_path())
    for cert in certs:
        found = find_splitting(cert.q, interval_multipliers(cert.k_plus, cert.k_minus, cert.q))
        assert found.splitters == cert.splitters, cert.q
    reg31 = default_registry(3, 1)
    assert {c.dimension for c in reg31} == {1, 6, 31, 156} | {37, 43, 97, 102, 115, 139, 163, 169, 186, 199, 216}
    assert {c.dimension for c in default_registry(3, 2)} == {1}
    assert len(certs) == len(reg31) + 1 and default_registry(9, 4) == ()


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
    # What fails verification is never a Splitting, so it cannot reach the
    # store; every attempt fails alike and no file is made.
    messages = []
    for _ in range(2):
        with pytest.raises(ValueError, match="does not verify") as info:
            store_certificate(Splitting(13, 3, 1, (1, 2, 3)), tmp_path / "c.jsonl")
        messages.append(str(info.value))
    assert messages == ["certificate q=13 does not verify: collision at 2: 2*1 = 1*2 (mod 13)"] * 2
    assert not (tmp_path / "c.jsonl").exists()


def test_certificate_fields_must_be_ints(tmp_path):
    # Neither a bool splitter nor a float q can be stored: the Splitting
    # refuses them, so no line is written that a new process could not load.
    # A string or null field is a ValueError, not a TypeError from a sort
    # or comparison.  Each message is the one of the type that holds the
    # field's rule, and names the field.
    for fields, message in (
        ((5, 3, 1, (True,)), "splitter True is not an int"),
        ((25.0, 3, 1, (1, 5, 6, 11, 16, 21)), "multiplier set got q=25.0; group orders must be ints"),
        (("25", 3, 1, (1,)), "multiplier set got q='25'; group orders must be ints"),
        ((25, None, 1, (1,)), "arms must be ints, got (None, 1)"),
        ((25, 3, 1, ("1", 5)), "splitter '1' is not an int"),
    ):
        with pytest.raises(ValueError) as info:
            Splitting(*fields)
        assert str(info.value) == message
    path = tmp_path / "certs.jsonl"
    path.write_text('{"q": 5, "k_plus": 3, "k_minus": 1, "splitters": ["1"]}\n')
    with pytest.raises(ValueError) as info:
        load_certificates(path)
    assert str(info.value) == f"{path}, line 1: splitter '1' is not an int"


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

    monkeypatch.setattr(splitting, "verify_cover", counting_verify_cover)
    cert = Splitting(25, 3, 1, (1, 5, 6, 11, 16, 21))
    assert calls == [(25, (24, 1, 2, 3), (1, 5, 6, 11, 16, 21))]  # at construction
    path = tmp_path / "certs.jsonl"
    assert store_certificate(cert, path) is True
    (loaded,) = load_certificates(path)
    run = classify_range(3, 1, 6, certificates=[loaded])
    assert run.verdicts[5].source is TilesSource.CERTIFICATE
    assert lattice_basis(loaded).determinant == 25
    assert len(calls) == 1  # none from store, load, classify_range or lattice_basis


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


def test_store_and_load_name_a_bad_store_by_the_same_path(tmp_path, monkeypatch):
    # The path as given, "./" included, so both errors name one file alike.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "bad.jsonl").write_text(BAD_Q13_LINE)
    for path in ("./bad.jsonl", f"{tmp_path}/./bad.jsonl"):
        messages = []
        for call in (load_certificates, lambda p: store_certificate(Q25_CERT, p)):
            with pytest.raises(ValueError) as info:
                call(path)
            messages.append(str(info.value))
        assert messages == [f"{path}, line 1: certificate q=13 does not verify: collision at 2: 2*1 = 1*2 (mod 13)"] * 2


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


def test_error_line_numbers_after_appends(tmp_path, parsed_lines):
    # The memo holds the lines this process appended; a bad line after them
    # is numbered by its place in the file all the same.
    path = tmp_path / "certs.jsonl"
    path.write_bytes(b"\n" + Q5_LINE + b"\n\n")
    assert store_certificate(Q25_CERT, path) is True
    assert store_certificate(Q5_OTHER, path) is True
    with open(path, "ab") as fh:
        fh.write(b"\n" + BAD_Q13_LINE.encode())
    parsed_lines.clear()
    with pytest.raises(ValueError) as info:
        load_certificates(path)
    assert str(info.value).startswith(f"{path}, line 7: certificate q=13 does not verify")
    assert parsed_lines == [BAD_Q13_LINE.strip()]


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


def test_a_duplicate_in_another_form_is_still_a_duplicate(tmp_path, monkeypatch):
    # Keys reordered, splitters descending, extra spaces: the line parses to
    # a Splitting equal to Q25_CERT, which is all the deduplication compares.
    path = tmp_path / "certs.jsonl"
    path.write_bytes(b'{ "splitters" : [21, 16, 11, 6, 5, 1],  "k_minus": 1, "q":25, "k_plus" :3 }\n')
    before = path.read_bytes()
    monkeypatch.setattr(classify, "_last_store", (b"", ()))
    assert store_certificate(Q25_CERT, path) is False  # cold memo
    assert store_certificate(Q25_CERT, path) is False  # warm memo
    assert path.read_bytes() == before
    assert load_certificates(path) == (Q25_CERT,)


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
    monkeypatch.setattr(classify, "_last_store", (b"", ()))
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


def test_module_status_names_are_the_members_of_that_name():
    # Bound by unpacking each enum, so a reordered enum must not swap two.
    for member in [*CriterionStatus, *VerdictStatus]:
        assert getattr(criteria, "_" + member.name) is member
        assert getattr(classify, "_" + member.name, member) is member


class CountingEnum:
    """Stands in for an Enum class and records each attribute read on it."""

    def __init__(self, enum, reads):
        self.enum = enum
        self.reads = reads

    def __getattr__(self, name):
        self.reads.append(f"{self.enum.__name__}.{name}")
        return getattr(self.enum, name)


def test_classify_and_reports_read_no_status_enum_class(monkeypatch):
    # Every status on the walk and in the reports is a name the module
    # bound once, not a read through the enum class.
    def reports():
        runs = [classify_range(3, k, 300, registry=default_registry(3, k)) for k in (1, 2)]
        summaries = [summarize(3, k, 300, registry=default_registry(3, k)) for k in (1, 2)]
        return [(report_json(r), report_csv(r), report_text(r), s) for r, s in zip(runs, summaries)]

    expected = reports()
    reads = []
    for module in (criteria, classify):
        for name, value in list(vars(module).items()):
            if value is CriterionStatus or value is VerdictStatus:
                monkeypatch.setattr(module, name, CountingEnum(value, reads))
    assert reports() == expected
    assert reads == []


def one_row(witness):
    """A run whose one verdict carries the given witness."""
    verdict = Verdict(2, 9, VerdictStatus.NO_TILING, criterion_id="geometry", witness=witness)
    return ClassificationRun(3, 1, 2, (verdict,))


def is_flat_witness(witness):
    """None, or a dict whose values are ints or tuples of ints (no bools)."""
    return witness is None or (
        type(witness) is dict
        and all(
            type(v) is int or (type(v) is tuple and all(type(x) is int for x in v))
            for v in witness.values()
        )
    )


def test_every_criterion_witness_is_flat_and_renders_as_json():
    # Every criterion, the divisor recursion on a verdict memo included, on
    # every shape with arms up to 6 and n <= 300: each witness of a ruled-out
    # or inconclusive outcome is flat and report_json writes it as json does.
    fired = set()
    tuple_witnesses = 0
    for k_plus in range(1, 7):
        for k_minus in range(1, k_plus + 1):
            memo = Verdicts(k_plus, k_minus, 300)
            for n in range(1, 301):
                for out in outcomes(QuasiCrossShape(k_plus, k_minus, n), memo):
                    if out.status is CriterionStatus.INAPPLICABLE:
                        continue
                    assert is_flat_witness(out.witness), out
                    run = one_row(out.witness)
                    assert report_json(run) == report_json_oracle(run), out
                    if out.fired:
                        fired.add(out.criterion_id)
                    if out.witness and any(type(v) is tuple for v in out.witness.values()):
                        tuple_witnesses += 1
    # The range reaches every criterion's ruling and the tuple values.
    assert fired == set(CRITERION_ORDER)
    assert tuple_witnesses > 0


WITNESS_KEYS = st.text(alphabet="abcdnpq_0123", min_size=1, max_size=8)
WITNESS_INTS = st.one_of(st.integers(-(2**16), 2**16), st.integers(-(2**200), 2**200))
WITNESSES = st.dictionaries(
    WITNESS_KEYS, st.one_of(WITNESS_INTS, st.lists(WITNESS_INTS, max_size=6).map(tuple)), max_size=6
)
NOT_WITNESS_VALUES = st.one_of(
    st.booleans(),
    st.text(max_size=4),
    st.floats(),
    st.none(),
    st.lists(WITNESS_INTS, max_size=3),
    st.dictionaries(WITNESS_KEYS, WITNESS_INTS, max_size=2),
    st.tuples(WITNESS_INTS, st.lists(WITNESS_INTS, max_size=2).map(tuple)),
    # A tuple of ints with one more item that is not an int.
    st.tuples(
        st.lists(WITNESS_INTS, max_size=3).map(tuple),
        st.one_of(st.booleans(), st.text(max_size=2), st.floats(), st.none()),
    ).map(lambda pair: pair[0] + (pair[1],)),
)


@settings(max_examples=200, deadline=None)
@given(witness=WITNESSES)
@example({"big": 2**64, "neg": -(2**70), "arms": (2**65, -1, 0), "none": ()})
def test_report_json_writes_flat_witnesses_as_json_does(witness):
    run = one_row(witness)
    assert report_json(run) == report_json_oracle(run)


@settings(max_examples=200, deadline=None)
@given(before=WITNESSES, key=WITNESS_KEYS, bad=NOT_WITNESS_VALUES, after=WITNESSES)
def test_report_json_rejects_other_witness_values(before, key, bad, after):
    witness = {k: v for k, v in before.items() if k != key}
    witness[key] = bad
    witness.update((k, v) for k, v in after.items() if k != key)
    with pytest.raises(TypeError, match=re.escape(repr(key))):
        report_json(one_row(witness))


def test_summarize_counts():
    summary = summarize(3, 1, 10)
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
    summary = summarize(3, 2, 120, registry=default_registry(3, 2))
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
    with pytest.raises(ValueError, match="^dimension must be >= 1, got 0$"):
        summarize(3, 1, 0)
    empty = ClassificationRun(3, 1, 0, ())
    # The reports of a run with no verdicts are their header lines.
    assert report_csv(empty) == "n,q,status,criterion,witness\n"
    assert report_json(empty) == "[]\n"
    assert report_text(empty) == "n q status criterion witness\n"
