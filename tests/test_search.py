import hashlib
import itertools
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quasicross.search import (
    CountOutcome,
    SearchOutcome,
    SearchStatus,
    _candidate_table,
    count_splittings,
    find_splitting,
)
from quasicross.splitting import MultiplierSet, interval_multipliers, verify_cover


def brute_force_count(q, residues):
    """Enumerate every candidate splitter set directly."""
    k = len(residues)
    if (q - 1) % k:
        return 0
    size = (q - 1) // k
    count = 0
    for subset in itertools.combinations(range(1, q), size):
        if verify_cover(q, residues, subset):
            count += 1
    return count


def test_find_q5():
    outcome = find_splitting(5, interval_multipliers(3, 1, 5))
    assert outcome.status is SearchStatus.FOUND
    assert outcome.splitters == (1,)


def test_find_q25():
    outcome = find_splitting(25, interval_multipliers(3, 1, 25))
    assert outcome.status is SearchStatus.FOUND
    assert verify_cover(25, interval_multipliers(3, 1, 25).residues, outcome.splitters)


def test_find_q13_exhausted():
    outcome = find_splitting(13, interval_multipliers(3, 1, 13))
    assert outcome.status is SearchStatus.EXHAUSTED
    assert outcome.splitters is None


def test_divisibility_precondition_short_circuits():
    outcome = find_splitting(12, MultiplierSet(12, (11, 1, 2, 3)))
    assert outcome.status is SearchStatus.EXHAUSTED
    assert "does not divide" in outcome.diagnostic
    counted = count_splittings(12, MultiplierSet(12, (11, 1, 2, 3)))
    assert counted == CountOutcome(0, True, 0, counted.diagnostic)


def test_empty_multiplier_set_is_a_value_error():
    with pytest.raises(ValueError, match="empty"):
        find_splitting(5, MultiplierSet(5, ()))
    with pytest.raises(ValueError, match="empty"):
        count_splittings(5, MultiplierSet(5, ()))


def test_count_examples_match_brute_force():
    m5 = interval_multipliers(3, 1, 5)
    assert count_splittings(5, m5).count == 4 == brute_force_count(5, m5.residues)
    m13 = interval_multipliers(3, 1, 13)
    assert count_splittings(13, m13).count == 0 == brute_force_count(13, m13.residues)
    m11 = interval_multipliers(3, 2, 11)
    assert count_splittings(11, m11).count == 0 == brute_force_count(11, m11.residues)


def test_count_q25_matches_brute_force():
    m25 = interval_multipliers(3, 1, 25)
    counted = count_splittings(25, m25)
    assert counted.complete
    assert counted.count == brute_force_count(25, m25.residues)
    assert counted.count >= 1


def test_node_budget_reports_timeout():
    outcome = find_splitting(25, interval_multipliers(3, 1, 25), node_budget=3)
    assert outcome.status is SearchStatus.TIMED_OUT
    assert outcome.splitters is None
    assert "node budget" in outcome.diagnostic
    assert outcome.nodes == 3
    counted = count_splittings(29, interval_multipliers(3, 1, 29), node_budget=3)
    assert not counted.complete
    assert counted.nodes == 3


@pytest.mark.parametrize("budget", [-1, -5, 2.5, 1.0, True, False, None, "10"])
def test_node_budget_must_be_a_nonnegative_int(budget):
    # The search stops only when its node count equals the budget, which a
    # negative or fractional budget never does; True would stop after 1 node.
    # The refusal comes before the |M| | q - 1 test, so q = 12 refuses too.
    for search, k_plus, k_minus, q in ((find_splitting, 3, 1, 13), (count_splittings, 2, 2, 41),
                                       (find_splitting, 3, 1, 12)):
        with pytest.raises(ValueError, match="^node budget must be an int >= 0, got "):
            search(q, interval_multipliers(k_plus, k_minus, q), node_budget=budget)


@pytest.mark.parametrize(
    "search, k_plus, k_minus, q",
    [
        (find_splitting, 3, 1, 25),
        (find_splitting, 3, 1, 13),
        (count_splittings, 2, 2, 41),
        (count_splittings, 3, 1, 25),
    ],
    ids=["find-found", "find-exhausted", "count-symmetric", "count"],
)
def test_spent_budget_at_every_depth(search, k_plus, k_minus, q):
    # Every budget b from 0 to N + 1, N the unbounded node count: b < N
    # spends the budget wherever in the tree node b + 1 would be, and b >= N
    # gives the unbounded outcome.  Partial counts grow with b up to the count.
    multipliers = interval_multipliers(k_plus, k_minus, q)
    unbounded = search(q, multipliers)
    total = unbounded.nodes
    counts = []
    for budget in range(total + 2):
        outcome = search(q, multipliers, node_budget=budget)
        note = f"node budget of {budget} exhausted"
        if budget >= total:
            assert outcome == unbounded
        elif search is find_splitting:
            assert outcome == SearchOutcome(SearchStatus.TIMED_OUT, None, budget, note)
        else:
            assert outcome == CountOutcome(outcome.count, False, budget, note)
        if search is count_splittings:
            counts.append(outcome.count)
    if counts:
        assert counts == sorted(counts) and counts[-1] == unbounded.count


def test_setup_memory_is_linear_in_q():
    # One live flag per splitter and one shared (s, cells) tuple per
    # candidate: set-up takes O(q*|M|) memory, about 6.5 MB and 15 ms here
    # (the multiplier columns the table is built from add about 0.4 MB).
    # A q-bit mask per candidate would take about q**2/8 bytes, over 30 MB.
    q = 16001
    multipliers = interval_multipliers(3, 1, q)
    tracemalloc.start()
    try:
        outcome = find_splitting(q, multipliers, node_budget=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (outcome.status, outcome.nodes) == (SearchStatus.TIMED_OUT, 1)
    assert peak < 12_000_000


def test_found_results_verify():
    for q in (5, 6, 25):
        k_plus, k_minus = (3, 2) if q == 6 else (3, 1)
        m = interval_multipliers(k_plus, k_minus, q)
        outcome = find_splitting(q, m)
        assert outcome.status is SearchStatus.FOUND
        assert verify_cover(q, m.residues, outcome.splitters)


def test_find_agrees_with_count_at_small_scale():
    for k_plus, k_minus in ((3, 1), (3, 2)):
        step = k_plus + k_minus
        n = 1
        while n * step + 1 <= 33:
            q = n * step + 1
            m = interval_multipliers(k_plus, k_minus, q)
            found = find_splitting(q, m)
            counted = count_splittings(q, m)
            assert counted.complete
            assert (found.status is SearchStatus.FOUND) == (counted.count > 0), (k_plus, k_minus, n)
            n += 1


@pytest.mark.parametrize(
    "k_plus, k_minus, q, status, splitters, nodes",
    [
        pytest.param(3, 1, 89, SearchStatus.EXHAUSTED, None, 9, id="3-1-89"),
        pytest.param(3, 2, 66, SearchStatus.EXHAUSTED, None, 491, id="3-2-66"),
        pytest.param(3, 1, 25, SearchStatus.FOUND, (1, 5, 6, 11, 16, 21), 15, id="3-1-25"),
        pytest.param(
            4, 4, 97, SearchStatus.FOUND, (1, 5, 6, 13, 14, 16, 17, 19, 22, 30, 35, 36), 26, id="4-4-97"
        ),
        pytest.param(3, 1, 113, SearchStatus.EXHAUSTED, None, 13, id="3-1-113"),
        pytest.param(
            2, 2, 85, SearchStatus.FOUND,
            (1, 3, 4, 5, 7, 9, 12, 15, 16, 17, 19, 20, 21, 22, 23, 25, 26, 27, 28, 36, 37), 30,
            id="2-2-85",
        ),
    ],
)
def test_find_node_counts(k_plus, k_minus, q, status, splitters, nodes):
    # Node counts are exact, so they pin the branching rule (fewest live
    # candidates, smallest residue on a tie) as well as the outcome.  q = 113
    # and q = 85 settle in a few dozen nodes only because the search branches
    # on the scarcest residue; smallest-residue branching does not settle
    # them within 300 000 nodes.
    outcome = find_splitting(q, interval_multipliers(k_plus, k_minus, q))
    assert (outcome.status, outcome.splitters, outcome.nodes) == (status, splitters, nodes)


def test_count_node_counts():
    # Counting walks the one-root tree of a find, over the splitters below
    # q/2 when M = -M, and scales by the number of root candidates and by 2^n
    # for the +-classes; the node counts pin that tree and its branching rule.
    for k_plus, k_minus, q, count, nodes in (
        (2, 2, 37, 1024, 17),
        (1, 1, 21, 1024, 10),
        (2, 2, 41, 4096, 27),
        (3, 3, 49, 2304, 22),
    ):
        counted = count_splittings(q, interval_multipliers(k_plus, k_minus, q))
        assert (counted.count, counted.complete, counted.nodes) == (count, True, nodes)


@pytest.mark.parametrize(
    "k_plus, k_minus, q, nodes",
    [
        # Searching both splitters of every +-s pair, (2,2) q = 77 exhausts in
        # 393 213 nodes and (3,3) q = 43 in 19.
        pytest.param(2, 2, 77, 35, id="2-2-77"),
        pytest.param(3, 3, 43, 7, id="3-3-43"),
    ],
)
def test_symmetric_exhaustion_node_counts(k_plus, k_minus, q, nodes):
    outcome = find_splitting(q, interval_multipliers(k_plus, k_minus, q))
    assert (outcome.status, outcome.splitters, outcome.nodes) == (SearchStatus.EXHAUSTED, None, nodes)


def _check_symmetric(q, residues):
    """Count and find against brute force for a multiplier set with M = -M;
    returns the brute-force count."""
    multipliers = MultiplierSet(q, residues)
    expected = brute_force_count(q, residues)
    counted = count_splittings(q, multipliers)
    assert (counted.count, counted.complete) == (expected, True), (q, residues)
    found = find_splitting(q, multipliers)
    assert (found.status is SearchStatus.FOUND) == (expected > 0), (q, residues)
    if found.status is SearchStatus.FOUND:
        assert verify_cover(q, residues, found.splitters)
        # Above q = 2 the search keeps only the splitter below q/2 of each
        # +-s pair; at q = 2, s = -s = 1.
        assert q == 2 or all(2 * s < q for s in found.splitters), found.splitters
    return expected


@pytest.mark.parametrize(
    "q, residues, count",
    [
        pytest.param(2, (1,), 1, id="q2-M1"),
        pytest.param(3, (1, 2), 2, id="q3-M12"),
        pytest.param(4, (2,), 0, id="q4-M2"),
        pytest.param(4, (1, 3), 0, id="q4-M13"),
    ],
)
def test_symmetric_edge_cases(q, residues, count):
    assert _check_symmetric(q, residues) == count


def test_count_matches_brute_force_on_every_small_symmetric_set():
    # Every M = -M whose size divides q - 1, for prime and composite q <= 17;
    # on even q such an M holds q/2, the one residue with s = -s.
    for q in range(3, 18):
        halves = range(1, q // 2 + 1)
        for size in range(1, len(halves) + 1):
            for picked in itertools.combinations(halves, size):
                residues = tuple(sorted({r for s in picked for r in (s, q - s)}))
                if (q - 1) % len(residues) == 0:
                    _check_symmetric(q, residues)


@st.composite
def symmetric_instances(draw):
    q = draw(st.integers(min_value=3, max_value=21))
    halves = draw(st.sets(st.integers(min_value=1, max_value=q // 2), min_size=1, max_size=4))
    return q, tuple(sorted({r for s in halves for r in (s, q - s)}))


@settings(deadline=None, max_examples=60)
@given(symmetric_instances())
def test_count_matches_brute_force_on_symmetric_multiplier_sets(instance):
    _check_symmetric(*instance)


def test_multiplier_q_mismatch_rejected():
    with pytest.raises(ValueError, match="built for q=5"):
        find_splitting(25, interval_multipliers(3, 1, 5))


def test_q_past_64_bits_rejected():
    # Refused before the candidate table, one list per residue, is built.
    q = 2**64 + 1
    with pytest.raises(ValueError, match="group orders must fit in 64 bits"):
        find_splitting(q, interval_multipliers(3, 1, q), node_budget=10)
    with pytest.raises(ValueError, match="group orders must fit in 64 bits"):
        count_splittings(q, interval_multipliers(3, 1, q), node_budget=10)


def test_q_that_is_not_an_int_rejected():
    # A float q builds no multiplier set, and the search takes no q but its
    # set's own: 25.0 == 25, so only the type tells them apart.
    with pytest.raises(ValueError, match=r"^multiplier set got q=25\.0; group orders must be ints$"):
        interval_multipliers(3, 1, 25.0)
    multipliers = interval_multipliers(3, 1, 25)
    with pytest.raises(ValueError, match=r"^multiplier set was built for q=25, search got q=25\.0$"):
        find_splitting(25.0, multipliers)
    with pytest.raises(ValueError, match=r"^multiplier set was built for q=25, search got q=25\.0$"):
        count_splittings(25.0, multipliers)


def reference_table(q, residues, symmetric):
    """The candidate table by its definition, one splitter at a time."""
    table = [[] for _ in range(q)]
    for s in range(1, (q + 1) // 2 if symmetric else q):
        cells = {m * s % q for m in residues}
        if 0 in cells or len(cells) < len(residues):
            continue
        for e in cells:
            table[e].append((s, frozenset(cells)))
    return table


def table_instances():
    for k_plus in range(1, 6):
        for k_minus in range(1, k_plus + 1):
            for q in range(k_plus + k_minus + 1, 131):
                yield q, interval_multipliers(k_plus, k_minus, q).residues
    rng = random.Random(20001)
    for _ in range(200):
        q = rng.randint(2, 60)
        yield q, tuple(rng.sample(range(1, q), rng.randint(1, q - 1)))


def test_candidate_table_matches_its_definition():
    # Unplaceable splitters are found from M and M - M, and the cells are
    # built one multiplier column at a time; the table must hold the same
    # candidates, in the same order, as the per-splitter definition.  The
    # order of the cells within a candidate is not read by the search.
    repeated_blocks = 0
    for q, residues in table_instances():
        symmetric_values = [False]
        if q > 2 and {q - m for m in residues} == set(residues):
            symmetric_values.append(True)
        for symmetric in symmetric_values:
            table = _candidate_table(q, residues, symmetric)
            expected = reference_table(q, residues, symmetric)
            assert [[(s, frozenset(cells)) for s, cells in row] for row in table] == expected
            blocks = ({m * s % q for m in residues} for s in range(1, q))
            repeated_blocks += sum(0 not in block and len(block) < len(residues) for block in blocks)
    # The grid reaches splitters that only M - M rules out: their blocks
    # repeat a residue but do not hold 0.
    assert repeated_blocks > 0


def test_search_outcome_digest():
    # find_splitting on every interval shape with k_plus <= 5 and q <= 130,
    # and count_splittings where q <= 40, pinned by one SHA-256 of 2 370 lines.
    lines = []
    for k_plus in range(1, 6):
        for k_minus in range(1, k_plus + 1):
            for q in range(k_plus + k_minus + 1, 131):
                multipliers = interval_multipliers(k_plus, k_minus, q)
                o = find_splitting(q, multipliers, node_budget=20_000)
                lines.append(f"find {k_plus} {k_minus} {q} {o.status.value} {o.nodes} {o.splitters}")
                if q <= 40:
                    c = count_splittings(q, multipliers, node_budget=20_000)
                    lines.append(f"count {k_plus} {k_minus} {q} {c.count} {c.complete} {c.nodes}")
    assert len(lines) == 2370
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "70edefd044660c6573454359818e941b4777c8d6d6bb8c985a3f29fe1d1f2046"


def test_determinism():
    m = interval_multipliers(3, 1, 25)
    a = find_splitting(25, m)
    b = find_splitting(25, m)
    assert (a.status, a.splitters, a.nodes) == (b.status, b.splitters, b.nodes)


@pytest.mark.parametrize(
    "search, k_plus, k_minus, q, budget, status",
    [
        (find_splitting, 3, 1, 25, None, SearchStatus.FOUND),
        (find_splitting, 3, 1, 13, None, SearchStatus.EXHAUSTED),
        (find_splitting, 3, 2, 186, 2000, SearchStatus.TIMED_OUT),
        (find_splitting, 3, 1, 26, None, SearchStatus.EXHAUSTED),  # |M| does not divide q - 1
        (count_splittings, 3, 1, 25, None, True),
        (count_splittings, 3, 1, 25, 5, False),
    ],
    ids=["found", "exhausted", "timed-out", "not-divisible", "count", "count-budget-spent"],
)
def test_equal_arguments_give_equal_outcomes(search, k_plus, k_minus, q, budget, status):
    # Outcomes hold no time, so two calls give the same value and hash.
    kwargs = {} if budget is None else {"node_budget": budget}
    a = search(q, interval_multipliers(k_plus, k_minus, q), **kwargs)
    b = search(q, interval_multipliers(k_plus, k_minus, q), **kwargs)
    assert a == b and hash(a) == hash(b)
    assert (a.status if search is find_splitting else a.complete) == status


@st.composite
def cover_instances(draw):
    q = draw(st.integers(min_value=5, max_value=16))
    ks = [k for k in (2, 3, 4) if (q - 1) % k == 0]
    if not ks:
        return None
    k = draw(st.sampled_from(ks))
    residues = draw(st.sets(st.integers(min_value=1, max_value=q - 1), min_size=k, max_size=k))
    return q, tuple(sorted(residues))


@settings(deadline=None, max_examples=60)
@given(cover_instances())
def test_count_matches_brute_force_on_arbitrary_multiplier_sets(instance):
    if instance is None:
        return
    q, residues = instance
    multipliers = MultiplierSet(q, residues)
    expected = brute_force_count(q, residues)
    counted = count_splittings(q, multipliers)
    assert counted.complete
    assert counted.count == expected
    found = find_splitting(q, multipliers)
    assert (found.status is SearchStatus.FOUND) == (expected > 0)
    if found.status is SearchStatus.FOUND:
        assert verify_cover(q, residues, found.splitters)
