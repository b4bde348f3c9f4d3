"""Exact-cover backtracking over splitter sets.

The ground set is Z_q minus 0; choosing splitter s covers the block
{m*s mod q : m in M}.  The search always branches on the smallest uncovered
residue e, trying exactly the splitters whose block would cover e with no
overlap.  Exhausting that branching is a proof that no splitting exists for
the given (q, M).

A search for one splitting tries a single splitter at the root.  Whatever
splitter s covers residue 1 is a unit, because m*s = 1 for some m in M.  If S
is a splitting, so is u*S for every unit u, since multiplying by u permutes
Z_q minus 0.  So when any splitting exists, one contains c, the first
candidate for residue 1 (take u = c/s), and the subtree under c finds it.
This holds for every M, prime or composite q and either candidate order.
Counting cannot use it: the other root branches hold other splitter sets
(unit multiples of those under c), and a count must include them.

Budgets are node counts first (one node per candidate placement attempt),
which keeps Exhausted/TimedOut outcomes reproducible; wall-clock budgets are
advisory on top.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from enum import Enum

from .splitting import MultiplierSet, verify_cover

__all__ = [
    "DEFAULT_NODE_BUDGET",
    "CountOutcome",
    "SearchOutcome",
    "SearchStatus",
    "count_splittings",
    "find_splitting",
]

DEFAULT_NODE_BUDGET = 5_000_000


class SearchStatus(Enum):
    FOUND = "found"
    EXHAUSTED = "exhausted"
    TIMED_OUT = "timed_out"


@dataclass(frozen=True)
class SearchOutcome:
    status: SearchStatus
    splitters: tuple[int, ...] | None
    nodes: int
    elapsed_s: float
    diagnostic: str | None = None


@dataclass(frozen=True)
class CountOutcome:
    """Exact number of splitter sets when complete; a partial count (budget
    ran out) is flagged complete=False and must not be used."""

    count: int
    complete: bool
    nodes: int
    elapsed_s: float
    diagnostic: str | None = None


def _residues(q: int, multipliers: MultiplierSet) -> tuple[int, ...]:
    if multipliers.q != q:
        raise ValueError(f"multiplier set was built for q={multipliers.q}, search got q={q}")
    return multipliers.residues


def _candidate_table(q: int, residues: tuple[int, ...], descending: bool) -> list[list[tuple[int, int]]]:
    # table[e] lists (s, block) for every s whose block contains e, ascending
    # in s; block is the bitmask of {m*s mod q : m in M}.  An s whose block
    # holds 0 or repeats a residue can never be placed and is left out.
    table: list[list[tuple[int, int]]] = [[] for _ in range(q)]
    for s in range(1, q):
        cells = {m * s % q for m in residues}
        if 0 in cells or len(cells) < len(residues):
            continue
        block = sum([1 << e for e in cells])
        for e in cells:
            table[e].append((s, block))
    if descending:
        for lst in table:
            lst.reverse()
    return table


def _explore(q, residues, node_budget, time_budget_s, descending, stop_at_first):
    start = time.perf_counter()
    last = (q - 1) // len(residues) - 1  # splitters placed when the next one completes the cover
    table = _candidate_table(q, residues, descending)
    # Unit scaling (module docstring): a find needs only the first root candidate.
    root = table[1][:1] if stop_at_first else table[1]
    covered = 1  # bit e is set while residue e is covered; 0 is never a target
    chosen: list[tuple[int, int]] = []  # (s, block) placed by each frame below the top
    frames = [iter(root)]
    nodes = 0
    count = 0
    first: tuple[int, ...] | None = None
    note = None

    while frames and first is None and note is None:
        for s, block in frames[-1]:
            nodes += 1
            if nodes > node_budget:
                note = f"node budget of {node_budget} exhausted"
                break
            if (
                time_budget_s is not None
                and nodes % 1024 == 0
                and time.perf_counter() - start > time_budget_s
            ):
                note = f"time budget of {time_budget_s}s exhausted"
                break
            if covered & block:
                continue
            if len(chosen) == last:
                count += 1
                if stop_at_first:
                    first = tuple(sorted([s, *(c for c, _ in chosen)]))
                    break
                continue
            covered |= block
            chosen.append((s, block))
            e = (~covered & (covered + 1)).bit_length() - 1
            frames.append(iter(table[e]))
            break
        else:
            frames.pop()
            if chosen:
                covered ^= chosen.pop()[1]
    elapsed = time.perf_counter() - start
    return first, count, note is None, nodes, elapsed, note


def _check_order(candidate_order: str) -> bool:
    if candidate_order not in ("ascending", "descending"):
        raise ValueError(f"candidate_order must be 'ascending' or 'descending', got {candidate_order!r}")
    return candidate_order == "descending"


def find_splitting(
    q: int,
    multipliers: MultiplierSet,
    *,
    node_budget: int = DEFAULT_NODE_BUDGET,
    time_budget_s: float | None = None,
    candidate_order: str = "ascending",
) -> SearchOutcome:
    """Search for a splitter set S with M*S covering Z_q minus 0 exactly.

    FOUND carries a splitter tuple that has already passed verify_cover;
    EXHAUSTED is a proof that no splitting exists for this (q, M): the tree
    under the first candidate for residue 1 was closed, and every splitting
    has a unit multiple in that tree (see the module docstring); TIMED_OUT
    reports a spent budget.  Identical arguments (including node budget)
    give identical outcomes.
    """
    residues = _residues(q, multipliers)
    descending = _check_order(candidate_order)
    k = len(residues)
    if (q - 1) % k != 0:
        return SearchOutcome(
            SearchStatus.EXHAUSTED, None, 0, 0.0,
            f"|M| = {k} does not divide q - 1 = {q - 1}",
        )
    first, _count, closed, nodes, elapsed, note = _explore(
        q, residues, node_budget, time_budget_s, descending, stop_at_first=True
    )
    if first is not None:
        check = verify_cover(q, residues, first)
        if not check:
            raise AssertionError(f"search produced an invalid splitting: {check.reason}")
        return SearchOutcome(SearchStatus.FOUND, first, nodes, elapsed)
    if closed:
        return SearchOutcome(SearchStatus.EXHAUSTED, None, nodes, elapsed)
    return SearchOutcome(SearchStatus.TIMED_OUT, None, nodes, elapsed, note)


def count_splittings(
    q: int,
    multipliers: MultiplierSet,
    *,
    node_budget: int = DEFAULT_NODE_BUDGET,
    time_budget_s: float | None = None,
    candidate_order: str = "ascending",
) -> CountOutcome:
    """Count all splitter sets for (q, M) by exhausting the search tree.

    Each set is counted once (branching on the smallest uncovered residue
    makes the branch path a function of the set itself).  Every root branch
    is explored: the root branches that find_splitting skips hold other
    splitter sets, which the count must include.  Intended for small q;
    budgets cap runaway inputs.
    """
    residues = _residues(q, multipliers)
    descending = _check_order(candidate_order)
    k = len(residues)
    if (q - 1) % k != 0:
        return CountOutcome(0, True, 0, 0.0, f"|M| = {k} does not divide q - 1 = {q - 1}")
    _first, count, closed, nodes, elapsed, note = _explore(
        q, residues, node_budget, time_budget_s, descending, stop_at_first=False
    )
    return CountOutcome(count, closed, nodes, elapsed, note)
