"""Exact-cover backtracking over splitter sets.

The ground set is Z_q minus 0; choosing splitter s covers the block
{m*s mod q : m in M}.  A residue is open while no placed block holds it, and
a candidate is live while its block meets no placed block.  Liveness is one
flag per splitter, cleared when a placed block meets the candidate and set
again when that block is removed, so set-up memory is O(q*|M|), the size of
the candidate table.  Below the root, the search branches on the open
residue e with the fewest live candidates, the smallest such residue on a
tie (the minimum-remaining-values rule of Knuth's Dancing Links), and tries
each splitter whose block covers e, placing the live ones.  A residue with
no live candidate closes its branch.  The live counts are updated as blocks
are placed and removed, not rescanned.  The branching residue depends only
on the placed blocks, and a splitting holds exactly one splitter that
covers it, so each splitting lies on exactly one path of the tree.
Exhausting the tree is therefore a proof that no splitting exists for the
given (q, M), and counting its leaves counts each splitting once.

Both searches try a single splitter at the root.  Whatever splitter s covers
residue 1 is a unit, because m*s = 1 for some m in M, so the root candidates
are the inverses of the unit multipliers, one each.  If S is a splitting, so
is u*S for every unit u, since multiplying by u permutes Z_q minus 0.  Every
splitting holds exactly one root candidate, the splitter that covers 1, and
for root candidates c and c' the map S -> (c/c')*S is a bijection from the
splittings that hold c' to those that hold c.  So the subtree under c, the
first candidate for residue 1, finds a splitting whenever one exists, and
its count times the number of root candidates is the full count.  This
holds for every M and for prime or composite q.

When M = -M and q > 2, splitters s and -s have the same block, so a
splitting holds at most one of them and stays a splitting when s is swapped
for -s.  The splittings fall into +-classes of 2^n, n = (q - 1)/|M|, and
each class has exactly one member whose splitters all lie below q/2.  The
splitter q/2 (s = -s) never needs to be a candidate: its block lies in
{0, q/2}, so it is placeable only when M = {q/2}, and then no block covers
residue 1.  The table therefore keeps only the s with s < q - s, root
candidates included, and the root argument carries over to classes.  Every
class has one block holding residue 1, c*M for a root candidate c (c and -c
give the same block), and S -> (c/c')*S maps the classes with block c'*M
there onto those with block c*M.  So for c, the smallest root candidate,
the tree under c holds one member of each class with block c*M at residue
1.  Their number times the number of kept root candidates is the number of
classes, that times 2^n is the full count, and the tree finds a splitting
whenever one exists.

A larger stabilizer {u unit : u*M = M} would allow the same reduction, but
for interval M with k_plus <= 6 and 2*k_plus + 1 < q <= 3000 a unit u other
than +-1 with u*M = M exists only for (k, k) at q = 2k + 2 ((3,3) q = 8,
(4,4) q = 10, (5,5) q = 12, (6,6) q = 14).  There |M| = 2k does not divide
q - 1, so the search returns before it builds a table.  Where q <=
2*k_plus + 1 the interval wraps round, and such a unit comes with
q = |M| + 1, a one-splitter search, or with |M| not dividing q - 1.

Budgets are node counts first (one node per candidate placement attempt; a
spent budget of B nodes reports B nodes), which keeps Exhausted/TimedOut
outcomes reproducible.  A wall-clock budget, checked every 1024 nodes, can
stop the search earlier; with one, the status and node count depend on how
fast the machine runs, and the same arguments can give different outcomes.
"""

from __future__ import annotations

import time
from enum import Enum
from typing import NamedTuple

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


class SearchOutcome(NamedTuple):
    status: SearchStatus
    splitters: tuple[int, ...] | None
    nodes: int
    elapsed_s: float
    diagnostic: str | None = None


class CountOutcome(NamedTuple):
    """Exact number of splitter sets when complete; a partial count (budget
    ran out) is flagged complete=False and must not be used."""

    count: int
    complete: bool
    nodes: int
    elapsed_s: float
    diagnostic: str | None = None


def _candidate_table(q: int, residues: tuple[int, ...], symmetric: bool) -> list[list[tuple]]:
    # table[e] lists (s, cells) for every s whose block contains e, ascending
    # in s; cells are the residues {m*s mod q : m in M}.  Each candidate is one
    # tuple shared by the |M| lists it appears in, so the table takes O(q*|M|)
    # memory.  An s whose block holds 0 or repeats a residue can never be
    # placed and is left out, and so is every s >= q - s when M = -M (the
    # +-classes of the module docstring).
    table: list[list[tuple]] = [[] for _ in range(q)]
    for s in range(1, (q + 1) // 2 if symmetric else q):
        cells = {m * s % q for m in residues}
        if 0 in cells or len(cells) < len(residues):
            continue
        candidate = (s, tuple(cells))
        for e in cells:
            table[e].append(candidate)
    return table


def _explore(q, multipliers, node_budget, time_budget_s, stop_at_first):
    if multipliers.q != q:
        raise ValueError(f"multiplier set was built for q={multipliers.q}, search got q={q}")
    residues = multipliers.residues
    k = len(residues)
    if (q - 1) % k != 0:
        return None, 0, True, 0, 0.0, f"|M| = {k} does not divide q - 1 = {q - 1}"
    start = time.perf_counter()
    last = (q - 1) // k - 1  # splitters placed when the next one completes the cover
    symmetric = q > 2 and {q - m for m in residues} == set(residues)
    table = _candidate_table(q, residues, symmetric)
    # live[e] counts the candidates for residue e that meet no placed block.
    # A residue a placed block holds, and 0, which is never a target, carry an
    # extra q, which no live count reaches, so min(live) is an open residue.
    live = [len(lst) for lst in table]
    live[0] = q
    alive = [True] * q  # alive[s] while splitter s's block meets no placed block
    chosen: list[tuple] = []  # (candidate, candidates it killed) placed by each frame below the top
    frames = [iter(table[1][:1])]  # unit scaling (module docstring): one root candidate
    nodes = 0
    count = 0
    first: tuple[int, ...] | None = None
    note = None

    while frames and first is None and note is None:
        for candidate in frames[-1]:
            if nodes == node_budget:
                note = f"node budget of {node_budget} exhausted"
                break
            nodes += 1
            if (
                time_budget_s is not None
                and nodes % 1024 == 0
                and time.perf_counter() - start > time_budget_s
            ):
                note = f"time budget of {time_budget_s}s exhausted"
                break
            s, cells = candidate
            if not alive[s]:
                continue
            if len(chosen) == last:
                count += 1
                if stop_at_first:
                    first = tuple(sorted([s, *(c[0] for c, _ in chosen)]))
                    break
                continue
            # Kill every live candidate that meets the block, once each: at
            # the first of its cells that the block covers.
            killed = []
            for e in cells:
                for d in table[e]:
                    if alive[d[0]]:
                        alive[d[0]] = False
                        killed.append(d)
                        for f in d[1]:
                            live[f] -= 1
                live[e] += q
            chosen.append((candidate, killed))
            least = min(live)
            frames.append(iter(table[live.index(least)]) if least else iter(()))
            break
        else:
            frames.pop()
            if chosen:
                (_s, cells), killed = chosen.pop()
                for e in cells:
                    live[e] -= q
                for d in killed:
                    alive[d[0]] = True
                    for f in d[1]:
                        live[f] += 1
    elapsed = time.perf_counter() - start
    scale = len(table[1]) << (q - 1) // k if symmetric else len(table[1])
    return first, count * scale, note is None, nodes, elapsed, note


def find_splitting(
    q: int,
    multipliers: MultiplierSet,
    *,
    node_budget: int = DEFAULT_NODE_BUDGET,
    time_budget_s: float | None = None,
) -> SearchOutcome:
    """Search for a splitter set S with M*S covering Z_q minus 0 exactly.

    FOUND carries a splitter tuple that has already passed verify_cover;
    EXHAUSTED is a proof that no splitting exists for this (q, M): the tree
    under the first candidate for residue 1 was closed, and every splitting
    has a unit multiple in that tree or, when M = -M, a unit multiple whose
    +-class representative lies in it (see the module docstring); TIMED_OUT
    reports a spent budget.  Without time_budget_s, identical arguments
    (including node budget) give identical outcomes; with it, the outcome
    also depends on wall time.
    """
    first, _count, closed, nodes, elapsed, note = _explore(
        q, multipliers, node_budget, time_budget_s, stop_at_first=True
    )
    if first is not None:
        check = verify_cover(q, multipliers.residues, first)
        if not check:
            raise AssertionError(f"search produced an invalid splitting: {check.reason}")
        return SearchOutcome(SearchStatus.FOUND, first, nodes, elapsed)
    status = SearchStatus.EXHAUSTED if closed else SearchStatus.TIMED_OUT
    return SearchOutcome(status, None, nodes, elapsed, note)


def count_splittings(
    q: int,
    multipliers: MultiplierSet,
    *,
    node_budget: int = DEFAULT_NODE_BUDGET,
    time_budget_s: float | None = None,
) -> CountOutcome:
    """Count all splitter sets for (q, M) by exhausting the search tree.

    Each set is counted once: a node branches on a residue chosen from the
    placed blocks alone, and exactly one splitter of the set covers it, so
    the branch path is a function of the set itself.  Only the subtree
    under the first root candidate is explored; its count times the number
    of root candidates is the full count, and when M = -M the tree holds
    one member of each +-class of 2^n splittings, so the count is scaled by
    2^n as well (see the module docstring).
    Intended for small q; budgets cap runaway inputs.
    """
    _first, count, closed, nodes, elapsed, note = _explore(
        q, multipliers, node_budget, time_budget_s, stop_at_first=False
    )
    return CountOutcome(count, closed, nodes, elapsed, note)
