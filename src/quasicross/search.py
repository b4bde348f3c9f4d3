"""Exact-cover backtracking over splitter sets.

The ground set is Z_q minus 0; choosing splitter s covers the block
{m*s mod q : m in M}.  Only a splitter whose block has |M| distinct nonzero
residues can ever be placed.  Its block holds 0 when m*s = 0 mod q for some
m in M, and repeats a residue when m*s = m'*s, that is (m - m')*s = 0, for
some m != m' in M.  So s is unplaceable exactly when d*s = 0 mod q for some
d in M or in M - M, which makes s a multiple of q // gcd(d, q); at prime q
every s in 1..q-1 is placeable.  The candidates are the placeable
splitters.  A residue is open while no placed block holds it, and
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

The only budget is a node count (one node per candidate placement attempt;
a spent budget of B nodes reports B nodes), and the outcomes hold no time,
so equal arguments give equal outcomes (==, and the same hash), and an
Exhausted or TimedOut outcome can be reproduced.
The multiplier set is the place that refuses a group order: its q is an int
(not a bool or a float) that fits in 64 bits.  The search takes only that
q, so no other q reaches the candidate table, which has one list per
residue.
"""

from __future__ import annotations

from enum import Enum
from math import gcd
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

DEFAULT_NODE_BUDGET = 1_000_000


class SearchStatus(Enum):
    FOUND = "found"
    EXHAUSTED = "exhausted"
    TIMED_OUT = "timed_out"


class SearchOutcome(NamedTuple):
    status: SearchStatus
    splitters: tuple[int, ...] | None
    nodes: int
    diagnostic: str | None = None


class CountOutcome(NamedTuple):
    """Exact number of splitter sets when complete; a partial count (budget
    ran out) is flagged complete=False and must not be used."""

    count: int
    complete: bool
    nodes: int
    diagnostic: str | None = None


def _candidate_table(q: int, residues: tuple[int, ...], symmetric: bool) -> list[list[tuple]]:
    # table[e] lists (s, cells) for every candidate s whose block contains
    # e, ascending in s; cells are the residues m*s mod q for m in M, in the
    # order of M.  Each candidate is one tuple shared by the |M| lists it
    # appears in, so the table takes O(q*|M|) memory.  The unplaceable s, the
    # multiples of q // gcd(d, q) for d in M and M - M (module docstring),
    # are left out, and so is every s >= q - s when M = -M (the +-classes).
    limit = (q + 1) // 2 if symmetric else q
    differences = {a - b for a in residues for b in residues if a != b}
    steps = {q // gcd(d, q) for d in differences.union(residues)}
    dead = {s for step in steps for s in range(step, limit, step)}
    splitters = [s for s in range(1, limit) if s not in dead]
    columns = [[m * s % q for s in splitters] for m in residues]
    table: list[list[tuple]] = [[] for _ in range(q)]
    for candidate in zip(splitters, zip(*columns)):
        for e in candidate[1]:
            table[e].append(candidate)
    return table


def _explore(q, multipliers, node_budget, stop_at_first):
    # multipliers.q is an int below 2**64, as MultiplierSet checked; type()
    # tells it from an equal float or bool.
    if type(q) is not int or q != multipliers.q:
        raise ValueError(f"multiplier set was built for q={multipliers.q}, search got q={q!r}")
    if type(node_budget) is not int or node_budget < 0:
        raise ValueError(f"node budget must be an int >= 0, got {node_budget!r}")
    residues = multipliers.residues
    k = len(residues)
    if (q - 1) % k != 0:
        return None, 0, True, 0, f"|M| = {k} does not divide q - 1 = {q - 1}"
    size = (q - 1) // k  # splitters in a splitting
    symmetric = q > 2 and {q - m for m in residues} == set(residues)
    table = _candidate_table(q, residues, symmetric)
    scale = len(table[1]) << size if symmetric else len(table[1])
    # live[e] counts the candidates for residue e that meet no placed block.
    # A residue a placed block holds, and 0, which is never a target, carry an
    # extra q, which no live count reaches, so min(live) is an open residue.
    live = list(map(len, table))
    live[0] = q
    alive = [True] * q  # alive[s] while splitter s's block meets no placed block
    # One frame per placed candidate, under the root frame: the candidates
    # still to try at that depth, the candidate whose placement opened the
    # frame, and the candidates that placement killed.  The root frame places
    # nothing and tries one candidate (unit scaling, module docstring), so
    # len(stack) - 1 candidates are placed.
    stack = [(iter(table[1][:1]), None, ())]
    nodes = count = 0
    while stack:
        for candidate in stack[-1][0]:
            if nodes == node_budget:
                return None, count * scale, False, nodes, f"node budget of {node_budget} exhausted"
            nodes += 1
            s, cells = candidate
            if not alive[s]:
                continue
            if len(stack) == size:  # this candidate completes the cover
                count += 1
                if stop_at_first:
                    return tuple(sorted([s, *(frame[1][0] for frame in stack[1:])])), count * scale, True, nodes, None
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
            least = min(live)
            stack.append((iter(table[live.index(least)]) if least else iter(()), candidate, killed))
            break
        else:
            # Every candidate of the top frame was tried: undo its placement.
            _, placed, killed = stack.pop()
            for d in killed:
                alive[d[0]] = True
                for f in d[1]:
                    live[f] += 1
            if placed:
                for e in placed[1]:
                    live[e] -= q
    return None, count * scale, True, nodes, None


def find_splitting(
    q: int,
    multipliers: MultiplierSet,
    *,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> SearchOutcome:
    """Search for a splitter set S with M*S covering Z_q minus 0 exactly.

    FOUND carries a splitter tuple that has already passed verify_cover;
    EXHAUSTED is a proof that no splitting exists for this (q, M): the tree
    under the first candidate for residue 1 was closed, and every splitting
    has a unit multiple in that tree or, when M = -M, a unit multiple whose
    +-class representative lies in it (see the module docstring); TIMED_OUT
    reports a spent node budget.  Equal arguments (node budget included)
    give equal outcomes: == holds and the hashes agree.

    node_budget must be an int >= 0 (a bool is refused), else ValueError;
    one node is one candidate tried, placed or not, and a budget of B spent
    reports exactly B nodes.
    """
    first, _count, closed, nodes, note = _explore(
        q, multipliers, node_budget, stop_at_first=True
    )
    if first is not None:
        check = verify_cover(q, multipliers.residues, first)
        if not check:
            raise AssertionError(f"search produced an invalid splitting: {check.reason}")
        return SearchOutcome(SearchStatus.FOUND, first, nodes)
    status = SearchStatus.EXHAUSTED if closed else SearchStatus.TIMED_OUT
    return SearchOutcome(status, None, nodes, note)


def count_splittings(
    q: int,
    multipliers: MultiplierSet,
    *,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> CountOutcome:
    """Count all splitter sets for (q, M) by exhausting the search tree.

    Each set is counted once: a node branches on a residue chosen from the
    placed blocks alone, and exactly one splitter of the set covers it, so
    the branch path is a function of the set itself.  Only the subtree
    under the first root candidate is explored; its count times the number
    of root candidates is the full count, and when M = -M the tree holds
    one member of each +-class of 2^n splittings, so the count is scaled by
    2^n as well (see the module docstring).
    Intended for small q; budgets cap runaway inputs.  node_budget follows
    find_splitting's rule; a spent budget gives complete=False and a partial
    count.
    """
    _first, count, closed, nodes, note = _explore(
        q, multipliers, node_budget, stop_at_first=False
    )
    return CountOutcome(count, closed, nodes, note)
