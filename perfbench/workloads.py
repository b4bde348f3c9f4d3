"""Inputs of the three workloads.  Nothing here imports the package: the
package receives only what these functions generate."""

from __future__ import annotations

import math
import random

# table: `quasicross classify --format json --max-n 4000` for each shape, in order.
TABLE_SHAPES = ((3, 1), (3, 2))
TABLE_MAX_N = 4000

# search: (k_plus, k_minus, n, node budget) for find_splitting, then
# (k_plus, k_minus, n) for count_splittings.  Proofs of non-existence,
# finds, and two searches with a larger budget.
SEARCH_BUDGET = 200_000
FIND_CALLS = tuple(
    [(3, 1, n, SEARCH_BUDGET) for n in list(range(2, 25)) + [26, 27]]
    + [(3, 2, n, SEARCH_BUDGET) for n in range(2, 22) if n != 16]
    + [(2, 2, n, SEARCH_BUDGET) for n in (3, 4, 6, 7, 9, 10, 13, 15, 16)]
    + [(4, 2, 8, SEARCH_BUDGET), (5, 1, 8, SEARCH_BUDGET), (3, 3, 6, SEARCH_BUDGET),
       (3, 3, 8, SEARCH_BUDGET), (4, 4, 12, SEARCH_BUDGET)]
    + [(3, 1, 25, 500_000), (3, 2, 16, 500_000)]
)
COUNT_CALLS = ((2, 2, 9), (2, 2, 10), (1, 1, 10))

# store: appends per pass, of which STORE_DUPLICATES repeat an earlier
# certificate and STORE_UNIT_MULTIPLES are unit multiples of search finds;
# the rest are (1,1) half-systems.  A full load follows every
# STORE_LOAD_EVERY-th append.  The half-system sizes are a fixed multiset,
# mostly n <= STORE_SMALL_N and STORE_LARGE up to STORE_MAX_N, so that the
# O(n^3) Hermite step of lattice_basis does not swamp the appends.  The seed
# orders them, with one large half-system in each of STORE_LARGE equal
# stretches of the stream.  The fixed multiset and the spread-out large ones
# keep the work of a pass nearly the same for every seed.
STORE_APPENDS = 300
STORE_DUPLICATES = 30
STORE_UNIT_MULTIPLES = 54
STORE_LOAD_EVERY = 10
STORE_SMALL_N = 40
STORE_LARGE = 22
STORE_MAX_N = 120


def group_order(k_plus: int, k_minus: int, n: int) -> int:
    return n * (k_plus + k_minus) + 1


def call_name(kind: str, k_plus: int, k_minus: int, n: int) -> str:
    return f"{kind}.{k_plus}-{k_minus}-{n}"


def stream_kinds(rng: random.Random) -> list:
    """What each append of a pass is: a half-system size, 0 for a unit
    multiple, None for a duplicate."""
    small = STORE_APPENDS - STORE_DUPLICATES - STORE_UNIT_MULTIPLES - STORE_LARGE
    kinds = [4 + (STORE_SMALL_N - 3) * i // small for i in range(small)] + [0] * STORE_UNIT_MULTIPLES
    rng.shuffle(kinds)
    large = [STORE_SMALL_N + 1 + (STORE_MAX_N - STORE_SMALL_N) * i // STORE_LARGE for i in range(STORE_LARGE)]
    rng.shuffle(large)
    step = len(kinds) // STORE_LARGE
    for i, n in enumerate(large):
        kinds.insert(i * (step + 1) + rng.randrange(step + 1), n)
    for pos in sorted(rng.sample(range(1, STORE_APPENDS), STORE_DUPLICATES)):
        kinds.insert(pos, None)
    return kinds


def store_stream(seed: int, finds):
    """Seeded certificate stream: list of ((q, k_plus, k_minus, splitters), expect_new).

    Half-systems choose one of x, q - x for each x = 1..n (q = 2n + 1).  Unit
    multiples are u*S for a unit u and a splitting in `finds`, given as
    (q, k_plus, k_minus, splitters).  A duplicate repeats an earlier
    certificate with its splitters shuffled.
    """
    rng = random.Random(seed)
    kinds = stream_kinds(rng)
    seen: set[tuple] = set()
    emitted: list[tuple] = []
    out = []
    for kind in kinds:
        if kind is None:
            q, kp, km, splitters = rng.choice(emitted)
            splitters = list(splitters)
            rng.shuffle(splitters)
            out.append(((q, kp, km, tuple(splitters)), False))
            continue
        while True:
            if kind == 0:
                q, kp, km, base = rng.choice(finds)
                u = rng.choice([u for u in range(1, q) if math.gcd(u, q) == 1])
                splitters = tuple(u * s % q for s in base)
            else:
                q, kp, km = 2 * kind + 1, 1, 1
                splitters = tuple(x if rng.random() < 0.5 else q - x for x in range(1, kind + 1))
            key = (q, kp, km, tuple(sorted(splitters)))
            if key not in seen:
                break
        seen.add(key)
        emitted.append(key)
        out.append(((q, kp, km, splitters), True))
    return out
