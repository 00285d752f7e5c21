"""Seeded input generator for the seaweeds benchmark.

The winding moves and their bases are copied here rather than imported
from the library, so that a change to the library cannot change the
inputs the benchmark feeds it.  Every generator takes the workload seed.
"""
from __future__ import annotations

import random

WORKLOADS = {
    "query": "cold CLI check and spectrum requests at ranks 8-48 of types "
             "A-D; every request pays the root-system build",
    "catalog": "E6, E7, E8, D8 and A9 catalog scans plus their census; the "
               "3^n pair scan, components and classification dominate",
    "oracle": "in-process type-A oracle runs; Fraction and integer "
              "elimination dominate, the meander and root system idle",
}

# query: one check and one spectrum request per family and rank band
QUERY_FAMILIES = "ABCD"
QUERY_RANKS = (8, 14, 20, 26, 32, 38, 44, 49)     # band edges, 8..48

# catalog: the types scanned and censused, once each per pass
CATALOG_TYPES = ("E6", "E7", "E8", "D8", "A9")

# oracle: up to this many distinct Frobenius winding pairs at ranks 4-6
# and as many distinct non-Frobenius uniform full-union pairs at ranks 5-7,
# which take the exact-rank fallback.  Each half is drawn from a pool of
# POOL_DRAWS seeded draws: the distinct pairs, ordered by dimension, are cut
# into equal strata and one pair is taken from each, so every seed gives the
# same spread of algebra sizes.  The winding walk reaches only about 52
# distinct pairs at ranks 4-6, so the Frobenius half holds nearly all of
# them at every seed.
ORACLE_PER_KIND = 50
ORACLE_RANKS = (5, 6, 7)
POOL_DRAWS = 2000

# A pair is (family, n, a, b): two compositions over a common rank.


def _block_creation(pair):
    fam, n, a, b = pair
    if not a:
        return None
    a1 = a[0]
    return fam, n + a1, (2 * a1,) + a[1:], (a1,) + b


def _rotation_expansion(pair):
    fam, n, a, b = pair
    if not a or not b or not a[0] > b[0]:
        return None
    a1, b1 = a[0], b[0]
    return fam, n + a1 - b1, (2 * a1 - b1,) + a[1:], (a1,) + b[1:]


def _pure_expansion(pair):
    fam, n, a, b = pair
    if len(a) < 2:
        return None
    a1, a2 = a[0], a[1]
    return fam, n + a2, (a1 + 2 * a2,) + a[2:], (a2,) + b


def _flip_up(pair):
    fam, n, a, b = pair
    return fam, n, b, a


GROWING_MOVES = (_block_creation, _rotation_expansion, _pure_expansion)


def winding_bases(family: str, q: int):
    """Induction bases: A1 for type A, the Borel chain for B/C, and the
    three distinguished flags for type D."""
    if family == "A":
        return [("A", 1, (1,), ())] if q == 1 else []
    if family in ("B", "C"):
        return [(family, q, (1,) * q, ())] if q >= 2 else []
    if family == "D":
        if q >= 4 and q % 2 == 0:
            return [("D", q, (1,) * q, ())]
        if q >= 3 and q % 2 == 1:
            return [("D", q, (1,) * (q - 2) + (2,), ()),
                    ("D", q, (1,) * (q - 3) + (3,), ())]
    return []


def winding_pair(rng: random.Random, family: str, rank: int):
    """A random Frobenius composition pair of exactly the given rank,
    wound up from a base by growing moves with random flips between."""
    lo = 1 if family == "A" else 3 if family == "D" else 2
    while True:
        q = rng.randint(lo, rank - 1) if family != "A" else 1
        bases = winding_bases(family, q)
        if not bases:
            continue
        pair = rng.choice(bases)
        while pair[1] < rank:
            if rng.random() < 0.3:
                pair = _flip_up(pair)
            grown = [p for p in (m(pair) for m in GROWING_MOVES)
                     if p is not None and p[1] <= rank]
            if not grown:
                pair = _flip_up(pair)
                grown = [p for p in (m(pair) for m in GROWING_MOVES)
                         if p is not None and p[1] <= rank]
                if not grown:
                    break
            pair = rng.choice(grown)
        if pair[1] == rank:
            return _flip_up(pair) if rng.random() < 0.5 else pair


def _side_roots(family: str, n: int, parts) -> int:
    """Positive roots of one side, from its composition alone."""
    chains = [p * (p - 1) // 2 for p in parts]
    r = n - sum(parts)
    if family == "A":
        return sum(chains) + r * (r + 1) // 2
    if family in ("B", "C"):
        return sum(chains) + r * r
    # type D: the tail {1..r} is D_r; a lone alpha_1 joins the chain above it
    if r == 1 and parts:
        return sum(chains[:-1]) + parts[-1] * (parts[-1] + 1) // 2
    return sum(chains) + r * (r - 1)


def seaweed_dimension(family: str, n: int, a, b) -> int:
    """Closed-form dimension: both sides' root counts plus the rank."""
    return n + _side_roots(family, n, a) + _side_roots(family, n, b)


def _subset_roots_a(subset) -> int:
    """Positive roots of a type-A subset: one chain per run of indices."""
    total = run = 0
    for i in range(1, max(subset, default=0) + 2):
        if i in subset:
            run += 1
        else:
            total += run * (run + 1) // 2
            run = 0
    return total


def query_pass(seed: int, k: int):
    """Pass k of the query workload: (kind, pair) requests in random order.

    Each family and kind gets one rank from each band of QUERY_RANKS.  The
    eight family-kind slots of a band take ranks spread evenly across it,
    in a rotation that depends on k alone, so the (family, kind, rank) mix,
    which sets most of a request's cost, is the same at every seed: the seed
    picks the seaweeds and the order.
    """
    rng = random.Random(f"query/{seed}/{k}")
    bands = list(zip(QUERY_RANKS, QUERY_RANKS[1:]))
    slots = [(fam, kind) for fam in QUERY_FAMILIES
             for kind in ("check", "spectrum")]
    jobs = [(kind, winding_pair(
                rng, fam, lo + (t + k) % len(slots) * (hi - lo) // len(slots)))
            for lo, hi in bands for t, (fam, kind) in enumerate(slots)]
    rng.shuffle(jobs)
    return jobs


def _stratified(rng: random.Random, pool, size):
    """One job from each of `size` dimension strata of the distinct
    (dimension, job) items in `pool`; all of them if there are fewer."""
    items = sorted(set(pool), key=lambda item: (item[0], repr(item[1])))
    size = min(size, len(items))
    bounds = [len(items) * i // size for i in range(size + 1)]
    return [rng.choice(items[lo:hi])[1] for lo, hi in zip(bounds, bounds[1:])]


def _random_pair(rng: random.Random):
    """A uniform full-union pair: each root is top-only, bottom-only or
    shared.  Returns (n, pi1, pi2) with descending index tuples."""
    n = rng.choice(ORACLE_RANKS)
    states = [rng.randrange(3) for _ in range(n)]
    pi1 = tuple(i for i in range(n, 0, -1) if states[i - 1] != 1)
    pi2 = tuple(i for i in range(n, 0, -1) if states[i - 1] != 0)
    return n, pi1, pi2


def oracle_jobs(seed: int):
    """The oracle workload's jobs.

    A job is ("comp", (family, n, a, b)) for a Frobenius winding pair or
    ("subset", (n, pi1, pi2)) for a uniform full-union pair that is not
    Frobenius.
    """
    rng = random.Random(f"oracle/{seed}")
    frob = []
    for _ in range(POOL_DRAWS):
        pair = winding_pair(rng, "A", rng.randint(4, 6))
        frob.append((seaweed_dimension(*pair), ("comp", pair)))
    jobs = _stratified(rng, frob, ORACLE_PER_KIND)
    pool = []
    while len(pool) < POOL_DRAWS:
        n, pi1, pi2 = _random_pair(rng)
        if type_a_index(n, pi1, pi2) > 0:
            dim = n + _subset_roots_a(set(pi1)) + _subset_roots_a(set(pi2))
            pool.append((dim, ("subset", (n, pi1, pi2))))
    return jobs + _stratified(rng, pool, ORACLE_PER_KIND)


def type_a_index(n: int, pi1, pi2) -> int:
    """Index of a type-A seaweed by the meander formula 2C + P - 1.

    Vertices 1..n+1; simple root i joins vertices i and i+1, and each
    side's maximal runs of roots become blocks whose vertices are paired
    by nested arcs.  C counts cycles and P paths (isolated vertices too)
    of the union of both sides' arcs (Dergachev-Kirillov).
    """
    nbr: list[list[int]] = [[] for _ in range(n + 2)]
    for side in (set(pi1), set(pi2)):
        v = 1
        while v <= n + 1:
            w = v
            while w in side:
                w += 1
            for j in range((w - v + 1) // 2):
                nbr[v + j].append(w - j)
                nbr[w - j].append(v + j)
            v = w + 1
    seen = [False] * (n + 2)
    cycles = paths = 0
    for start in range(1, n + 2):
        if seen[start]:
            continue
        stack, size, degree = [start], 0, 0
        seen[start] = True
        while stack:
            v = stack.pop()
            size += 1
            degree += len(nbr[v])
            for w in nbr[v]:
                if not seen[w]:
                    seen[w] = True
                    stack.append(w)
        if degree == 2 * size:
            cycles += 1
        else:
            paths += 1
    return 2 * cycles + paths - 1
