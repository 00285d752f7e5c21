"""A fixed reference computation that measures the host's current speed.

On a shared host the same pure-Python code can run up to twice as slowly
for minutes at a time, while other tenants load the cores.  The benchmark
times `work` between its jobs and scales every job's time by
REFERENCE_S / (the reference time measured around that job), so that its
timings read as on a host where `work` takes REFERENCE_S, and a slow spell
of the host does not pass for a slow program.

`work` does what the seaweeds package spends its time on -- exact Fraction
elimination, frozenset and tuple churn, dictionary counting and sorting
over a working set of a few hundred kilobytes -- and imports nothing from
it, so no change to the package changes the reference.  The elimination
alone slows less than a catalog scan in the host's slow spells, the
working set alone more than an oracle run; together they track both.  Keep
it fixed: every recorded timing depends on it.
"""
from __future__ import annotations

import random
import time
from fractions import Fraction

REFERENCE_S = 0.012     # nominal time of one `work` call


def work() -> int:
    rng = random.Random(7)
    n = 9
    m = [[Fraction(rng.randint(-5, 5)) for _ in range(n + 1)]
         for _ in range(n)]
    for c in range(n):
        p = next((r for r in range(c, n) if m[r][c]), None)
        if p is None:
            continue
        m[c], m[p] = m[p], m[c]
        for r in range(n):
            if r != c and m[r][c]:
                f = m[r][c] / m[c][c]
                m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    seen: dict[tuple, int] = {}
    for i in range(3000):
        t = tuple(sorted(frozenset((i % 13, i % 7, i % 5, i % 3))))
        seen[t] = seen.get(t, 0) + 1
    keys = [frozenset(rng.randrange(40) for _ in range(3))
            for _ in range(1500)]
    counts: dict[frozenset, int] = {}
    for k in keys:
        counts[k] = counts.get(k, 0) + 1
    ranked = sorted((len(k), tuple(sorted(k))) for k in keys)
    return len(seen) + sum(counts[k] for k in keys[::3]) + len(ranked)


def seconds() -> float:
    """Wall time of one `work` call."""
    start = time.perf_counter()
    work()
    return time.perf_counter() - start
