"""Exhaustive catalogs of Frobenius seaweeds, with verification sweeps.

For a rank-n type there are 3^n subset pairs covering the whole diagram
(each vertex is top-only, bottom-only, or shared); the Frobenius test is
symmetric under the swap, so the scan visits the (3^n - 1)/2 bitmask pairs
with m1 < m2 against one table of the 2^n side involutions, their orbit
counts and fixed vertices, built from each connected piece's shape rule.
It walks the cycles of the pairs whose orbit counts sum to the rank and
that share no vertex both sides fix, and keeps the Frobenius ones (on the self-dual F4/G2/B2/C2, the lesser of a pair and its
arrow-reversing relabeling).  The sorted mask pairs are the catalog's keys,
which `seaweed enumerate` writes as JSON and diffs against Appendix A.
"""
from __future__ import annotations

from typing import NamedTuple

from .rootsys import LieType, RootSystem, build_root_system
from .seaweed import Seaweed, mask_subset, subset_mask
from .meander import (Side, _meets_once, components, involution,
                      is_frobenius, orbits, side_permutations, u_turn_report)
from .spectrum import (_pin_walk, seaweed_dimension, shape_spectrum,
                       spectrum_union, verify_symmetric, verify_unbroken,
                       zero_padding)

ENUM_RANK_GUARD = 16


class Catalog(NamedTuple):
    lie_type: LieType
    entries: tuple[Seaweed, ...]

    @property
    def count(self) -> int:
        return len(self.entries)


def _frobenius_pairs(rs: RootSystem) -> list[tuple[int, int]]:
    """The (m1, m2) masks, m1 < m2, of every Frobenius pair with full
    union.  A side's involution depends on its subset alone, so the table
    of all 2^n, with their orbit counts, is built first, in one pass.

    (m1, m2) is Frobenius exactly when (m2, m1) is (p1.p2 inverts p2.p1,
    and the target is symmetric), and (full, full), of empty target, never
    is.  So only m1 < m2 is visited: bit k, the top one where the masks
    differ, is m2's and every bit above it is in both, so m1 is those bits
    with any a below bit k, and m2 = full ^ d for each subset d of a.

    A pair reaches the cycle walk only if its orbit counts sum to n.  The
    meander, edges {v, p1 v} and {v, p2 v}, has P paths and C closed cycles;
    each path end is fixed by one side (a lone vertex by both), no cycle
    vertex by any, so the sides' n - 2 t_i fixed points (t_i transpositions)
    number 2P.  A Frobenius pair has C = 0 and one path per vertex outside
    m1 & m2, so n - t1 - t2 = P = 2n - |m1| - |m2|: with counts[m] = |m| - t,
    counts[m1] + counts[m2] == n.  Nor may a vertex of m1 & m2 be fixed by
    both sides: it would be a one-vertex path holding no vertex outside
    m1 & m2, which the count cannot see.
    """
    n = rs.rank
    full = (1 << n) - 1
    perms, counts, fixed = side_permutations(rs)
    pairs = []
    for k in range(n):
        span = (2 << k) - 1             # bits 0..k
        for a in range(1 << k):
            m1 = (full ^ span) | a
            p1, want, rest = perms[m1], n - counts[m1], span ^ a
            fixed1 = fixed[m1]
            d = a                       # target: full ^ (m1 & m2) = rest ^ d
            while True:
                m2 = full ^ d
                if (counts[m2] == want and not fixed1 & fixed[m2]
                        and _meets_once(p1, perms[m2], rest ^ d)):
                    pairs.append((m1, m2))
                if not d:
                    break
                d = (d - 1) & a
    return pairs


def catalog_keys(t: LieType) -> list[tuple[int, int]]:
    """The sorted (m1, m2) subset masks, m1 < m2, of every Frobenius
    seaweed of one type up to the swap.  On F4, G2 and the rank-2 B/C
    system the relabeling i -> n+1-i of the undirected diagram reverses the
    arrow; pairs related by it present the same subalgebra up to the
    identifications the reference catalogs use, so the lesser of the two
    (both Frobenius, as the relabeling maps side involutions to each other)
    is kept.  The E-types' diagram automorphisms stay distinct entries.
    """
    n = t.rank
    if n > ENUM_RANK_GUARD:
        raise ValueError(f"rank {n} exceeds the exhaustive-scan guard "
                         f"({ENUM_RANK_GUARD})")
    pairs = _frobenius_pairs(build_root_system(t))
    if t.family in "FG" or (t.family in "BC" and n == 2):
        flip = [int(f"{m:0{n}b}"[::-1], 2) for m in range(1 << n)]
        pairs = [(m1, m2) for m1, m2 in pairs
                 if (m1, m2) <= tuple(sorted((flip[m1], flip[m2])))]
    return sorted(pairs)


# The 74 Frobenius seaweeds of E6, as unordered subset pairs.
APPENDIX_A_E6: tuple[tuple[frozenset[int], frozenset[int]], ...] = tuple(
    (frozenset(a), frozenset(b)) for a, b in [
        ((6, 5, 4, 3, 2, 1), (6, 5, 4, 3)),
        ((6, 5, 4, 3, 2, 1), (6, 5, 4, 2)),
        ((6, 5, 4, 3, 2, 1), (5, 4, 3, 1)),
        ((6, 5, 4, 3, 2, 1), (4, 3, 2, 1)),
        ((6, 5, 4, 3, 2, 1), (6, 5, 4)),
        ((6, 5, 4, 3, 2, 1), (6, 5, 3)),
        ((6, 5, 4, 3, 2, 1), (6, 5, 1)),
        ((6, 5, 4, 3, 2, 1), (6, 4, 3)),
        ((6, 5, 4, 3, 2, 1), (6, 3, 1)),
        ((6, 5, 4, 3, 2, 1), (5, 4, 1)),
        ((6, 5, 4, 3, 2, 1), (5, 3, 1)),
        ((6, 5, 4, 3, 2, 1), (4, 3, 1)),
        ((6, 5, 4, 3, 2, 1), (6, 3)),
        ((6, 5, 4, 3, 2, 1), (5, 1)),
        ((5, 4, 3, 2, 1), (6, 5, 4)),
        ((6, 4, 3, 2, 1), (6, 5, 3, 2, 1)),
        ((6, 5, 3, 2, 1), (6, 4, 3, 2)),
        ((6, 5, 4, 2, 1), (6, 5, 3, 2, 1)),
        ((6, 5, 4, 2, 1), (6, 4, 3, 2)),
        ((6, 5, 4, 3, 1), (6, 5, 4, 2, 1)),
        ((6, 5, 4, 3, 1), (6, 4, 3, 2, 1)),
        ((6, 5, 4, 3, 1), (6, 5, 2, 1)),
        ((6, 5, 4, 3, 1), (5, 2, 1)),
        ((6, 5, 4, 3, 2), (4, 3, 2, 1)),
        ((6, 5, 4, 3, 2), (4, 3, 1)),
        ((6, 5, 4, 3, 2), (4, 2, 1)),
        ((6, 5, 4, 3, 2), (3, 2, 1)),
        ((6, 5, 4, 3, 2), (2, 1)),
        ((5, 3, 2, 1), (6, 5, 4, 3, 1)),
        ((5, 3, 2, 1), (6, 5, 4, 2, 1)),
        ((5, 3, 2, 1), (6, 4, 3, 2, 1)),
        ((5, 3, 2, 1), (6, 4, 3, 2)),
        ((5, 3, 2, 1), (6, 4, 2, 1)),
        ((5, 3, 2, 1), (6, 4, 1)),
        ((6, 3, 2, 1), (6, 5, 4, 3, 1)),
        ((6, 3, 2, 1), (5, 4, 2, 1)),
        ((5, 4, 2, 1), (6, 5, 3, 2, 1)),
        ((5, 4, 2, 1), (6, 4, 3, 2, 1)),
        ((6, 4, 2, 1), (6, 5, 3, 2, 1)),
        ((6, 5, 2, 1), (6, 4, 3, 2)),
        ((5, 4, 3, 1), (6, 5, 4, 3, 2)),
        ((6, 4, 3, 1), (6, 5, 4, 2, 1)),
        ((6, 4, 3, 1), (6, 5, 3, 2, 1)),
        ((6, 4, 3, 1), (6, 5, 2, 1)),
        ((6, 4, 3, 1), (5, 3, 2, 1)),
        ((6, 4, 3, 1), (5, 2, 1)),
        ((6, 5, 4, 1), (6, 5, 3, 2, 1)),
        ((6, 5, 4, 1), (6, 4, 3, 2, 1)),
        ((6, 5, 4, 1), (6, 3, 2, 1)),
        ((6, 5, 3, 2), (6, 5, 4, 3, 1)),
        ((6, 5, 3, 2), (6, 5, 4, 2, 1)),
        ((6, 5, 3, 2), (6, 4, 3, 2, 1)),
        ((6, 5, 3, 2), (6, 5, 4, 1)),
        ((6, 5, 3, 2), (6, 4, 2, 1)),
        ((6, 5, 3, 2), (5, 4, 2, 1)),
        ((6, 5, 3, 2), (6, 4, 1)),
        ((5, 4, 3, 2), (6, 5, 3, 1)),
        ((5, 4, 3, 2), (6, 5, 1)),
        ((5, 4, 3, 2), (6, 3, 1)),
        ((6, 5, 4, 2), (5, 4, 3, 2, 1)),
        ((6, 5, 4, 3), (5, 4, 3, 2, 1)),
        ((5, 2, 1), (6, 4, 3, 2)),
        ((6, 4, 1), (6, 5, 3, 2, 1)),
        ((5, 3, 2), (6, 5, 4, 2, 1)),
        ((5, 3, 2), (6, 4, 3, 2, 1)),
        ((5, 3, 2), (6, 4, 2, 1)),
        ((5, 3, 2), (6, 4, 1)),
        ((6, 3, 2), (6, 5, 4, 3, 1)),
        ((6, 3, 2), (6, 5, 4, 1)),
        ((6, 3, 2), (5, 4, 2, 1)),
        ((6, 4, 2), (5, 4, 3, 2, 1)),
        ((6, 5, 2), (5, 4, 3, 2, 1)),
        ((6, 1), (5, 4, 3, 2)),
        ((6, 2), (5, 4, 3, 2, 1)),
    ]
)

class CatalogDiff(NamedTuple):
    missing: tuple[tuple[frozenset[int], frozenset[int]], ...]
    extra: tuple[tuple[frozenset[int], frozenset[int]], ...]

    @property
    def empty(self) -> bool:
        return not self.missing and not self.extra


def check_appendix_a(keys) -> CatalogDiff:
    """Diff the (m1, m2) mask keys of a catalog (`catalog_keys`) against
    the embedded 74-row E6 reference list."""
    def norm(a: frozenset[int], b: frozenset[int]):
        return (min((tuple(sorted(a)), tuple(sorted(b))),
                    (tuple(sorted(b)), tuple(sorted(a)))))

    pairs = [(mask_subset(m1), mask_subset(m2)) for m1, m2 in keys]
    reference = {norm(a, b): (a, b) for a, b in APPENDIX_A_E6}
    got = {norm(a, b): (a, b) for a, b in pairs}
    missing = tuple(reference[k] for k in sorted(reference.keys() - got.keys()))
    extra = tuple(got[k] for k in sorted(got.keys() - reference.keys()))
    return CatalogDiff(missing, extra)


class CensusReport:
    """How many seaweeds a census checked, and what failed."""

    def __init__(self, checked: int = 0,
                 failures: list[str] | None = None) -> None:
        self.checked = checked
        self.failures = [] if failures is None else failures

    def ok(self) -> bool:
        return not self.failures


def verify_entry(s: Seaweed, report: CensusReport) -> None:
    """Run every structural check one Frobenius seaweed must satisfy.

    Each component's side-normalized values (the bottom side's negated),
    in the component's order, feed its value bounds, its chain pairing and
    the E6 pattern.  On a chain of k simple roots, each root and its mirror
    are adjacent runs whose union is a centered run i..k+1-i, and the
    self-paired roots are the centered runs, so the pairing holds exactly
    when each of the ceil(k/2) centered runs, the whole chain among them,
    evaluates to one; the record lists the centered runs that do not.

    The per-value range table and the right/left U-turn dichotomy are
    statements about the classical drawings, so inside the exceptional
    algebras they relax to the pinned exceptional ranges and a total of at
    most two U-turns per orbit (chains there can reach value 3 in both
    signs, and a two-turn orbit need not split by direction).  Both U-turn
    checks read the counts of the solve's own walk, one path per orbit;
    they are symmetric in right and left, so the direction a path is
    walked in does not matter.  The label, and the orbit rows of
    `seaweed check` that the U-turn messages name, are built only for a
    failure.  The per-component checks read the side-normalized values
    alone, so they are made once per (shape, values), in the
    `shape_spectrum` record that every component of that key reads; each
    failing verdict is worded with the component's own roots.
    """
    rs = s.root_system
    classical = rs.lie_type.family in "ABCD"

    def fail(msg: str) -> None:
        report.failures.append(f"{s!r}: {msg}")

    if not is_frobenius(s):
        raise ValueError(f"{s} is not Frobenius; its spectrum is undefined")
    top, bottom = involution(s, Side.TOP), involution(s, Side.BOTTOM)
    x, turns = _pin_walk(s, top, bottom)
    tops, bottoms = components(s)
    comps = tops + bottoms
    normalized = [x.side_normalized(c) for c in comps]
    records = list(map(shape_spectrum, (c.shape for c in comps), normalized))
    sp = spectrum_union(record[0] for record in records)
    if not verify_unbroken(sp):
        fail(f"spectrum {sp.mult} is broken")
    if not verify_symmetric(sp):
        fail(f"spectrum {sp.mult} is not symmetric about one half")
    if sp.total() != seaweed_dimension(s):
        fail(f"spectrum size {sp.total()} != dimension {seaweed_dimension(s)}")
    pad_total = sum(zero_padding(c.shape) for c in comps)
    # a record is shared by every component of its (shape, values), so each
    # failure names the component at hand
    for c, values, record in zip(comps, normalized, records):
        cs, unbroken, symmetric, bounds_ok, runs, e6_listed = record
        if not bounds_ok:
            fail(f"component {c.roots} of shape {c.shape} breaks value bounds")
        if not unbroken:
            fail(f"component {c.roots} spectrum {cs.mult} is broken")
        if not symmetric:
            fail(f"component {c.roots} spectrum {cs.mult} is asymmetric")
        for lo, hi in runs:
            fail(f"self-paired root {_run_root(s.rank, c.order, lo, hi)} "
                 "does not evaluate to one")
        if not e6_listed:
            fail(f"unlisted full-E6 value pattern {values}")
    if pad_total != s.rank:
        fail(f"zero padding totals {pad_total}, expected the rank {s.rank}")
    if any(classical and (right > 1 or left > 1) or right + left > 2
           for right, left in turns):
        for row in u_turn_report(orbits(s)).rows:
            if classical and (row.right > 1 or row.left > 1):
                fail(f"orbit {row.orbit} has {row.right} right / "
                     f"{row.left} left U-turns")
            if row.right + row.left > 2:
                fail(f"orbit {row.orbit} has more than two U-turns")
    # The swapped seaweed's involutions are s's with the sides exchanged;
    # its Frobenius test and solve still run.  Its values must be s's
    # negated: every component then has the same side-normalized values,
    # hence the same spectrum, so the full spectrum is unchanged.
    flipped = Seaweed(rs, s.pi2, s.pi1)
    if not _meets_once(bottom.perm, top.perm,
                       subset_mask(s.pi_union_complement)):
        raise ValueError(f"{flipped} is not Frobenius; its spectrum is "
                         "undefined")
    x_swapped = _pin_walk(flipped, bottom, top)[0]
    if x_swapped.values != tuple(-v for v in x.values):
        fail("spectrum changed under the side swap")
    report.checked += 1


def _run_root(rank: int, path: tuple[int, ...], lo: int, hi: int
              ) -> tuple[int, ...]:
    """The root summing the simple roots at positions lo..hi of path."""
    coeffs = [0] * rank
    for a in path[lo - 1:hi]:
        coeffs[a - 1] = 1
    return tuple(coeffs)


def spectrum_census(cat: Catalog) -> CensusReport:
    """Verify every catalog entry; the expected failure count is zero."""
    report = CensusReport()
    for s in cat.entries:
        verify_entry(s, report)
    return report
