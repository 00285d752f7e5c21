"""Exhaustive catalogs of Frobenius seaweeds, with verification sweeps.

For a rank-n type there are 3^n subset pairs covering the whole diagram
(each vertex is top-only, bottom-only, or shared).  The scan walks them as
bitmask pairs against a table of the 2^n side involutions, built from one
involution per connected piece of the diagram, keeps the Frobenius ones,
normalizes each pair under the swap (and, on the self-dual diagrams
F4/G2/B2/C2, under the arrow-reversing relabeling), and sorts by bitmask
for reproducible output.
"""
from __future__ import annotations

from typing import NamedTuple

from .rootsys import LieType, RootSystem, build_root_system
from .seaweed import Seaweed, mask_subset, subset_mask
from .meander import (_meets_once, components, orbits, side_permutations,
                      swapped_components, u_turn_report)
from .spectrum import (_solve_eigenvalues, component_spectra,
                       eigenvalue_bounds_ok, seaweed_dimension,
                       simple_eigenvalues, verify_symmetric, verify_unbroken,
                       zero_padding)

ENUM_RANK_GUARD = 16


class Catalog(NamedTuple):
    lie_type: LieType
    entries: tuple[Seaweed, ...]

    @property
    def count(self) -> int:
        return len(self.entries)

    def to_json_dict(self) -> dict:
        return {
            "type": str(self.lie_type),
            "count": self.count,
            "entries": [
                {"pi1": sorted(s.pi1, reverse=True),
                 "pi2": sorted(s.pi2, reverse=True)}
                for s in self.entries
            ],
        }


def _mask_pairs(n: int):
    """Yield every (m1, m2) pair of n-bit subset masks with m1 | m2 full,
    3^n in all: for each m1, m2 is the complement of m1 joined with each
    subset of m1 in turn."""
    full = (1 << n) - 1
    for m1 in range(full + 1):
        rest = full ^ m1
        sub = m1
        while True:
            yield m1, rest | sub
            if not sub:
                break
            sub = (sub - 1) & m1


def _frobenius_pairs(rs: RootSystem) -> list[tuple[int, int]]:
    """The (m1, m2) masks of every Frobenius pair with full union, before
    any normalization.  A side's involution depends on its subset alone, so
    the table of all 2^n is built first, from the diagram's connected
    pieces."""
    n = rs.rank
    full = (1 << n) - 1
    perms = side_permutations(rs)
    return [(m1, m2) for m1, m2 in _mask_pairs(n)
            if _meets_once(perms[m1], perms[m2], full ^ (m1 & m2))]


def enumerate_frobenius(t: LieType) -> Catalog:
    """All Frobenius seaweeds of one type, deduplicated under the swap
    (plus the arrow-reversing relabeling for the self-dual diagrams).

    Each pair is keyed by the least (m1, m2) of its orbit.  On F4, G2 and
    the rank-2 B/C system the undirected diagram has the relabeling
    i -> n+1-i, which reverses the arrow; pairs related by it present the
    same subalgebra up to the identifications the reference catalogs use,
    so the orbit includes the n-bit reversals of both masks.  The E-types'
    diagram automorphisms are kept as distinct entries.
    """
    n = t.rank
    if n > ENUM_RANK_GUARD:
        raise ValueError(f"rank {n} exceeds the exhaustive-scan guard "
                         f"({ENUM_RANK_GUARD})")
    rs = build_root_system(t)
    reverse = t.family in "FG" or (t.family in "BC" and n == 2)
    keys = set()
    for m1, m2 in _frobenius_pairs(rs):
        key = min((m1, m2), (m2, m1))
        if reverse:
            r1, r2 = (int(f"{m:0{n}b}"[::-1], 2) for m in (m1, m2))
            key = min(key, (r1, r2), (r2, r1))
        keys.add(key)
    return Catalog(t, tuple(Seaweed(rs, mask_subset(m1), mask_subset(m2))
                            for m1, m2 in sorted(keys)))


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

# The nine value patterns a full E6 component can realize, side-normalized
# and listed by simple-root index.
E6_COMPONENT_CONFIGURATIONS = (
    (-2, -1, -2, 1, 2, 2),
    (-2, -1, 1, 1, -1, 2),
    (-1, -1, 2, 1, -2, 1),
    (1, -1, -2, 1, 2, -1),
    (1, -1, -1, 1, 1, -1),
    (2, -1, -1, 1, 1, -2),
    (-1, -1, -1, 1, 1, 1),
    (-1, -1, 1, 1, -1, 1),
    (1, -1, 1, 1, -1, -1),
)


class CatalogDiff(NamedTuple):
    missing: tuple[tuple[frozenset[int], frozenset[int]], ...]
    extra: tuple[tuple[frozenset[int], frozenset[int]], ...]

    @property
    def empty(self) -> bool:
        return not self.missing and not self.extra


def check_appendix_a(cat: Catalog) -> CatalogDiff:
    """Diff a catalog against the embedded 74-row E6 reference list."""
    def norm(a: frozenset[int], b: frozenset[int]):
        return (min((tuple(sorted(a)), tuple(sorted(b))),
                    (tuple(sorted(b)), tuple(sorted(a)))))

    reference = {norm(a, b): (a, b) for a, b in APPENDIX_A_E6}
    got = {norm(s.pi1, s.pi2): (s.pi1, s.pi2) for s in cat.entries}
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
    evaluates to one; that is what `_check_centered_runs` checks.

    The per-value range table and the right/left U-turn dichotomy are
    statements about the classical drawings, so inside the exceptional
    algebras they relax to the pinned exceptional ranges and a total of at
    most two U-turns per orbit (chains there can reach value 3 in both
    signs, and a two-turn orbit need not split by direction).
    """
    rs = s.root_system
    classical = rs.lie_type.family in "ABCD"
    label = repr(s)

    def fail(msg: str) -> None:
        report.failures.append(f"{label}: {msg}")

    x = simple_eigenvalues(s)
    spectra, sp = component_spectra(components(s), x)
    if not verify_unbroken(sp):
        fail(f"spectrum {sp.mult} is broken")
    if not verify_symmetric(sp):
        fail(f"spectrum {sp.mult} is not symmetric about one half")
    if sp.total() != seaweed_dimension(s):
        fail(f"spectrum size {sp.total()} != dimension {seaweed_dimension(s)}")
    pad_total = 0
    for comp_spectrum in spectra:
        c, cs = comp_spectrum.component, comp_spectrum.values
        values = x.side_normalized(c)
        pad_total += zero_padding(c.shape)
        if not eigenvalue_bounds_ok(c.shape, values):
            fail(f"component {c.roots} of shape {c.shape} breaks value bounds")
        if not verify_unbroken(cs):
            fail(f"component {c.roots} spectrum {cs.mult} is broken")
        if not verify_symmetric(cs):
            fail(f"component {c.roots} spectrum {cs.mult} is asymmetric")
        if c.shape.family == "A":
            _check_centered_runs(s.rank, c.order, values, fail)
        if c.shape == ("E", 6):
            flip = (values[5], values[1], values[4], values[3],
                    values[2], values[0])
            if values not in E6_COMPONENT_CONFIGURATIONS \
                    and flip not in E6_COMPONENT_CONFIGURATIONS:
                fail(f"unlisted full-E6 value pattern {values}")
    if pad_total != s.rank:
        fail(f"zero padding totals {pad_total}, expected the rank {s.rank}")
    meander = orbits(s)
    for row in u_turn_report(meander).rows:
        if classical and (row.right > 1 or row.left > 1):
            fail(f"orbit {row.orbit} has {row.right} right / {row.left} left "
                 "U-turns")
        if row.right + row.left > 2:
            fail(f"orbit {row.orbit} has more than two U-turns")
    # The swapped seaweed's involutions and components are s's with the
    # sides exchanged; its Frobenius test and solve still run.  Its values
    # must be s's negated: every component then has the same side-normalized
    # values, hence the same spectrum, so the full spectrum is unchanged.
    flipped = Seaweed(rs, s.pi2, s.pi1)
    if not _meets_once(meander.i2.perm, meander.i1.perm,
                       subset_mask(s.pi_union_complement)):
        raise ValueError(f"{flipped} is not Frobenius; its spectrum is "
                         "undefined")
    x_swapped = _solve_eigenvalues(flipped, swapped_components(s))
    if x_swapped.values != tuple(-v for v in x.values):
        fail("spectrum changed under the side swap")
    report.checked += 1


def _check_centered_runs(rank: int, path: tuple[int, ...],
                         values: tuple[int, ...], fail) -> None:
    """Fail each centered run i..k+1-i of a chain whose side-normalized
    values do not sum to one (`verify_entry` says why that is the mirror
    pairing).  One running total, walked in from both ends, gives the runs
    in O(k); root tuples are built only for a failure message.
    """
    total = sum(values)
    lo, hi = 0, len(values) - 1
    while lo <= hi:
        if total != 1:
            fail(f"self-paired root {_run_root(rank, path, lo + 1, hi + 1)} "
                 "does not evaluate to one")
        total -= values[lo] + values[hi]
        lo += 1
        hi -= 1


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
