"""Seaweed (biparabolic) subalgebras presented by two simple-root subsets.

A seaweed over a root system is the pair of subsets (pi1, pi2); the algebra
it denotes is the intersection of the standard parabolic built on pi1 with
the opposite parabolic built on pi2.  Subsets can also be given as integer
compositions marking block boundaries, the notation used for the winding
moves.
"""
from __future__ import annotations

from dataclasses import dataclass

from .rootsys import (LieType, RootSystem, _classify, build_root_system,
                      connected_components)


@dataclass(frozen=True)
class Seaweed:
    """A root system together with the two defining simple-root subsets."""

    root_system: RootSystem
    pi1: frozenset[int]
    pi2: frozenset[int]

    def __post_init__(self) -> None:
        allr = frozenset(range(1, self.root_system.rank + 1))
        if not (self.pi1 <= allr and self.pi2 <= allr):
            raise ValueError("subsets must consist of simple-root indices")

    @property
    def rank(self) -> int:
        return self.root_system.rank

    @property
    def simple_roots(self) -> frozenset[int]:
        return frozenset(range(1, self.rank + 1))

    @property
    def pi_union_complement(self) -> frozenset[int]:
        """The roots lying outside the intersection of the two subsets."""
        return self.simple_roots - (self.pi1 & self.pi2)

    def has_full_union(self) -> bool:
        return self.pi1 | self.pi2 == self.simple_roots

    def __repr__(self) -> str:
        top = ",".join(str(i) for i in sorted(self.pi1, reverse=True)) or "-"
        bot = ",".join(str(i) for i in sorted(self.pi2, reverse=True)) or "-"
        return f"p^{self.root_system.lie_type}({top}|{bot})"


def make_seaweed(t: LieType, pi1, pi2) -> Seaweed:
    """Build a seaweed from a Lie type and two index collections."""
    return Seaweed(build_root_system(t), frozenset(pi1), frozenset(pi2))


@dataclass(frozen=True)
class Composition:
    """A sequence of positive integers with bounded sum, marking flag blocks."""

    parts: tuple[int, ...]
    ambient_rank: int

    def __post_init__(self) -> None:
        if any(p <= 0 for p in self.parts):
            raise ValueError("composition parts must be positive")
        if sum(self.parts) > self.ambient_rank:
            raise ValueError(
                f"parts sum {sum(self.parts)} exceeds rank {self.ambient_rank}")


def composition_marks(c: Composition) -> frozenset[int]:
    """The simple roots removed by a composition: one mark per partial sum."""
    n = c.ambient_rank
    marks = []
    total = 0
    for p in c.parts:
        total += p
        marks.append(n + 1 - total)
    return frozenset(marks)


def marks_to_composition(marks, n: int) -> Composition:
    """Inverse of composition_marks."""
    sums = sorted(n + 1 - i for i in marks)
    if any(s < 1 or s > n for s in sums):
        raise ValueError("marks out of range")
    parts = []
    prev = 0
    for s in sums:
        parts.append(s - prev)
        prev = s
    return Composition(tuple(parts), n)


def from_compositions(t: LieType, a: Composition, b: Composition) -> Seaweed:
    """Seaweed whose sides are the complements of the two mark sets."""
    if a.ambient_rank != t.rank or b.ambient_rank != t.rank:
        raise ValueError("composition rank does not match the Lie type")
    rs = build_root_system(t)
    allr = frozenset(range(1, t.rank + 1))
    return Seaweed(rs, allr - composition_marks(a), allr - composition_marks(b))


def decompose_direct_sum(s: Seaweed) -> list[Seaweed]:
    """Split a seaweed at the simple roots missing from both sides.

    Each connected component of the diagram induced on pi1 | pi2 becomes a
    standalone seaweed over the root system of its induced shape, with the
    sides restricted and the vertices renamed 1..k along the component's
    internal order.
    """
    if s.has_full_union():
        return [s]
    rs = s.root_system
    fragments = connected_components(s.pi1 | s.pi2, rs.neighbors)
    fragments.sort(key=max, reverse=True)
    out = []
    for frag in fragments:
        shape, order = _classify(rs, frag)
        rename = {amb: new for new, amb in enumerate(order, start=1)}
        sub = make_seaweed(
            LieType(shape.kind, shape.rank),
            {rename[i] for i in s.pi1 & frag},
            {rename[i] for i in s.pi2 & frag},
        )
        out.append(sub)
    return out


def subset_mask(subset) -> int:
    mask = 0
    for i in subset:
        mask |= 1 << (i - 1)
    return mask


def mask_subset(mask: int) -> frozenset[int]:
    """Inverse of subset_mask."""
    return frozenset(i + 1 for i in range(mask.bit_length()) if mask >> i & 1)


def canonical_form(s: Seaweed) -> Seaweed:
    """Normalize the unordered pair {pi1, pi2}: swap is the only identification.

    The representative is whichever of (pi1, pi2), (pi2, pi1) is smaller in
    the bitmask order; diagram automorphisms are deliberately not quotiented.
    """
    m1, m2 = subset_mask(s.pi1), subset_mask(s.pi2)
    if (m2, m1) < (m1, m2):
        return Seaweed(s.root_system, s.pi2, s.pi1)
    return s


def parse_subset(text: str, n: int) -> frozenset[int]:
    """Parse a comma list of simple-root indices like '6,5,4,3'."""
    text = text.strip()
    if text in ("", "-"):
        return frozenset()
    try:
        idx = [int(tok) for tok in text.split(",")]
    except ValueError as exc:
        raise ValueError(f"bad subset syntax {text!r}") from exc
    if any(i < 1 or i > n for i in idx):
        raise ValueError(f"subset index out of range 1..{n}: {text!r}")
    return frozenset(idx)


def parse_composition(text: str, n: int) -> Composition:
    """Parse a comma list of positive parts like '1,1,5,1'."""
    text = text.strip()
    if text in ("", "-"):
        return Composition((), n)
    try:
        parts = tuple(int(tok) for tok in text.split(","))
    except ValueError as exc:
        raise ValueError(f"bad composition syntax {text!r}") from exc
    return Composition(parts, n)
