"""Seaweed (biparabolic) subalgebras presented by two simple-root subsets.

A seaweed over a root system is the pair of subsets (pi1, pi2); the algebra
it denotes is the intersection of the standard parabolic built on pi1 with
the opposite parabolic built on pi2.  Subsets can also be given as integer
compositions marking block boundaries, the notation used for the winding
moves.
"""
from __future__ import annotations

from collections import namedtuple

from .rootsys import (LieType, RootSystem, build_root_system,
                      classify_component, connected_components)


class Seaweed(namedtuple("Seaweed", "root_system pi1 pi2")):
    """A root system together with the two defining simple-root subsets,
    given as any collections of indices and kept as frozensets."""

    __slots__ = ()

    def __new__(cls, root_system: RootSystem, pi1, pi2) -> Seaweed:
        pi1, pi2 = frozenset(pi1), frozenset(pi2)  # the identity on frozensets
        allr = frozenset(range(1, root_system.rank + 1))
        if not (pi1 <= allr and pi2 <= allr):
            raise ValueError("subsets must consist of simple-root indices")
        return super().__new__(cls, root_system, pi1, pi2)

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
    return Seaweed(build_root_system(t), pi1, pi2)


class Composition(namedtuple("Composition", "parts ambient_rank")):
    """A sequence of positive integers with bounded sum, marking flag blocks."""

    __slots__ = ()

    def __new__(cls, parts: tuple[int, ...], ambient_rank: int) -> Composition:
        if any(p <= 0 for p in parts):
            raise ValueError("composition parts must be positive")
        if sum(parts) > ambient_rank:
            raise ValueError(
                f"parts sum {sum(parts)} exceeds rank {ambient_rank}")
        return super().__new__(cls, parts, ambient_rank)


def composition_marks(c: Composition) -> frozenset[int]:
    """The simple roots removed by a composition: one mark per partial sum."""
    n = c.ambient_rank
    marks = []
    total = 0
    for p in c.parts:
        total += p
        marks.append(n + 1 - total)
    return frozenset(marks)


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
        shape, order = classify_component(rs, frag)
        rename = {amb: new for new, amb in enumerate(order, start=1)}
        sub = make_seaweed(
            shape,
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
