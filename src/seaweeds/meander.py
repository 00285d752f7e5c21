"""Orbit meanders: per-side components, involutions, orbits and U-turns.

The meander of a seaweed stacks two copies of the Dynkin diagram, one per
side.  Each side carries an involution acting as the negated longest Weyl
element on every maximally connected component (the chain reversal on
A-chains, a prong swap on odd D-components, the diagram flip on E6, the
identity elsewhere).  The seaweed is Frobenius exactly when every cycle of
the composed involutions meets the complement of pi1 & pi2 once.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache

from .rootsys import (DiagramShape, LieType, RootSystem, _classify,
                      connected_components)
from .seaweed import Composition, Seaweed, from_compositions, subset_mask


class Side(enum.Enum):
    TOP = 1
    BOTTOM = -1

    @property
    def sign(self) -> int:
        return self.value


@dataclass(frozen=True)
class Component:
    """A maximally connected component of one side of the split diagram."""

    side: Side
    roots: tuple[int, ...]          # ambient indices, descending
    shape: DiagramShape
    order: tuple[int, ...]          # ambient indices in internal role order


@dataclass(frozen=True)
class Involution:
    """A permutation of the simple-root indices squaring to the identity."""

    perm: tuple[int, ...]           # perm[i] for i >= 1; perm[0] unused

    def __call__(self, i: int) -> int:
        return self.perm[i]

    def fixed(self, i: int) -> bool:
        return self.perm[i] == i


@dataclass(frozen=True)
class OrbitMeander:
    seaweed: Seaweed
    top_components: tuple[Component, ...]
    bottom_components: tuple[Component, ...]
    i1: Involution
    i2: Involution
    orbits: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class OrbitUTurns:
    orbit: tuple[int, ...]
    right: int
    left: int
    anchored: bool                  # traversal started at a fixed point in pi1 & pi2


@dataclass(frozen=True)
class UTurnReport:
    rows: tuple[OrbitUTurns, ...]


def _side_components(rs: RootSystem, subset, side: Side) -> tuple[Component, ...]:
    """Maximally connected components of one side's subset, leftmost first."""
    cols = rs.columns()
    comps = []
    for comp in connected_components(subset, rs.neighbors):
        shape, order = _classify(rs, comp)
        comps.append(Component(side, tuple(sorted(comp, reverse=True)),
                               shape, order))
    comps.sort(key=lambda c: (min(cols[v] for v in c.roots), c.roots))
    return tuple(comps)


@lru_cache(maxsize=65536)
def components(s: Seaweed) -> tuple[tuple[Component, ...], tuple[Component, ...]]:
    """Maximally connected components of each side, leftmost first."""
    rs = s.root_system
    return (_side_components(rs, s.pi1, Side.TOP),
            _side_components(rs, s.pi2, Side.BOTTOM))


def _component_involution(c: Component) -> dict[int, int]:
    kind, k = c.shape.kind, c.shape.rank
    if kind == "A":
        path = c.order
        return {v: path[len(path) - 1 - i] for i, v in enumerate(path)}
    if kind == "D" and k % 2 == 1:
        p1, p2 = c.order[0], c.order[1]
        out = {v: v for v in c.roots}
        out[p1], out[p2] = p2, p1
        return out
    if kind == "E" and k == 6:
        o = c.order
        out = {v: v for v in c.roots}
        out[o[0]], out[o[5]] = o[5], o[0]
        out[o[2]], out[o[4]] = o[4], o[2]
        return out
    return {v: v for v in c.roots}


def _permutation(n: int, comps) -> tuple[int, ...]:
    """The involution of one side from its components: perm[i] for i >= 1,
    identity away from the components; perm[0] = 0 is unused."""
    perm = list(range(n + 1))
    for c in comps:
        for a, b in _component_involution(c).items():
            perm[a] = b
    return tuple(perm)


def side_permutation(rs: RootSystem, subset) -> tuple[int, ...]:
    """The side involution of a subset on either side, as Involution.perm;
    it depends on the subset alone, so a catalog scan keeps one per subset."""
    return _permutation(rs.rank, _side_components(rs, subset, Side.TOP))


@lru_cache(maxsize=65536)
def involution(s: Seaweed, side: Side) -> Involution:
    """The side involution: componentwise negated longest element, identity
    away from the side's subset."""
    tops, bottoms = components(s)
    return Involution(_permutation(s.rank,
                                   tops if side is Side.TOP else bottoms))


@lru_cache(maxsize=65536)
def orbits(s: Seaweed) -> OrbitMeander:
    """Cycles of the composed involutions, each listed from its smallest index."""
    i1 = involution(s, Side.TOP)
    i2 = involution(s, Side.BOTTOM)
    n = s.rank
    seen = [False] * (n + 1)
    cycles = []
    for start in range(1, n + 1):
        if seen[start]:
            continue
        cyc = []
        v = start
        while not seen[v]:
            seen[v] = True
            cyc.append(v)
            v = i2(i1(v))
        cycles.append(tuple(cyc))
    tops, bottoms = components(s)
    return OrbitMeander(s, tops, bottoms, i1, i2, tuple(cycles))


def _meets_once(p1: tuple[int, ...], p2: tuple[int, ...], target: int) -> bool:
    """Whether every cycle of v -> p2[p1[v]] holds exactly one vertex of
    target, a subset_mask.  Each cycle is walked from a target vertex and
    the walk stops at the first other one; a cycle holding none shows as a
    vertex left unseen at the end."""
    target <<= 1                    # bit v stands for vertex v from here on
    seen = 0
    rest = target
    while rest:
        bit = rest & -rest
        rest ^= bit
        seen |= bit
        start = bit.bit_length() - 1
        v = p2[p1[start]]
        while v != start:
            bit = 1 << v
            if target & bit:
                return False
            seen |= bit
            v = p2[p1[v]]
    return seen == (1 << len(p1)) - 2


def is_frobenius(s: Seaweed) -> bool:
    """Whether every orbit meets the complement of pi1 & pi2 exactly once.

    Requires pi1 | pi2 to be the whole simple-root set; otherwise decompose
    with decompose_direct_sum first (a direct sum is Frobenius iff every
    summand is).
    """
    if not s.has_full_union():
        raise ValueError(
            "pi1 | pi2 is not the full simple-root set; "
            "apply decompose_direct_sum and test each summand")
    return _meets_once(involution(s, Side.TOP).perm,
                       involution(s, Side.BOTTOM).perm,
                       subset_mask(s.pi_union_complement))


def _adjacent(s: Seaweed, a: int, b: int) -> bool:
    return b in s.root_system.neighbors(a)


def u_turn_report(m: OrbitMeander) -> UTurnReport:
    """Count right/left U-turns per orbit.

    A U-turn is an orbit step along a dashed edge joining diagram-adjacent
    vertices (the middle pair of an even chain).  Orbits are traversed from
    a fixed point lying in pi1 & pi2 when one exists; a step that moves
    right in the drawing is a right U-turn on the bottom row and a left
    U-turn on the top row.
    """
    s = m.seaweed
    cols = s.root_system.columns()
    inter = s.pi1 & s.pi2
    invs = {Side.TOP: m.i1, Side.BOTTOM: m.i2}
    rows = []
    for cyc in m.orbits:
        if len(cyc) == 1:
            rows.append(OrbitUTurns(cyc, 0, 0, False))
            continue
        path_ends = [v for v in cyc if m.i1.fixed(v) or m.i2.fixed(v)]
        anchors = [v for v in path_ends if v in inter]
        anchored = bool(anchors)
        if anchored:
            start = min(anchors)
        elif path_ends:
            start = min(path_ends)
        else:
            start = min(cyc)  # a closed loop; only occurs off the Frobenius case
        first = Side.BOTTOM if invs[Side.TOP].fixed(start) else Side.TOP
        right = left = 0
        side = first
        v = start
        for _ in range(2 * len(cyc) + 2):
            w = invs[side](v)
            if w == v:
                break
            if _adjacent(s, v, w):
                if (cols[w] > cols[v]) == (side is Side.BOTTOM):
                    right += 1
                else:
                    left += 1
            v = w
            side = Side.BOTTOM if side is Side.TOP else Side.TOP
            if v == start and side is first:
                break
        rows.append(OrbitUTurns(cyc, right, left, anchored))
    return UTurnReport(tuple(rows))


class Move(enum.Enum):
    BLOCK_CREATION = "block-creation"
    ROTATION_EXPANSION = "rotation-expansion"
    PURE_EXPANSION = "pure-expansion"
    FLIP_UP = "flip-up"


@dataclass(frozen=True)
class CompositionPair:
    """A meander presented by two compositions over a common rank."""

    family: str
    n: int
    a: tuple[int, ...]
    b: tuple[int, ...]

    def seaweed(self) -> Seaweed:
        t = LieType(self.family, self.n)
        return from_compositions(t, Composition(self.a, self.n),
                                 Composition(self.b, self.n))


def winding_move(pair: CompositionPair, move: Move) -> CompositionPair:
    """Apply one winding-up rewrite to a composition pair."""
    a, b, n = pair.a, pair.b, pair.n
    if move is Move.FLIP_UP:
        return CompositionPair(pair.family, n, b, a)
    if not a:
        raise ValueError(f"{move.value} requires a nonempty first composition")
    if move is Move.BLOCK_CREATION:
        a1 = a[0]
        return CompositionPair(pair.family, n + a1,
                               (2 * a1,) + a[1:], (a1,) + b)
    if move is Move.ROTATION_EXPANSION:
        if not b:
            raise ValueError("rotation expansion requires a nonempty second "
                             "composition")
        a1, b1 = a[0], b[0]
        if not a1 > b1:
            raise ValueError("rotation expansion requires a1 > b1")
        return CompositionPair(pair.family, n + a1 - b1,
                               (2 * a1 - b1,) + a[1:], (a1,) + b[1:])
    if move is Move.PURE_EXPANSION:
        if len(a) < 2:
            raise ValueError("pure expansion requires at least two parts")
        a1, a2 = a[0], a[1]
        return CompositionPair(pair.family, n + a2,
                               (a1 + 2 * a2,) + a[2:], (a2,) + b)
    raise ValueError(f"unknown move {move}")


def winding_bases(family: str, q: int) -> list[CompositionPair]:
    """The induction bases: a rank-1 flag for type A, the full parabolic
    chain for B/C, and the three distinguished type-D flags."""
    if family == "A":
        return [CompositionPair("A", 1, (1,), ())] if q == 1 else []
    if family in ("B", "C"):
        return [CompositionPair(family, q, (1,) * q, ())] if q >= 2 else []
    if family == "D":
        out = []
        if q >= 4 and q % 2 == 0:
            out.append(CompositionPair("D", q, (1,) * q, ()))
        if q >= 3 and q % 2 == 1:
            out.append(CompositionPair("D", q, (1,) * (q - 2) + (2,), ()))
            out.append(CompositionPair("D", q, (1,) * (q - 3) + (3,), ()))
        return out
    return []


def generate_frobenius(base: CompositionPair, moves) -> Seaweed:
    """Apply a move sequence to a declared base; the result must be Frobenius."""
    if base not in winding_bases(base.family, base.n):
        raise ValueError(f"{base} is not a declared winding base")
    pair = base
    for mv in moves:
        pair = winding_move(pair, mv)
    s = pair.seaweed()
    if not is_frobenius(s):
        raise AssertionError(f"winding moves produced a non-Frobenius seaweed {s}")
    return s
