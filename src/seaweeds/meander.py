"""Orbit meanders: per-side components, involutions, orbits and U-turns.

The meander of a seaweed stacks two copies of the Dynkin diagram, one per
side.  Each side carries an involution acting as the negated longest Weyl
element on every maximally connected component (the chain reversal on
A-chains, a prong swap on odd D-components, the diagram flip on E6, the
identity elsewhere).  One rule per component shape, `_orbit_rows`, gives
both that involution and the constraint row of each of its orbits.  The
cycles of the composed involution v -> i2(i1(v)) are the orbits, and the
seaweed is Frobenius exactly when each meets the complement of pi1 & pi2
once.  `_walk` alternates the sides along one piece, a path or a closed
cycle, for the U-turns and the eigenvalue solve.
"""
from __future__ import annotations

import enum
from functools import lru_cache
from typing import NamedTuple

from .rootsys import (LieType, RootSystem, classify_component,
                      connected_components)
from .seaweed import (Composition, Seaweed, from_compositions, mask_subset,
                      subset_mask)


class Side(enum.Enum):
    TOP = 1
    BOTTOM = -1

    @property
    def sign(self) -> int:
        return self.value


class Component(NamedTuple):
    """A maximally connected component of one side of the split diagram."""

    side: Side
    roots: tuple[int, ...]          # ambient indices, descending
    shape: LieType
    order: tuple[int, ...]          # ambient indices in internal role order


class Involution(NamedTuple):
    """A permutation of the simple-root indices squaring to the identity."""

    perm: tuple[int, ...]           # perm[i] for i >= 1; perm[0] unused

    def __call__(self, i: int) -> int:
        return self.perm[i]


class OrbitMeander(NamedTuple):
    seaweed: Seaweed
    i1: Involution
    i2: Involution
    orbits: tuple[tuple[int, ...], ...]


class OrbitUTurns(NamedTuple):
    orbit: tuple[int, ...]
    right: int
    left: int


class UTurnReport(NamedTuple):
    rows: tuple[OrbitUTurns, ...]


def _side_components(rs: RootSystem, subset, side: Side) -> tuple[Component, ...]:
    """Maximally connected components of one side's subset, leftmost first."""
    cols = rs.columns
    comps = []
    for comp in connected_components(subset, rs.neighbors):
        shape, order = classify_component(rs, comp)
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


def swapped_components(s: Seaweed
                       ) -> tuple[tuple[Component, ...], tuple[Component, ...]]:
    """The components of Seaweed(rs, s.pi2, s.pi1), derived from s's: a
    side's components depend on its subset alone, so the two sides trade
    places and each component takes the other side (and its sign)."""
    tops, bottoms = components(s)
    return (tuple(Component(Side.TOP, c.roots, c.shape, c.order)
                  for c in bottoms),
            tuple(Component(Side.BOTTOM, c.roots, c.shape, c.order)
                  for c in tops))


# Values of the exceptional shapes whose involution fixes every index.
_PINNED = {("E", 7): (-1, 1, 1, -1, 1, -1, 1),
           ("E", 8): (-1, 1, 1, -1, 1, -1, 1, -1),
           ("F", 4): (-1, 1, 0, 0),
           ("G", 2): (1, -1)}


@lru_cache(maxsize=None)
def _orbit_rows(shape: LieType) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The rule of one component shape, as (partner, value) by position j
    in the component's order (internal index j + 1).

    partner[j] is the position the component's involution, the negated
    longest element, sends j to.  value[j] is the side-normalized value of
    the constraint row of j's orbit on a principal element: x_j = value
    where j is fixed, x_j + x_partner = value on a swapped pair.  A chain's
    middle vertex or middle pair sums to one and its other pairs to zero.
    Each orbit is one row and adds one zero to the spectrum.
    """
    family, k = shape
    partner = tuple(range(k))
    alternating = tuple((-1) ** (i + k) for i in range(1, k + 1))
    if family == "A":
        partner = partner[::-1]
        values = tuple(int(abs(2 * j + 1 - k) <= 1) for j in range(k))
    elif family == "B":
        values = (k % 2,) + alternating[1:]
    elif family == "C":
        values = (1,) + (0,) * (k - 1)
    elif family == "D" and k % 2 == 0:
        values = (1, 1) + alternating[2:]
    elif family == "D":
        partner = (1, 0) + partner[2:]
        values = (0, 0) + alternating[2:]
    elif shape == ("E", 6):
        partner = (5, 1, 4, 3, 2, 0)
        values = (0, -1, 0, 1, 0, 0)
    else:
        values = _PINNED[shape]
    return partner, values


def _side_table(n: int, comps) -> tuple[tuple, tuple]:
    """One side's table from its components: the involution's perm (perm[i]
    for i >= 1, identity away from the components, perm[0] = 0 unused) and
    each vertex's orbit-row value with the side sign folded in (None off
    the side's subset)."""
    perm = list(range(n + 1))
    total = [None] * (n + 1)
    for c in comps:
        partner, value = _orbit_rows(c.shape)
        sgn, order = c.side.sign, c.order
        for a, j, v in zip(order, partner, value):
            perm[a] = order[j]
            total[a] = sgn * v
    return tuple(perm), tuple(total)


def side_permutation(rs: RootSystem, subset) -> tuple[int, ...]:
    """The side involution of a subset on either side, as Involution.perm;
    it depends on the subset alone, and a catalog scan computes it once per
    connected piece (see side_permutations)."""
    return _side_table(rs.rank, _side_components(rs, subset, Side.TOP))[0]


def side_permutations(rs: RootSystem) -> list[tuple[int, ...]]:
    """side_permutation of every subset, indexed by its subset_mask.

    A subset's involution is the union of its connected pieces' ones.  So
    mask m grows the piece holding its lowest bit inside m, takes the
    table of m ^ piece, the identity on the piece, and writes in the
    piece's entries, which side_permutation gives on the piece's first
    appearance.
    """
    n = rs.rank
    # near[v]: the mask of v's neighbours, v being bit v - 1
    near = [0] + [subset_mask(rs.neighbors(v)) for v in range(1, n + 1)]
    perms = [tuple(range(n + 1))]
    pieces: dict[int, list[tuple[int, int]]] = {}
    for m in range(1, 1 << n):
        piece = frontier = m & -m
        while frontier:
            bit = frontier & -frontier
            grown = near[bit.bit_length()] & m & ~piece
            piece |= grown
            frontier = (frontier ^ bit) | grown
        entries = pieces.get(piece)
        if entries is None:
            verts = mask_subset(piece)
            own = side_permutation(rs, verts)
            entries = pieces[piece] = [(v, own[v]) for v in verts]
        perm = list(perms[m ^ piece])
        for v, w in entries:
            perm[v] = w
        perms.append(tuple(perm))
    return perms


@lru_cache(maxsize=65536)
def involution(s: Seaweed, side: Side) -> Involution:
    """The side involution: componentwise negated longest element, identity
    away from the side's subset."""
    return Involution(_side_table(s.rank,
                                  components(s)[side is Side.BOTTOM])[0])


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
    return OrbitMeander(s, i1, i2, tuple(cycles))


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


def _walk(perms, v: int, side: int):
    """Yield the steps (v, w = perms[side][v], side) of v's piece of the
    meander, the side alternating (0 top, 1 bottom) from the one given, up
    to a path end's fixed step (w == v) or back at the starting (v, side)."""
    start = v, side
    while True:
        w = perms[side][v]
        yield v, w, side
        if w == v:
            return
        v, side = w, 1 - side
        if (v, side) == start:
            return


def u_turn_report(m: OrbitMeander) -> UTurnReport:
    """Count right/left U-turns per orbit.

    A U-turn is a step along a dashed edge joining diagram-adjacent
    vertices (the middle pair of an even chain); one moving right in the
    drawing is a right U-turn on the bottom row, a left one on the top.
    An orbit's piece is walked from its least path end in pi1 & pi2, else
    its least path end, else (a closed cycle) its least vertex.  A closed
    cycle, which only a seaweed that is not Frobenius has, holds two
    orbits; each walks the whole cycle from its least vertex, top side
    first, so both rows count every U-turn of the cycle, in opposite
    directions (one's right U-turns are the other's left ones).  A
    one-vertex orbit reports none, even on a closed cycle of two steps.
    """
    s = m.seaweed
    cols = s.root_system.columns
    neighbors = s.root_system.neighbors
    inter = s.pi1 & s.pi2
    perms = (m.i1.perm, m.i2.perm)
    rows = []
    for cyc in m.orbits:
        turns = [0, 0]                  # [left, right]
        if len(cyc) > 1:
            ends = [v for v in cyc if perms[0][v] == v or perms[1][v] == v]
            start = min([v for v in ends if v in inter] or ends or cyc)
            first = int(perms[0][start] == start)
            for v, w, side in _walk(perms, start, first):
                if w in neighbors(v):
                    turns[(cols[w] > cols[v]) == (side == 1)] += 1
        rows.append(OrbitUTurns(cyc, turns[1], turns[0]))
    return UTurnReport(tuple(rows))


class Move(enum.Enum):
    BLOCK_CREATION = "block-creation"
    ROTATION_EXPANSION = "rotation-expansion"
    PURE_EXPANSION = "pure-expansion"
    FLIP_UP = "flip-up"


class CompositionPair(NamedTuple):
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
