"""Root-system data for the simple Lie types A, B, C, D, E6, E7, E8, F4, G2.

Indexing convention: for the classical types B, C and D the distinguished
root is alpha_1 (short for B, long for C, a fork prong for D) and the chain
reads alpha_n, ..., alpha_1 from left to right; the exceptional types carry
the standard Bourbaki numbering.  A RootSystem is its Dynkin diagram: the
adjacency plus its one multiple edge, the arrow, from which every Cartan
entry follows; its drawing columns and its positive roots, coefficient
tuples over the simple roots, are built on first access.  For A-D the
roots come in closed form from the epsilon description, each 2*eps_j read
off running sums of simple roots (twice_epsilon_values); closure over root
strings, driven by the diagram alone, is used for E, F and G only.  A
LieType names a whole system and equally the type of a connected
subdiagram: classify_component reads that type, and the order of its
vertices as a standalone system, off the arrow and one scan of the piece.
"""
from __future__ import annotations

from collections import namedtuple
from functools import cached_property, lru_cache
from itertools import accumulate
from typing import Iterator, Sequence

VALID_RANKS = {"A": (1, 512), "B": (2, 512), "C": (2, 512), "D": (3, 512),
               "E": (6, 8), "F": (4, 4), "G": (2, 2)}

PositiveRoot = tuple[int, ...]

# The E8 chain alpha_1, alpha_3, ..., alpha_8; E6 and E7 take its prefixes,
# and alpha_2 hangs off alpha_4.
_E_CHAIN = (1, 3, 4, 5, 6, 7, 8)


class LieType(namedtuple("LieType", "family rank")):
    """A simple Lie type: family letter plus rank."""

    __slots__ = ()

    def __new__(cls, family: str, rank: int) -> LieType:
        if family not in VALID_RANKS:
            raise ValueError(f"unknown family {family!r}")
        lo, hi = VALID_RANKS[family]
        if not lo <= rank <= hi:
            raise ValueError(f"invalid rank {rank} for family {family}")
        return super().__new__(cls, family, rank)

    def __str__(self) -> str:
        return f"{self.family}{self.rank}"

    @staticmethod
    def parse(text: str) -> "LieType":
        """Parse strings like 'A5', 'E6', 'g2'."""
        text = text.strip().upper()
        if len(text) < 2 or text[0] not in VALID_RANKS or not text[1:].isdigit():
            raise ValueError(f"cannot parse Lie type {text!r}")
        return LieType(text[0], int(text[1:]))


def _links(t: LieType) -> tuple[list[tuple[int, int]],
                                tuple[int, int, int] | None]:
    """The diagram edges (i, j) of t, and its one multiple edge as
    (long, short, multiplicity), or None when t is simply laced."""
    fam, r = t.family, t.rank
    if fam in "ABC":
        # alpha_1 is short in B and long in C
        arrow = {"A": None, "B": (2, 1, 2), "C": (1, 2, 2)}[fam]
        return [(i, i + 1) for i in range(1, r)], arrow
    if fam == "D":
        return [(i, i + 1) for i in range(3, r)] + [(1, 3), (2, 3)], None
    if fam == "E":
        chain = _E_CHAIN[: r - 1]
        return list(zip(chain, chain[1:])) + [(2, 4)], None
    if fam == "F":
        return [(1, 2), (2, 3), (3, 4)], (2, 3, 2)  # alpha_2 long, alpha_3 short
    return [(1, 2)], (2, 1, 3)  # G2, alpha_1 short


def _frozen(self, name: str, value=None):
    raise AttributeError(f"cannot assign to field {name!r}")


class RootSystem:
    """The Dynkin diagram of one simple type: its adjacency and its one
    multiple edge, the arrow (long, short, multiplicity) or None.  So the
    Cartan entry a_long,short is -multiplicity, every other entry on an
    edge is -1 and every entry off the diagram is 0.  The drawing columns
    and the positive roots are built on first access and kept.  Fields are
    read-only; equality is identity."""

    __setattr__ = __delattr__ = _frozen

    def __init__(self, lie_type: LieType,
                 adjacency: tuple[tuple[int, ...], ...],
                 arrow: tuple[int, int, int] | None) -> None:
        # adjacency lists the neighbours of alpha_i at i - 1
        vars(self).update(lie_type=lie_type, adjacency=adjacency, arrow=arrow)

    @property
    def rank(self) -> int:
        return self.lie_type.rank

    def neighbors(self, i: int) -> tuple[int, ...]:
        return self.adjacency[i - 1]

    def edge_multiplicity(self, i: int, j: int) -> int:
        """The number of lines joining the adjacent vertices i and j."""
        arrow = self.arrow
        return arrow[2] if arrow and {i, j} == {arrow[0], arrow[1]} else 1

    @cached_property
    def columns(self) -> dict[int, int]:
        """Horizontal drawing positions (doubled to stay integral), matching
        the left-to-right layout alpha_n ... alpha_1 for classical types."""
        fam, n = self.lie_type
        if fam in "ABC":
            return {i: 2 * (n - i) for i in range(1, n + 1)}
        if fam == "D":
            col = {i: 2 * (n - i) for i in range(2, n + 1)}
            col[1] = 2 * (n - 2)  # drawn in the same column as alpha_2
            return col
        if fam == "E":
            chain = _E_CHAIN[: n - 1]
            col = {a: 2 * k for k, a in enumerate(reversed(chain))}
            col[2] = col[4] + 1  # branch vertex sits between alpha_4 and alpha_3
            return col
        if fam == "F":
            return {i: 2 * (i - 1) for i in range(1, 5)}
        return {2: 0, 1: 2}  # G2

    @cached_property
    def positive_roots(self) -> tuple[PositiveRoot, ...]:
        """All positive roots, ordered by height, then lexicographically."""
        t = self.lie_type
        if t.family in "ABCD":
            roots = _classical_roots(t.family, t.rank)
        else:
            roots = _closure_roots(self)
        return tuple(sorted(roots, key=lambda b: (sum(b), b)))


@lru_cache(maxsize=None)
def build_root_system(t: LieType) -> RootSystem:
    """The diagram of t, in O(rank); positive roots come on demand, in
    closed form for A-D and by root-string closure for E, F and G."""
    edges, arrow = _links(t)
    adjacency: list[list[int]] = [[] for _ in range(t.rank)]
    for i, j in edges:
        adjacency[i - 1].append(j)
        adjacency[j - 1].append(i)
    return RootSystem(t, tuple(tuple(sorted(a)) for a in adjacency), arrow)


def _closure_roots(rs: RootSystem) -> list[PositiveRoot]:
    """Positive roots from the diagram by closure over root strings.

    Roots are generated level by level: a candidate beta + alpha_i at height
    h+1 is a root exactly when q - <beta, alpha_i^v> > 0, with q the number
    of steps the alpha_i-string descends from beta.  The pairing is
    2 beta_i less beta_j for each neighbour j, times the multiplicity when
    j is the arrow's long end and i its short end.
    """
    n = rs.rank
    long_short, mult = (rs.arrow[:2], rs.arrow[2]) if rs.arrow else (None, 1)
    simple = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    known: set[PositiveRoot] = set(simple)
    level = list(simple)
    all_roots = list(simple)
    while level:
        nxt = []
        for beta in level:
            for i in range(1, n + 1):
                q = 0
                down = list(beta)
                while True:
                    down[i - 1] -= 1
                    if down[i - 1] < 0 or tuple(down) not in known:
                        break
                    q += 1
                pairing = 2 * beta[i - 1] - sum(
                    beta[j - 1] * (mult if (j, i) == long_short else 1)
                    for j in rs.neighbors(i))
                if q - pairing > 0:
                    up = list(beta)
                    up[i - 1] += 1
                    cand = tuple(up)
                    if cand not in known:
                        known.add(cand)
                        nxt.append(cand)
        all_roots.extend(nxt)
        level = nxt
    return all_roots


def twice_epsilon_values(kind: str, values: Sequence[int]) -> list[int]:
    """The values f_1, ..., f_m of a linear functional on 2*eps_1, ...,
    2*eps_m of a classical system, given its values on the simple roots in
    this module's indexing.

    In Bourbaki numbering (this indexing reversed) alpha_j = eps_j - eps_j+1
    for j < k, and alpha_k is eps_k (B), 2 eps_k (C) or eps_k-1 + eps_k (D).
    So 2*eps_j is twice the running sum alpha_j + ... + alpha_k (a prefix
    sum in this indexing), less alpha_k in C and less the two fork roots in
    D, whose last 2*eps_k is alpha_k - alpha_k-1 instead.  Type A has
    m = k + 1 coordinates, taken with eps_k+1 = 0; the others have m = k.
    """
    f = [2 * total for total in accumulate(values)]
    f.reverse()
    if kind == "C":
        f = [fj - values[0] for fj in f]
    elif kind == "D":
        fork = values[0] + values[1]
        f = [fj - fork for fj in f]
        f[-1] = values[0] - values[1]
    elif kind == "A":
        f.append(0)
    return f


def epsilon_root_values(kind: str, f: Sequence[int]) -> Iterator[int]:
    """The value of every positive root of a classical system on a linear
    functional, given f_j, its value on 2*eps_j (twice_epsilon_values).

    The roots are (e_i - e_j) / 2 for i < j; in B, C and D also
    (e_i + e_j) / 2 for i < j; in B also e_i / 2; in C also e_i.  The order
    depends on kind and len(f) alone.
    """
    for i, fi in enumerate(f):
        for fj in f[i + 1:]:
            yield (fi - fj) // 2
            if kind != "A":
                yield (fi + fj) // 2
    if kind == "B":
        for fi in f:
            yield fi // 2
    elif kind == "C":
        yield from f


def _classical_roots(kind: str, k: int) -> list[PositiveRoot]:
    """The positive roots of A-D in closed form: a root's coefficient on
    alpha_p is its value on the p-th coordinate functional."""
    units = ([0] * p + [1] + [0] * (k - 1 - p) for p in range(k))
    return list(zip(*(epsilon_root_values(kind, twice_epsilon_values(kind, u))
                      for u in units)))


def connected_components(subset, neighbors) -> list[frozenset[int]]:
    """The maximally connected pieces of the graph induced on subset, each
    grown by depth-first search from its smallest index; neighbors(v)
    lists the vertices joined to v.  For a diagram, pass rs.neighbors."""
    s = frozenset(subset)
    remaining = set(s)
    comps = []
    while remaining:
        seed = min(remaining)
        comp = {seed}
        stack = [seed]
        while stack:
            v = stack.pop()
            for w in neighbors(v):
                if w in s and w not in comp:
                    comp.add(w)
                    stack.append(w)
        remaining -= comp
        comps.append(frozenset(comp))
    return comps


def classify_component(rs: RootSystem, s: frozenset[int]
                       ) -> tuple[LieType, tuple[int, ...]]:
    """Type of a connected subset, such as a piece returned by
    connected_components, plus its internal vertex order.

    The returned order lists ambient indices playing the roles alpha'_1,
    alpha'_2, ..., alpha'_k of a standalone system of that type
    (distinguished root first for B/C/D, Bourbaki order for E/F/G, and the
    rightmost-drawn end first for chains).  The piece has a multiple edge
    when both ends of the system's arrow lie in it; such a chain is read
    off one walk: from its short end in B and G2, else from its long end;
    a bare doubled edge is C2 in a C system and B2 elsewhere.
    """
    verts = sorted(s)
    k = len(verts)
    if k == 1:
        return LieType("A", 1), (verts[0],)
    adj = {v: [w for w in rs.neighbors(v) if w in s] for v in verts}

    arrow = rs.arrow
    if arrow and arrow[0] in s and arrow[1] in s:
        longv, short, mult = arrow
        if len(adj[short]) == 1 and (k > 2 or rs.lie_type.family != "C"):
            family = "G" if mult == 3 else "B"
            return LieType(family, k), tuple(_chain_from(adj, short))
        end = _chain_from(adj, longv, short)[-1]   # longv itself unless F4
        return (LieType("C" if end == longv else "F", k),
                tuple(_chain_from(adj, end)))

    center = next((v for v in verts if len(adj[v]) == 3), None)
    if center is not None:
        legs = sorted((_chain_from(adj, first, center)
                       for first in adj[center]),
                      key=lambda leg: (len(leg), leg[0]))
        if len(legs[1]) == 1:
            return LieType("D", k), (legs[0][0], legs[1][0], center,
                                     *legs[2])
        a = legs[1]
        return LieType("E", k), (a[1], legs[0][0], a[0], center, *legs[2])

    # plain chain; the rightmost-drawn end plays alpha'_1
    cols = rs.columns
    start = max((v for v in verts if len(adj[v]) == 1), key=cols.__getitem__)
    return LieType("A", k), tuple(_chain_from(adj, start))


def _chain_from(adj: dict[int, list[int]], start: int,
                prev: int | None = None) -> list[int]:
    """The vertices met walking from start without stepping back.  The first
    step avoids prev, which picks the leg when start is not a chain end."""
    path = [start]
    cur = start
    while True:
        ext = [w for w in adj[cur] if w != prev]
        if not ext:
            return path
        prev, cur = cur, ext[0]
        path.append(cur)


def positive_root_count(t: LieType) -> int:
    """Closed-form count of positive roots."""
    n = t.rank
    return {"A": n * (n + 1) // 2, "B": n * n, "C": n * n, "D": n * (n - 1),
            "E": {6: 36, 7: 63, 8: 120}.get(n, 0), "F": 24, "G": 6}[t.family]
