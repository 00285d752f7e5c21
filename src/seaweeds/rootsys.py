"""Root-system data for the simple Lie types A, B, C, D, E6, E7, E8, F4, G2.

Indexing convention: for the classical types B, C and D the distinguished
root is alpha_1 (short for B, long for C, a fork prong for D) and the chain
reads alpha_n, ..., alpha_1 from left to right; the exceptional types carry
the standard Bourbaki numbering.  A RootSystem carries the Cartan matrix and
the diagram adjacency; its positive roots, coefficient tuples over the simple
roots, are built on first access.  For A-D they come in closed form from the
epsilon description of the roots; closure over root strings, driven by the
Cartan matrix alone, is used for E, F and G only.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterator, Sequence

VALID_RANKS = {"A": (1, 512), "B": (2, 512), "C": (2, 512), "D": (3, 512),
               "E": (6, 8), "F": (4, 4), "G": (2, 2)}

PositiveRoot = tuple[int, ...]


@dataclass(frozen=True)
class LieType:
    """A simple Lie type: family letter plus rank."""

    family: str
    rank: int

    def __post_init__(self) -> None:
        if self.family not in VALID_RANKS:
            raise ValueError(f"unknown family {self.family!r}")
        lo, hi = VALID_RANKS[self.family]
        if not lo <= self.rank <= hi:
            raise ValueError(f"invalid rank {self.rank} for family {self.family}")

    def __str__(self) -> str:
        return f"{self.family}{self.rank}"

    @staticmethod
    def parse(text: str) -> "LieType":
        """Parse strings like 'A5', 'E6', 'g2'."""
        text = text.strip().upper()
        if len(text) < 2 or text[0] not in VALID_RANKS or not text[1:].isdigit():
            raise ValueError(f"cannot parse Lie type {text!r}")
        return LieType(text[0], int(text[1:]))


@dataclass(frozen=True)
class DiagramShape:
    """The type of a connected induced subdiagram."""

    kind: str
    rank: int

    def __str__(self) -> str:
        return f"{self.kind}{self.rank}"


def _links(t: LieType) -> list[tuple[int, int, int, int]]:
    """The diagram edges (i, j, a_ij, a_ji) with their Cartan entries."""
    fam, r = t.family, t.rank
    if fam in "ABC":
        links = [(i, i + 1, -1, -1) for i in range(2, r)]
        if fam == "B":
            links.append((1, 2, -1, -2))  # alpha_1 short
        elif fam == "C":
            links.append((1, 2, -2, -1))  # alpha_1 long
        elif r > 1:
            links.append((1, 2, -1, -1))
        return links
    if fam == "D":
        return [(i, i + 1, -1, -1) for i in range(3, r)] + [
            (1, 3, -1, -1), (2, 3, -1, -1)]
    if fam == "E":
        chain = [1, 3, 4, 5, 6, 7, 8][: r - 1]
        return [(a, b, -1, -1) for a, b in zip(chain, chain[1:])] + [
            (2, 4, -1, -1)]
    if fam == "F":
        # alpha_2 long, alpha_3 short
        return [(1, 2, -1, -1), (2, 3, -2, -1), (3, 4, -1, -1)]
    return [(1, 2, -1, -3)]  # G2, alpha_1 short


@dataclass(frozen=True, eq=False)
class RootSystem:
    """Cartan data of one simple type; the positive roots are built on
    first access and kept."""

    lie_type: LieType
    cartan: tuple[tuple[int, ...], ...]
    adjacency: tuple[tuple[int, ...], ...]   # neighbours of alpha_i at i - 1

    @property
    def rank(self) -> int:
        return self.lie_type.rank

    def neighbors(self, i: int) -> tuple[int, ...]:
        return self.adjacency[i - 1]

    def edge_multiplicity(self, i: int, j: int) -> int:
        return self.cartan[i - 1][j - 1] * self.cartan[j - 1][i - 1]

    def columns(self) -> dict[int, int]:
        """Horizontal drawing positions (doubled to stay integral), matching
        the left-to-right layout alpha_n ... alpha_1 for classical types."""
        return _columns_of(self)

    @cached_property
    def positive_roots(self) -> tuple[PositiveRoot, ...]:
        """All positive roots, ordered by height, then lexicographically."""
        t = self.lie_type
        if t.family in "ABCD":
            roots = _classical_roots(t.family, t.rank)
        else:
            roots = _closure_roots(self.cartan)
        return tuple(sorted(roots, key=lambda b: (sum(b), b)))


@lru_cache(maxsize=None)
def _columns_of(rs: RootSystem) -> dict[int, int]:
    fam, n = rs.lie_type.family, rs.rank
    if fam in "ABC":
        return {i: 2 * (n - i) for i in range(1, n + 1)}
    if fam == "D":
        col = {i: 2 * (n - i) for i in range(2, n + 1)}
        col[1] = 2 * (n - 2)  # drawn in the same column as alpha_2
        return col
    if fam == "E":
        chain = [1, 3, 4, 5, 6, 7, 8][: n - 1]
        col = {a: 2 * k for k, a in enumerate(reversed(chain))}
        col[2] = col[4] + 1  # branch vertex sits between alpha_4 and alpha_3
        return col
    if fam == "F":
        return {i: 2 * (i - 1) for i in range(1, 5)}
    return {2: 0, 1: 2}  # G2


@lru_cache(maxsize=None)
def build_root_system(t: LieType) -> RootSystem:
    """The Cartan matrix and adjacency of t; positive roots come on demand,
    in closed form for A-D and by root-string closure for E, F and G."""
    n = t.rank
    cartan = [[0] * n for _ in range(n)]
    adjacency: list[list[int]] = [[] for _ in range(n)]
    for i in range(n):
        cartan[i][i] = 2
    for i, j, aij, aji in _links(t):
        cartan[i - 1][j - 1] = aij
        cartan[j - 1][i - 1] = aji
        adjacency[i - 1].append(j)
        adjacency[j - 1].append(i)
    return RootSystem(t, tuple(map(tuple, cartan)),
                      tuple(tuple(sorted(a)) for a in adjacency))


def _closure_roots(cartan: tuple[tuple[int, ...], ...]) -> list[PositiveRoot]:
    """Positive roots from the Cartan matrix by closure over root strings.

    Roots are generated level by level: a candidate beta + alpha_i at height
    h+1 is a root exactly when q - <beta, alpha_i^v> > 0, with q the number
    of steps the alpha_i-string descends from beta.
    """
    n = len(cartan)
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
                pairing = sum(c * cartan[j][i - 1] for j, c in enumerate(beta) if c)
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


@lru_cache(maxsize=None)
def twice_epsilon(kind: str, k: int) -> tuple[tuple[int, ...], ...]:
    """The vectors 2*eps_1, ..., 2*eps_m of a classical system of rank k, as
    coefficient tuples over its simple roots in this module's indexing.

    In Bourbaki numbering (this indexing reversed) alpha_j = eps_j - eps_j+1
    for j < k, and alpha_k is eps_k (B), 2 eps_k (C) or eps_k-1 + eps_k (D).
    Type A has m = k + 1 coordinates, taken with eps_k+1 = 0; the others
    have m = k.  epsilon_root_values lists the positive roots in these terms.
    """
    vectors = []
    for j in range(1, k + 1):
        v = [0] * k                      # Bourbaki coefficients of 2*eps_j
        if kind in "AB":
            v[j - 1:] = [2] * (k + 1 - j)
        elif kind == "C":
            v[j - 1:k - 1] = [2] * (k - j)
            v[k - 1] = 1
        elif j < k:                      # D
            v[j - 1:k - 2] = [2] * (k - 1 - j)
            v[k - 2] = v[k - 1] = 1
        else:
            v[k - 2], v[k - 1] = -1, 1
        vectors.append(tuple(reversed(v)))
    if kind == "A":
        vectors.append((0,) * k)
    return tuple(vectors)


def epsilon_root_values(kind: str, f: Sequence[int]) -> Iterator[int]:
    """The value of every positive root of a classical system on a linear
    functional, given f_j, its value on 2*eps_j (see twice_epsilon).

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
    columns = zip(*twice_epsilon(kind, k))
    return list(zip(*(epsilon_root_values(kind, col) for col in columns)))


def root_support(beta: PositiveRoot) -> frozenset[int]:
    """Indices of the simple roots appearing in beta."""
    return frozenset(i + 1 for i, c in enumerate(beta) if c)


def sub_positive_roots(rs: RootSystem, sigma) -> list[PositiveRoot]:
    """All positive roots supported inside the simple-root subset sigma."""
    s = frozenset(sigma)
    return [b for b in rs.positive_roots if root_support(b) <= s]


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


def classify_component(rs: RootSystem, sigma) -> tuple[DiagramShape, tuple[int, ...]]:
    """Shape of a connected subset plus its internal vertex order.

    The returned order lists ambient indices playing the roles alpha'_1,
    alpha'_2, ..., alpha'_k of a standalone system of the detected shape
    (distinguished root first for B/C/D, Bourbaki order for E/F/G, and the
    rightmost-drawn end first for chains).
    """
    s = frozenset(sigma)
    if len(connected_components(s, rs.neighbors)) != 1:
        raise ValueError(f"subset {sorted(s)} is not connected in the diagram")
    return _classify(rs, s)


def _classify(rs: RootSystem, s: frozenset[int]) -> tuple[DiagramShape, tuple[int, ...]]:
    """classify_component for a subset already known to be connected, such
    as a piece returned by connected_components."""
    verts = sorted(s)
    k = len(verts)
    if k == 1:
        return DiagramShape("A", 1), (verts[0],)
    adj = {v: [w for w in rs.neighbors(v) if w in s] for v in verts}

    for v in verts:
        for w in adj[v]:
            if rs.edge_multiplicity(v, w) == 3:
                short = w if rs.cartan[v - 1][w - 1] == -3 else v
                longv = v if short == w else w
                return DiagramShape("G", 2), (short, longv)

    forks = [v for v in verts if len(adj[v]) == 3]
    if forks:
        center = forks[0]
        legs = [_walk(adj, first, center) for first in adj[center]]
        legs.sort(key=lambda leg: (len(leg), leg[0]))
        lens = tuple(len(leg) for leg in legs)
        if lens[0] == 1 and lens[1] == 1:
            prongs = sorted([legs[0][0], legs[1][0]])
            return DiagramShape("D", k), tuple(prongs) + (center,) + tuple(legs[2])
        if lens == (1, 2, 2):
            a, b = legs[1], legs[2]
            return DiagramShape("E", 6), (a[1], legs[0][0], a[0], center, b[0], b[1])
        if lens[:2] == (1, 2) and lens[2] in (3, 4):
            a, b = legs[1], legs[2]
            order = (a[1], legs[0][0], a[0], center) + tuple(b)
            return DiagramShape("E", k), order
        raise AssertionError(f"unexpected fork shape {lens} in {rs.lie_type}")

    ends = [v for v in verts if len(adj[v]) == 1]
    doubles = [(v, w) for v in verts for w in adj[v]
               if v < w and rs.edge_multiplicity(v, w) == 2]
    if doubles:
        v, w = doubles[0]
        short = w if rs.cartan[v - 1][w - 1] == -2 else v
        longv = v if short == w else w
        short_side = _walk(adj, short, longv)
        long_side = _walk(adj, longv, short)
        if len(short_side) >= 2 and len(long_side) >= 2:
            if k != 4:
                raise AssertionError(f"unexpected doubled chain of size {k}")
            return DiagramShape("F", 4), tuple(reversed(long_side)) + tuple(short_side)
        if k == 2 and rs.lie_type.family == "C":
            # a bare doubled edge reads as the ambient series where possible
            return DiagramShape("C", 2), (longv, short)
        if len(short_side) == 1:
            # the short root is a chain end: B-series, distinguished root first
            return DiagramShape("B", k), tuple(_walk(adj, short))
        # the long root is a chain end: C-series
        return DiagramShape("C", k), tuple(_walk(adj, longv))

    # plain chain; the rightmost-drawn end plays alpha'_1
    cols = rs.columns()
    start = max(ends, key=lambda v: cols[v])
    return DiagramShape("A", k), tuple(_walk(adj, start))


def _walk(adj: dict[int, list[int]], start: int,
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


def induced_shape(rs: RootSystem, sigma) -> DiagramShape:
    """Classify the induced Dynkin subdiagram of a connected subset."""
    return classify_component(rs, sigma)[0]


def positive_root_count(t: LieType) -> int:
    """Closed-form count of positive roots."""
    n = t.rank
    return {"A": n * (n + 1) // 2, "B": n * n, "C": n * n, "D": n * (n - 1),
            "E": {6: 36, 7: 63, 8: 120}.get(n, 0), "F": 24, "G": 6}[t.family]
