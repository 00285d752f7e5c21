"""Reference implementations the tests compare the package against.

The package does not run any of these: each is the slow, direct version
of something the package computes another way (fraction elimination for
the integer and modular ranks, the Kirillov solve K x = -f for the
principal element the oracle walks off the meander's arcs: one modular
elimination of the whole system, rational reconstruction and a Fraction
fallback, and the dense adjoint scanned at every integer shift for the
spectrum the oracle reads off that element's diagonal, root tuples and
the per-pair mirror check for the census's centered chain runs, the dense
Cartan matrix and its root-string closure for the adjacency and arrow a
`rootsys.RootSystem` keeps, the dense 2*eps table for the running sums of
`rootsys.twice_epsilon_values`, a subset filter over all positive roots
for the closed-form component spectra, the two-scan subdiagram classifier
with its own shape record for the one-scan `rootsys.classify_component`,
per-shape involutions and constraint rows for the one rule
`meander._orbit_rows` states for both, a side involution built whole for
the scan's table assembled piece by piece, a component spectrum computed
afresh for the records the package caches, a per-orbit U-turn count and a
per-call mate-table solve for the one meander walker, the whole
command-line parser for the one `cli.build_parser` builds per subcommand,
a searched regular functional for the meander functional the oracle
reads off its units, the dense slot blocks and their r x r capacitance
steps for that search's steps on each slot's low-rank factor, with the
modular inverse they update, all 3^n full-union mask pairs for the scan
that visits half of them, the catalog of Seaweeds and its payload for
the mask keys the CLI diffs and writes, the Kirillov matrix as a list of
integer rows for the int64 stack the oracle builds), or a fixture the
oracle tests share.
"""
from __future__ import annotations

import argparse
import itertools
import random
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt, lcm
from typing import NamedTuple

import numpy as np

from seaweeds.cli import (cmd_check, cmd_enumerate, cmd_oracle, cmd_render,
                          cmd_spectrum)
from seaweeds.enumerate import Catalog, _run_root, catalog_keys
from seaweeds.meander import (Component, OrbitMeander, OrbitUTurns, Side,
                              UTurnReport, _orbit_rows, _side_record)
from seaweeds._linalg import (PRIME, _eliminate_mod_p, rank_int_rows,
                              rank_mod_p, ranks_mod_p)
from seaweeds.oracle import Functional, MatrixSeaweed, kirillov_matrix
from seaweeds.rootsys import (LieType, PositiveRoot, RootSystem,
                              build_root_system, connected_components,
                              epsilon_root_values, twice_epsilon_values)
from seaweeds.seaweed import (Composition, Seaweed, composition_marks,
                              mask_subset, subset_mask)
from seaweeds.spectrum import SimpleEigenvalueVector, Spectrum, zero_padding


def rank_exact(matrix: list[list[Fraction | int]]) -> int:
    """Rank over the rationals by fraction Gaussian elimination."""
    m = [[Fraction(x) for x in row] for row in matrix]
    rows = len(m)
    if rows == 0:
        return 0
    cols = len(m[0])
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, rows) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        pv = m[r][c]
        for i in range(r + 1, rows):
            f = m[i][c]
            if f:
                g = f / pv
                mi, mr = m[i], m[r]
                for j in range(c, cols):
                    mi[j] -= mr[j] * g
        r += 1
        if r == rows:
            break
    return r


def solve_unique(matrix: list[list[Fraction | int]], rhs: list[Fraction | int],
                 nvars: int) -> list[Fraction]:
    """Solve an (over)determined linear system that must have a unique solution.

    Raises ValueError if the system is inconsistent or underdetermined.
    """
    m = [[Fraction(x) for x in row] + [Fraction(b)] for row, b in zip(matrix, rhs)]
    rows = len(m)
    r = 0
    piv_cols = []
    for c in range(nvars):
        piv = next((i for i in range(r, rows) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        pv = m[r][c]
        m[r] = [x / pv for x in m[r]]
        for i in range(rows):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        piv_cols.append(c)
        r += 1
    if any(m[i][nvars] for i in range(r, rows)):
        raise ValueError("inconsistent linear system")
    if r < nvars:
        raise ValueError("underdetermined linear system")
    sol = [Fraction(0)] * nvars
    for i, c in enumerate(piv_cols):
        sol[c] = m[i][nvars]
    return sol


def _residues(rows):
    """The integer rows reduced mod p = PRIME as an int64 array; np.array
    alone would round entries of 2^63 or more through float64."""
    p = PRIME
    return np.array([[x % p for x in row] for row in rows], dtype=np.int64)


class ModularInverse:
    """The inverse W mod p = PRIME of a nonsingular integer matrix K, which
    it keeps as `matrix`."""

    def __init__(self, matrix):
        """K is matrix, a square int64 array.  Raises ValueError when K is
        singular mod p."""
        d = len(matrix)
        aug = np.hstack((matrix % PRIME, np.eye(d, dtype=np.int64)))
        if _eliminate_mod_p(aug, d) < d:
            raise ValueError("matrix is singular mod p")
        self.w = aug[:, d:]
        self.matrix = matrix


def _mul_mod_p(a, b):
    """a b mod p for int64 arrays with entries in [0, p) and fewer than 2^15
    inner terms: b is split into 16-bit halves so that no int64 dot product
    overflows."""
    p = PRIME
    return ((a @ (b >> 16)) % p * 65536 + a @ (b & 0xFFFF)) % p


def _rational(x: int, p: int, bound: int) -> Fraction | None:
    """The fraction a/b with |a|, b <= bound and a = b x mod p, if any:
    half of the extended Euclidean algorithm on (p, x)."""
    r0, r1, s0, s1 = p, x, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1, s0, s1 = r1, r0 - q * r1, s1, s0 - q * s1
    if abs(s1) > bound or gcd(r1, s1) != 1:
        return None
    return Fraction(r1, s1)


def solve_nonsingular(matrix: list[list[int]], rhs: list[int]) -> list[Fraction]:
    """Solve a square integer system that must have a unique solution by
    Gauss-Jordan elimination of [matrix | rhs] mod p, rational
    reconstruction of each coordinate and an exact check, with the
    Fraction solve `solve_unique` as the fallback: the solve the principal
    element made before it was walked off the functional's arcs.
    """
    d = len(matrix)
    if d:
        aug = _residues([*row, b] for row, b in zip(matrix, rhs))
        if _eliminate_mod_p(aug, d) == d:
            bound = isqrt(PRIME // 2)
            sol = [_rational(int(x), PRIME, bound) for x in aug[:, d]]
            if None not in sol:
                scale = lcm(*(x.denominator for x in sol))
                ints = [int(x * scale) for x in sol]
                if all(sum(a * x for a, x in zip(row, ints)) == b * scale
                       for row, b in zip(matrix, rhs)):
                    return sol
    return solve_unique(matrix, rhs, d)


def solved_principal_element(m: MatrixSeaweed, f: Functional) -> list[Fraction]:
    """Basis coordinates of the unique element whose coadjoint action
    fixes the regular functional f, by solving K x = -f for its Kirillov
    matrix K (row p of the defining system is f([b_q, b_p]) over q, and
    K^T = -K).  Any regular functional, the sampled witness of `index`
    included, whose principal element need not be diagonal.  Raises
    ValueError when f is not regular."""
    return solve_nonsingular(kirillov_rows(m, f), [-c for c in f])


def ad_matrix(m: MatrixSeaweed, coords) -> list:
    """The matrix of the adjoint action of sum coords[p] b_p on the
    algebra, in basis coordinates; integer coordinates give an integer
    matrix.  A term v = [b_p, b_q]_k feeds coords[p] * v into column q
    and, as [b_q, b_p]_k = -v, -coords[q] * v into column p."""
    mat = [[0] * m.dim for _ in range(m.dim)]
    for k, terms in enumerate(m._slot_terms):
        row = mat[k]
        for p, q, v in terms:
            row[q] += coords[p] * v
            row[p] -= coords[q] * v
    return mat


def ad_spectrum(m: MatrixSeaweed, coords) -> Spectrum:
    """Eigenvalue multiplicities of the adjoint action of any element with
    basis coordinates coords, over the scan window: the general version
    of the package's diagonal `oracle.ad_spectrum`.

    Multiplicities are kernel co-ranks at every integer shift in
    [-(n+1), n+1]; they must sum to the algebra dimension, which certifies
    that the adjoint is diagonalizable with spectrum inside the window.
    The coordinates are scaled once by the lcm of their denominators, so
    the adjoint and every shifted matrix are integer ones.  The adjoint is
    block diagonal on the pieces of the graph of its off-diagonal entries,
    so each piece is scanned on its own; a piece of one basis vector (every
    piece when the element lies in the Cartan subalgebra) holds its own
    eigenvalue.  The shifted copies of a larger piece are ranked mod p as
    one stack (`ranks_mod_p`), and exact elimination settles every shift
    whose modular rank falls short.
    """
    scale = lcm(*(x.denominator for x in coords))
    scaled = ad_matrix(m, [int(x * scale) for x in coords])
    d = m.dim

    def neighbors(i: int) -> list[int]:
        return [j for j in range(d) if scaled[i][j] or scaled[j][i]]

    window = range(-(m.n + 1), m.n + 2)
    counts: Counter = Counter()
    for piece in connected_components(range(d), neighbors):
        if len(piece) == 1:
            i, = piece
            k, rest = divmod(scaled[i][i], scale)
            if not rest and k in window:
                counts[k] += 1
            continue
        block = sorted(piece)
        b = len(block)
        sub = [[scaled[i][j] for j in block] for i in block]
        residues = _residues(sub)
        shifts = np.array([-k * scale % PRIME for k in window], dtype=np.int64)
        stack = residues + shifts[:, None, None] * np.eye(b, dtype=np.int64)
        for k, rank in zip(window, ranks_mod_p(stack)):
            if rank < b:
                # the modular probe lost rank or the kernel is real; settle it exactly
                shifted = [row[:] for row in sub]
                for i in range(b):
                    shifted[i][i] -= k * scale
                mult = b - rank_int_rows(shifted)
                if mult:
                    counts[k] += mult
    if sum(counts.values()) != d:
        raise ValueError(
            "non-integer spectrum: eigenspace dimensions sum to "
            f"{sum(counts.values())} over the integer window, expected {d}")
    return Spectrum.from_counter(counts)


def root_support(beta: PositiveRoot) -> frozenset[int]:
    """Indices of the simple roots appearing in beta."""
    return frozenset(i + 1 for i, c in enumerate(beta) if c)


def sub_positive_roots(rs: RootSystem, sigma) -> list[PositiveRoot]:
    """All positive roots supported inside the simple-root subset sigma."""
    s = frozenset(sigma)
    return [b for b in rs.positive_roots if root_support(b) <= s]


@lru_cache(maxsize=None)
def twice_epsilon(kind: str, k: int) -> tuple[tuple[int, ...], ...]:
    """The vectors 2*eps_1, ..., 2*eps_m of a classical system of rank k, as
    coefficient tuples over its simple roots in rootsys's indexing.

    In Bourbaki numbering (this indexing reversed) alpha_j = eps_j - eps_j+1
    for j < k, and alpha_k is eps_k (B), 2 eps_k (C) or eps_k-1 + eps_k (D).
    Type A has m = k + 1 coordinates, taken with eps_k+1 = 0; the others
    have m = k.  rootsys.epsilon_root_values lists the positive roots in
    these terms.
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


# The E8 chain alpha_1, alpha_3, ..., alpha_8; alpha_2 hangs off alpha_4.
_E_CHAIN = (1, 3, 4, 5, 6, 7, 8)


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
        chain = _E_CHAIN[: r - 1]
        return [(a, b, -1, -1) for a, b in zip(chain, chain[1:])] + [
            (2, 4, -1, -1)]
    if fam == "F":
        # alpha_2 long, alpha_3 short
        return [(1, 2, -1, -1), (2, 3, -2, -1), (3, 4, -1, -1)]
    return [(1, 2, -1, -3)]  # G2, alpha_1 short


@lru_cache(maxsize=None)
def cartan_matrix(t: LieType) -> tuple[tuple[int, ...], ...]:
    """The dense Cartan matrix of t, a_ij at [i - 1][j - 1], in rootsys's
    indexing."""
    n = t.rank
    cartan = [[0] * n for _ in range(n)]
    for i in range(n):
        cartan[i][i] = 2
    for i, j, aij, aji in _links(t):
        cartan[i - 1][j - 1] = aij
        cartan[j - 1][i - 1] = aji
    return tuple(map(tuple, cartan))


def closure_roots(cartan: tuple[tuple[int, ...], ...]) -> list[PositiveRoot]:
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


class DiagramShape(NamedTuple):
    """The type of a connected induced subdiagram."""

    kind: str
    rank: int

    def __str__(self) -> str:
        return f"{self.kind}{self.rank}"


def classify_component(rs: RootSystem, s: frozenset[int]
                       ) -> tuple[DiagramShape, tuple[int, ...]]:
    """Shape of a connected subset, such as a piece returned by
    connected_components, plus its internal vertex order.

    The returned order lists ambient indices playing the roles alpha'_1,
    alpha'_2, ..., alpha'_k of a standalone system of the detected shape
    (distinguished root first for B/C/D, Bourbaki order for E/F/G, and the
    rightmost-drawn end first for chains).
    """
    verts = sorted(s)
    k = len(verts)
    if k == 1:
        return DiagramShape("A", 1), (verts[0],)
    adj = {v: [w for w in rs.neighbors(v) if w in s] for v in verts}
    cartan = cartan_matrix(rs.lie_type)

    for v in verts:
        for w in adj[v]:
            if rs.edge_multiplicity(v, w) == 3:
                short = w if cartan[v - 1][w - 1] == -3 else v
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
        short = w if cartan[v - 1][w - 1] == -2 else v
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
    cols = rs.columns
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


def symmetric_root(rs: RootSystem, c: Component,
                   beta: PositiveRoot) -> PositiveRoot | None:
    """The mirror partner of a root inside a chain component.

    On a chain alpha'_k ... alpha'_1, the root summing positions i..j pairs
    with the unique consecutive sum whose combined span covers a full
    half-chain; the self-paired diagonal (i + j = k + 1) has no partner.
    """
    if c.shape.family != "A":
        raise ValueError("symmetric roots are defined for chain components only")
    path = c.order          # alpha'_1 first
    k = len(path)
    pos = {amb: idx + 1 for idx, amb in enumerate(path)}
    support = [i + 1 for i, coeff in enumerate(beta) if coeff]
    if any(a not in pos for a in support):
        raise ValueError("root is not supported in the component")
    internal = sorted(pos[a] for a in support)
    i, j = internal[0], internal[-1]
    if internal != list(range(i, j + 1)):
        raise AssertionError("chain component carried a non-consecutive root")
    if i + j == k + 1:
        return None
    if i + j >= k + 2:
        lo, hi = k + 1 - j, i - 1
    else:
        lo, hi = j + 1, k + 1 - i
    coeffs = [0] * rs.rank
    for p in range(lo, hi + 1):
        coeffs[path[p - 1] - 1] = 1
    return tuple(coeffs)


def _check_symmetric_roots(s: Seaweed, c, x, fail) -> None:
    """Check the mirror pairing on every root of a chain component.

    Each root is the run of positions i..j along c.order and evaluates to
    P[j] - P[i-1] on the prefix sums P of the side-normalized values; its
    mirror is the run `_mirror_run` names.  Root tuples are built only for
    a failure message.
    """
    path = c.order
    k = len(path)
    sgn = c.side.sign
    prefix = [0]
    for a in path:
        prefix.append(prefix[-1] + sgn * x.values[a - 1])
    for i in range(1, k + 1):
        for j in range(i, k + 1):
            value = prefix[j] - prefix[i - 1]
            mirror = _mirror_run(k, i, j)
            if mirror is None:
                if value != 1:
                    fail(f"self-paired root {_run_root(s.rank, path, i, j)} "
                         "does not evaluate to one")
            elif value + prefix[mirror[1]] - prefix[mirror[0] - 1] != 1:
                fail(f"mirror roots {_run_root(s.rank, path, i, j)}, "
                     f"{_run_root(s.rank, path, *mirror)} do not sum to one")


def _mirror_run(k: int, i: int, j: int) -> tuple[int, int] | None:
    """The positions lo..hi of the mirror partner of the run i..j on a chain
    of k simple roots: the one run adjacent to i..j whose combined span
    covers a full half-chain.  None on the self-paired diagonal
    i + j = k + 1."""
    if i + j == k + 1:
        return None
    if i + j >= k + 2:
        return k + 1 - j, i - 1
    return j + 1, k + 1 - i


def component_involution(c: Component) -> dict[int, int]:
    """The negated longest element on one component, by ambient index."""
    kind, k = c.shape.family, c.shape.rank
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


def _pinned(shape: LieType) -> dict[int, int] | None:
    """Internal index -> value, for shapes whose values are fully forced."""
    kind, k = shape.family, shape.rank
    if kind == "B":
        if k == 2:
            return {1: 0, 2: 1}
        if k % 2 == 1:
            return {i: (-1) ** (i - 1) for i in range(1, k + 1)}
        return {1: 0, **{i: (-1) ** i for i in range(2, k + 1)}}
    if kind == "C":
        return {1: 1, **{i: 0 for i in range(2, k + 1)}}
    if kind == "E" and k == 7:
        return {1: -1, 4: -1, 6: -1, 2: 1, 3: 1, 5: 1, 7: 1}
    if kind == "E" and k == 8:
        return {1: -1, 4: -1, 6: -1, 8: -1, 2: 1, 3: 1, 5: 1, 7: 1}
    if kind == "F":
        return {1: -1, 2: 1, 3: 0, 4: 0}
    if kind == "G":
        return {1: 1, 2: -1}
    return None


def component_constraints(c: Component) -> list[tuple[dict[int, int], int]]:
    """Linear constraints a component imposes, as (coefficients, rhs) rows.

    Coefficients address ambient simple-root indices; the side sign is
    already folded in.
    """
    s = c.side.sign
    kind, k = c.shape.family, c.shape.rank
    order = c.order
    rows: list[tuple[dict[int, int], int]] = []
    pinned = _pinned(c.shape)
    if pinned is not None:
        for i, val in pinned.items():
            rows.append(({order[i - 1]: s}, val))
        return rows
    if kind == "A":
        path = order
        for i in range((k + 1) // 2):
            a, b = path[i], path[k - 1 - i]
            if a == b:
                rows.append(({a: s}, 1))
            elif k % 2 == 0 and i == k // 2 - 1:
                rows.append(({a: s, b: s}, 1))
            else:
                rows.append(({a: s, b: s}, 0))
        return rows
    if kind == "D":
        if k % 2 == 0:
            rows.append(({order[0]: s}, 1))
            rows.append(({order[1]: s}, 1))
            for i in range(3, k + 1):
                rows.append(({order[i - 1]: s}, (-1) ** i))
        else:
            rows.append(({order[0]: s, order[1]: s}, 0))
            for i in range(3, k + 1):
                rows.append(({order[i - 1]: s}, (-1) ** (i - 1)))
        return rows
    if kind == "E" and k == 6:
        rows.append(({order[1]: s}, -1))
        rows.append(({order[3]: s}, 1))
        rows.append(({order[0]: s, order[5]: s}, 0))
        rows.append(({order[2]: s, order[4]: s}, 0))
        return rows
    raise AssertionError(f"no constraint rule for shape {c.shape}")


def canonical_form(s: Seaweed) -> Seaweed:
    """Normalize the unordered pair {pi1, pi2}: swap is the only identification.

    The representative is whichever of (pi1, pi2), (pi2, pi1) is smaller in
    the bitmask order; diagram automorphisms are deliberately not quotiented.
    """
    m1, m2 = subset_mask(s.pi1), subset_mask(s.pi2)
    if (m2, m1) < (m1, m2):
        return Seaweed(s.root_system, s.pi2, s.pi1)
    return s


def full_union_pairs(n: int):
    """(top, bottom) index lists for each of the 3^n ways to put every
    vertex of a rank-n diagram on the top only, the bottom only, or both."""
    for places in itertools.product((1, 2, 3), repeat=n):
        yield ([i for i, p in enumerate(places, 1) if p & 1],
               [i for i, p in enumerate(places, 1) if p & 2])


def mask_pairs(n: int):
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


def enumerate_frobenius(t: LieType) -> Catalog:
    """All Frobenius seaweeds of one type, deduplicated as `catalog_keys`
    says, in key order."""
    rs = build_root_system(t)
    return Catalog(t, tuple(Seaweed(rs, mask_subset(m1), mask_subset(m2))
                            for m1, m2 in catalog_keys(t)))


def catalog_json_dict(cat: Catalog) -> dict:
    """The catalog payload `seaweed enumerate` prints, built from the
    catalog's Seaweeds (the CLI writes it from the mask keys)."""
    return {
        "type": str(cat.lie_type),
        "count": cat.count,
        "entries": [
            {"pi1": sorted(s.pi1, reverse=True),
             "pi2": sorted(s.pi2, reverse=True)}
            for s in cat.entries
        ],
    }


def poset_algebra_sl4() -> MatrixSeaweed:
    """The 8-dimensional incidence algebra of the poset 1,2 < 3 < 4 in sl(4)."""
    return MatrixSeaweed(4, ((0, 2), (1, 2), (0, 3), (1, 3), (2, 3)))


def kirillov_rows(m: MatrixSeaweed, f: Functional) -> list[list[int]]:
    """The antisymmetric form f([b_p, b_q]) on the basis, in Python
    integers."""
    mat = [[0] * m.dim for _ in range(m.dim)]
    for c, terms in zip(f, m._slot_terms):
        if c:
            for p, q, v in terms:
                mat[p][q] += c * v
                mat[q][p] -= c * v
    return mat


def slot_block(terms: list[tuple[int, int, int]]):
    """The rows and columns that slot terms touch, as an index array, and
    the dense antisymmetric block the terms form on them."""
    rows = sorted({a for a, _, _ in terms} | {b for _, b, _ in terms})
    at = {x: i for i, x in enumerate(rows)}
    block = np.zeros((len(rows), len(rows)), dtype=np.int64)
    for a, b, v in terms:
        block[at[a], at[b]] = v
        block[at[b], at[a]] = -v
    return np.array(rows, dtype=np.intp), block


def meander_arcs(s: Seaweed) -> set[tuple[int, int]]:
    """The arcs of the type-A meander of s as the matrix units of
    `oracle.realize_type_a`: top arcs as upper units, bottom arcs as lower
    ones.

    A side's composition is the one whose marks (`composition_marks`) are
    the simple roots the side leaves out.  Its parts, then what remains of
    n = rank + 1, are the sizes of the blocks of matrix positions 0, 1,
    ..., n - 1 in order, and a block of positions a..e has the arcs that
    join a + t and e - t.
    """
    n = s.rank + 1
    arcs = set()
    for side, upper in ((s.pi1, True), (s.pi2, False)):
        marks = frozenset(range(1, n)) - side
        totals = sorted(n - mark for mark in marks)
        parts = [b - a for a, b in zip([0] + totals, totals)]
        assert composition_marks(Composition(tuple(parts), n - 1)) == marks
        a = 0
        for size in parts + [n - sum(parts)]:
            e = a + size - 1
            for t in range(size // 2):
                arcs.add((a + t, e - t) if upper else (e - t, a + t))
            a = e + 1
    return arcs


def determinant(matrix: list[list[int]]) -> int:
    """The determinant of a square integer matrix by fraction-free
    (Bareiss) elimination: every division is exact."""
    m = [row[:] for row in matrix]
    d, sign, prev = len(m), 1, 1
    for k in range(d - 1):
        if not m[k][k]:
            swap = next((i for i in range(k + 1, d) if m[i][k]), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, d):
            for j in range(k + 1, d):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[-1][-1] if d else 1


# Draws of searched_functional before it gives up.  On a Frobenius algebra
# a draw fails with probability at most dim / (2p), so only a non-Frobenius
# algebra uses them up.
FUNCTIONAL_DRAWS = 4


def try_add(inverse: ModularInverse, rows, z, j, c: int) -> bool:
    """Add c * Z J Z^T to the K that inverse.w inverts mod p = PRIME if K
    stays nonsingular mod p; report whether it did.  rows is an index
    array, z the rows of Z there (len(rows) x s) and j the s x s middle
    factor; their entries are small integers (|x| * len(rows) below 2^32).

    The term keeps K nonsingular mod p exactly when the s x s capacitance
    matrix T = I + c J Z^T W Z is nonsingular mod p (the determinant
    lemma), and the new inverse is then W - W Z T^-1 c J Z^T W (Woodbury's
    identity).  So a step eliminates s columns where a fresh rank would
    eliminate all.  inverse.matrix becomes None: W no longer inverts it.
    """
    p, w = PRIME, inverse.w
    s = len(j)
    y = j @ (z.T @ w[rows] % p) % p * (c % p) % p      # c J Z^T W
    aug = np.concatenate((y[:, rows] @ z, y), axis=1)
    aug[:, :s] += np.eye(s, dtype=np.int64)
    aug %= p
    if _eliminate_mod_p(aug, s) < s:
        return False
    # aug[:, s:] is now T^-1 y
    inverse.w = (w - _mul_mod_p(w[:, rows] @ z % p, aug[:, s:])) % p
    inverse.matrix = None
    return True


def inverts(inverse: ModularInverse, matrix) -> bool:
    """Whether W K = I mod p for K = matrix, an int64 array: a certificate
    that K has full rank mod p, hence over the rationals.  A K it
    certifies becomes inverse.matrix."""
    k = matrix % PRIME
    if not np.array_equal(_mul_mod_p(inverse.w, k),
                          np.eye(len(k), dtype=np.int64)):
        return False
    inverse.matrix = matrix
    return True


def slot_factor(terms: list[tuple[int, int, int]], slot: int):
    """The antisymmetric block that the terms of a unit slot form, as
    Z J Z^T with Z of 2 + 2m columns.

    By the sl(n) rules the terms are a star [h_i, b_slot] = w_i b_slot,
    which gives the columns u = sum w_i e_(h_i) and e_slot with the J block
    [[0, 1], [-1, 0]], plus a matching of m unit pairs
    [b_a, b_b] = v b_slot, each giving the columns e_a, e_b with the J block
    [[0, v], [-v, 0]].  Returns the touched rows as an index array, Z on
    those rows and J.  Raises AssertionError on terms of any other shape.
    """
    star = [(a, v) for a, b, v in terms if b == slot]
    pairs = [(a, b, v) for a, b, v in terms if b != slot]
    rows = [a for a, _ in star] + [slot] + [x for a, b, _ in pairs
                                            for x in (a, b)]
    if len(set(rows)) != len(rows):
        raise AssertionError(f"the terms of slot {slot} are not a star at "
                             "the slot plus a matching")
    r, s = len(rows), 2 + 2 * len(pairs)
    z = np.zeros((r, s), dtype=np.int64)
    z[:len(star), 0] = [v for _, v in star]
    z[len(star):, 1:] = np.eye(r - len(star), s - 1, dtype=np.int64)
    j = np.zeros((s, s), dtype=np.int64)
    for t, v in enumerate([1] + [v for _, _, v in pairs]):
        j[2 * t, 2 * t + 1], j[2 * t + 1, 2 * t] = v, -v
    return np.array(rows, dtype=np.intp), z, j


def searched_functional(m: MatrixSeaweed, seed: int) -> Functional:
    """A sparse regular functional found by search, certified by a full
    modular rank: the other regular functional the oracle's spectra are
    compared through.

    A draw puts uniform residues mod p = PRIME on the unit slots and
    0 on the Cartan slots.  The Pfaffian of the Kirillov matrix is a
    polynomial of degree dim/2 in them, so a draw is singular mod p with
    probability at most dim / (2p) (Schwartz-Zippel) unless every regular
    functional is nonzero on the Cartan slots; after FUNCTIONAL_DRAWS
    singular draws, ValueError is raised.  Passes over the unit slots then
    replace each coefficient by 0, or else a residue by 1 or -1, keeping the
    first value under which the Kirillov matrix stays of full rank mod p,
    until a pass changes nothing.  Each step updates the modular inverse W
    through the slot's factor of rank 2 + 2m (`slot_factor`, `try_add`),
    not through a fresh elimination.  So every surviving coefficient is
    needed, and one outside {-1, 0, 1} survives only where none of the
    three keeps the rank, which no Frobenius type-A seaweed up to rank 8
    showed (seeds 1 and 2).  The product W K = I mod p with the final
    integer Kirillov matrix K proves the result regular.

    A unit slot's factor has a nonzero entry in every row it touches, and
    no two unit slots meet in one entry, so a row of K is zero exactly when
    no slot with a nonzero coefficient touches it.  The search counts those
    slots per row and does not try 0 on a slot that is the last one of
    some row: K would have a zero row, singular over every field, so
    try_add would refuse it anyway.  Uniform {-1, 0, 1} draws are regular
    too rarely to start from: 6% of the time on
    p^A8(8,6,4,1|8,7,5,3,2,1).
    """
    h = m.n - 1
    rng = random.Random(seed)
    for _ in range(FUNCTIONAL_DRAWS):
        coeffs = [0] * h + [rng.randrange(PRIME) for _ in m.units]
        try:
            inverse = ModularInverse(kirillov_matrix(m, [coeffs])[0])
            break
        except ValueError:
            continue
    else:
        raise ValueError(f"no regular functional in {FUNCTIONAL_DRAWS} "
                         "draws: the algebra is not Frobenius")
    factors = [slot_factor(terms, k)
               for k, terms in enumerate(m._slot_terms[h:], h)]
    touches = np.zeros(m.dim, dtype=np.intp)   # nonzero slots touching a row
    for k, (rows, _, _) in enumerate(factors, h):
        touches[rows] += coeffs[k] != 0
    changed = True
    while changed:
        changed = False
        for k, (rows, z, j) in enumerate(factors, h):
            c = coeffs[k]
            if c == 0:
                continue
            values = (0,) if c in (1, -1) else (0, 1, -1)
            if (touches[rows] == 1).any():
                values = values[1:]         # 0 would leave a zero row
            for v in values:
                if try_add(inverse, rows, z, j, v - c):
                    coeffs[k], changed = v, True
                    if not v:
                        touches[rows] -= 1
                    break
    f = tuple(coeffs)
    if not inverts(inverse, kirillov_matrix(m, [f])[0]):
        raise AssertionError("the functional search lost the full rank")
    return f


def try_add_block(inverse: ModularInverse, rows, block, c: int) -> bool:
    """`try_add` for a dense block: add c * block on rows x
    rows if K stays nonsingular mod p, through the r x r capacitance
    matrix I + c B W[rows, rows]."""
    p, w, r = PRIME, inverse.w, len(rows)
    y = (block @ w[rows]) % p * (c % p) % p        # c B W[rows, :]
    aug = np.concatenate((y[:, rows], y), axis=1)
    aug[:, :r] += np.eye(r, dtype=np.int64)
    aug %= p
    if _eliminate_mod_p(aug, r) < r:
        return False
    x = aug[:, r:]
    wr = w[:, rows]
    inverse.w = (w - ((wr @ (x >> 16)) % p * 65536 + wr @ (x & 0xFFFF))) % p
    return True


def searched_functional_by_blocks(m: MatrixSeaweed, seed: int) -> Functional:
    """`searched_functional` with every step through
    the slot's dense block (`try_add_block`) and a fresh modular rank of
    the result in place of the inverse-product certificate."""
    h, d = m.n - 1, m.dim
    rng = random.Random(seed)
    for _ in range(FUNCTIONAL_DRAWS):
        coeffs = [0] * h + [rng.randrange(PRIME) for _ in m.units]
        try:
            inverse = ModularInverse(
                np.array(kirillov_rows(m, coeffs), dtype=np.int64))
            break
        except ValueError:
            continue
    else:
        raise ValueError("not Frobenius")
    blocks = [slot_block(terms) for terms in m._slot_terms[h:]]
    changed = True
    while changed:
        changed = False
        for k, (rows, block) in enumerate(blocks, h):
            c = coeffs[k]
            if c == 0:
                continue
            for v in (0,) if c in (1, -1) else (0, 1, -1):
                if try_add_block(inverse, rows, block, v - c):
                    coeffs[k], changed = v, True
                    break
    f = tuple(coeffs)
    assert rank_mod_p(np.array(kirillov_rows(m, f), dtype=np.int64)) == d
    return f


def u_turn_report(m: OrbitMeander) -> UTurnReport:
    """Count right/left U-turns per orbit, each orbit walked on its own
    under a step guard.

    A U-turn is an orbit step along a dashed edge joining diagram-adjacent
    vertices (the middle pair of an even chain).  Orbits are traversed from
    a fixed point lying in pi1 & pi2 when one exists; a step that moves
    right in the drawing is a right U-turn on the bottom row and a left
    U-turn on the top row.
    """
    s = m.seaweed
    cols = s.root_system.columns
    inter = s.pi1 & s.pi2
    invs = {Side.TOP: m.i1, Side.BOTTOM: m.i2}
    rows = []
    for cyc in m.orbits:
        if len(cyc) == 1:
            rows.append(OrbitUTurns(cyc, 0, 0))
            continue
        path_ends = [v for v in cyc if m.i1(v) == v or m.i2(v) == v]
        anchors = [v for v in path_ends if v in inter]
        if anchors:
            start = min(anchors)
        elif path_ends:
            start = min(path_ends)
        else:
            start = min(cyc)  # a closed loop; only occurs off the Frobenius case
        first = Side.BOTTOM if m.i1(start) == start else Side.TOP
        right = left = 0
        side = first
        v = start
        for _ in range(2 * len(cyc) + 2):
            w = invs[side](v)
            if w == v:
                break
            if w in s.root_system.neighbors(v):
                if (cols[w] > cols[v]) == (side is Side.BOTTOM):
                    right += 1
                else:
                    left += 1
            v = w
            side = Side.BOTTOM if side is Side.TOP else Side.TOP
            if v == start and side is first:
                break
        rows.append(OrbitUTurns(cyc, right, left))
    return UTurnReport(tuple(rows))


def side_permutation(rs: RootSystem, subset) -> tuple[int, ...]:
    """The involution perm of a subset, built from the whole subset's side
    record with no cache, for the table `meander.side_permutations`
    assembles from its connected pieces' shape rules."""
    return _side_record.__wrapped__(rs, frozenset(subset), Side.TOP)[1].perm


def orbit_counts(perms) -> list[int]:
    """The orbits of each perm on its mask's subset, its size less its
    transpositions (one v < perm[v] each), counted afresh per mask, for the
    counts `meander.side_permutations` carries piece by piece."""
    n = len(perms[0]) - 1
    return [m.bit_count() - sum(map(int.__lt__, range(n + 1), perm))
            for m, perm in enumerate(perms)]


def fixed_vertices(perms) -> list[int]:
    """The mask of the vertices of each mask's subset that its perm fixes,
    read off the perm afresh per mask, for the fixed masks
    `meander.side_permutations` carries piece by piece."""
    return [subset_mask(v for v in mask_subset(m) if perm[v] == v)
            for m, perm in enumerate(perms)]


def component_spectrum(c: Component, x: SimpleEigenvalueVector) -> Spectrum:
    """A component's spectrum computed afresh from c and x, with no record
    shared by (shape, values) as `spectrum.shape_spectrum` keeps: every
    root of the shape evaluated on the side-normalized values, plus the
    zero padding."""
    vals = x.side_normalized(c)
    family = c.shape.family
    if family in "ABCD":
        counts = Counter(epsilon_root_values(
            family, twice_epsilon_values(family, vals)))
    else:
        counts = Counter(sum(b * v for b, v in zip(beta, vals))
                         for beta in build_root_system(c.shape).positive_roots)
    counts[0] += zero_padding(c.shape)
    return Spectrum.from_counter(counts)


def solve_eigenvalues(s: Seaweed, sides: tuple[tuple[Component, ...],
                                                tuple[Component, ...]]
                      ) -> SimpleEigenvalueVector:
    """Solve the constraints of s's (tops, bottoms) component pair by
    walking the meander from per-call mate tables.

    On each side, mate[v] is v's partner in its orbit row, with the row's
    value, side sign folded in, in total[v]: mate[v] == v pins x_v, and
    mate[v] == 0 means v has no row on that side.  Each walk starts at a
    pin and sets x_w = total - x_v at each step; a second pin, or a value
    already set, is checked against the value reached.
    """
    n = s.rank
    mates, totals = [], []
    for comps in sides:
        mate, total = [0] * (n + 1), [0] * (n + 1)
        for c in comps:
            partner, value = _orbit_rows(c.shape)
            sgn, order = c.side.sign, c.order
            for a, j, v in zip(order, partner, value):
                mate[a] = order[j]
                total[a] = sgn * v
        mates.append(mate)
        totals.append(total)
    x: list[int | None] = [None] * (n + 1)
    inconsistent = False
    for side in (0, 1):
        for start in range(1, n + 1):
            if mates[side][start] != start or x[start] is not None:
                continue
            x[start] = totals[side][start]
            v, t = start, 1 - side
            while w := mates[t][v]:
                value = totals[t][v] - (0 if w == v else x[v])
                if x[w] is not None:
                    inconsistent |= x[w] != value
                    break
                x[w] = value
                v, t = w, 1 - t
    problem = ("inconsistent" if inconsistent
               else "underdetermined" if None in x[1:] else None)
    if problem:
        raise AssertionError(
            f"constraint system for {s} is {problem} linear system; this "
            "indicates a component-classification bug")
    return SimpleEigenvalueVector(tuple(x[1:]))


def build_parser() -> argparse.ArgumentParser:
    # options shared by several subcommands, declared once as parents
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--type", required=True,
                        help="A, B, C, D (with --rank) or E6, E7, E8, F4, G2")
    common.add_argument("--rank", type=int)
    common.add_argument("--bourbaki", action="store_true",
                        help="confirm Bourbaki indexing (exceptional types only)")
    common.add_argument("--out", help="write the output to this file, not stdout")
    sides = argparse.ArgumentParser(add_help=False)
    sides.add_argument("--top",
                       help="comma list of simple-root indices, e.g. 9,7,6")
    sides.add_argument("--top-comp", help="composition form, e.g. 1,1,5,1")
    sides.add_argument("--bottom")
    sides.add_argument("--bottom-comp")
    table = argparse.ArgumentParser(add_help=False)
    table.add_argument("--format", choices=("json", "table"), default="table")

    parser = argparse.ArgumentParser(
        prog="seaweed",
        description="Frobenius seaweeds: meanders, spectra, catalogs")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help_, *parents):
        p = sub.add_parser(name, help=help_, parents=[common, *parents])
        p.set_defaults(func=func)
        return p

    command("check", cmd_check, "orbits and the Frobenius test", sides, table)
    command("spectrum", cmd_spectrum, "simple eigenvalues and the spectrum",
            sides, table).add_argument("--decompose", action="store_true")
    command("enumerate", cmd_enumerate, "catalog all Frobenius seaweeds"
            ).add_argument("--check-appendix-a", action="store_true")
    command("oracle", cmd_oracle, "exact matrix cross-check (type A)", sides
            ).add_argument("--seed", type=int)  # None: oracle.DEFAULT_SEED
    command("render", cmd_render, "draw the orbit meander", sides
            ).add_argument("--format", choices=("svg", "tikz"), default="svg")
    return parser
