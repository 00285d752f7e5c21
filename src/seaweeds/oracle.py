"""Independent verification for type A via explicit trace-zero matrices.

A seaweed over A_{n-1} is realized inside sl(n) as the span of the diagonal
differences together with one matrix unit per defining root: upper
triangular units for the top subset, lower for the bottom.  Brackets come
in closed form from the sl(n) rules.  Everything here is exact: the
antisymmetric form of an integer functional is an integer matrix, and its
rank, the principal element and the eigenspace dimensions of its adjoint
action are computed over the integers and rationals (with a modular
shortcut that is only trusted when it certifies itself).
"""
from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm

from ._linalg import (PRIME, ModularInverse, rank_int_rows, rank_mod_p,
                      solve_nonsingular)
from .rootsys import connected_components
from .seaweed import Seaweed
from .spectrum import Spectrum

# A linear form on the algebra, one integer coefficient per basis slot.
Functional = tuple[int, ...]

DEFAULT_SEED = 1729
SAMPLE_COUNT = 20
COEFF_BOUND = 100
# Draws of frobenius_functional before it gives up.  On a Frobenius algebra
# a draw fails with probability at most dim / (2p), so only a non-Frobenius
# algebra uses them up.
FUNCTIONAL_DRAWS = 4
# The dense eliminations grow steeply with the rank: the index of full sl(17)
# (A16) alone takes about 14 s.
ORACLE_RANK_GUARD = 16


@dataclass(frozen=True)
class MatrixSeaweed:
    """A Lie algebra of trace-zero n x n matrices with a distinguished basis.

    Slots 0..n-2 hold h_i = E_ii - E_i+1,i+1; the slots after them hold the
    off-diagonal units E_rc listed in `units` as 0-based (row, col) pairs.
    """

    n: int
    units: tuple[tuple[int, int], ...]

    @property
    def dim(self) -> int:
        return self.n - 1 + len(self.units)

    @property
    def labels(self) -> tuple[str, ...]:
        return (tuple(f"h{i + 1}" for i in range(self.n - 1))
                + tuple(f"e{r + 1},{c + 1}" for r, c in self.units))

    @cached_property
    def _brackets(self) -> list[list[dict[int, int]]]:
        return _build_brackets(self)

    def bracket_coords(self, p: int, q: int) -> dict[int, int]:
        return self._brackets[p][q]

    @cached_property
    def _slot_terms(self) -> list[list[tuple[int, int, int]]]:
        """For each slot k, every (p, q, v) with p < q such that [b_p, b_q]
        has coefficient v at slot k: the entries a functional's value on
        slot k feeds in its Kirillov matrix."""
        terms: list[list[tuple[int, int, int]]] = [[] for _ in range(self.dim)]
        for p, row in enumerate(self._brackets):
            for q in range(p + 1, self.dim):
                for k, v in row[q].items():
                    terms[k].append((p, q, v))
        return terms


def _build_brackets(m: MatrixSeaweed) -> list[list[dict[int, int]]]:
    """Bracket coordinates of every basis pair, from the sl(n) rules
    [E_ab, E_cd] = d_bc E_ad - d_da E_cb and [h_i, E_rc] = (<i,r> - <i,c>) E_rc,
    where <i,a> is the coefficient of E_aa in h_i; E_aa - E_bb telescopes
    into h_a + ... + h_(b-1)."""
    n, d = m.n, m.dim
    slot = {unit: k for k, unit in enumerate(m.units, n - 1)}
    table: list[list[dict[int, int]]] = [[{} for _ in range(d)] for _ in range(d)]

    def put(p: int, q: int, coords: dict[int, int]) -> None:
        table[p][q] = coords
        table[q][p] = {k: -v for k, v in coords.items()}

    def unit(r: int, c: int, p: int, q: int) -> int:
        if (r, c) not in slot:
            raise AssertionError(
                "bracket left the span: slot "
                f"({r},{c}) from [{m.labels[p]},{m.labels[q]}]")
        return slot[(r, c)]

    def weight(i: int, a: int) -> int:
        return (i == a) - (i + 1 == a)

    for (r, c), q in slot.items():
        for i in range(n - 1):
            w = weight(i, r) - weight(i, c)
            if w:
                put(i, q, {q: w})
    units = list(slot.items())
    for x, ((a, b), p) in enumerate(units):
        for (c, e), q in units[x + 1:]:
            if b == c and e == a:
                sign = 1 if a < b else -1
                put(p, q, {i: sign for i in range(min(a, b), max(a, b))})
            elif b == c:
                put(p, q, {unit(a, e, p, q): 1})
            elif e == a:
                put(p, q, {unit(c, b, p, q): -1})
    return table


def realize_type_a(s: Seaweed) -> MatrixSeaweed:
    """Matrix model of a type-A seaweed: diagonals plus one unit per root.

    The roots of a side are its runs alpha_i..alpha_j of consecutive simple
    roots, in the ambient positive-root order; each gives the upper unit
    E_(n-j-1, n-i) on top and its transpose on the bottom.  Ranks above
    ORACLE_RANK_GUARD are refused.
    """
    t = s.root_system.lie_type
    if t.family != "A":
        raise ValueError("matrix realizations are available for type A only")
    if t.rank > ORACLE_RANK_GUARD:
        raise ValueError(f"rank {t.rank} exceeds the matrix-oracle guard "
                         f"({ORACLE_RANK_GUARD})")
    n = t.rank + 1
    units = [(n - j - 1, n - i) for i, j in _runs(s.pi1)]
    units += [(n - i, n - j - 1) for i, j in _runs(s.pi2)]
    return MatrixSeaweed(n, tuple(units))


def _runs(sigma) -> list[tuple[int, int]]:
    """Every (i, j) with alpha_i, ..., alpha_j all in sigma, by height and
    then by start index, descending: the order of the positive roots."""
    end: dict[int, int] = {}
    for i in sorted(sigma, reverse=True):
        end[i] = end.get(i + 1, i)
    return sorted(((i, j) for i in end for j in range(i, end[i] + 1)),
                  key=lambda run: (run[1] - run[0], -run[0]))


def poset_algebra_sl4() -> MatrixSeaweed:
    """The 8-dimensional incidence algebra of the poset 1,2 < 3 < 4 in sl(4)."""
    return MatrixSeaweed(4, ((0, 2), (1, 2), (0, 3), (1, 3), (2, 3)))


def functional_from_labels(m: MatrixSeaweed, assignment: dict[str, int]) -> Functional:
    return tuple(assignment.get(lab, 0) for lab in m.labels)


def sample_functionals(m: MatrixSeaweed, count: int = SAMPLE_COUNT,
                       seed: int = DEFAULT_SEED) -> list[Functional]:
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        out.append(tuple(
            rng.randint(-COEFF_BOUND, COEFF_BOUND) for _ in range(m.dim)))
    return out


def kirillov_matrix(m: MatrixSeaweed, f: Functional) -> list[list[int]]:
    """The antisymmetric form f([b_p, b_q]) on the basis."""
    mat = [[0] * m.dim for _ in range(m.dim)]
    for c, terms in zip(f, m._slot_terms):
        if c:
            for p, q, v in terms:
                mat[p][q] += c * v
                mat[q][p] -= c * v
    return mat


def kirillov_rank(m: MatrixSeaweed, f: Functional) -> int:
    """Exact rank of the antisymmetric form of f."""
    return rank_int_rows(kirillov_matrix(m, f))


@dataclass(frozen=True)
class IndexCertificate:
    index: int
    witness: Functional | None      # functional attaining the maximal rank
    samples: int


def index(m: MatrixSeaweed, seed: int = DEFAULT_SEED,
          samples: int = SAMPLE_COUNT) -> IndexCertificate:
    """Dimension minus the best sampled form rank.

    The generic rank is attained on a Zariski-open set, so the sampled value
    is exact up to a vanishing failure probability; a full-rank modular
    probe is already a proof, and the best non-full sample is confirmed by
    exact elimination.
    """
    d = m.dim
    best_rank = 0
    best: Functional | None = None
    best_matrix = None
    for f in sample_functionals(m, samples, seed):
        kmat = kirillov_matrix(m, f)
        r = rank_mod_p(kmat)
        if r > best_rank:
            best_rank, best, best_matrix = r, f, kmat
            if r == d:
                return IndexCertificate(0, f, samples)
    if best_matrix is not None:
        best_rank = rank_int_rows(best_matrix)
    return IndexCertificate(d - best_rank, best, samples)


def frobenius_functional(m: MatrixSeaweed, seed: int = DEFAULT_SEED) -> Functional:
    """A sparse regular functional, certified by a full modular rank.

    A draw puts uniform residues mod p = PRIME on the unit slots and
    0 on the Cartan slots.  The Pfaffian of the Kirillov matrix is a
    polynomial of degree dim/2 in them, so a draw is singular mod p with
    probability at most dim / (2p) (Schwartz-Zippel) unless every regular
    functional is nonzero on the Cartan slots; after FUNCTIONAL_DRAWS
    singular draws, ValueError is raised.  Passes over the unit slots then
    replace each coefficient by 0, or else a residue by 1 or -1, keeping the
    first value under which the Kirillov matrix stays of full rank mod p,
    until a pass changes nothing (each step is an update of the modular
    inverse, see ModularInverse).  So every surviving coefficient is
    needed, and one outside {-1, 0, 1} survives only where none of the
    three keeps the rank, which no Frobenius type-A seaweed up to rank 8
    showed (seeds 1 and 2).  A final full rank mod p of the integer
    Kirillov matrix proves the result regular.

    All regular functionals of a Frobenius algebra give conjugate principal
    elements, hence one spectrum; a sparse one keeps the principal
    element's denominators small.  Uniform {-1, 0, 1} draws are regular
    too rarely to start from: 6% of the time on p^A8(8,6,4,1|8,7,5,3,2,1).
    """
    h, d = m.n - 1, m.dim
    rng = random.Random(seed)
    for _ in range(FUNCTIONAL_DRAWS):
        coeffs = [0] * h + [rng.randrange(PRIME) for _ in m.units]
        try:
            inverse = ModularInverse(kirillov_matrix(m, coeffs))
            break
        except ValueError:
            continue
    else:
        raise ValueError(f"no regular functional in {FUNCTIONAL_DRAWS} "
                         "draws: the algebra is not Frobenius")
    blocks = [_slot_block(terms) for terms in m._slot_terms[h:]]
    changed = True
    while changed:
        changed = False
        for k, (rows, block) in enumerate(blocks, h):
            c = coeffs[k]
            if c == 0:
                continue
            for v in (0,) if c in (1, -1) else (0, 1, -1):
                if inverse.try_add(rows, block, v - c):
                    coeffs[k], changed = v, True
                    break
    f = tuple(coeffs)
    if rank_mod_p(kirillov_matrix(m, f)) != d:
        raise AssertionError("the functional search lost the full rank")
    return f


def _slot_block(terms: list[tuple[int, int, int]]):
    """The rows and columns that slot terms touch, as an index array, and
    the antisymmetric block the terms form on them."""
    import numpy as np  # deferred: check and spectrum runs never load numpy
    rows = sorted({a for a, _, _ in terms} | {b for _, b, _ in terms})
    at = {x: i for i, x in enumerate(rows)}
    block = np.zeros((len(rows), len(rows)), dtype=np.int64)
    for a, b, v in terms:
        block[at[a], at[b]] = v
        block[at[b], at[a]] = -v
    return np.array(rows, dtype=np.intp), block


def principal_element(m: MatrixSeaweed, f: Functional) -> list[Fraction]:
    """Basis coordinates of the unique element whose coadjoint action fixes
    the functional f: row p of the system is f([b_q, b_p]) over q, the
    transposed form.

    The system is solved mod a prime, rebuilt rationally and checked
    exactly (`solve_nonsingular`); exact elimination runs only when that
    certificate fails.  Raises ValueError when f is not regular.
    """
    rows = list(zip(*kirillov_matrix(m, f)))
    try:
        return solve_nonsingular(rows, list(f))
    except ValueError as exc:
        raise ValueError(f"functional is not Frobenius: {exc}") from exc


def ad_matrix(m: MatrixSeaweed, coords) -> list:
    """The matrix of the adjoint action of sum coords[p] b_p on the
    algebra, in basis coordinates; integer coordinates give an integer
    matrix."""
    d = m.dim
    mat = [[0] * d for _ in range(d)]
    for p, cp in enumerate(coords):
        if cp:
            for q in range(d):
                for k, v in m.bracket_coords(p, q).items():
                    mat[k][q] += cp * v
    return mat


def ad_spectrum(m: MatrixSeaweed, coords) -> Spectrum:
    """Eigenvalue multiplicities of the adjoint action of the element with
    basis coordinates coords, over the scan window.

    Multiplicities are kernel co-ranks at every integer shift in
    [-(n+1), n+1]; they must sum to the algebra dimension, which certifies
    that the adjoint is diagonalizable with spectrum inside the window.
    The coordinates are scaled once by the lcm of their denominators, so
    the adjoint and every shifted matrix are integer ones.  The adjoint is
    block diagonal on the pieces of the graph of its off-diagonal entries,
    so each piece is scanned on its own; a piece of one basis vector (every
    piece when the element lies in the Cartan subalgebra) holds its own
    eigenvalue.
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
        for k in window:
            shifted = [row[:] for row in sub]
            for i in range(b):
                shifted[i][i] -= k * scale
            if rank_mod_p(shifted) < b:
                # the modular probe lost rank or the kernel is real; settle it exactly
                mult = b - rank_int_rows(shifted)
                if mult:
                    counts[k] += mult
    if sum(counts.values()) != d:
        raise ValueError(
            "non-integer spectrum: eigenspace dimensions sum to "
            f"{sum(counts.values())} over the integer window, expected {d}")
    return Spectrum.from_counter(counts)
