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
from itertools import accumulate
from math import lcm

from ._linalg import MOD_PRIMES, rank_int_rows, rank_mod_p, solve_unique
from .seaweed import Seaweed
from .spectrum import Spectrum

Matrix = tuple[tuple[Fraction, ...], ...]

DEFAULT_SEED = 1729
SAMPLE_COUNT = 20
COEFF_BOUND = 100
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

    def element(self, coords) -> Matrix:
        """Dense matrix for a coordinate vector over the basis."""
        n = self.n
        dense = [[Fraction(0)] * n for _ in range(n)]
        for i in range(n - 1):
            dense[i][i] += coords[i]
            dense[i + 1][i + 1] -= coords[i]
        for (r, c), x in zip(self.units, coords[n - 1:]):
            dense[r][c] += x
        return tuple(tuple(row) for row in dense)

    def coordinates(self, mat: Matrix) -> list[Fraction]:
        """Express a matrix in the basis; fails if it is outside the span."""
        n = self.n
        diag = [mat[i][i] for i in range(n)]
        if sum(diag) != 0:
            raise ValueError("matrix has nonzero trace")
        units = set(self.units)
        if any(mat[r][c] for r in range(n) for c in range(n)
               if r != c and (r, c) not in units):
            raise ValueError("matrix lies outside the algebra")
        # the coefficient of h_i is the diagonal summed down to row i
        return (list(accumulate(diag[:-1]))
                + [mat[r][c] for r, c in self.units])


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


@dataclass(frozen=True)
class Functional:
    """A linear form on the algebra, one integer coefficient per basis slot."""

    coefficients: tuple[int, ...]

    def of_coords(self, coords: dict[int, int]) -> int:
        return sum(self.coefficients[k] * v for k, v in coords.items())


def functional_from_labels(m: MatrixSeaweed, assignment: dict[str, int]) -> Functional:
    return Functional(tuple(assignment.get(lab, 0) for lab in m.labels))


def sample_functionals(m: MatrixSeaweed, count: int = SAMPLE_COUNT,
                       seed: int = DEFAULT_SEED) -> list[Functional]:
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        out.append(Functional(tuple(
            rng.randint(-COEFF_BOUND, COEFF_BOUND) for _ in range(m.dim))))
    return out


def kirillov_matrix(m: MatrixSeaweed, f: Functional) -> list[list[int]]:
    """The antisymmetric form f([b_p, b_q]) on the basis."""
    d = m.dim
    mat = [[0] * d for _ in range(d)]
    for p in range(d):
        for q in range(p + 1, d):
            val = f.of_coords(m.bracket_coords(p, q))
            mat[p][q] = val
            mat[q][p] = -val
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
        r = rank_mod_p(kmat, MOD_PRIMES[0])
        if r > best_rank:
            best_rank, best, best_matrix = r, f, kmat
            if r == d:
                return IndexCertificate(0, f, samples)
    if best_matrix is not None:
        best_rank = rank_int_rows(best_matrix)
    return IndexCertificate(d - best_rank, best, samples)


def principal_element(m: MatrixSeaweed, f: Functional) -> Matrix:
    """The unique element whose coadjoint action fixes the functional f:
    row p of the system is f([b_q, b_p]) over q, the transposed form."""
    rows = list(zip(*kirillov_matrix(m, f)))
    try:
        coords = solve_unique(rows, list(f.coefficients), m.dim)
    except ValueError as exc:
        raise ValueError(f"functional is not Frobenius: {exc}") from exc
    return m.element(coords)


def ad_matrix(m: MatrixSeaweed, fhat: Matrix) -> list[list[Fraction]]:
    """Adjoint action of fhat on the algebra, in basis coordinates."""
    coords = m.coordinates(fhat)
    d = m.dim
    cols = []
    for q in range(d):
        col = [Fraction(0)] * d
        for p in range(d):
            cp = coords[p]
            if cp:
                for k, v in m.bracket_coords(p, q).items():
                    col[k] += cp * v
        cols.append(col)
    return [[cols[q][k] for q in range(d)] for k in range(d)]


def ad_spectrum(m: MatrixSeaweed, fhat: Matrix) -> Spectrum:
    """Eigenvalue multiplicities of ad(fhat) over the scan window.

    Multiplicities are kernel co-ranks at every integer shift in
    [-(n+1), n+1]; they must sum to the algebra dimension, which certifies
    that the adjoint is diagonalizable with spectrum inside the window.
    The adjoint is scaled once by the lcm of its denominators, so every
    shifted matrix is an integer one.
    """
    admat = ad_matrix(m, fhat)
    d = m.dim
    scale = lcm(*(x.denominator for row in admat for x in row))
    scaled = [[int(x * scale) for x in row] for row in admat]
    counts: Counter = Counter()
    for k in range(-(m.n + 1), m.n + 2):
        shifted = [row[:] for row in scaled]
        for i in range(d):
            shifted[i][i] -= k * scale
        if rank_mod_p(shifted, MOD_PRIMES[0]) < d:
            # the modular probe lost rank or the kernel is real; settle it exactly
            mult = d - rank_int_rows(shifted)
            if mult:
                counts[k] = mult
    if sum(counts.values()) != d:
        raise ValueError(
            "non-integer spectrum: eigenspace dimensions sum to "
            f"{sum(counts.values())} over the integer window, expected {d}")
    return Spectrum.from_counter(counts)
