"""Independent verification for type A via explicit trace-zero matrices.

A seaweed over A_{n-1} is realized inside sl(n) as the span of the diagonal
differences together with one matrix unit per defining root: upper
triangular units for the top subset, lower for the bottom.  Brackets come
in closed form from the sl(n) rules.  Everything here is exact: the
antisymmetric form of an integer functional is an integer matrix, and its
rank, the principal element and the eigenspace dimensions of its adjoint
action are computed over the integers and rationals (with a modular
shortcut that is only trusted when it certifies itself).

On a Frobenius algebra one full-width modular elimination serves three
results.  `frobenius_functional` reads a regular functional off the
meander's arcs and inverts its Kirillov matrix K mod p.  That inverse W
proves the functional regular, hence the index 0, and the principal
element is read off the same W and K (`principal_element`), so neither
is eliminated or built again.
"""
from __future__ import annotations

import random
from collections import Counter
from functools import cached_property
from itertools import chain, islice
from math import lcm
from typing import TYPE_CHECKING, NamedTuple

from ._linalg import (PRIME, ModularInverse, _residues, rank_int_rows,
                      rank_mod_p, ranks_mod_p, rational_solution)
from .rootsys import _frozen, connected_components
from .seaweed import Seaweed
from .spectrum import Spectrum

if TYPE_CHECKING:
    from fractions import Fraction

# A linear form on the algebra, one integer coefficient per basis slot.
Functional = tuple[int, ...]

DEFAULT_SEED = 1729
SAMPLE_COUNT = 20
COEFF_BOUND = 100
# The dense eliminations grow steeply with the rank: `seaweed oracle` on full
# sl(17) (A16), which is not Frobenius, took 27.2 s in a cold process on a
# 2-core VM with Python 3.11, nearly all of it in the exact confirmation of
# its index.
ORACLE_RANK_GUARD = 16


class MatrixSeaweed:
    """A Lie algebra of trace-zero n x n matrices with a distinguished basis.

    Slots 0..n-2 hold h_i = E_ii - E_i+1,i+1; the slots after them hold the
    off-diagonal units E_rc listed in `units` as 0-based (row, col) pairs.
    Fields are read-only; equality is identity.
    """

    __setattr__ = __delattr__ = _frozen

    def __init__(self, n: int, units: tuple[tuple[int, int], ...]) -> None:
        vars(self).update(n=n, units=units)

    @property
    def dim(self) -> int:
        return self.n - 1 + len(self.units)

    @property
    def labels(self) -> tuple[str, ...]:
        return (tuple(f"h{i + 1}" for i in range(self.n - 1))
                + tuple(f"e{r + 1},{c + 1}" for r, c in self.units))

    @cached_property
    def _slot_terms(self) -> list[list[tuple[int, int, int]]]:
        """The structure constants, by slot: for each slot k, every
        (p, q, v) with p < q such that [b_p, b_q] has coefficient v at slot
        k.  They come from the sl(n) rules
        [E_ab, E_cd] = d_bc E_ad - d_da E_cb and
        [h_i, E_rc] = (<i,r> - <i,c>) E_rc, where <i,a> is the coefficient
        of E_aa in h_i; E_aa - E_bb telescopes into h_a + ... + h_(b-1)."""
        n = self.n
        slot = {unit: k for k, unit in enumerate(self.units, n - 1)}
        terms: list[list[tuple[int, int, int]]] = [[] for _ in range(self.dim)]

        def unit_terms(r: int, c: int, p: int,
                       q: int) -> list[tuple[int, int, int]]:
            if (r, c) not in slot:
                raise AssertionError(
                    "bracket left the span: slot "
                    f"({r},{c}) from [{self.labels[p]},{self.labels[q]}]")
            return terms[slot[(r, c)]]

        def weight(i: int, a: int) -> int:
            return (i == a) - (i + 1 == a)

        for (r, c), q in slot.items():
            for i in range(n - 1):
                w = weight(i, r) - weight(i, c)
                if w:
                    terms[q].append((i, q, w))
        units = list(slot.items())
        for x, ((a, b), p) in enumerate(units):
            for (c, e), q in units[x + 1:]:
                if b == c and e == a:
                    sign = 1 if a < b else -1
                    for i in range(min(a, b), max(a, b)):
                        terms[i].append((p, q, sign))
                elif b == c:
                    unit_terms(a, e, p, q).append((p, q, 1))
                elif e == a:
                    unit_terms(c, b, p, q).append((p, q, -1))
        return terms

    @cached_property
    def _inverses(self) -> dict:
        """The modular inverse of the Kirillov matrix that
        frobenius_functional last certified, keyed by its functional; the
        inverse holds that matrix too."""
        return {}


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


def _draws(m: MatrixSeaweed, seed: int):
    """Functionals with coefficients in [-COEFF_BOUND, COEFF_BOUND], drawn
    one at a time from the seeded stream."""
    rng = random.Random(seed)
    while True:
        yield tuple(rng.randint(-COEFF_BOUND, COEFF_BOUND)
                    for _ in range(m.dim))


def kirillov_matrix(m: MatrixSeaweed, fs: list[Functional]):
    """The antisymmetric forms f([b_p, b_q]) of the functionals fs on the
    basis, as one int64 array of shape (len(fs), dim, dim): the upper
    triangle U gathers the terms (p < q) of every slot and the form is
    U - U^T.  Exact for coefficients below 2^31: an entry is a sum of
    fewer than n terms c * v with |v| <= 2."""
    import numpy as np  # deferred: check and spectrum runs never load numpy
    d, count = m.dim, len(fs)
    p, q, v = np.fromiter(chain.from_iterable(chain.from_iterable(
        m._slot_terms)), dtype=np.int64).reshape(-1, 3).T
    slots = np.repeat(np.arange(d), [len(terms) for terms in m._slot_terms])
    coeffs = np.array(fs, dtype=np.int64).reshape(count, d)
    upper = np.zeros((count, d, d), dtype=np.int64)
    at = np.arange(count)[:, None] * (d * d) + p * d + q
    np.add.at(upper.reshape(-1), at.ravel(), (coeffs[:, slots] * v).ravel())
    return upper - upper.transpose(0, 2, 1)


class IndexCertificate(NamedTuple):
    index: int
    witness: Functional | None      # functional attaining the maximal rank
    samples: int


def index(m: MatrixSeaweed, seed: int = DEFAULT_SEED,
          samples: int = SAMPLE_COUNT) -> IndexCertificate:
    """Dimension minus the best form rank of the first `samples`
    functionals of the seeded stream `_draws`.

    The generic rank is attained on a Zariski-open set, so the sampled value
    is exact up to a vanishing failure probability.  The Kirillov matrix is
    alternating, so its rank over any field is even and at most
    cap = dim - dim % 2, and its rank mod p is at most its rank over the
    rationals.  The functionals are drawn one at a time: when the modular
    rank of the first reaches the cap, it proves the maximum, it is the
    witness and nothing else is drawn.  Otherwise the other samples are
    ranked mod p together as one stack (`ranks_mod_p`), the witness is the
    first sample of the largest modular rank, and exact elimination
    confirms that rank unless it reaches the cap.  No witness is named
    when every sample has rank 0.
    """
    d = m.dim
    cap = d - d % 2
    draws = islice(_draws(m, seed), samples)
    fs = list(islice(draws, 1))
    ranks = [rank_mod_p(k) for k in kirillov_matrix(m, fs)]
    if ranks and ranks[0] < cap:
        fs += draws
        ranks += ranks_mod_p(kirillov_matrix(m, fs[1:]))
    best_rank = max(ranks, default=0)
    if not best_rank:
        return IndexCertificate(d, None, samples)
    best = fs[ranks.index(best_rank)]
    if best_rank < cap:
        best_rank = rank_int_rows(kirillov_matrix(m, [best])[0].tolist())
    return IndexCertificate(d - best_rank, best, samples)


def frobenius_functional(m: MatrixSeaweed) -> Functional:
    """The meander functional, certified regular by a full modular rank.

    The top blocks are the maximal runs of positions joined by the upper
    units (k, k+1), the bottom blocks those joined by the lower units
    (k+1, k).  A block [a, e] puts 1 on its units (a+t, e-t) on top, or
    (e-t, a+t) at the bottom, for t < (e-a+1) // 2: the arcs of the
    type-A meander, taken as unit slots.  Every other slot, the Cartan
    slots included, gets 0.  On a Frobenius seaweed this functional is
    regular (Coll-Hyatt-Magnant-Wang, "Meander graphs and Frobenius
    seaweed Lie algebras II", 2015); all regular functionals of a Frobenius
    algebra give conjugate principal elements (Gerstenhaber-Giaquinto),
    hence one spectrum.

    One ModularInverse of its Kirillov matrix K proves K nonsingular mod
    p = PRIME, hence over the rationals: the functional is regular and the
    index is 0.  On every Frobenius entry of A1-A6, |det K| = (rank+1)^2,
    far below p, so the prime does not refuse a regular one there.  The
    inverse is kept on m, with that K, for `principal_element`.  Raises
    ValueError when K is singular mod p.
    """
    slot = {unit: k for k, unit in enumerate(m.units, m.n - 1)}
    coeffs = [0] * m.dim
    for upper in (True, False):
        a = 0
        for e in range(m.n):
            if ((e, e + 1) if upper else (e + 1, e)) in slot:
                continue            # the block goes on past e
            for t in range((e - a + 1) // 2):
                coeffs[slot[(a + t, e - t) if upper else (e - t, a + t)]] = 1
            a = e + 1
    f = tuple(coeffs)
    try:
        inverse = ModularInverse(kirillov_matrix(m, [f])[0])
    except ValueError:
        raise ValueError("the meander functional is singular mod p: the "
                         "algebra is not Frobenius") from None
    m._inverses.clear()
    m._inverses[f] = inverse
    return f


def principal_element(m: MatrixSeaweed, f: Functional) -> list[Fraction]:
    """Basis coordinates of the unique element whose coadjoint action fixes
    the functional f: row p of the system is f([b_q, b_p]) over q, the
    transposed Kirillov matrix K^T = -K, so the system is K x = -f.

    It is solved through the modular inverse W of K: the one
    frobenius_functional certified when f is its result, which holds the
    K it certified, else a fresh ModularInverse of a new K.  The solution
    mod p, -W f, is rebuilt rationally and checked exactly
    (`rational_solution`); fraction-free integer elimination runs only when
    K is singular mod p or that check fails.
    Raises ValueError when f is not regular.
    """
    inverse = m._inverses.get(tuple(f))
    if inverse is not None:
        kmat = inverse.matrix
    else:
        kmat = kirillov_matrix(m, [f])[0]
        try:
            inverse = ModularInverse(kmat)
        except ValueError:      # singular mod p: the exact solve decides
            pass
    try:
        return rational_solution(kmat.tolist(), [-c for c in f], inverse)
    except ValueError as exc:
        raise ValueError(f"functional is not Frobenius: {exc}") from exc


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
    eigenvalue.  The shifted copies of a larger piece are ranked mod p as
    one stack (`ranks_mod_p`), and exact elimination settles every shift
    whose modular rank falls short.
    """
    import numpy as np  # deferred, as in kirillov_matrix
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
