"""Independent verification for type A via explicit trace-zero matrices.

A seaweed over A_{n-1} is realized inside sl(n) as the span of the diagonal
differences together with one matrix unit per defining root: upper
triangular units for the top subset, lower for the bottom.  Brackets come
in closed form from the sl(n) rules.  Everything here is exact: the
antisymmetric form of an integer functional is an integer matrix, and its
rank is computed over the integers (with a modular shortcut that is only
trusted when it certifies itself).

On a Frobenius algebra one full-width modular elimination is the whole
certificate.  `frobenius_functional` reads a functional f off the
meander's arcs, and a full rank mod p of its Kirillov matrix K proves f
regular, hence the index 0.  The principal element is then the diagonal
element h with h_r - h_c = 1 on every arc (r, c), found by a walk over the
arcs (`principal_element`); K nonsingular makes it the unique one.  Every
unit is an eigenvector of ad h, so the spectrum is read off h's diagonal
(`ad_spectrum`).
"""
from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, chain, islice
from typing import NamedTuple

from ._linalg import rank_int_rows, rank_mod_p, ranks_mod_p
from .rootsys import _frozen
from .seaweed import Seaweed
from .spectrum import Spectrum

# A linear form on the algebra, one integer coefficient per basis slot.
Functional = tuple[int, ...]

DEFAULT_SEED = 1729
SAMPLE_COUNT = 20
COEFF_BOUND = 100
# The dense eliminations grow steeply with the rank: `seaweed oracle` on full
# sl(17) (A16), which is not Frobenius, took 23.2 s in a cold process on a
# 2-core VM with Python 3.11.7 and numpy 2.4.6, nearly all of it in the
# exact confirmation of its index.
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

    A full rank mod p = PRIME of its Kirillov matrix K proves K
    nonsingular over the rationals: the functional is regular and the
    index is 0.  On every Frobenius entry of A1-A6, |det K| = (rank+1)^2,
    far below p, so the prime does not refuse a regular one there.
    Raises ValueError when K is singular mod p.
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
    if rank_mod_p(kirillov_matrix(m, [f])[0]) < m.dim:
        raise ValueError("the meander functional is singular mod p: the "
                         "algebra is not Frobenius")
    return f


def principal_element(m: MatrixSeaweed, f: Functional) -> list[Fraction]:
    """Basis coordinates of the diagonal element h whose coadjoint action
    fixes the functional f, walked off the units where f is nonzero.

    A unit E_rc is an eigenvector of ad h with eigenvalue h_r - h_c, and h
    commutes with the Cartan slots, so f([h, x]) = f(x) for every basis
    vector x exactly when f is 0 on the Cartan slots and h_r - h_c = 1 on
    every unit (r, c) of f's support: its arcs.  The walk sets the
    heights h_r from position 0 along the arcs, and trace zero fixes the
    constant.  On the meander functional of a Frobenius seaweed the arcs
    form one path through all n positions (Dergachev-Kirillov:
    ind = 2C + P - 1 = 0), so every position is reached once.  When f is
    regular, as `frobenius_functional` certifies, its Kirillov matrix is
    nonsingular and h is the unique principal element.

    The coordinates are h_i first, each the diagonal of h summed down to
    entry i, then 0 on every unit.  Raises ValueError when f is nonzero on
    a Cartan slot, when the arcs do not reach every position, or when they
    close inconsistently: no diagonal element then fixes f.
    """
    n, h = m.n, m.n - 1
    if any(f[:h]):
        raise ValueError("no diagonal principal element: the functional is "
                         "nonzero on a Cartan slot")
    steps: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for (r, c), coeff in zip(m.units, f[h:]):
        if coeff:
            steps[r].append((c, -1))
            steps[c].append((r, 1))
    height = {0: 0}
    todo = [0]
    while todo:
        a = todo.pop()
        for b, step in steps[a]:
            if b not in height:
                height[b] = height[a] + step
                todo.append(b)
            elif height[b] != height[a] + step:
                raise ValueError("no diagonal principal element: the arcs "
                                 "close inconsistently")
    if len(height) < n:
        raise ValueError("no diagonal principal element: the arcs reach "
                         f"{len(height)} of {n} positions")
    mean = Fraction(sum(height.values()), n)
    return [*accumulate(height[i] - mean for i in range(h)),
            *[Fraction(0)] * len(m.units)]


def ad_spectrum(m: MatrixSeaweed, coords) -> Spectrum:
    """Eigenvalue multiplicities of the adjoint action of the diagonal
    element with basis coordinates coords, as `principal_element` gives
    them.

    The diagonal entries are the differences of consecutive h_i
    coordinates.  Each unit E_rc is an eigenvector of eigenvalue
    h_r - h_c, and each of the n - 1 Cartan slots one of eigenvalue 0.
    Raises ValueError when a unit coordinate is nonzero (the element is
    not diagonal) or an eigenvalue is not an integer.
    """
    h = m.n - 1
    if any(coords[h:]):
        raise ValueError("not a diagonal element: a unit coordinate is "
                         "nonzero")
    x = [0, *coords[:h], 0]
    diagonal = [b - a for a, b in zip(x, x[1:])]
    counts = Counter({0: h})
    for r, c in m.units:
        k = diagonal[r] - diagonal[c]
        if k != int(k):
            raise ValueError(f"non-integer spectrum: eigenvalue {k} on the "
                             f"unit e{r + 1},{c + 1}")
        counts[int(k)] += 1
    return Spectrum.from_counter(counts)
