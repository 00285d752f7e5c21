"""Independent verification for type A via explicit trace-zero matrices.

A seaweed over A_{n-1} is realized inside sl(n) as the span of the diagonal
differences together with one matrix unit per defining root: upper
triangular units for the top subset, lower for the bottom.  Brackets come
in closed form from the sl(n) rules.  Everything here is exact: the
antisymmetric form of an integer functional is an integer matrix, and its
rank is computed over the integers (with a modular shortcut that is only
trusted when it certifies itself).

On a Frobenius algebra the certificate follows the grading.
`frobenius_functional` reads a functional f off the meander's arcs and
walks the diagonal element h with h_r - h_c = 1 on every arc (r, c).
Every basis vector is an eigenvector of ad h and f is 1 on eigenvalue 1
only, so f's Kirillov matrix K splits into blocks V_lambda x V_(1-lambda)
over the eigenspaces of ad h.  Each block is filled straight from the
sl(n) rules and ranked mod p: full rank on every block proves K
nonsingular, so f is regular, the index is 0 and h is the unique
principal element (`principal_element`).  The spectrum is read off h's
diagonal (`ad_spectrum`).  The dense K is built only by `index`, which
samples the index of an algebra that is not Frobenius.
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
# The sampled index (`index`) ranks dense dim x dim Kirillov matrices, which
# grow steeply with the rank: `seaweed oracle` on full sl(17) (A16), which
# is not Frobenius, took 19.9 s in a cold process on a 2-core VM with
# Python 3.11.7 and numpy 2.4.6, nearly all of it in the exact
# confirmation of its index.  `index` refuses ranks above this guard.
ORACLE_RANK_GUARD = 16
# The Frobenius path ranks one block per pair of eigenvalues of the
# principal element instead (`frobenius_functional`), so `realize_type_a`
# accepts ranks up to this larger guard.  On the same host the worst of 90
# Frobenius seaweeds drawn by winding moves at ranks 25-32 (dim up to 812,
# blocks up to 196 wide) took 0.035 s in `frobenius_functional`; the worst
# of 10 at ranks 57-64 took 1.4 s and one at rank 123, with a block 2,080
# wide, took 57 s.  The block eliminations are nearly all of that: the
# fill took under 0.01 s at ranks 57-64.
FROBENIUS_RANK_GUARD = 32


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
    def slot(self) -> dict[tuple[int, int], int]:
        """The slot of each unit (r, c)."""
        return {unit: k for k, unit in enumerate(self.units, self.n - 1)}

    @cached_property
    def _slot_terms(self) -> list[list[tuple[int, int, int]]]:
        """The structure constants, by slot: for each slot k, every
        (p, q, v) with p < q such that [b_p, b_q] has coefficient v at slot
        k.  They come from the sl(n) rules
        [E_ab, E_cd] = d_bc E_ad - d_da E_cb and
        [h_i, E_rc] = (<i,r> - <i,c>) E_rc, where <i,a> is the coefficient
        of E_aa in h_i; E_aa - E_bb telescopes into h_a + ... + h_(b-1)."""
        n, slot = self.n, self.slot
        terms: list[list[tuple[int, int, int]]] = [[] for _ in range(self.dim)]

        def unit_terms(r: int, c: int, p: int,
                       q: int) -> list[tuple[int, int, int]]:
            if (r, c) not in slot:
                raise AssertionError(
                    "bracket left the span: slot "
                    f"({r},{c}) from [{self.labels[p]},{self.labels[q]}]")
            return terms[slot[(r, c)]]

        for (r, c), q in slot.items():
            for i in range(n - 1):
                w = _weight(i, r) - _weight(i, c)
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


def _weight(i: int, a: int) -> int:
    """<i,a>, the coefficient of E_aa in h_i."""
    return (i == a) - (i + 1 == a)


def realize_type_a(s: Seaweed) -> MatrixSeaweed:
    """Matrix model of a type-A seaweed: diagonals plus one unit per root.

    The roots of a side are its runs alpha_i..alpha_j of consecutive simple
    roots, in the ambient positive-root order; each gives the upper unit
    E_(n-j-1, n-i) on top and its transpose on the bottom.  Ranks above
    FROBENIUS_RANK_GUARD are refused; `index` refuses ranks above the
    smaller ORACLE_RANK_GUARD.
    """
    t = s.root_system.lie_type
    if t.family != "A":
        raise ValueError("matrix realizations are available for type A only")
    _guard(t.rank, FROBENIUS_RANK_GUARD)
    n = t.rank + 1
    units = [(n - j - 1, n - i) for i, j in _runs(s.pi1)]
    units += [(n - i, n - j - 1) for i, j in _runs(s.pi2)]
    return MatrixSeaweed(n, tuple(units))


def _guard(rank: int, bound: int) -> None:
    if rank > bound:
        raise ValueError(f"rank {rank} exceeds the matrix-oracle guard "
                         f"({bound})")


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
    one at a time from the seeded stream.

    Each coefficient is a getrandbits draw of the span's bit length,
    redrawn while it is past the span: the rejection loop of
    `randint(-COEFF_BOUND, COEFF_BOUND)`, so the stream is the same."""
    bits = random.Random(seed).getrandbits
    span = 2 * COEFF_BOUND + 1
    k, d = span.bit_length(), m.dim
    while True:
        coeffs: list[int] = []
        while len(coeffs) < d:
            r = bits(k)
            if r < span:
                coeffs.append(r - COEFF_BOUND)
        yield tuple(coeffs)


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
    rationals.  When dim is odd the first functional is ranked alone: when
    its modular rank reaches the cap, it proves index 1, it is the witness
    and nothing else is drawn.  When dim is even the cap means index 0, and
    `seaweed oracle` asks `index` only when the meander functional has
    failed, so no first draw is ranked alone.  Otherwise the samples not
    yet ranked are built as one stack and ranked mod p together
    (`ranks_mod_p`), the witness is the first sample of the largest
    modular rank, and exact elimination of its matrix, taken from the
    stack, confirms that rank unless it reaches the cap.  No witness is
    named when every sample has rank 0.  Ranks above ORACLE_RANK_GUARD
    are refused.
    """
    _guard(m.n - 1, ORACLE_RANK_GUARD)
    d = m.dim
    cap = d - d % 2
    draws = islice(_draws(m, seed), samples)
    fs = list(islice(draws, d % 2))
    forms = list(kirillov_matrix(m, fs)) if fs else []
    ranks = [rank_mod_p(k) for k in forms]
    if not ranks or ranks[0] < cap:
        rest = list(draws)
        if rest:
            stack = kirillov_matrix(m, rest)
            fs += rest
            forms += list(stack)
            ranks += ranks_mod_p(stack)
    best_rank = max(ranks, default=0)
    if not best_rank:
        return IndexCertificate(d, None, samples)
    best = ranks.index(best_rank)
    if best_rank < cap:
        best_rank = rank_int_rows(forms[best].tolist())
    return IndexCertificate(d - best_rank, fs[best], samples)


def frobenius_functional(m: MatrixSeaweed) -> Functional:
    """The meander functional, certified regular block by block.

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

    The certificate is `_graded_blocks`: a full rank mod p = PRIME of
    every block of its Kirillov matrix K proves K nonsingular over the
    rationals, so the functional is regular and the index is 0.
    |det K| is the product of the squared block determinants, and on
    every Frobenius entry of A1-A6 the product of the |det B| is
    rank + 1, far below p, so the prime does not refuse a regular one
    there.  Raises ValueError when the arcs do not walk to one height
    per position, when an eigenvalue lacks its partner, or when a block
    is singular mod p.
    """
    slot = m.slot
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
        blocks = _graded_blocks(m, f)
    except ValueError as exc:
        raise ValueError(f"the meander functional is singular ({exc}): the "
                         "algebra is not Frobenius") from None
    if any(rank_mod_p(block) < len(block) for block in blocks):
        raise ValueError("the meander functional is singular mod p: the "
                         "algebra is not Frobenius")
    return f


def _graded_blocks(m: MatrixSeaweed, f: Functional) -> list:
    """The Kirillov matrix K_pq = f([b_p, b_q]) of a functional f that is
    1 on its arcs and 0 elsewhere, as its blocks over the grading by
    the walked heights x (`_arc_heights`), one int64 array per
    eigenvalue lambda <= 0, in increasing order.

    A Cartan slot has grade 0 and a unit (r, c) grade x_r - x_c, its
    eigenvalue under ad h for the diagonal h = x.  [b_p, b_q] has grade
    lambda_p + lambda_q and f lives on grade 1, so K_pq is 0 unless
    lambda_p + lambda_q = 1: K is the direct sum of the blocks
    V_lambda x V_(1-lambda), and the one with rows V_lambda, lambda <= 0,
    determines its transpose partner.  K is nonsingular exactly when every
    block is square and nonsingular.  lambda ranges over every lambda <= 0
    of V and of 1 - V, with V the grades present: a lambda whose partner
    is absent is a zero block, which raises ValueError like any other
    unequal pair.

    The entries come from the sl(n) rules.  For an arc (r, c),
    [E_rk, E_kc] = E_rc gives +1 at (E_rk, E_kc) when E_rk has grade
    <= 0 and -1 at (E_kc, E_rk) otherwise, for every k with both units in
    the algebra; [h_i, E_rc] = (<i,r> - <i,c>) E_rc gives that weight at
    (h_i, E_rc).  No other bracket reaches an arc.
    """
    import numpy as np  # deferred: check and spectrum runs never load numpy
    x = _arc_heights(m, f)
    n, h, slot = m.n, m.n - 1, m.slot
    grade = [0] * h + [x[r] - x[c] for r, c in m.units]
    size: Counter[int] = Counter()
    pos = []                        # each slot's place within its grade
    for g in grade:
        pos.append(size[g])
        size[g] += 1
    lams = sorted({min(g, 1 - g) for g in size})
    for lam in lams:
        if size[lam] != size[1 - lam]:
            raise ValueError(f"grade {lam} has {size[lam]} slots and grade "
                             f"{1 - lam} has {size[1 - lam]}")
    block = {lam: np.zeros((size[lam], size[lam]), dtype=np.int64)
             for lam in lams}
    for (r, c), coeff in zip(m.units, f[h:]):
        if not coeff:
            continue
        q = slot[r, c]
        for i in {r - 1, r, c - 1, c}:
            if 0 <= i < h:
                block[0][pos[i], pos[q]] = _weight(i, r) - _weight(i, c)
        for k in range(n):
            a, b = slot.get((r, k)), slot.get((k, c))
            if a is None or b is None:
                continue
            if grade[a] <= 0:
                block[grade[a]][pos[a], pos[b]] = 1
            else:
                block[grade[b]][pos[b], pos[a]] = -1
    return [block[lam] for lam in lams]


def _arc_heights(m: MatrixSeaweed, f: Functional) -> list[int]:
    """The heights x_0 = 0, x_1, ..., x_(n-1) with x_r - x_c = 1 on every
    unit (r, c) where f is nonzero (f's arcs), walked along the arcs from
    position 0.  Raises ValueError when the arcs do not reach every
    position or close inconsistently."""
    n, h = m.n, m.n - 1
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
                raise ValueError("the arcs close inconsistently")
    if len(height) < n:
        raise ValueError(f"the arcs reach {len(height)} of {n} positions")
    return [height[i] for i in range(n)]


def principal_element(m: MatrixSeaweed, f: Functional) -> list[Fraction]:
    """Basis coordinates of the diagonal element h whose coadjoint action
    fixes the functional f, walked off the units where f is nonzero.

    A unit E_rc is an eigenvector of ad h with eigenvalue h_r - h_c, and h
    commutes with the Cartan slots, so f([h, x]) = f(x) for every basis
    vector x exactly when f is 0 on the Cartan slots and h_r - h_c = 1 on
    every unit (r, c) of f's support: its arcs.  The walk
    (`_arc_heights`) sets the heights h_r from position 0 along the arcs,
    and trace zero fixes the constant.  On the meander functional of a
    Frobenius seaweed the arcs form one path through all n positions
    (Dergachev-Kirillov: ind = 2C + P - 1 = 0), so every position is
    reached once.  When f is regular, as `frobenius_functional`
    certifies, its Kirillov matrix is nonsingular and h is the unique
    principal element.

    The coordinates are h_i first, each the diagonal of h summed down to
    entry i, then 0 on every unit.  Raises ValueError when f is nonzero on
    a Cartan slot, when the arcs do not reach every position, or when they
    close inconsistently: no diagonal element then fixes f.
    """
    n, h = m.n, m.n - 1
    if any(f[:h]):
        raise ValueError("no diagonal principal element: the functional is "
                         "nonzero on a Cartan slot")
    try:
        x = _arc_heights(m, f)
    except ValueError as exc:
        raise ValueError(f"no diagonal principal element: {exc}") from None
    mean = Fraction(sum(x), n)
    return [*accumulate(xi - mean for xi in x[:h]),
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
