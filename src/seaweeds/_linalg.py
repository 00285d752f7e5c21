"""Ranks of integer matrices, exact or mod a prime.

Only the type-A oracle uses this module; the spectrum path solves its
constraint rows by walking the meander.  One kernel serves each
arithmetic.  The fraction-free `_forward_eliminate`, on lists of integer
rows, gives exact ranks (`rank_int_rows`).  Gauss-Jordan mod the 31-bit
PRIME (`_eliminate_mod_p`), on numpy int64 arrays, serves `rank_mod_p`,
whose full rank mod p proves a square matrix nonsingular over the
rationals, and `ranks_mod_p` ranks a stack of matrices in one pass.  Both
take int64 arrays, as the oracle builds its Kirillov matrices; the
product of two residues fits in int64.
"""
from __future__ import annotations

from math import gcd

PRIME = 2**31 - 1


def rank_mod_p(matrix) -> int:
    """Rank of an integer matrix, a 2-D int64 array, reduced mod p = PRIME
    (a lower bound on the rational rank, with equality away from a
    measure-zero set of primes)."""
    m = matrix % PRIME
    return _eliminate_mod_p(m, m.shape[1])


def ranks_mod_p(stack) -> list[int]:
    """The rank mod p = PRIME of each matrix in a stack of same-shape
    integer matrices, a 3-D int64 array (reduce entries past the int64
    range mod p first).

    One elimination runs over the whole stack: its loop makes one pass per
    column, not one per column of each matrix, and at small sizes the numpy
    calls of those passes are the cost.  In each column every matrix takes
    its own pivot: the first row nonzero there that no earlier column took.
    The pivot row, scaled to 1, clears the column from the matrix's other
    untaken rows, and the rank is the number of pivots.  A single matrix
    is faster through `rank_mod_p`.
    """
    import numpy as np  # deferred: check and spectrum runs never load numpy
    p = PRIME
    a = stack % p
    count, rows, cols = a.shape
    free = np.ones((count, rows), dtype=bool)      # rows no pivot took yet
    for c in range(cols):
        col = a[:, :, c]
        nz = (col != 0) & free
        has = nz.any(axis=1)
        if not has.any():
            continue
        i = np.flatnonzero(has)
        piv = nz[i].argmax(axis=1)
        free[i, piv] = False
        f = np.where(free, col, 0)
        hit = np.flatnonzero(f.any(axis=0))
        if hit.size:
            inv = np.array([pow(x, -1, p) for x in col[i, piv].tolist()],
                           dtype=np.int64)
            prow = np.zeros((count, 1, cols - c - 1), dtype=np.int64)
            prow[i, 0] = a[i, piv, c + 1:] * inv[:, None] % p
            rest = a[:, hit, c + 1:]
            rest -= f[:, hit, None] * prow
            rest %= p
            a[:, hit, c + 1:] = rest
    return (rows - free.sum(axis=1)).tolist()


def _eliminate_mod_p(m, ncols: int) -> int:
    """Gauss-Jordan reduce the int64 array m, entries in [0, p), in place
    over its first ncols columns and return the rank: each pivot is scaled
    to 1 and cleared from every other row."""
    p = PRIME
    rows = m.shape[0]
    r = 0
    for c in range(ncols):
        nz = m[r:, c].nonzero()[0]
        if not nz.size:
            continue
        if nz[0]:
            m[[r, r + nz[0]]] = m[[r + nz[0], r]]
        m[r, c:] = m[r, c:] * pow(int(m[r, c]), -1, p) % p
        f = m[:, c].copy()
        f[r] = 0
        m[:, c:] = (m[:, c:] - f[:, None] * m[r, c:]) % p
        r += 1
        if r == rows:
            break
    return r


def rank_int_rows(matrix: list[list[int]]) -> int:
    """Exact rank of an integer matrix by fraction-free elimination."""
    if not matrix:
        return 0
    return len(_forward_eliminate([row[:] for row in matrix], len(matrix[0])))


def _forward_eliminate(m: list[list[int]], ncols: int) -> list[int]:
    """Fraction-free forward elimination of the integer rows m in place,
    pivoting on their first ncols columns; returns the pivot columns (row i
    pivots on pivots[i], and the rows below are zero there).  Row updates
    are cross-multiplied through the gcd and each updated row is stripped
    of its content, which keeps entry growth tame without leaving integers.
    """
    nrows = len(m)
    pivots: list[int] = []
    for c in range(ncols):
        r = len(pivots)
        if r == nrows:
            break
        piv, best = None, None
        for i in range(r, nrows):
            v = m[i][c]
            if v and (best is None or abs(v) < best):
                best, piv = abs(v), i
                if best == 1:
                    break
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        pv = m[r][c]
        mr = m[r]
        for i in range(r + 1, nrows):
            f = m[i][c]
            if f:
                mi = m[i]
                g = gcd(f, pv)
                a, b = pv // g, f // g
                for j in range(c, len(mr)):
                    mi[j] = mi[j] * a - mr[j] * b
                g2 = gcd(*mi)
                if g2 > 1:
                    m[i] = [v // g2 for v in mi]
        pivots.append(c)
    return pivots
