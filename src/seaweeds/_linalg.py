"""Linear algebra over the integers and rationals, exact or mod a prime.

Only the type-A oracle uses this module; the spectrum path solves its
constraint rows by walking the meander.  One kernel serves each
arithmetic.  The fraction-free `_forward_eliminate`, on lists of integer
rows, gives exact ranks (`rank_int_rows`) and the exact fallback of
`rational_solution`.  Gauss-Jordan mod the 31-bit PRIME
(`_eliminate_mod_p`), on numpy int64 arrays, serves `rank_mod_p` and
`ModularInverse`, whose full rank mod p proves its matrix nonsingular;
`ranks_mod_p` ranks a stack of matrices in one pass.
`rational_solution` solves a system of that matrix mod p by one product
with W (`_mul_mod_p`) and rebuilds the exact rational solution from it,
or else solves exactly.  `rank_mod_p`, `ranks_mod_p` and
`ModularInverse` take int64 arrays, as the oracle builds its Kirillov
matrices; rows whose entries can pass int64 (the scaled adjoint, a
right-hand side) reach int64 through `_residues`, which reduces them mod
p in Python.  The product of two residues fits in int64.
"""
from __future__ import annotations

from math import gcd, isqrt, lcm
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from fractions import Fraction

PRIME = 2**31 - 1


def _residues(rows):
    """The integer rows reduced mod p = PRIME as an int64 array; np.array
    alone would round entries of 2^63 or more through float64."""
    import numpy as np  # deferred: check and spectrum runs never load numpy
    p = PRIME
    return np.array([[x % p for x in row] for row in rows], dtype=np.int64)


def rank_mod_p(matrix) -> int:
    """Rank of an integer matrix, a 2-D int64 array, reduced mod p = PRIME
    (a lower bound on the rational rank, with equality away from a
    measure-zero set of primes)."""
    m = matrix % PRIME
    return _eliminate_mod_p(m, m.shape[1])


def ranks_mod_p(stack) -> list[int]:
    """The rank mod p = PRIME of each matrix in a stack of same-shape
    integer matrices, a 3-D int64 array (reduce entries past the int64
    range with `_residues` first).

    One elimination runs over the whole stack: its loop makes one pass per
    column, not one per column of each matrix, and at small sizes the numpy
    calls of those passes are the cost.  In each column every matrix takes
    its own pivot: the first row nonzero there that no earlier column took.
    The pivot row, scaled to 1, clears the column from the matrix's other
    untaken rows, and the rank is the number of pivots.  A single matrix
    is faster through `rank_mod_p`.
    """
    import numpy as np  # deferred, as in _residues
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


class ModularInverse:
    """The inverse W mod p = PRIME of a nonsingular integer matrix K, which
    it keeps as `matrix`."""

    def __init__(self, matrix):
        """K is matrix, a square int64 array.  Raises ValueError when K is
        singular mod p."""
        import numpy as np  # deferred, as in _residues
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
    from fractions import Fraction
    return Fraction(r1, s1)


def rational_solution(matrix: list[list[int]], rhs: list[int],
                      inverse: ModularInverse | None) -> list[Fraction]:
    """Solve a square integer system that must have a unique solution,
    given the modular inverse of its matrix, or None when the matrix is
    singular mod p = PRIME.

    The solution mod p is one product, W rhs.  Each of its residues is
    rebuilt as the fraction with numerator and denominator up to sqrt(p/2)
    that it represents, and the result is checked exactly over the integers
    after clearing denominators.  A full modular rank proves the rational
    matrix nonsingular, so a solution that passes the check is the unique
    one: the certificate of Dixon's p-adic solver, without its lifting,
    which suits solutions with small denominators.  When there is no
    inverse, a coordinate has no such fraction or the check fails,
    fraction-free integer elimination decides (`_solve_exact`), and raises
    its ValueErrors on a singular system.
    """
    if inverse is not None:
        residues = _mul_mod_p(inverse.w, _residues([rhs]).T)[:, 0].tolist()
        bound = isqrt(PRIME // 2)
        sol = [_rational(x, PRIME, bound) for x in residues]
        if None not in sol:
            scale = lcm(*(x.denominator for x in sol))
            ints = [int(x * scale) for x in sol]
            if all(sum(a * x for a, x in zip(row, ints) if a) == b * scale
                   for row, b in zip(matrix, rhs)):
                return sol
    return _solve_exact(matrix, rhs)


def _solve_exact(matrix: list[list[int]], rhs: list[int]) -> list[Fraction]:
    """Solve a square integer system exactly: fraction-free elimination of
    the rows [row | b], then back-substitution in Fractions.  Raises
    ValueError if the system is inconsistent or underdetermined, in that
    order of precedence."""
    d = len(matrix)
    m = [[*row, b] for row, b in zip(matrix, rhs)]
    pivots = _forward_eliminate(m, d)
    if any(row[d] for row in m[len(pivots):]):
        raise ValueError("inconsistent linear system")
    if len(pivots) < d:
        raise ValueError("underdetermined linear system")
    from fractions import Fraction
    sol = [Fraction(0)] * d
    for i in reversed(range(d)):        # d pivots in d columns: row i on i
        rest = sum(m[i][j] * sol[j] for j in range(i + 1, d) if m[i][j])
        sol[i] = Fraction(m[i][d] - rest, m[i][i])
    return sol


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
