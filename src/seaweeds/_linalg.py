"""Exact linear algebra over the rationals, plus a modular fast path.

Everything here takes plain lists of Fractions or ints; matrices are lists
of row lists.  The modular paths work on numpy int64 arrays mod a 31-bit
prime, so that the product of two residues stays inside the int64 range.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm

PRIME = 2**31 - 1


def rank_exact(matrix: list[list[Fraction | int]]) -> int:
    """Rank over the rationals by fraction Gaussian elimination.

    The package no longer calls this; it stays as the tests' reference for
    `rank_int_rows` and `rank_mod_p`.
    """
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

    Raises ValueError if the system is inconsistent or underdetermined.  The
    package calls this only as `solve_nonsingular`'s exact fallback; it is
    also the tests' reference for `solve_nonsingular` and
    `solve_by_propagation`.
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


def solve_by_propagation(rows: list[tuple[dict[int, int], int]],
                         nvars: int) -> list[int | Fraction]:
    """Solve a sparse system that must have a unique solution, where every
    row has one or two terms, each with coefficient +1 or -1.

    Rows are (coefficients by variable, rhs) with variables 1..nvars.  The
    two-term rows are the edges of a graph and the one-term rows pin their
    variable.  Each connected piece is walked from one vertex, writing every
    value as sign * t + offset in one unknown t; a pin, or an edge closing a
    cycle, either fixes t or is checked against it.  Values are ints, or
    Fractions where an odd cycle halves t.  Raises the ValueErrors of
    solve_unique: inconsistency is reported before underdetermination.
    """
    touching: list[list[tuple[list[tuple[int, int]], int]]] = [
        [] for _ in range(nvars + 1)]
    for coeffs, rhs in rows:
        terms = list(coeffs.items())
        for v, _ in terms:
            touching[v].append((terms, rhs))
    form: list[tuple[int, int] | None] = [None] * (nvars + 1)
    values: list[int | Fraction] = [0] * (nvars + 1)
    inconsistent = underdetermined = False
    for root in range(1, nvars + 1):
        if form[root] is not None:
            continue
        form[root] = (1, 0)
        piece = [root]
        t: int | Fraction | None = None
        for v in piece:
            for terms, rhs in touching[v]:
                slope, rest, free = 0, rhs, None
                for u, a in terms:
                    if form[u] is None:
                        free = (u, a)
                    else:
                        slope += a * form[u][0]
                        rest -= a * form[u][1]
                if free is not None:
                    u, a = free              # a * x_u = rest - slope * t
                    form[u] = (-a * slope, a * rest)
                    piece.append(u)
                elif slope == 0:
                    inconsistent |= rest != 0
                elif t is None:
                    t = rest // slope if rest % slope == 0 else Fraction(rest, slope)
                else:
                    inconsistent |= slope * t != rest
        if t is None:
            underdetermined = True
            continue
        for v in piece:
            sign, offset = form[v]
            values[v] = sign * t + offset
    if inconsistent:
        raise ValueError("inconsistent linear system")
    if underdetermined:
        raise ValueError("underdetermined linear system")
    return values[1:]


def rank_mod_p(matrix: list[list[int]]) -> int:
    """Rank of an integer matrix reduced mod p = PRIME (a lower bound on the
    rational rank, with equality away from a measure-zero set of primes).

    Entries are reduced into [0, p) with p below 2^31, so the vectorized
    int64 path never overflows.
    """
    if not matrix:
        return 0
    import numpy as np  # deferred: check and spectrum runs never load numpy
    p = PRIME
    m = np.array([[x % p for x in row] for row in matrix], dtype=np.int64)
    return _eliminate_mod_p(m, m.shape[1])


def _eliminate_mod_p(m, ncols: int, reduced: bool = False) -> int:
    """Row-reduce the int64 array m, entries in [0, p), in place over its
    first ncols columns and return the rank.  Pivots are scaled to 1; with
    `reduced` the entries above each pivot are cleared too."""
    import numpy as np
    p = PRIME
    rows = m.shape[0]
    r = 0
    for c in range(ncols):
        nz = np.flatnonzero(m[r:, c])
        if not nz.size:
            continue
        if nz[0]:
            m[[r, r + nz[0]]] = m[[r + nz[0], r]]
        m[r, c:] = m[r, c:] * pow(int(m[r, c]), -1, p) % p
        if reduced:
            f = m[:, c].copy()
            f[r] = 0
            m[:, c:] = (m[:, c:] - f[:, None] * m[r, c:]) % p
        else:
            below = nz[1:] + r      # the swap moved a zero entry to r + nz[0]
            if below.size:
                m[below, c:] = (m[below, c:] - m[below, c, None] * m[r, c:]) % p
        r += 1
        if r == rows:
            break
    return r


class ModularInverse:
    """The inverse W mod p = PRIME of a nonsingular integer matrix K, kept
    current while small blocks are added to K.

    Adding c B on the rows and columns `rows` keeps K nonsingular mod p
    exactly when T = I + c B W[rows, rows] is nonsingular mod p (the
    determinant lemma), and the new inverse is then
    W - W[:, rows] T^-1 c B W[rows, :] (Woodbury's identity).  So a step
    eliminates len(rows) columns where a fresh rank would eliminate all.
    """

    def __init__(self, matrix: list[list[int]]):
        """Raises ValueError when matrix is singular mod p."""
        import numpy as np  # deferred, as in rank_mod_p
        p = PRIME
        d = len(matrix)
        aug = np.array([[x % p for x in row] + [0] * d for row in matrix],
                       dtype=np.int64)
        aug[:, d:] = np.eye(d, dtype=np.int64)
        if _eliminate_mod_p(aug, d, reduced=True) < d:
            raise ValueError("matrix is singular mod p")
        self.w = aug[:, d:]

    def try_add(self, rows, block, c: int) -> bool:
        """Add c * block on rows x rows if K stays nonsingular mod p; report
        whether it did.  Entries of block are small integers (|x| * len(rows)
        below 2^32), rows an index array."""
        import numpy as np
        p, w, r = PRIME, self.w, len(rows)
        y = (block @ w[rows]) % p * (c % p) % p        # c B W[rows, :]
        aug = np.concatenate((y[:, rows], y), axis=1)
        aug[:, :r] += np.eye(r, dtype=np.int64)
        aug %= p
        if _eliminate_mod_p(aug, r, reduced=True) < r:
            return False
        # aug[:, r:] is now T^-1 y; split it in 16-bit halves so that no
        # int64 dot product overflows
        x = aug[:, r:]
        wr = w[:, rows]
        self.w = (w - ((wr @ (x >> 16)) % p * 65536 + wr @ (x & 0xFFFF))) % p
        return True


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
    """Solve a square integer system that must have a unique solution.

    The system is solved mod p = PRIME; each coordinate is rebuilt
    as the fraction with numerator and denominator up to sqrt(p/2) that it
    represents, and the result is checked exactly over the integers after
    clearing denominators.  A full modular rank proves the rational matrix
    nonsingular, so a solution that passes the check is the unique one: the
    certificate of Dixon's p-adic solver, without its lifting, which suits
    solutions with small denominators.  When the modular rank falls short,
    a coordinate has no such fraction or the check fails, `solve_unique`
    decides, and raises its ValueErrors on a singular system.
    """
    d = len(matrix)
    if d:
        import numpy as np  # deferred, as in rank_mod_p
        p = PRIME
        aug = np.array([[x % p for x in row] + [b % p]
                        for row, b in zip(matrix, rhs)], dtype=np.int64)
        if _eliminate_mod_p(aug, d, reduced=True) == d:
            bound = isqrt(p // 2)
            sol = [_rational(int(x), p, bound) for x in aug[:, d]]
            if None not in sol:
                scale = lcm(*(x.denominator for x in sol))
                ints = [int(x * scale) for x in sol]
                if all(sum(a * x for a, x in zip(row, ints) if a) == b * scale
                       for row, b in zip(matrix, rhs)):
                    return sol
    return solve_unique(matrix, rhs, d)


def rank_int_rows(matrix: list[list[int]]) -> int:
    """Exact rank of an integer matrix by fraction-free elimination.

    Row updates are cross-multiplied through the gcd and each updated row
    is stripped of its content, which keeps entry growth tame without
    leaving integer arithmetic.
    """
    m = [row[:] for row in matrix]
    nrows = len(m)
    if nrows == 0:
        return 0
    ncols = len(m[0])
    r = 0
    for c in range(ncols):
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
                for j in range(c, ncols):
                    mi[j] = mi[j] * a - mr[j] * b
                g2 = gcd(*mi)
                if g2 > 1:
                    m[i] = [v // g2 for v in mi]
        r += 1
        if r == nrows:
            break
    return r
