"""Exact linear algebra over the rationals, plus a modular fast path.

Everything here works on plain lists of Fractions or ints; matrices are
lists of row lists.  The modular rank reduces mod a 31-bit prime so that
the product of two residues stays inside numpy's int64 range.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd

MOD_PRIMES = (2147483647, 2147483629, 2147483587)


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


def rank_mod_p(matrix: list[list[int]], p: int) -> int:
    """Rank of an integer matrix reduced mod p (a lower bound on the
    rational rank, with equality away from a measure-zero set of primes).

    Entries are reduced into [0, p) with p below 2^31, so the vectorized
    int64 path never overflows.
    """
    rows = len(matrix)
    if rows == 0:
        return 0
    import numpy as np  # deferred: check and spectrum runs never load numpy
    m = np.array([[x % p for x in row] for row in matrix], dtype=np.int64)
    cols = m.shape[1]
    r = 0
    for c in range(cols):
        col = m[r:, c]
        nz = np.nonzero(col)[0]
        if nz.size == 0:
            continue
        piv = r + int(nz[0])
        if piv != r:
            m[[r, piv]] = m[[piv, r]]
        inv = pow(int(m[r, c]), p - 2, p)
        m[r, c:] = m[r, c:] * inv % p
        factors = m[r + 1:, c]
        live = np.nonzero(factors)[0]
        if live.size:
            block = m[r + 1 + live, c:]
            block = (block - factors[live, None] * m[r, c:]) % p
            m[r + 1 + live, c:] = block
        r += 1
        if r == rows:
            break
    return r


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
