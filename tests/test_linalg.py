from __future__ import annotations

import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from seaweeds._linalg import PRIME, rank_int_rows, rank_mod_p, ranks_mod_p

import reference_impl
from reference_impl import (ModularInverse, _residues, inverts, rank_exact,
                            slot_factor, solve_fraction_free,
                            solve_nonsingular, solve_unique,
                            try_add, try_add_block)


def _random_matrix(rng, rows, cols, rank):
    """Product of random full(ish) factors with a prescribed inner rank."""
    a = [[rng.randint(-9, 9) for _ in range(rank)] for _ in range(rows)]
    b = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rank)]
    return [[sum(a[i][k] * b[k][j] for k in range(rank)) for j in range(cols)]
            for i in range(rows)]


@pytest.mark.parametrize("seed", range(6))
def test_rank_paths_agree(seed):
    rng = random.Random(seed)
    rows, cols = rng.randint(2, 9), rng.randint(2, 9)
    inner = rng.randint(0, min(rows, cols))
    m = _random_matrix(rng, rows, cols, inner)
    exact = rank_exact(m)
    assert exact <= inner
    assert rank_int_rows(m) == exact
    assert rank_mod_p(np.array(m, dtype=np.int64)) == exact


def test_rank_of_fraction_rows():
    m = [[Fraction(1, 2), Fraction(1, 3)], [Fraction(3, 2), Fraction(1)]]
    assert rank_exact(m) == 1  # the rows are proportional


def test_solve_unique_basic():
    sol = solve_unique([[1, 1], [1, -1]], [3, 1], 2)
    assert sol == [Fraction(2), Fraction(1)]


def test_solve_unique_overdetermined_consistent():
    sol = solve_unique([[1, 0], [0, 1], [1, 1]], [2, 3, 5], 2)
    assert sol == [Fraction(2), Fraction(3)]


def test_solve_unique_rejects_inconsistent():
    with pytest.raises(ValueError, match="inconsistent"):
        solve_unique([[1, 0], [1, 0]], [1, 2], 2)


def test_solve_unique_rejects_underdetermined():
    with pytest.raises(ValueError, match="underdetermined"):
        solve_unique([[1, 1]], [1], 2)


def test_rank_empty():
    assert rank_exact([]) == 0
    assert rank_int_rows([]) == 0
    for shape in ((0, 0), (0, 3), (3, 0)):
        assert rank_mod_p(np.zeros(shape, dtype=np.int64)) == 0
    for shape, want in (((0, 0, 0), []), ((2, 0, 0), [0, 0]),
                        ((2, 3, 0), [0, 0]), ((2, 0, 3), [0, 0])):
        assert ranks_mod_p(np.zeros(shape, dtype=np.int64)) == want


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_rank_int_rows_matches_fraction_elimination(data):
    rows = data.draw(st.integers(1, 6))
    cols = data.draw(st.integers(1, 6))
    m = [[data.draw(st.integers(-20, 20)) for _ in range(cols)]
         for _ in range(rows)]
    assert rank_int_rows(m) == rank_exact(m)


# the residues at the ends of [0, p): the cross-multiplied update of
# `ranks_mod_p` multiplies two of them, (p - 1)^2 < 2^62 at most
_RESIDUES = st.sampled_from([0, 1, PRIME - 2, PRIME - 1])
# small entries, entries past int64 either way, multiples of the prime and
# the end residues
_ENTRIES = st.one_of(st.integers(-9, 9), st.integers(-2**70, 2**70),
                     st.sampled_from([PRIME, -2 * PRIME, 2**63, 2**64 + 1]),
                     _RESIDUES)


def _product(a, b, cols):
    """The integer product of the rows a and the inner x cols rows b."""
    return [[sum(x * b[k][j] for k, x in enumerate(row)) for j in range(cols)]
            for row in a]


@st.composite
def _stacks(draw):
    """A list of same-shape integer matrices: some zero, some
    rank-deficient, some of a planted low rank mod p, general or (when
    square) alternating, with factors of end residues, some arbitrary."""
    count = draw(st.integers(1, 6))
    rows = draw(st.integers(1, 6))
    cols = draw(st.one_of(st.just(rows), st.integers(1, 6)))
    kinds = ("zero", "deficient", "planted", "edge", "any")
    if rows == cols:
        kinds += ("skew",)
    stack = []
    for _ in range(count):
        kind = draw(st.sampled_from(kinds))
        if kind == "zero":
            m = [[0] * cols for _ in range(rows)]
        elif kind == "deficient":        # a product through a narrower space
            inner = draw(st.integers(0, min(rows, cols) - 1))
            a = [[draw(_ENTRIES) for _ in range(inner)] for _ in range(rows)]
            b = [[draw(st.integers(-9, 9)) for _ in range(cols)]
                 for _ in range(inner)]
            m = _product(a, b, cols)
        elif kind == "planted":          # A B, rank at most inner
            inner = draw(st.integers(0, min(rows, cols)))
            a = [[draw(_RESIDUES) for _ in range(inner)] for _ in range(rows)]
            b = [[draw(_RESIDUES) for _ in range(cols)] for _ in range(inner)]
            m = _product(a, b, cols)
        elif kind == "skew":             # U V^T - V U^T, rank at most 2k
            k = draw(st.integers(0, rows // 2))
            u = [[draw(_RESIDUES) for _ in range(k)] for _ in range(rows)]
            v = [[draw(_RESIDUES) for _ in range(k)] for _ in range(rows)]
            uv = _product(u, [list(col) for col in zip(*v)], rows)
            m = [[uv[i][j] - uv[j][i] for j in range(rows)]
                 for i in range(rows)]
        elif kind == "edge":
            m = [[draw(_RESIDUES) for _ in range(cols)] for _ in range(rows)]
        else:
            m = [[draw(_ENTRIES) for _ in range(cols)] for _ in range(rows)]
        stack.append(m)
    return stack


# Rank 2: the second row is 2^63 times the third plus the first.  Entries
# past int64 must be reduced mod p exactly, not rounded through float64.
_PAST_INT64 = [[[0, 0, 0, 1, 1], [0, 0, 2**63, 1, 2**63 + 1],
                [0, 0, 1, 0, 1]] + [[0] * 5 for _ in range(3)]]
# Every pivot and every cleared entry is p - 1 or p - 2, so each product of
# the update is near (p - 1)^2; the first matrix has rank 2, the second 3.
_END_RESIDUES = [[[PRIME - 1, PRIME - 1, PRIME - 1],
                  [PRIME - 1, PRIME - 2, PRIME - 1],
                  [PRIME - 2, PRIME - 3, PRIME - 2]],
                 [[PRIME - 1, PRIME - 2, 0],
                  [PRIME - 2, PRIME - 1, PRIME - 1],
                  [0, PRIME - 1, PRIME - 2]]]


@given(_stacks())
@example(_PAST_INT64)
@example(_END_RESIDUES)
@settings(max_examples=150, deadline=None)
def test_ranks_mod_p_matches_rank_mod_p_on_each_matrix(stack):
    want = [rank_mod_p(_residues(m)) for m in stack]
    assert ranks_mod_p(np.array([_residues(m) for m in stack])) == want
    if all(abs(x) < 2**63 for m in stack for row in m for x in row):
        assert ranks_mod_p(np.array(stack, dtype=np.int64)) == want


def test_ranks_mod_p_at_the_end_residues():
    assert ranks_mod_p(np.array(_END_RESIDUES, dtype=np.int64)) == [2, 3]
    # p - 1 is -1: the alternating [[0, -1], [1, 0]] of rank 2, and the
    # all-(p - 1) matrix of rank 1
    edge = np.array([[[0, PRIME - 1], [1, 0]],
                     [[PRIME - 1, PRIME - 1], [PRIME - 1, PRIME - 1]]])
    assert ranks_mod_p(edge) == [2, 1]


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_solve_unique_recovers_solution(data):
    n = data.draw(st.integers(1, 5))
    x = [Fraction(data.draw(st.integers(-8, 8))) for _ in range(n)]
    rows = []
    rhs = []
    rng = random.Random(data.draw(st.integers(0, 10 ** 6)))
    for _ in range(n + data.draw(st.integers(0, 3))):
        row = [rng.randint(-5, 5) for _ in range(n)]
        rows.append(row)
        rhs.append(sum(r * v for r, v in zip(row, x)))
    try:
        sol = solve_unique(rows, rhs, n)
    except ValueError:
        assert rank_exact(rows) < n
        return
    assert sol == x


def _outcome(solver, rows, nvars):
    try:
        return solver(rows, nvars)
    except ValueError as exc:
        return str(exc)


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_solve_nonsingular_matches_solve_unique(data):
    n = data.draw(st.integers(1, 7))
    rng = random.Random(data.draw(st.integers(0, 10 ** 6)))
    bound = data.draw(st.sampled_from((1, 9, 10 ** 6, 2 ** 64)))
    while True:
        rows = [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(n)]
        if rank_exact(rows) == n:
            break
    rhs = [rng.randint(-bound, bound) for _ in range(n)]
    assert solve_nonsingular(rows, rhs) == solve_unique(rows, rhs, n)


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_solve_fraction_free_matches_solve_unique(data):
    # A = C B through an inner space of dimension k, so singular matrices
    # occur too; those give None, the others the Fraction solve's solution
    n = data.draw(st.integers(0, 6))
    k = data.draw(st.integers(0, n))
    entries = st.one_of(st.integers(-9, 9), st.integers(-2**64, 2**64))
    b = [[data.draw(entries) for _ in range(n)] for _ in range(k)]
    c = [[data.draw(st.integers(-2, 2)) for _ in range(k)] for _ in range(n)]
    rows = [[sum(c[i][t] * b[t][j] for t in range(k)) for j in range(n)]
            for i in range(n)]
    rhs = [data.draw(entries) for _ in range(n)]
    got = solve_fraction_free(rows, rhs)
    if rank_exact(rows) < n:
        assert got is None
    else:
        assert got == solve_unique(rows, rhs, n)
        assert all(type(v) is Fraction for v in got)


def _count_fallback_solves(monkeypatch) -> list:
    calls = []
    exact = reference_impl.solve_fraction_free

    def counted(*args):
        calls.append(args)
        return exact(*args)
    monkeypatch.setattr(reference_impl, "solve_fraction_free", counted)
    return calls


def test_solve_nonsingular_reconstructs_small_denominators(monkeypatch):
    calls = _count_fallback_solves(monkeypatch)
    assert solve_nonsingular([[7, 0], [1, 2]], [3, -1]) == [
        Fraction(3, 7), Fraction(-5, 7)]
    assert calls == []


def test_solve_nonsingular_falls_back_above_the_reconstruction_bound(monkeypatch):
    # 1/100003 has a denominator above sqrt(p/2) = 32767, so no fraction
    # within the bound represents it mod p and the fraction-free solve
    # decides
    calls = _count_fallback_solves(monkeypatch)
    assert solve_nonsingular([[100003, 1], [0, 1]], [1, 0]) == [
        Fraction(1, 100003), Fraction(0)]
    assert len(calls) == 1


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_exact_solve_matches_solve_unique_at_every_rank(data):
    # A = C B through an inner space of dimension k, so every rank 0..n
    # occurs; the rhs is either A x (consistent) or drawn freely.  The
    # modular path must accept no system that the Fraction solve refuses.
    n = data.draw(st.integers(1, 6))
    k = data.draw(st.integers(0, n))
    entries = st.one_of(st.integers(-9, 9), st.integers(-2**64, 2**64))
    b = [[data.draw(entries) for _ in range(n)] for _ in range(k)]
    c = [[data.draw(st.integers(-2, 2)) for _ in range(k)] for _ in range(n)]
    rows = [[sum(c[i][t] * b[t][j] for t in range(k)) for j in range(n)]
            for i in range(n)]
    if data.draw(st.booleans()):
        x = [data.draw(st.integers(-9, 9)) for _ in range(n)]
        rhs = [sum(a * v for a, v in zip(row, x)) for row in rows]
    else:
        rhs = [data.draw(entries) for _ in range(n)]
    got = _outcome(lambda rows, _: solve_nonsingular(rows, rhs), rows, n)
    assert got == _outcome(lambda rows, n: solve_unique(rows, rhs, n), rows, n)
    if isinstance(got, list):
        assert all(type(v) is Fraction for v in got)


def test_solve_nonsingular_rejects_singular_systems():
    with pytest.raises(ValueError, match="inconsistent"):
        solve_nonsingular([[1, 2], [2, 4]], [1, 1])
    with pytest.raises(ValueError, match="underdetermined"):
        solve_nonsingular([[1, 2], [2, 4]], [1, 2])


def _mod_inverse_check(w, k, p):
    """W K = I mod p, checked in Python integers."""
    w, k = w.tolist(), k.tolist()
    d = len(k)
    for i in range(d):
        for j in range(d):
            assert sum(w[i][t] * k[t][j] for t in range(d)) % p == (i == j)


def _star_plus_matching(rng, d):
    """Random terms of the shape `slot_factor` takes: a star
    (a, slot, w) and a matching (a, b, v) on distinct rows of 0..d-1."""
    rows = rng.sample(range(d), rng.randint(1, d))
    slot, rest = rows[0], rows[1:]
    leaves = rest[:rng.randint(0, len(rest))]
    rest = rest[len(leaves):]
    terms = [(a, slot, rng.choice((-2, -1, 1, 2))) for a in leaves]
    terms += [(a, b, rng.choice((-1, 1))) for a, b in zip(rest[::2], rest[1::2])]
    return terms, slot


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_modular_inverse_follows_block_updates(data):
    p = PRIME
    d = data.draw(st.integers(2, 7))
    rng = random.Random(data.draw(st.integers(0, 10 ** 6)))
    k = np.array([[rng.randint(-2, 2) for _ in range(d)] for _ in range(d)],
                 dtype=np.int64)
    if rank_mod_p(k) < d:
        with pytest.raises(ValueError, match="singular"):
            ModularInverse(k)
        return
    inv = ModularInverse(k)
    _mod_inverse_check(inv.w, k, p)

    def step(rows, z, j, c):
        nonlocal k
        block = z @ j @ z.T
        new = k.copy()
        new[np.ix_(rows, rows)] += c * block
        ref = ModularInverse(k)
        kept = try_add(inv, rows, z, j, c)
        assert kept == (rank_mod_p(new) == d)
        assert kept == try_add_block(ref, rows, block, c)
        assert np.array_equal(inv.w, ref.w)
        if kept:
            k = new
        _mod_inverse_check(inv.w, k, p)

    # each drawn block as the factor Z = I on the drawn rows, J = the block
    for _ in range(4):
        rows = sorted(rng.sample(range(d), rng.randint(1, d)))
        block = [[rng.randint(-2, 2) for _ in rows] for _ in rows]
        c = rng.choice((-1, 1, rng.randrange(p)))
        step(np.array(rows), np.eye(len(rows), dtype=np.int64),
             np.array(block, dtype=np.int64), c)
    # the star-plus-matching factors of the functional search
    for _ in range(4):
        terms, slot = _star_plus_matching(rng, d)
        c = rng.choice((-1, 1, rng.randrange(p)))
        step(*slot_factor(terms, slot), c)


def test_inverse_product_certificate_rejects_a_changed_entry():
    rng = random.Random(4)
    d = 6
    while True:
        k = np.array([[rng.randint(-2, 2) for _ in range(d)]
                      for _ in range(d)], dtype=np.int64)
        if rank_mod_p(k) == d:
            break
    inv = ModularInverse(k)
    assert inverts(inv, k)
    for i, j in ((0, 0), (2, 5), (d - 1, 1)):
        w = inv.w.copy()
        for delta in (1, PRIME - 1):
            inv.w[i, j] = (w[i, j] + delta) % PRIME
            assert not inverts(inv, k)
        inv.w = w
        assert inverts(inv, k)
