from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import seaweeds._linalg as linalg
from seaweeds._linalg import (PRIME, ModularInverse, rank_exact,
                              rank_int_rows, rank_mod_p, solve_by_propagation,
                              solve_nonsingular, solve_unique)


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
    assert rank_mod_p(m) == exact


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
    assert rank_mod_p([]) == 0


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_rank_int_rows_matches_fraction_elimination(data):
    rows = data.draw(st.integers(1, 6))
    cols = data.draw(st.integers(1, 6))
    m = [[data.draw(st.integers(-20, 20)) for _ in range(cols)]
         for _ in range(rows)]
    assert rank_int_rows(m) == rank_exact(m)


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


def _dense(rows, nvars):
    return solve_unique([[coeffs.get(i, 0) for i in range(1, nvars + 1)]
                         for coeffs, _ in rows],
                        [rhs for _, rhs in rows], nvars)


SIGNED_SYSTEMS = {
    "path": ([({1: 1}, 1), ({1: 1, 2: 1}, 0), ({2: -1, 3: -1}, 2)], 3),
    "pin contradicts path": ([({1: 1}, 1), ({1: 1, 2: 1}, 0), ({2: -1}, 2)], 2),
    "even cycle contradicts": ([({1: 1, 2: 1}, 0), ({1: 1, 2: 1}, 1)], 2),
    "free path": ([({1: 1, 2: 1}, 1), ({3: 1}, 0)], 3),
    "free vertex": ([({1: 1}, 1)], 2),
    "inconsistent beats free": ([({1: 1}, 1), ({1: -1}, 1), ({2: 1, 3: 1}, 0)], 3),
    "odd cycle": ([({1: 1, 2: 1}, 1), ({2: 1, 3: 1}, 0), ({3: 1, 1: 1}, 0)], 3),
    "odd cycle, integral": ([({1: 1, 2: 1}, 0), ({2: 1, 3: 1}, 0), ({1: 1, 3: 1}, 2)], 3),
}


@pytest.mark.parametrize("name", list(SIGNED_SYSTEMS))
def test_propagation_matches_solve_unique_on_signed_systems(name):
    rows, nvars = SIGNED_SYSTEMS[name]
    got = _outcome(solve_by_propagation, rows, nvars)
    assert got == _outcome(_dense, rows, nvars)
    expected = {"pin contradicts path": "inconsistent linear system",
                "even cycle contradicts": "inconsistent linear system",
                "inconsistent beats free": "inconsistent linear system",
                "free path": "underdetermined linear system",
                "free vertex": "underdetermined linear system",
                "odd cycle": [Fraction(1, 2), Fraction(1, 2), Fraction(-1, 2)]}
    if name in expected:
        assert got == expected[name]


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_propagation_matches_solve_unique_on_random_signed_rows(data):
    nvars = data.draw(st.integers(1, 7))
    variables = st.integers(1, nvars)
    rows = []
    for _ in range(data.draw(st.integers(0, nvars + 3))):
        support = data.draw(st.sets(variables, min_size=1, max_size=2))
        coeffs = {v: data.draw(st.sampled_from((1, -1))) for v in support}
        rows.append((coeffs, data.draw(st.integers(-3, 3))))
    assert (_outcome(solve_by_propagation, rows, nvars)
            == _outcome(_dense, rows, nvars))


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_solve_nonsingular_matches_solve_unique(data):
    n = data.draw(st.integers(1, 7))
    rng = random.Random(data.draw(st.integers(0, 10 ** 6)))
    bound = data.draw(st.sampled_from((1, 9, 10 ** 6)))
    while True:
        rows = [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(n)]
        if rank_exact(rows) == n:
            break
    rhs = [rng.randint(-bound, bound) for _ in range(n)]
    assert solve_nonsingular(rows, rhs) == solve_unique(rows, rhs, n)


def _count_exact_solves(monkeypatch) -> list:
    calls = []

    def counted(*args):
        calls.append(args)
        return solve_unique(*args)
    monkeypatch.setattr(linalg, "solve_unique", counted)
    return calls


def test_solve_nonsingular_reconstructs_small_denominators(monkeypatch):
    calls = _count_exact_solves(monkeypatch)
    assert solve_nonsingular([[7, 0], [1, 2]], [3, -1]) == [Fraction(3, 7),
                                                          Fraction(-5, 7)]
    assert calls == []


def test_solve_nonsingular_falls_back_above_the_reconstruction_bound(monkeypatch):
    # 1/100003 has a denominator above sqrt(p/2) = 32767, so no fraction
    # within the bound represents it mod p and the exact solver decides
    calls = _count_exact_solves(monkeypatch)
    assert solve_nonsingular([[100003, 1], [0, 1]], [1, 0]) == [
        Fraction(1, 100003), Fraction(0)]
    assert len(calls) == 1


def test_solve_nonsingular_rejects_singular_systems():
    with pytest.raises(ValueError, match="inconsistent"):
        solve_nonsingular([[1, 2], [2, 4]], [1, 1])
    with pytest.raises(ValueError, match="underdetermined"):
        solve_nonsingular([[1, 2], [2, 4]], [1, 2])


def _mod_inverse_check(w, k, p):
    d = len(k)
    for i in range(d):
        for j in range(d):
            assert sum(int(w[i][t]) * k[t][j] for t in range(d)) % p == (i == j)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_modular_inverse_follows_block_updates(data):
    import numpy as np
    p = PRIME
    d = data.draw(st.integers(2, 7))
    rng = random.Random(data.draw(st.integers(0, 10 ** 6)))
    k = [[rng.randint(-2, 2) for _ in range(d)] for _ in range(d)]
    if rank_mod_p(k) < d:
        with pytest.raises(ValueError, match="singular"):
            ModularInverse(k)
        return
    inv = ModularInverse(k)
    _mod_inverse_check(inv.w, k, p)
    for _ in range(4):
        rows = sorted(rng.sample(range(d), rng.randint(1, d)))
        block = [[rng.randint(-2, 2) for _ in rows] for _ in rows]
        c = rng.choice((-1, 1, rng.randrange(p)))
        new = [row[:] for row in k]
        for a, i in enumerate(rows):
            for b, j in enumerate(rows):
                new[i][j] += c * block[a][b]
        kept = inv.try_add(np.array(rows), np.array(block, dtype=np.int64), c)
        assert kept == (rank_mod_p(new) == d)
        if kept:
            k = new
        _mod_inverse_check(inv.w, k, p)
