from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from seaweeds._linalg import (MOD_PRIMES, rank_exact, rank_int_rows,
                              rank_mod_p, solve_by_propagation, solve_unique)


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
    assert rank_mod_p(m, MOD_PRIMES[0]) == exact


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
    assert rank_mod_p([], MOD_PRIMES[0]) == 0


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
