from __future__ import annotations

import itertools
import random
import time
from collections import Counter
from fractions import Fraction as Q

import numpy as np
import pytest

from seaweeds.enumerate import _mask_pairs
from seaweeds.rootsys import LieType, build_root_system
from seaweeds.seaweed import Seaweed, make_seaweed, mask_subset
from seaweeds.meander import is_frobenius
from seaweeds.spectrum import full_spectrum, seaweed_dimension
from seaweeds._linalg import PRIME, rank_int_rows, rank_mod_p
from seaweeds.oracle import (FUNCTIONAL_DRAWS, ORACLE_RANK_GUARD, Functional,
                             MatrixSeaweed, ad_matrix, ad_spectrum,
                             frobenius_functional, functional_from_labels,
                             index, kirillov_matrix, kirillov_rank,
                             poset_algebra_sl4, principal_element,
                             realize_type_a, sample_functionals)


def test_sl2_borel():
    s = make_seaweed(LieType("A", 1), {1}, set())
    mat = realize_type_a(s)
    assert mat.dim == 2
    cert = index(mat)
    assert cert.index == 0
    fhat = principal_element(mat, cert.witness)
    assert dict(ad_spectrum(mat, fhat).mult) == {0: 1, 1: 1}


def test_sl2_full_has_index_one():
    s = make_seaweed(LieType("A", 1), {1}, {1})
    mat = realize_type_a(s)
    assert mat.dim == 3
    f = functional_from_labels(mat, {"e1,2": 1})
    assert kirillov_rank(mat, f) == 2
    assert index(mat).index == 1


def test_realization_dimensions():
    s = make_seaweed(LieType("A", 3), {3, 1}, {3, 2})
    assert realize_type_a(s).dim == 8
    big = make_seaweed(LieType("A", 9), {9, 7, 6, 4, 3, 2, 1},
                       {9, 8, 7, 5, 4, 3, 2, 1})
    assert realize_type_a(big).dim == 44 == seaweed_dimension(big)


def test_realization_guards_its_rank_and_builds_no_ambient_roots():
    # fresh root systems: the cached ones may already hold their roots
    for rank in (ORACLE_RANK_GUARD, ORACLE_RANK_GUARD + 1, 64):
        rs = build_root_system.__wrapped__(LieType("A", rank))
        s = Seaweed(rs, frozenset(range(1, rank + 1)),
                    frozenset(range(2, rank + 1)))
        if rank > ORACLE_RANK_GUARD:
            with pytest.raises(ValueError, match="matrix-oracle guard"):
                realize_type_a(s)
        else:
            assert realize_type_a(s).dim == seaweed_dimension(s)
        assert "positive_roots" not in vars(rs)


def _dense_bracket_agrees(m: MatrixSeaweed) -> None:
    """Every closed-form bracket against the commutator XY - YX of the
    dense basis matrices, built here: h_i = E_ii - E_i+1,i+1, then the
    units E_rc."""
    unit = np.eye(m.n, dtype=np.int64)
    basis = [np.diag(unit[i] - unit[i + 1]) for i in range(m.n - 1)]
    basis += [np.outer(unit[r], unit[c]) for r, c in m.units]
    for p, q in itertools.combinations(range(m.dim), 2):
        x, y = basis[p], basis[q]
        coords = m.bracket_coords(p, q)
        got = sum((v * basis[k] for k, v in coords.items()),
                  np.zeros_like(x))
        assert np.array_equal(got, x @ y - y @ x), (m.labels[p], m.labels[q])
        assert m.bracket_coords(q, p) == {k: -v for k, v in coords.items()}


def test_brackets_match_dense_commutators():
    for n in range(1, 5):
        rs = build_root_system(LieType("A", n))
        for m1, m2 in _mask_pairs(n):
            _dense_bracket_agrees(realize_type_a(
                Seaweed(rs, mask_subset(m1), mask_subset(m2))))
    _dense_bracket_agrees(poset_algebra_sl4())


def test_bracket_outside_the_span_is_reported():
    m = MatrixSeaweed(3, ((0, 1), (1, 2)))      # [E12, E23] = E13 is missing
    with pytest.raises(AssertionError, match="bracket left the span"):
        m.bracket_coords(3, 4)


def test_realization_rejects_other_types():
    s = make_seaweed(LieType("B", 2), {1}, {2})
    with pytest.raises(ValueError):
        realize_type_a(s)


def test_poset_algebra_fixture():
    pa = poset_algebra_sl4()
    assert pa.dim == 8
    f = functional_from_labels(pa, {"e1,4": 1, "e2,4": 1, "e2,3": 1})
    assert kirillov_rank(pa, f) == 8
    fhat = principal_element(pa, f)
    # the diagonal (1/2, 1/2, -1/2, -1/2), summed down to each h_i, and no
    # unit part
    assert fhat == [Q(1, 2), 1, Q(1, 2), 0, 0, 0, 0, 0]
    assert dict(ad_spectrum(pa, fhat).mult) == {0: 4, 1: 4}


def test_rank_three_dimension_eight_seaweed():
    s = make_seaweed(LieType("A", 3), {3, 1}, {3, 2})
    mat = realize_type_a(s)
    cert = index(mat)
    assert cert.index == 0
    fhat = principal_element(mat, cert.witness)
    sp = ad_spectrum(mat, fhat)
    assert dict(sp.mult) == {-1: 1, 0: 3, 1: 3, 2: 1}
    assert sp == full_spectrum(s)


def test_principal_element_fixes_functional():
    s = make_seaweed(LieType("A", 4), {4, 3, 2}, {4, 2, 1})
    mat = realize_type_a(s)
    cert = index(mat)
    assert cert.index == 0
    for f in (cert.witness, frobenius_functional(mat)):
        admat = ad_matrix(mat, principal_element(mat, f))
        # F([fhat, b_q]) must equal F(b_q) on every basis vector
        for q in range(mat.dim):
            lhs = sum(f[k] * admat[k][q] for k in range(mat.dim))
            assert lhs == f[q]


def test_principal_element_rejects_degenerate_functional():
    s = make_seaweed(LieType("A", 2), {2, 1}, {2, 1})  # index 2, never Frobenius
    mat = realize_type_a(s)
    f = (1,) * mat.dim
    with pytest.raises(ValueError):
        principal_element(mat, f)


@pytest.mark.parametrize("entries", [
    [0, 1],             # e1,2 is nilpotent: ad is not diagonalizable
    [Q(1, 4), 0],       # h1 / 4: eigenvalue 1/2 on e1,2
    [5, 0],             # 5 h1: eigenvalue 10, outside [-3, 3]
])
def test_ad_spectrum_refuses_what_is_not_an_integer_diagonal_spectrum(entries):
    # entries are basis coordinates: h1, then e1,2
    mat = realize_type_a(make_seaweed(LieType("A", 1), {1}, set()))
    with pytest.raises(ValueError, match="non-integer spectrum"):
        ad_spectrum(mat, entries)


def test_jacobi_identity_small():
    for pi1, pi2 in (({3, 1}, {3, 2}), ({3, 2, 1}, {2}), ({2}, {3, 1})):
        s = make_seaweed(LieType("A", 3), pi1, pi2)
        mat = realize_type_a(s)
        d = mat.dim

        def ad_pair(p, q):
            return mat.bracket_coords(p, q)

        for p, q, r in itertools.combinations(range(d), 3):
            total: dict[int, int] = {}
            for a, b, c in ((p, q, r), (q, r, p), (r, p, q)):
                inner = ad_pair(b, c)
                for k, v in inner.items():
                    for k2, v2 in ad_pair(a, k).items():
                        total[k2] = total.get(k2, 0) + v * v2
            assert all(v == 0 for v in total.values()), (p, q, r)


def test_jacobi_identity_random_triples_larger():
    import random
    s = make_seaweed(LieType("A", 6), {6, 5, 4, 2, 1}, {6, 4, 3, 2})
    mat = realize_type_a(s)
    rng = random.Random(3)
    d = mat.dim
    for _ in range(120):
        p, q, r = rng.sample(range(d), 3)
        total: dict[int, int] = {}
        for a, b, c in ((p, q, r), (q, r, p), (r, p, q)):
            for k, v in mat.bracket_coords(b, c).items():
                for k2, v2 in mat.bracket_coords(a, k).items():
                    total[k2] = total.get(k2, 0) + v * v2
        assert all(v == 0 for v in total.values())


def test_spectrum_functional_independent():
    from seaweeds.enumerate import enumerate_frobenius
    from seaweeds.spectrum import seaweed_dimension
    cat = enumerate_frobenius(LieType("A", 5))
    s = max(cat.entries, key=seaweed_dimension)
    assert is_frobenius(s)
    mat = realize_type_a(s)
    spectra = set()
    found = 0
    for f in sample_functionals(mat, 40, seed=7):
        if kirillov_rank(mat, f) == mat.dim:
            spectra.add(ad_spectrum(mat, principal_element(mat, f)).mult)
            found += 1
            if found == 3:
                break
    assert found == 3
    assert len(spectra) == 1
    assert spectra.pop() == full_spectrum(s).mult


def test_index_seed_reproducible():
    s = make_seaweed(LieType("A", 4), {4, 2}, {3, 1})
    mat = realize_type_a(s)
    a = index(mat, seed=5)
    b = index(mat, seed=5)
    assert a == b


FROBENIUS_SEAWEEDS = [
    (1, {1}, set()),
    (3, {3, 1}, {3, 2}),
    (4, {4, 3, 2}, {4, 2, 1}),
    (7, set(range(1, 8)), set(range(2, 8))),
    # uniform {-1, 0, 1} draws are regular here only 6% of the time
    (8, {8, 6, 4, 1}, {8, 7, 5, 3, 2, 1}),
]


@pytest.mark.parametrize("rank, top, bottom", FROBENIUS_SEAWEEDS)
def test_frobenius_functional_is_sparse_certified_and_minimal(rank, top, bottom):
    mat = realize_type_a(make_seaweed(LieType("A", rank), top, bottom))
    f = frobenius_functional(mat, seed=3)
    assert set(f) <= {-1, 0, 1}
    assert not any(f[:mat.n - 1])                       # the Cartan slots
    assert rank_int_rows(kirillov_matrix(mat, f)) == mat.dim
    assert frobenius_functional(mat, seed=3) == f
    for k, c in enumerate(f):
        if c:
            dropped = f[:k] + (0,) + f[k + 1:]
            assert rank_mod_p(kirillov_matrix(mat, dropped)) < mat.dim


def _greedy_by_fresh_ranks(m: MatrixSeaweed, seed: int) -> Functional:
    """The search of frobenius_functional with a fresh modular rank for
    every decision in place of the updated inverse."""
    h, d = m.n - 1, m.dim

    def regular(coeffs):
        return rank_mod_p(kirillov_matrix(m, coeffs)) == d

    rng = random.Random(seed)
    for _ in range(FUNCTIONAL_DRAWS):
        coeffs = [0] * h + [rng.randrange(PRIME) for _ in m.units]
        if regular(coeffs):
            break
    changed = True
    while changed:
        changed = False
        for k in range(h, d):
            c = coeffs[k]
            for v in ((0,) if abs(c) == 1 else (0, 1, -1)) if c else ():
                coeffs[k] = v
                if regular(coeffs):
                    changed = True
                    break
                coeffs[k] = c
    return tuple(coeffs)


def test_frobenius_functional_matches_the_search_by_fresh_ranks():
    from seaweeds.enumerate import enumerate_frobenius
    for n in range(1, 6):
        for s in enumerate_frobenius(LieType("A", n)).entries:
            mat = realize_type_a(s)
            assert frobenius_functional(mat, 5) == _greedy_by_fresh_ranks(mat, 5)
    mat = poset_algebra_sl4()
    assert frobenius_functional(mat, 5) == _greedy_by_fresh_ranks(mat, 5)


# Frobenius full-union pairs by rank: 56 of the 3 + 9 + 27 + 81 = 120
FROBENIUS_FULL_UNION_PAIRS = {1: 2, 2: 6, 3: 14, 4: 34}


@pytest.mark.parametrize("rank", sorted(FROBENIUS_FULL_UNION_PAIRS))
def test_frobenius_functional_refuses_non_frobenius_algebras(rank):
    # every full-union pair of the rank, with the meander as the reference
    rs = build_root_system(LieType("A", rank))
    verdicts = Counter()
    for m1, m2 in _mask_pairs(rank):
        s = Seaweed(rs, mask_subset(m1), mask_subset(m2))
        mat = realize_type_a(s)
        frobenius = is_frobenius(s)
        verdicts[frobenius] += 1
        if frobenius:
            frobenius_functional(mat)
            continue
        start = time.perf_counter()
        with pytest.raises(ValueError, match="not Frobenius"):
            frobenius_functional(mat)
        assert time.perf_counter() - start < 1
    frob = FROBENIUS_FULL_UNION_PAIRS[rank]
    assert verdicts == {True: frob, False: 3 ** rank - frob}


def _staircase(rank: int) -> Seaweed:
    """The Frobenius seaweed with top rank..1 and bottom rank..2."""
    return make_seaweed(LieType("A", rank), set(range(1, rank + 1)),
                        set(range(2, rank + 1)))


@pytest.mark.parametrize("rank", [12, pytest.param(16, marks=pytest.mark.slow)])
def test_oracle_spectrum_of_the_staircase_seaweed(rank):
    start = time.perf_counter()
    s = _staircase(rank)
    mat = realize_type_a(s)
    fhat = principal_element(mat, frobenius_functional(mat))
    assert ad_spectrum(mat, fhat) == full_spectrum(s)
    assert time.perf_counter() - start < 60
