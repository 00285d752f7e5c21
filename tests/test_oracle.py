from __future__ import annotations

import itertools
from fractions import Fraction as Q

import numpy as np
import pytest

from seaweeds.enumerate import _mask_pairs
from seaweeds.rootsys import LieType, build_root_system
from seaweeds.seaweed import Seaweed, make_seaweed, mask_subset
from seaweeds.meander import is_frobenius
from seaweeds.spectrum import full_spectrum, seaweed_dimension
from seaweeds.oracle import (ORACLE_RANK_GUARD, Functional, MatrixSeaweed,
                             ad_matrix, ad_spectrum, functional_from_labels,
                             index, kirillov_rank, poset_algebra_sl4,
                             principal_element, realize_type_a,
                             sample_functionals)


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
    dense basis matrices."""
    basis = [np.array(m.element([int(k == p) for k in range(m.dim)]),
                      dtype=np.int64) for p in range(m.dim)]
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


def test_coordinates_reject_matrices_outside_the_algebra():
    pa = poset_algebra_sl4()
    inside = [[0] * 4 for _ in range(4)]
    inside[0][0], inside[3][3], inside[1][3] = 2, -2, 5
    coords = pa.coordinates(inside)
    assert coords == [2, 2, 2, 0, 0, 0, 5, 0]
    assert pa.element(coords) == tuple(map(tuple, inside))
    inside[2][2] = 1
    with pytest.raises(ValueError, match="nonzero trace"):
        pa.coordinates(inside)
    inside[2][2], inside[3][0] = 0, 1
    with pytest.raises(ValueError, match="outside the algebra"):
        pa.coordinates(inside)


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
    assert [fhat[i][i] for i in range(4)] == [Q(1, 2), Q(1, 2), Q(-1, 2), Q(-1, 2)]
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
    f = cert.witness
    fhat = principal_element(mat, f)
    coords = mat.coordinates(fhat)
    admat = ad_matrix(mat, fhat)
    # F([fhat, b_q]) must equal F(b_q) on every basis vector
    for q in range(mat.dim):
        lhs = sum(f.coefficients[k] * admat[k][q] for k in range(mat.dim))
        assert lhs == f.coefficients[q]
    assert mat.element(coords) == fhat


def test_principal_element_rejects_degenerate_functional():
    s = make_seaweed(LieType("A", 2), {2, 1}, {2, 1})  # index 2, never Frobenius
    mat = realize_type_a(s)
    f = Functional((1,) * mat.dim)
    with pytest.raises(ValueError):
        principal_element(mat, f)


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
