from __future__ import annotations

import itertools
import random
import time
from collections import Counter
from fractions import Fraction as Q

import numpy as np
import pytest

from seaweeds.rootsys import LieType, build_root_system
from seaweeds.seaweed import Seaweed, make_seaweed, mask_subset
from seaweeds.meander import is_frobenius
from seaweeds.spectrum import full_spectrum, seaweed_dimension
from seaweeds._linalg import PRIME, rank_int_rows, rank_mod_p
import seaweeds._linalg as linalg
import seaweeds.oracle as oracle
from seaweeds.cli import main
from seaweeds.oracle import (FUNCTIONAL_DRAWS, ORACLE_RANK_GUARD, Functional,
                             IndexCertificate, MatrixSeaweed, ad_matrix,
                             ad_spectrum, frobenius_functional, index,
                             kirillov_matrix, principal_element,
                             realize_type_a)

from reference_impl import (enumerate_frobenius,
                            frobenius_functional_by_blocks, kirillov_rows,
                            mask_pairs, poset_algebra_sl4, slot_block,
                            solve_nonsingular, solve_unique)


def _by_label(m: MatrixSeaweed, coeffs: dict[str, int]) -> Functional:
    return tuple(coeffs.get(label, 0) for label in m.labels)


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
    f = _by_label(mat, {"e1,2": 1})
    assert rank_int_rows(kirillov_rows(mat, f)) == 2
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


def _bracket_table(m: MatrixSeaweed) -> dict[tuple[int, int], dict[int, int]]:
    """The slot terms of m expanded into the bracket coordinates of every
    ordered basis pair (p, q), an empty dict where [b_p, b_q] = 0."""
    table = {(p, q): {} for p in range(m.dim) for q in range(m.dim)}
    for k, terms in enumerate(m._slot_terms):
        for p, q, v in terms:
            assert p < q and k not in table[p, q], (k, p, q)
            table[p, q][k] = v
            table[q, p][k] = -v
    return table


def _dense_basis(m: MatrixSeaweed) -> list[np.ndarray]:
    """The basis matrices, built here: h_i = E_ii - E_i+1,i+1, then the
    units E_rc."""
    unit = np.eye(m.n, dtype=np.int64)
    basis = [np.diag(unit[i] - unit[i + 1]) for i in range(m.n - 1)]
    return basis + [np.outer(unit[r], unit[c]) for r, c in m.units]


def _dense_bracket_agrees(m: MatrixSeaweed) -> None:
    """Every closed-form bracket, in both orders, against the commutator
    XY - YX of the dense basis matrices."""
    basis = _dense_basis(m)
    table = _bracket_table(m)
    for p, q in itertools.permutations(range(m.dim), 2):
        x, y = basis[p], basis[q]
        got = sum((v * basis[k] for k, v in table[p, q].items()),
                  np.zeros_like(x))
        assert np.array_equal(got, x @ y - y @ x), (m.labels[p], m.labels[q])


def _full_union_algebras(max_rank: int) -> list[MatrixSeaweed]:
    """Every type-A full-union pair up to max_rank, then poset_algebra_sl4."""
    mats = []
    for n in range(1, max_rank + 1):
        rs = build_root_system(LieType("A", n))
        mats += [realize_type_a(Seaweed(rs, mask_subset(m1), mask_subset(m2)))
                 for m1, m2 in mask_pairs(n)]
    return mats + [poset_algebra_sl4()]


def test_brackets_match_dense_commutators():
    for mat in _full_union_algebras(4):
        _dense_bracket_agrees(mat)


def _coordinates(m: MatrixSeaweed, c: np.ndarray) -> list:
    """Basis coordinates of the matrix c, asserted to lie in the span: h_i
    takes the diagonal of c summed down to entry i, E_rc the entry (r, c)."""
    rest = c.copy()
    np.fill_diagonal(rest, 0)
    units = []
    for r, col in m.units:
        units.append(rest[r, col])
        rest[r, col] = 0
    assert not rest.any() and not np.trace(c)
    return list(np.cumsum(np.diag(c))[:-1]) + units


def test_ad_matrix_matches_dense_commutators():
    # column q of ad X holds the coordinates of [X, b_q]
    rng = random.Random(11)
    for mat in _full_union_algebras(4):
        basis = np.array(_dense_basis(mat), dtype=object)
        for coords in ([rng.randint(-9, 9) for _ in range(mat.dim)],
                       [Q(rng.randint(-9, 9), rng.randint(1, 9))
                        for _ in range(mat.dim)]):
            x = np.tensordot(np.array(coords, dtype=object), basis, axes=1)
            ad = ad_matrix(mat, coords)
            for q, b in enumerate(basis):
                assert ([row[q] for row in ad]
                        == _coordinates(mat, x @ b - b @ x)), (mat, q)


def test_bracket_outside_the_span_is_reported():
    m = MatrixSeaweed(3, ((0, 1), (1, 2)))      # [E12, E23] = E13 is missing
    with pytest.raises(AssertionError, match="bracket left the span"):
        _bracket_table(m)


def test_realization_rejects_other_types():
    s = make_seaweed(LieType("B", 2), {1}, {2})
    with pytest.raises(ValueError):
        realize_type_a(s)


def test_poset_algebra_fixture():
    pa = poset_algebra_sl4()
    assert pa.dim == 8
    f = _by_label(pa, {"e1,4": 1, "e2,4": 1, "e2,3": 1})
    assert rank_int_rows(kirillov_rows(pa, f)) == 8
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


def test_ad_spectrum_settles_or_refuses_a_wrong_modular_probe(monkeypatch):
    """The modular rank is only a probe: a reported kernel is settled by
    exact elimination, and a kernel it misses fails the dimension count
    instead of shrinking the spectrum."""
    s = make_seaweed(LieType("A", 5), {4, 3, 2, 1}, {5, 3, 1})
    mat = realize_type_a(s)
    coords = principal_element(mat, frobenius_functional(mat))
    adjoint = ad_matrix(mat, coords)
    # the adjoint has pieces of two or more basis vectors to probe
    assert any(adjoint[i][j] for i in range(mat.dim) for j in range(mat.dim)
               if i != j)
    expected = ad_spectrum(mat, coords)
    assert expected == full_spectrum(s)
    with monkeypatch.context() as patch:
        patch.setattr(oracle, "ranks_mod_p",
                      lambda stack: [len(matrix) - 1 for matrix in stack])
        assert ad_spectrum(mat, coords) == expected
    with monkeypatch.context() as patch:
        patch.setattr(oracle, "ranks_mod_p",
                      lambda stack: [len(matrix) for matrix in stack])
        with pytest.raises(ValueError, match="non-integer spectrum"):
            ad_spectrum(mat, coords)


def _jacobi_sum(table, p: int, q: int, r: int) -> dict[int, int]:
    """[b_p, [b_q, b_r]] + [b_q, [b_r, b_p]] + [b_r, [b_p, b_q]]."""
    total: dict[int, int] = {}
    for a, b, c in ((p, q, r), (q, r, p), (r, p, q)):
        for k, v in table[b, c].items():
            for k2, v2 in table[a, k].items():
                total[k2] = total.get(k2, 0) + v * v2
    return total


def test_jacobi_identity_small():
    for pi1, pi2 in (({3, 1}, {3, 2}), ({3, 2, 1}, {2}), ({2}, {3, 1})):
        s = make_seaweed(LieType("A", 3), pi1, pi2)
        mat = realize_type_a(s)
        table = _bracket_table(mat)
        for p, q, r in itertools.combinations(range(mat.dim), 3):
            assert not any(_jacobi_sum(table, p, q, r).values()), (p, q, r)


def test_jacobi_identity_random_triples_larger():
    s = make_seaweed(LieType("A", 6), {6, 5, 4, 2, 1}, {6, 4, 3, 2})
    mat = realize_type_a(s)
    table = _bracket_table(mat)
    rng = random.Random(3)
    for _ in range(120):
        p, q, r = rng.sample(range(mat.dim), 3)
        assert not any(_jacobi_sum(table, p, q, r).values())


def test_spectrum_functional_independent():
    from seaweeds.spectrum import seaweed_dimension
    cat = enumerate_frobenius(LieType("A", 5))
    s = max(cat.entries, key=seaweed_dimension)
    assert is_frobenius(s)
    mat = realize_type_a(s)
    spectra = set()
    found = 0
    for f in itertools.islice(oracle._draws(mat, 7), 40):
        if rank_int_rows(kirillov_rows(mat, f)) == mat.dim:
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


def _index_by_sequential_ranks(m: MatrixSeaweed, seed: int,
                               samples: int) -> IndexCertificate:
    """The reference for index: a modular rank for every sample in draw
    order, a stop only at full rank, and exact elimination of the first
    best one."""
    d = m.dim
    best_rank, best, best_matrix = 0, None, None
    for f in itertools.islice(oracle._draws(m, seed), samples):
        kmat = kirillov_rows(m, f)
        r = rank_mod_p(np.array(kmat, dtype=np.int64))
        if r > best_rank:
            best_rank, best, best_matrix = r, f, kmat
            if r == d:
                return IndexCertificate(0, f, samples)
    if best_matrix is not None:
        best_rank = rank_int_rows(best_matrix)
    return IndexCertificate(d - best_rank, best, samples)


@pytest.mark.parametrize("rank", range(1, 6))
def test_index_matches_the_sequential_loop(rank):
    rs = build_root_system(LieType("A", rank))
    for m1, m2 in mask_pairs(rank):
        mat = realize_type_a(Seaweed(rs, mask_subset(m1), mask_subset(m2)))
        for seed in (1729, 5):
            for samples in (0, 1, 2, 20):
                assert (index(mat, seed, samples)
                        == _index_by_sequential_ranks(mat, seed, samples))


def test_index_draws_on_past_a_degenerate_first_sample():
    # on the Borel subalgebra of sl(2) a functional has full rank exactly
    # when it is nonzero on e1,2; find a seed whose first draw is zero there
    mat = realize_type_a(make_seaweed(LieType("A", 1), {1}, set()))
    seed = next(s for s in range(10**4)
                if next(oracle._draws(mat, s))[1] == 0)
    for samples in (1, 2, 20):
        assert (index(mat, seed, samples)
                == _index_by_sequential_ranks(mat, seed, samples))
    assert index(mat, seed, 1).index == 2
    assert index(mat, seed, 2).index == 0


def test_kirillov_matrix_matches_the_list_reference():
    """The int64 stack holds the Python-integer Kirillov matrices: for
    the index's draws on small algebras, and on full sl(17), the largest
    algebra the oracle takes, for coefficients up to PRIME - 1 on every
    slot, as the functional search draws them."""
    for mat in _full_union_algebras(3):
        fs = list(itertools.islice(oracle._draws(mat, 2), 3))
        assert (kirillov_matrix(mat, fs).tolist()
                == [kirillov_rows(mat, f) for f in fs])
    full = set(range(1, ORACLE_RANK_GUARD + 1))
    mat = realize_type_a(make_seaweed(LieType("A", ORACLE_RANK_GUARD),
                                      full, full))
    rng = random.Random(17)
    top = PRIME - 1
    fs = [(top,) * mat.dim, (-top,) * mat.dim,
          tuple(rng.choice((-1, 1)) * rng.randrange(PRIME)
                for _ in range(mat.dim))]
    assert (kirillov_matrix(mat, fs).tolist()
            == [kirillov_rows(mat, f) for f in fs])


@pytest.mark.parametrize("rank, top, bottom, ind, exact", [
    (1, {1}, {1}, 1, 0),            # full sl(2): the first sample has rank 2
    (4, {2, 1}, {4, 3, 2, 1}, 1, 0),
    (2, {1, 2}, {1, 2}, 2, 1),      # full sl(3): rank 6 of 8 needs a proof
])
def test_index_confirms_exactly_only_below_the_cap(monkeypatch, rank, top,
                                                   bottom, ind, exact):
    calls = []

    def counted(matrix):
        calls.append(matrix)
        return rank_int_rows(matrix)

    monkeypatch.setattr(oracle, "rank_int_rows", counted)
    s = make_seaweed(LieType("A", rank), top, bottom)
    assert index(realize_type_a(s)).index == ind
    assert len(calls) == exact


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
    assert rank_int_rows(kirillov_rows(mat, f)) == mat.dim
    assert frobenius_functional(mat, seed=3) == f
    for k, c in enumerate(f):
        if c:
            dropped = f[:k] + (0,) + f[k + 1:]
            assert rank_mod_p(kirillov_matrix(mat, [dropped])[0]) < mat.dim


def _greedy_by_fresh_ranks(m: MatrixSeaweed, seed: int) -> Functional:
    """The search of frobenius_functional with a fresh modular rank for
    every decision in place of the updated inverse."""
    h, d = m.n - 1, m.dim

    def regular(coeffs):
        return rank_mod_p(np.array(kirillov_rows(m, coeffs),
                                   dtype=np.int64)) == d

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


def _embedded(d: int, rows, block) -> np.ndarray:
    out = np.zeros((d, d), dtype=np.int64)
    out[np.ix_(rows, rows)] = block
    return out


def test_slot_factor_is_the_dense_block_of_a_star_plus_matching():
    for mat in _full_union_algebras(6):
        h, d = mat.n - 1, mat.dim
        for k, terms in enumerate(mat._slot_terms[h:], h):
            # a star [h_i, b_k] = w_i b_k, then unit pairs on distinct rows
            star = [a for a, b, _ in terms if b == k]
            pairs = [(a, b) for a, b, _ in terms if b != k]
            touched = star + [k] + [x for pair in pairs for x in pair]
            assert star and all(a < h for a in star)
            assert all(a >= h and b >= h for a, b in pairs)
            assert len(set(touched)) == len(touched)
            rows, z, j = oracle._slot_factor(terms, k)
            assert z.shape[1] == j.shape[0] == 2 + 2 * len(pairs)
            assert np.array_equal(_embedded(d, rows, z @ j @ z.T),
                                  _embedded(d, *slot_block(terms)))


@pytest.mark.parametrize("terms, slot", [
    ([(0, 5, 1), (3, 4, 1), (4, 6, -1)], 5),    # two pairs share row 4
    ([(0, 5, 1), (5, 6, 1)], 5),                # a pair touches the slot
    ([(0, 5, 1), (0, 3, 1)], 5),                # a pair touches a leaf
    ([(0, 5, 1), (0, 5, 2)], 5),                # a leaf twice
])
def test_slot_factor_refuses_other_shapes(terms, slot):
    with pytest.raises(AssertionError, match="not a star at the slot"):
        oracle._slot_factor(terms, slot)


def test_frobenius_functional_certifies_the_inverse_it_kept(monkeypatch):
    # a step that accepts without updating W leaves an inverse of the draw,
    # which the product with the final Kirillov matrix exposes
    mat = realize_type_a(_staircase(4))
    monkeypatch.setattr(oracle.ModularInverse, "try_add",
                        lambda self, rows, z, j, c: True)
    with pytest.raises(AssertionError,
                       match="the functional search lost the full rank"):
        frobenius_functional(mat)


@pytest.mark.slow
@pytest.mark.parametrize("rank", [6, 7])
def test_frobenius_functional_matches_the_dense_block_search(rank):
    for s in enumerate_frobenius(LieType("A", rank)).entries:
        mat = realize_type_a(s)
        for seed in (5, 1729):
            assert (frobenius_functional(mat, seed)
                    == frobenius_functional_by_blocks(mat, seed))


def test_frobenius_functional_matches_the_search_by_fresh_ranks():
    for n in range(1, 6):
        for s in enumerate_frobenius(LieType("A", n)).entries:
            mat = realize_type_a(s)
            assert frobenius_functional(mat, 5) == _greedy_by_fresh_ranks(mat, 5)
    mat = poset_algebra_sl4()
    assert frobenius_functional(mat, 5) == _greedy_by_fresh_ranks(mat, 5)


@pytest.fixture
def zero_row_trials(monkeypatch):
    """A spy on ModularInverse.try_add: the number of calls, and the rows
    of every call whose term would leave the Kirillov matrix K with a zero
    row.  K is recovered mod p as the inverse of the kept inverse."""
    real = oracle.ModularInverse.try_add
    seen = {"calls": 0, "zero_rows": []}

    def spy(self, rows, z, j, c):
        seen["calls"] += 1
        touched = oracle.ModularInverse(self.w).w[rows]
        touched[:, rows] += c % PRIME * (z @ j @ z.T) % PRIME
        if not (touched % PRIME).any(axis=1).all():
            seen["zero_rows"].append(rows.tolist())
        return real(self, rows, z, j, c)

    monkeypatch.setattr(oracle.ModularInverse, "try_add", spy)
    return seen


def test_frobenius_functional_tries_no_zero_row(zero_row_trials):
    """A zeroing that would leave a row of K without a nonzero slot is
    refused without a capacitance elimination: K would be singular over
    every field."""
    for n in range(1, 6):
        for s in enumerate_frobenius(LieType("A", n)).entries:
            frobenius_functional(realize_type_a(s))
    assert zero_row_trials["calls"] > 0
    assert zero_row_trials["zero_rows"] == []


class _ZeroAt(random.Random):
    """random.Random whose randrange call number `at` returns 0."""
    at = 0

    def __init__(self, seed) -> None:
        super().__init__(seed)
        self.count = 0

    def randrange(self, *args):
        value = super().randrange(*args)
        self.count += 1
        return 0 if self.count - 1 == self.at else value


def test_a_zero_residue_in_the_draw_touches_no_row(monkeypatch,
                                                   zero_row_trials):
    """A drawn residue of 0 puts no slot on a row: the search still makes
    the decisions of the search by fresh ranks, and still tries no
    zeroing that leaves a zero row."""
    mat = realize_type_a(make_seaweed(LieType("A", 5), {5, 4, 2, 1},
                                      {5, 3, 2, 1}))
    monkeypatch.setattr(random, "Random", _ZeroAt)
    for at in range(len(mat.units)):
        _ZeroAt.at = at
        f = frobenius_functional(mat, 5)
        assert f == _greedy_by_fresh_ranks(mat, 5)
    assert zero_row_trials["calls"] > 0
    assert zero_row_trials["zero_rows"] == []


# Frobenius full-union pairs by rank: 56 of the 3 + 9 + 27 + 81 = 120
FROBENIUS_FULL_UNION_PAIRS = {1: 2, 2: 6, 3: 14, 4: 34}


@pytest.mark.parametrize("rank", sorted(FROBENIUS_FULL_UNION_PAIRS))
def test_frobenius_functional_refuses_non_frobenius_algebras(rank):
    # every full-union pair of the rank, with the meander as the reference
    rs = build_root_system(LieType("A", rank))
    verdicts = Counter()
    for m1, m2 in mask_pairs(rank):
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


def test_a_frobenius_oracle_run_eliminates_the_whole_form_once(monkeypatch,
                                                               capsys):
    """`seaweed oracle` on the A8 staircase inverts its Kirillov matrix
    once: the search's inverse certifies the index and gives the principal
    element.  Every other modular elimination is a capacitance step."""
    dim = realize_type_a(_staircase(8)).dim
    widths = []
    real = linalg._eliminate_mod_p

    def spy(m, ncols):
        widths.append(ncols)
        return real(m, ncols)

    monkeypatch.setattr(linalg, "_eliminate_mod_p", spy)
    argv = ["oracle", "--type", "A", "--rank", "8", "--top", "8,7,6,5,4,3,2,1",
            "--bottom", "8,7,6,5,4,3,2"]
    assert main(argv) == 0
    assert '"spectra_agree": true' in capsys.readouterr().out
    assert widths.count(dim) == 1
    assert max(widths) == dim


def _frobenius_entries(max_rank: int) -> list[MatrixSeaweed]:
    return [realize_type_a(s) for n in range(1, max_rank + 1)
            for s in enumerate_frobenius(LieType("A", n)).entries]


def test_principal_element_reads_the_search_inverse(monkeypatch):
    """The principal element of the search's functional is read off the
    inverse the search kept, with no new inverse built, and it equals the
    whole-system modular solve and the Fraction solve; once the kept
    inverse is gone, a fresh inverse gives the same result."""
    built = []
    real = oracle.ModularInverse.__init__

    def counted(self, matrix):
        built.append(len(matrix))
        real(self, matrix)

    for mat in _frobenius_entries(4):
        f = frobenius_functional(mat)
        rows = [list(col) for col in zip(*kirillov_rows(mat, f))]
        want = solve_nonsingular(rows, list(f))
        assert want == solve_unique(rows, list(f), mat.dim)
        with monkeypatch.context() as patch:
            patch.setattr(oracle.ModularInverse, "__init__", counted)
            assert principal_element(mat, f) == want
            assert built == []
            assert principal_element(mat, list(f)) == want
            assert built == []
            mat._inverses.clear()
            assert principal_element(mat, f) == want
            assert built == [mat.dim]
        built.clear()


def test_principal_element_falls_back_when_the_kept_inverse_is_wrong(
        monkeypatch):
    """A kept inverse that does not invert K gives residues that fail the
    exact check, and the exact solve gives the principal element."""
    mat = realize_type_a(_staircase(5))
    f = frobenius_functional(mat)
    want = principal_element(mat, f)
    exact = []
    real = linalg._solve_exact
    monkeypatch.setattr(linalg, "_solve_exact",
                        lambda *args: exact.append(1) or real(*args))
    kept = mat._inverses[f]
    kept.w = (kept.w + 1) % PRIME
    assert principal_element(mat, f) == want
    assert exact == [1]
