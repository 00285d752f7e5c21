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
from seaweeds.enumerate import catalog_keys
from seaweeds.meander import is_frobenius
from seaweeds.spectrum import full_spectrum, seaweed_dimension
from seaweeds._linalg import PRIME, rank_int_rows, rank_mod_p
import seaweeds._linalg as linalg
import seaweeds.oracle as oracle
from seaweeds.cli import main
from seaweeds.oracle import (DEFAULT_SEED, FROBENIUS_RANK_GUARD,
                             ORACLE_RANK_GUARD, SAMPLE_COUNT, Functional,
                             IndexCertificate, MatrixSeaweed, ad_spectrum,
                             frobenius_functional, index, kirillov_matrix,
                             principal_element, realize_type_a)

import reference_impl
from reference_impl import (FUNCTIONAL_DRAWS, ad_matrix, dense_certificate,
                            determinant, enumerate_frobenius, kirillov_rows,
                            mask_pairs, meander_arcs, poset_algebra_sl4,
                            searched_functional, searched_functional_by_blocks,
                            slot_block, slot_factor, solve_nonsingular,
                            solved_principal_element)
# the general adjoint spectrum, for elements that need not be diagonal
from reference_impl import ad_spectrum as general_ad_spectrum


def _by_label(m: MatrixSeaweed, coeffs: dict[str, int]) -> Functional:
    return tuple(coeffs.get(label, 0) for label in m.labels)


def test_sl2_borel():
    s = make_seaweed(LieType("A", 1), {1}, set())
    mat = realize_type_a(s)
    assert mat.dim == 2
    cert = index(mat)
    assert cert.index == 0
    fhat = solved_principal_element(mat, cert.witness)
    assert dict(general_ad_spectrum(mat, fhat).mult) == {0: 1, 1: 1}


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
    for rank in (FROBENIUS_RANK_GUARD, FROBENIUS_RANK_GUARD + 1, 64):
        rs = build_root_system.__wrapped__(LieType("A", rank))
        s = Seaweed(rs, frozenset(range(1, rank + 1)),
                    frozenset(range(2, rank + 1)))
        if rank > FROBENIUS_RANK_GUARD:
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
    fhat = solved_principal_element(mat, cert.witness)
    sp = general_ad_spectrum(mat, fhat)
    assert dict(sp.mult) == {-1: 1, 0: 3, 1: 3, 2: 1}
    assert sp == full_spectrum(s)


def test_principal_element_fixes_functional():
    s = make_seaweed(LieType("A", 4), {4, 3, 2}, {4, 2, 1})
    mat = realize_type_a(s)
    cert = index(mat)
    assert cert.index == 0
    meander = frobenius_functional(mat)
    assert _fixes(mat, cert.witness,
                  solved_principal_element(mat, cert.witness))
    assert _fixes(mat, meander, principal_element(mat, meander))


def test_principal_element_rejects_degenerate_functional():
    s = make_seaweed(LieType("A", 2), {2, 1}, {2, 1})  # index 2, never Frobenius
    mat = realize_type_a(s)
    f = (1,) * mat.dim
    with pytest.raises(ValueError):
        principal_element(mat, f)
    with pytest.raises(ValueError):
        solved_principal_element(mat, f)


@pytest.mark.parametrize("entries", [
    [0, 1],             # e1,2 is nilpotent: ad is not diagonalizable
    [Q(1, 4), 0],       # h1 / 4: eigenvalue 1/2 on e1,2
    [5, 0],             # 5 h1: eigenvalue 10, outside [-3, 3]
])
def test_ad_spectrum_refuses_what_is_not_an_integer_diagonal_spectrum(entries):
    # entries are basis coordinates: h1, then e1,2
    mat = realize_type_a(make_seaweed(LieType("A", 1), {1}, set()))
    with pytest.raises(ValueError, match="non-integer spectrum"):
        general_ad_spectrum(mat, entries)


def test_diagonal_ad_spectrum_refuses_a_unit_or_a_fraction():
    """The package's `ad_spectrum` reads a diagonal element only: a unit
    coordinate or a non-integer h_r - h_c is refused, and an integer
    eigenvalue has no window to leave."""
    mat = realize_type_a(make_seaweed(LieType("A", 1), {1}, set()))
    with pytest.raises(ValueError, match="not a diagonal element"):
        ad_spectrum(mat, [0, 1])
    with pytest.raises(ValueError, match="non-integer spectrum"):
        ad_spectrum(mat, [Q(1, 4), 0])
    assert dict(ad_spectrum(mat, [5, 0]).mult) == {0: 1, 10: 1}


def test_ad_spectrum_settles_or_refuses_a_wrong_modular_probe(monkeypatch):
    """The modular rank is only a probe: a reported kernel is settled by
    exact elimination, and a kernel it misses fails the dimension count
    instead of shrinking the spectrum."""
    s = make_seaweed(LieType("A", 5), {4, 3, 2, 1}, {5, 3, 1})
    mat = realize_type_a(s)
    # the meander functional's principal element is diagonal; the dense
    # witness's is not
    coords = solved_principal_element(mat, index(mat).witness)
    adjoint = ad_matrix(mat, coords)
    # the adjoint has pieces of two or more basis vectors to probe
    assert any(adjoint[i][j] for i in range(mat.dim) for j in range(mat.dim)
               if i != j)
    expected = general_ad_spectrum(mat, coords)
    assert expected == full_spectrum(s)
    with monkeypatch.context() as patch:
        patch.setattr(reference_impl, "ranks_mod_p",
                      lambda stack: [len(matrix) - 1 for matrix in stack])
        assert general_ad_spectrum(mat, coords) == expected
    with monkeypatch.context() as patch:
        patch.setattr(reference_impl, "ranks_mod_p",
                      lambda stack: [len(matrix) for matrix in stack])
        with pytest.raises(ValueError, match="non-integer spectrum"):
            general_ad_spectrum(mat, coords)


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
            spectra.add(general_ad_spectrum(
                mat, solved_principal_element(mat, f)).mult)
            found += 1
            if found == 3:
                break
    assert found == 3
    assert len(spectra) == 1
    assert spectra.pop() == full_spectrum(s).mult


@pytest.mark.parametrize("rank", [1, 2, 3, 4, 5,
                                  pytest.param(6, marks=pytest.mark.slow)])
def test_dense_and_sparse_functionals_give_one_spectrum(rank):
    """Principal elements of any two regular functionals are conjugate
    (Gerstenhaber-Giaquinto), so on every Frobenius entry the dense +-100
    draw that `index` names as its witness, the sparse functional of the
    search and the meander functional give one ad-spectrum, through the
    Kirillov solve and the general adjoint scan; the arc walk's spectrum
    of the meander functional is that one too.  Two seeds of the search
    would test nothing: seeds 1 and 2 give the same functional on every
    A1-A7 entry."""
    for s in enumerate_frobenius(LieType("A", rank)).entries:
        mat = realize_type_a(s)
        dense = index(mat).witness
        sparse = searched_functional(mat, DEFAULT_SEED)
        meander = frobenius_functional(mat)
        assert dense != sparse and dense != meander, s
        spectra = [general_ad_spectrum(mat, solved_principal_element(mat, f))
                   for f in (dense, sparse, meander)]
        assert spectra[0] == spectra[1] == spectra[2], s
        assert ad_spectrum(mat, principal_element(mat, meander)) == spectra[0]


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


@pytest.mark.parametrize("seed", [0, 1, 5, DEFAULT_SEED])
def test_draws_are_the_randint_stream(seed):
    """`_draws` yields what `randint(-COEFF_BOUND, COEFF_BOUND)` yields
    from the same seed, coefficient for coefficient, on algebras of odd
    and even dimension up to the rank guard: every sampled witness, and
    so every oracle digest, is the same as with randint."""
    full = set(range(1, ORACLE_RANK_GUARD + 1))
    big = realize_type_a(make_seaweed(LieType("A", ORACLE_RANK_GUARD),
                                      full, full))
    bound = oracle.COEFF_BOUND
    for mat in [*_full_union_algebras(2), big]:
        rng = random.Random(seed)
        want = [tuple(rng.randint(-bound, bound) for _ in range(mat.dim))
                for _ in range(SAMPLE_COUNT)]
        assert list(itertools.islice(oracle._draws(mat, seed),
                                     SAMPLE_COUNT)) == want


def _index_work(monkeypatch) -> dict[str, list]:
    """Spies on the builds and ranks `index` makes: the shapes it builds
    and ranks mod p, and the rows it eliminates exactly."""
    work: dict[str, list] = {name: [] for name in (
        "kirillov_matrix", "rank_mod_p", "ranks_mod_p", "rank_int_rows")}

    def spy(name, shape):
        real = getattr(oracle, name)

        def counted(*args):
            work[name].append(shape(*args))
            return real(*args)
        monkeypatch.setattr(oracle, name, counted)

    spy("kirillov_matrix", lambda m, fs: len(fs))
    spy("rank_mod_p", lambda k: k.shape)
    spy("ranks_mod_p", lambda stack: stack.shape)
    spy("rank_int_rows", lambda rows: rows)
    return work


@pytest.mark.parametrize("rank, top, bottom, ind", [
    (2, {1, 2}, {1, 2}, 2),                 # full sl(3), dim 8
    (6, {2, 4, 5, 6}, {1, 2, 3, 5}, 4),     # an oracle benchmark job, dim 20
])
def test_index_of_even_dimension_ranks_one_stack(monkeypatch, rank, top,
                                                 bottom, ind):
    """When dim is even, `index` builds all its samples as one stack and
    ranks them with one `ranks_mod_p`, and ranks no matrix alone; the
    exact confirmation eliminates the witness's rows from that stack."""
    mat = realize_type_a(make_seaweed(LieType("A", rank), top, bottom))
    assert mat.dim % 2 == 0
    work = _index_work(monkeypatch)
    cert = index(mat)
    assert cert.index == ind
    d = mat.dim
    assert work == {"kirillov_matrix": [SAMPLE_COUNT],
                    "rank_mod_p": [],
                    "ranks_mod_p": [(SAMPLE_COUNT, d, d)],
                    "rank_int_rows": [kirillov_rows(mat, cert.witness)]}


@pytest.mark.parametrize("rank, top, bottom", [
    (1, {1}, {1}),                          # full sl(2), dim 3
    (4, {2, 1}, {4, 3, 2, 1}),
])
def test_index_one_of_odd_dimension_ranks_one_draw(monkeypatch, rank, top,
                                                   bottom):
    """When dim is odd and the first draw reaches the cap, that draw
    proves index 1: one build of one matrix, one `rank_mod_p`, nothing
    more."""
    mat = realize_type_a(make_seaweed(LieType("A", rank), top, bottom))
    assert mat.dim % 2 == 1
    work = _index_work(monkeypatch)
    assert index(mat).index == 1
    assert work == {"kirillov_matrix": [1],
                    "rank_mod_p": [(mat.dim, mat.dim)],
                    "ranks_mod_p": [],
                    "rank_int_rows": []}


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
    """The searched functional and the meander functional alike."""
    mat = realize_type_a(make_seaweed(LieType("A", rank), top, bottom))
    searched = searched_functional(mat, seed=3)
    assert searched_functional(mat, seed=3) == searched
    for f in (searched, frobenius_functional(mat)):
        assert set(f) <= {-1, 0, 1}
        assert not any(f[:mat.n - 1])                   # the Cartan slots
        assert rank_int_rows(kirillov_rows(mat, f)) == mat.dim
        for k, c in enumerate(f):
            if c:
                dropped = f[:k] + (0,) + f[k + 1:]
                assert (rank_mod_p(kirillov_matrix(mat, [dropped])[0])
                        < mat.dim)


def _greedy_by_fresh_ranks(m: MatrixSeaweed, seed: int) -> Functional:
    """`searched_functional` with a fresh modular rank for every decision
    in place of the updated inverse."""
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
            rows, z, j = slot_factor(terms, k)
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
        slot_factor(terms, slot)


def test_frobenius_functional_certifies_the_inverse_it_kept(monkeypatch):
    # a step that accepts without updating W leaves an inverse of the draw,
    # which the product with the final Kirillov matrix exposes
    mat = realize_type_a(_staircase(4))
    monkeypatch.setattr(reference_impl, "try_add",
                        lambda inverse, rows, z, j, c: True)
    with pytest.raises(AssertionError,
                       match="the functional search lost the full rank"):
        searched_functional(mat, DEFAULT_SEED)


@pytest.mark.slow
@pytest.mark.parametrize("rank", [6, 7])
def test_frobenius_functional_matches_the_dense_block_search(rank):
    for s in enumerate_frobenius(LieType("A", rank)).entries:
        mat = realize_type_a(s)
        for seed in (5, 1729):
            assert (searched_functional(mat, seed)
                    == searched_functional_by_blocks(mat, seed))


def test_frobenius_functional_matches_the_search_by_fresh_ranks():
    for n in range(1, 6):
        for s in enumerate_frobenius(LieType("A", n)).entries:
            mat = realize_type_a(s)
            assert (searched_functional(mat, 5)
                    == _greedy_by_fresh_ranks(mat, 5))
    mat = poset_algebra_sl4()
    assert searched_functional(mat, 5) == _greedy_by_fresh_ranks(mat, 5)


@pytest.fixture
def zero_row_trials(monkeypatch):
    """A spy on the search's try_add: the number of calls, and the rows of
    every call whose term would leave the Kirillov matrix K with a zero
    row.  K is recovered mod p as the inverse of the kept inverse."""
    real = reference_impl.try_add
    seen = {"calls": 0, "zero_rows": []}

    def spy(inverse, rows, z, j, c):
        seen["calls"] += 1
        touched = reference_impl.ModularInverse(inverse.w).w[rows]
        touched[:, rows] += c % PRIME * (z @ j @ z.T) % PRIME
        if not (touched % PRIME).any(axis=1).all():
            seen["zero_rows"].append(rows.tolist())
        return real(inverse, rows, z, j, c)

    monkeypatch.setattr(reference_impl, "try_add", spy)
    return seen


def test_frobenius_functional_tries_no_zero_row(zero_row_trials):
    """A zeroing that would leave a row of K without a nonzero slot is
    refused without a capacitance elimination: K would be singular over
    every field."""
    for n in range(1, 6):
        for s in enumerate_frobenius(LieType("A", n)).entries:
            searched_functional(realize_type_a(s), DEFAULT_SEED)
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
        f = searched_functional(mat, 5)
        assert f == _greedy_by_fresh_ranks(mat, 5)
    assert zero_row_trials["calls"] > 0
    assert zero_row_trials["zero_rows"] == []


# Frobenius full-union pairs by rank: 56 of the 3 + 9 + 27 + 81 = 120
FROBENIUS_FULL_UNION_PAIRS = {1: 2, 2: 6, 3: 14, 4: 34}


def _spans(n: int, arcs) -> bool:
    """Whether the arcs join all n positions into one piece."""
    piece = list(range(n))

    def root(a: int) -> int:
        while piece[a] != a:
            a = piece[a]
        return a

    for r, c in arcs:
        piece[root(r)] = root(c)
    return len({root(a) for a in range(n)}) == 1


@pytest.mark.parametrize("rank", sorted(FROBENIUS_FULL_UNION_PAIRS))
def test_frobenius_functional_refuses_non_frobenius_algebras(monkeypatch,
                                                             rank):
    """Every full-union pair of the rank, with the meander as the
    reference.  The meander functional of a pair that is not Frobenius
    is refused by the walk, before any block is ranked: its arcs miss a
    position, or they close a cycle, and a cycle of meander arcs changes
    the walked height by +-2 (a closed curve turns once)."""
    rs = build_root_system(LieType("A", rank))
    verdicts = Counter()
    ranked = []
    real = oracle.rank_mod_p
    monkeypatch.setattr(oracle, "rank_mod_p",
                        lambda block: ranked.append(block) or real(block))
    unspanned = 0
    for m1, m2 in mask_pairs(rank):
        s = Seaweed(rs, mask_subset(m1), mask_subset(m2))
        mat = realize_type_a(s)
        frobenius = is_frobenius(s)
        verdicts[frobenius] += 1
        if frobenius:
            frobenius_functional(mat)
            searched_functional(mat, DEFAULT_SEED)
            continue
        unspanned += not _spans(mat.n, meander_arcs(s))
        ranked.clear()
        with pytest.raises(ValueError, match="(arcs reach|close "
                           "inconsistently).*not Frobenius"):
            frobenius_functional(mat)
        assert ranked == [], s
        start = time.perf_counter()
        with pytest.raises(ValueError, match="not Frobenius"):
            searched_functional(mat, DEFAULT_SEED)
        assert time.perf_counter() - start < 1
    frob = FROBENIUS_FULL_UNION_PAIRS[rank]
    assert verdicts == {True: frob, False: 3 ** rank - frob}
    assert unspanned > 0 or rank == 1


def _both_orientations(max_rank: int) -> list[Seaweed]:
    """Every Frobenius catalog entry of A1 up to A(max_rank), then each
    with its sides swapped."""
    entries = [s for rank in range(1, max_rank + 1)
               for s in enumerate_frobenius(LieType("A", rank)).entries]
    return entries + [Seaweed(s.root_system, s.pi2, s.pi1) for s in entries]


def test_meander_functional_on_every_frobenius_entry_to_a7():
    """On the 285 Frobenius entries of A1-A7, in both orientations, the
    meander functional is certified regular, its nonzero slots are the
    meander's arcs, each with coefficient 1, and the arc walk agrees with
    the Kirillov route: the principal element is the solution of
    K x = -f (`solve_nonsingular`), which has no unit coordinate, and its
    diagonal spectrum is the general adjoint scan's.  On A1-A6 exact
    elimination gives |det K| = (rank + 1)^2, so the Pfaffian is
    +-(rank + 1), below p at every rank the guard accepts."""
    checked = 0
    for s in _both_orientations(7):
        mat = realize_type_a(s)
        h = mat.n - 1
        f = frobenius_functional(mat)
        kmat = kirillov_rows(mat, f)
        assert rank_mod_p(np.array(kmat, dtype=np.int64)) == mat.dim, s
        assert not any(f[:h]) and set(f) <= {0, 1}, s
        assert ({mat.units[k - h] for k, c in enumerate(f) if c}
                == meander_arcs(s)), s
        fhat = principal_element(mat, f)
        assert all(type(x) is Q for x in fhat), s
        assert fhat == solve_nonsingular(kmat, [-c for c in f]), s
        assert not any(fhat[h:]), s
        assert ad_spectrum(mat, fhat) == general_ad_spectrum(mat, fhat), s
        if s.rank <= 6:
            assert abs(determinant(kmat)) == (s.rank + 1) ** 2, s
        checked += 1
    assert checked == 2 * 285


def _fixes(m: MatrixSeaweed, f: Functional, coords) -> bool:
    """Whether f([x, b_q]) = f(b_q) on every basis vector b_q, for x with
    basis coordinates coords, through the reference adjoint matrix."""
    ad = ad_matrix(m, coords)
    return all(sum(f[k] * ad[k][q] for k in range(m.dim)) == f[q]
               for q in range(m.dim))


def test_the_arc_walk_refuses_what_is_not_a_spanning_path_of_arcs():
    """On every Frobenius entry of A1-A5, in both orientations: dropping
    any one arc leaves a position unreached; adding a non-arc unit (r, c)
    closes a cycle, which the walk refuses unless the walked heights
    already give h_r - h_c = 1; a Cartan coefficient is refused; and
    raising one walked height by 1 (then re-centring the trace) breaks
    f([h, x]) = f(x)."""
    cycles = 0
    for s in _both_orientations(5):
        mat = realize_type_a(s)
        h, n = mat.n - 1, mat.n
        f = frobenius_functional(mat)
        fhat = principal_element(mat, f)
        assert _fixes(mat, f, fhat), s
        x = [0, *fhat[:h], 0]
        heights = [b - a for a, b in zip(x, x[1:])]
        for k in range(h, mat.dim):
            changed = list(f)
            if f[k]:
                changed[k] = 0
                with pytest.raises(ValueError, match="arcs reach"):
                    principal_element(mat, changed)
                continue
            changed[k] = 1
            r, c = mat.units[k - h]
            if heights[r] - heights[c] == 1:
                assert principal_element(mat, changed) == fhat, s
                continue
            with pytest.raises(ValueError, match="close inconsistently"):
                principal_element(mat, changed)
            cycles += 1
        for i in range(h):
            cartan = list(f)
            cartan[i] = 1
            with pytest.raises(ValueError, match="Cartan slot"):
                principal_element(mat, cartan)
        for i in range(n):
            raised = [y + (j == i) - Q(1, n) for j, y in enumerate(heights)]
            coords = [*itertools.accumulate(raised[:h]), *fhat[h:]]
            assert not _fixes(mat, f, coords), (s, i)
    assert cycles > 0


def _no_rank(block):
    raise AssertionError("a graded block was ranked")


def _grades(m: MatrixSeaweed, x: list[int]) -> list[int]:
    """0 on the Cartan slots and x_r - x_c on each unit (r, c)."""
    return [0] * (m.n - 1) + [x[r] - x[c] for r, c in m.units]


def test_graded_blocks_are_the_dense_blocks_on_every_frobenius_entry_to_a6():
    """On every Frobenius entry of A1-A6, in both orientations, the
    Kirillov matrix K of the meander functional (the dense reference) is 0
    wherever the grades of row and column do not sum to 1, each graded
    block is K on rows V_lambda and columns V_(1-lambda), and the
    product of the |det B| is rank + 1: |det K| = (rank + 1)^2 is the
    product of the squared block determinants."""
    checked = 0
    for s in _both_orientations(6):
        mat = realize_type_a(s)
        f = frobenius_functional(mat)
        grade = _grades(mat, oracle._arc_heights(mat, f))
        kmat = np.array(kirillov_rows(mat, f))
        paired = np.add.outer(grade, grade) == 1
        assert not kmat[~paired].any(), s
        lams = sorted({min(g, 1 - g) for g in grade})
        blocks = oracle._graded_blocks(mat, f)
        assert len(blocks) == len(lams), s
        product = 1
        for lam, block in zip(lams, blocks):
            rows = [p for p, g in enumerate(grade) if g == lam]
            cols = [q for q, g in enumerate(grade) if g == 1 - lam]
            assert np.array_equal(block, kmat[np.ix_(rows, cols)]), (s, lam)
            product *= abs(determinant(block.tolist()))
        assert product == s.rank + 1, s
        checked += 1
    assert checked == 2 * 137


def test_graded_and_dense_certificates_agree_on_every_frobenius_entry_to_a10():
    """Every Frobenius catalog entry of A1-A10, in both orientations: the
    graded certificate accepts the meander functional exactly when one
    rank mod p of its whole Kirillov matrix does."""
    checked = 0
    for rank in range(1, 11):
        rs = build_root_system(LieType("A", rank))
        for m1, m2 in catalog_keys(LieType("A", rank)):
            for pi1, pi2 in ((m1, m2), (m2, m1)):
                mat = realize_type_a(Seaweed(rs, mask_subset(pi1),
                                             mask_subset(pi2)))
                f = frobenius_functional(mat)
                assert dense_certificate(mat, f), (rank, pi1, pi2)
                checked += 1
    assert checked == 2 * 2239


def test_a_height_that_unpairs_a_grade_is_refused_before_any_rank(monkeypatch):
    """A walked height raised or lowered by 1, on every Frobenius entry of
    A1-A5 in both orientations, where the new grading has some lambda
    with a different number of slots than 1 - lambda: the certificate
    refuses before it ranks anything.  Some of these leave a grade
    mu >= 1 whose partner 1 - mu is absent altogether: a zero block."""
    walked = []
    for s in _both_orientations(5):
        mat = realize_type_a(s)
        f = frobenius_functional(mat)
        walked.append((mat, oracle._arc_heights(mat, f)))
    monkeypatch.setattr(oracle, "rank_mod_p", _no_rank)
    refused = absent = 0
    for mat, x in walked:
        for i in range(mat.n):
            for step in (1, -1):
                y = [xi + step * (j == i) for j, xi in enumerate(x)]
                size = Counter(_grades(mat, y))
                if all(size[g] == size[1 - g] for g in size):
                    continue
                absent += any(g >= 1 and 1 - g not in size for g in size)
                monkeypatch.setattr(oracle, "_arc_heights",
                                    lambda m, f, y=y: y)
                with pytest.raises(ValueError, match="not Frobenius"):
                    frobenius_functional(mat)
                refused += 1
    assert refused > 0 and absent > 0


def test_a_dropped_arc_is_refused(monkeypatch):
    """On every Frobenius entry of A1-A5, in both orientations, the
    meander functional with one arc dropped is refused.  The walk of its
    arcs misses a position, so it is refused before any rank; and with
    the heights of the whole path, which still fix it, a graded block is
    singular mod p, as the whole Kirillov matrix is."""
    real_heights, real_blocks = oracle._arc_heights, oracle._graded_blocks
    walked = ranked = 0
    for s in _both_orientations(5):
        mat = realize_type_a(s)
        f = frobenius_functional(mat)
        x = real_heights(mat, f)
        for k in (k for k, c in enumerate(f) if c):
            dropped = f[:k] + (0,) + f[k + 1:]
            assert not dense_certificate(mat, dropped), (s, k)
            with monkeypatch.context() as patch:
                patch.setattr(oracle, "_graded_blocks",
                              lambda m, f: real_blocks(m, dropped))
                patch.setattr(oracle, "rank_mod_p", _no_rank)
                with pytest.raises(ValueError, match="arcs reach.*not "
                                   "Frobenius"):
                    frobenius_functional(mat)
            walked += 1
            with monkeypatch.context() as patch:
                patch.setattr(oracle, "_graded_blocks",
                              lambda m, f: real_blocks(m, dropped))
                patch.setattr(oracle, "_arc_heights", lambda m, f: x)
                with pytest.raises(ValueError, match="singular mod p"):
                    frobenius_functional(mat)
            ranked += 1
    assert walked == ranked > 0


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


@pytest.mark.slow
@pytest.mark.parametrize("rank,sample",
                         [(8, None), (9, None), (10, None)]
                         + [(rank, 10) for rank in range(11, 17)],
                         ids=["A8-all", "A9-all", "A10-all"]
                         + [f"A{rank}" for rank in range(11, 17)])
def test_oracle_spectra_of_catalog_entries(rank, sample):
    """The paper's theorem through the matrix oracle: the ad-spectrum of
    the principal element of the meander functional is the combinatorial
    spectrum on every Frobenius entry of A8, A9 and A10 (293, 570 and
    1,091) and on `sample` seeded catalog keys of each rank A11-A16."""
    t = LieType("A", rank)
    rs = build_root_system(t)
    keys = catalog_keys(t)
    if sample is not None:
        keys = random.Random(f"oracle-spectra/{rank}").sample(keys, sample)
    for m1, m2 in keys:
        s = Seaweed(rs, mask_subset(m1), mask_subset(m2))
        mat = realize_type_a(s)
        fhat = principal_element(mat, frobenius_functional(mat))
        assert ad_spectrum(mat, fhat) == full_spectrum(s), s


STAIRCASE_A8_ARGV = ["oracle", "--type", "A", "--rank", "8",
                      "--top", "8,7,6,5,4,3,2,1", "--bottom", "8,7,6,5,4,3,2"]


def test_a_frobenius_oracle_run_ranks_each_graded_block_once(monkeypatch,
                                                            capsys):
    """`seaweed oracle` on the A8 staircase ranks each graded block of the
    meander functional's Kirillov matrix once mod p, and that is its only
    elimination: no stack is ranked and nothing is eliminated exactly.
    The blocks are square, one per eigenvalue lambda <= 0 of the
    combinatorial spectrum and as wide as its multiplicity, so their
    widths sum to dim / 2."""
    s = _staircase(8)
    dim = realize_type_a(s).dim
    shapes = []
    real = oracle.rank_mod_p

    def spy(block):
        shapes.append(block.shape)
        return real(block)

    def refuse(*args):
        raise AssertionError("a Frobenius oracle run ranked a stack or "
                             "eliminated exactly")

    monkeypatch.setattr(oracle, "rank_mod_p", spy)
    for name in ("ranks_mod_p", "rank_int_rows"):
        monkeypatch.setattr(oracle, name, refuse)
        monkeypatch.setattr(linalg, name, refuse)
    assert main(STAIRCASE_A8_ARGV) == 0
    assert '"spectra_agree": true' in capsys.readouterr().out
    assert shapes == [(mult, mult) for k, mult in full_spectrum(s).mult
                      if k <= 0]
    assert len(shapes) > 1
    assert sum(width for width, _ in shapes) == dim // 2


def test_a_frobenius_oracle_run_builds_no_kirillov_matrix(monkeypatch,
                                                         capsys):
    """`seaweed oracle` on the A8 staircase builds no dense Kirillov
    matrix, reads no structure constants and allocates no dim x dim
    array: the graded blocks come from the sl(n) rules, the principal
    element and its spectrum from the arcs."""
    dim = realize_type_a(_staircase(8)).dim
    built, shapes = [], []
    zeros = np.zeros

    def spy(shape, *args, **kwargs):
        shapes.append(shape)
        return zeros(shape, *args, **kwargs)

    def refuse(*args):
        raise AssertionError("a Frobenius oracle run read the structure "
                             "constants")

    monkeypatch.setattr(oracle, "kirillov_matrix",
                        lambda m, fs: built.append(len(fs)))
    monkeypatch.setattr(MatrixSeaweed, "_slot_terms", property(refuse))
    monkeypatch.setattr(np, "zeros", spy)
    assert main(STAIRCASE_A8_ARGV) == 0
    assert '"spectra_agree": true' in capsys.readouterr().out
    assert built == []
    assert shapes and max(np.prod(shape) for shape in shapes) < dim * dim
