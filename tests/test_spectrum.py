from __future__ import annotations

import gc
import tracemalloc
from collections import Counter
from functools import lru_cache
from operator import mul

import pytest
from hypothesis import given, settings, strategies as st

from seaweeds import enumerate as enumerate_module, meander, spectrum
from seaweeds.rootsys import LieType, build_root_system, epsilon_root_values
from seaweeds.seaweed import (Composition, Seaweed, from_compositions,
                              make_seaweed)
from seaweeds.meander import (Move, _orbit_rows, components, is_frobenius,
                              winding_bases, winding_move)
from seaweeds.spectrum import (Spectrum, component_spectra,
                               component_spectrum, full_spectrum,
                               seaweed_dimension, simple_eigenvalues,
                               verify_symmetric, verify_unbroken,
                               zero_padding)

from reference_data import (A9, B8, C8, COMPONENT_SPECTRA, D11, D14, E6X,
                            FULL_SPECTRA, SIMPLE_EIGENVALUES)
from reference_impl import (component_constraints, component_involution,
                            component_spectrum as fresh_component_spectrum,
                            enumerate_frobenius, solve_unique, sub_positive_roots, symmetric_root,
                            twice_epsilon)

REFS = {"A9": A9, "B8": B8, "C8": C8, "D14": D14, "D11": D11, "E6": E6X}


def _seaweed(ref):
    fam, rank, top, bottom = ref
    return make_seaweed(LieType(fam, rank), top, bottom)


def _evaluate(x, beta) -> int:
    """The value of the root beta on the simple eigenvalues x."""
    return sum(c * v for c, v in zip(beta, x.values))


@pytest.mark.parametrize("name", list(REFS), ids=str)
def test_full_spectra_match_references(name):
    ref = REFS[name]
    sp = full_spectrum(_seaweed(ref))
    assert dict(sp.mult) == FULL_SPECTRA[ref]


@pytest.mark.parametrize("name", ["A9", "B8", "C8", "D14", "D11", "E6"])
def test_simple_eigenvalue_vectors(name):
    ref = REFS[name]
    assert simple_eigenvalues(_seaweed(ref)).values == SIMPLE_EIGENVALUES[ref]


def test_e6_bottom_configuration():
    s = _seaweed(E6X)
    x = simple_eigenvalues(s)
    assert tuple(-v for v in x.values) == (-2, -1, -2, 1, 2, 2)


@pytest.mark.parametrize("key", list(COMPONENT_SPECTRA), ids=lambda k: f"{k[0][0]}{k[0][1]}-{k[1]}-{k[2]}")
def test_component_spectra(key):
    ref, side_name, roots = key
    s = _seaweed(ref)
    x = simple_eigenvalues(s)
    tops, bottoms = components(s)
    pool = tops if side_name == "top" else bottoms
    comp = next(c for c in pool if c.roots == roots)
    got = component_spectrum(comp, x).values
    assert dict(got.mult) == COMPONENT_SPECTRA[key]


def test_spectrum_sizes_match_dimension():
    for ref in REFS.values():
        s = _seaweed(ref)
        assert full_spectrum(s).total() == seaweed_dimension(s)


def test_zero_padding_table():
    assert zero_padding(LieType("A", 4)) == 2
    assert zero_padding(LieType("A", 5)) == 3
    assert zero_padding(LieType("B", 3)) == 3
    assert zero_padding(LieType("C", 6)) == 6
    assert zero_padding(LieType("D", 6)) == 6
    assert zero_padding(LieType("D", 5)) == 4
    assert zero_padding(LieType("E", 6)) == 4
    assert zero_padding(LieType("E", 7)) == 7
    assert zero_padding(LieType("E", 8)) == 8
    assert zero_padding(LieType("F", 4)) == 4
    assert zero_padding(LieType("G", 2)) == 2


RULE_TYPES = [LieType(fam, n)
              for fam, lo in (("A", 1), ("B", 2), ("C", 2), ("D", 4))
              for n in range(lo, 13)] + [
    LieType.parse(name) for name in ("E6", "E7", "E8", "F4", "G2")]


def _dense(coeffs, rhs, n):
    return tuple(coeffs.get(i, 0) for i in range(1, n + 1)), rhs


@pytest.mark.parametrize("t", RULE_TYPES, ids=str)
def test_orbit_rule_matches_reference_rows_and_involution(t):
    # the whole diagram as the top, then as the bottom: one component of
    # the type's own shape, in the classification's order, on each side
    every = range(1, t.rank + 1)
    tops, _ = components(make_seaweed(t, every, ()))
    _, bottoms = components(make_seaweed(t, (), every))
    for c in tops + bottoms:
        assert c.shape == (t.family, t.rank)
        partner, value = _orbit_rows(c.shape)
        order, sgn = c.order, c.side.sign
        assert ({a: order[j] for a, j in zip(order, partner)}
                == component_involution(c))
        reference = sorted(_dense(coeffs, rhs, t.rank)
                           for coeffs, rhs in component_constraints(c))
        rows = {_dense({a: sgn, order[j]: sgn}, v, t.rank)
                for a, j, v in zip(order, partner, value)}
        assert sorted(rows) == reference
        assert zero_padding(c.shape) == len(reference)


def test_simple_eigenvalues_rejects_non_frobenius():
    s = make_seaweed(LieType("A", 2), {2, 1}, {2, 1})
    with pytest.raises(ValueError):
        simple_eigenvalues(s)


def test_full_spectrum_decomposes_direct_sums():
    s = make_seaweed(LieType("A", 3), {3, 1}, set())
    sp = full_spectrum(s)
    assert dict(sp.mult) == {0: 2, 1: 2}


def test_verify_unbroken():
    assert verify_unbroken(Spectrum.from_counter(Counter({0: 1, 1: 1})))
    assert not verify_unbroken(Spectrum.from_counter(Counter({-1: 1, 1: 1, 2: 1})))
    assert not verify_unbroken(Spectrum.from_counter(Counter({0: 2})))
    table5 = Counter({-2: 6, -1: 19, 0: 33, 1: 33, 2: 19, 3: 6})
    assert verify_unbroken(Spectrum.from_counter(table5))


def test_verify_symmetric():
    assert verify_symmetric(Spectrum.from_counter(
        Counter({-2: 6, -1: 19, 0: 33, 1: 33, 2: 19, 3: 6})))
    assert not verify_symmetric(Spectrum.from_counter(Counter({0: 2, 1: 1})))


def test_chain_component_sums_to_one():
    for ref in REFS.values():
        s = _seaweed(ref)
        x = simple_eigenvalues(s)
        tops, bottoms = components(s)
        for c in tops + bottoms:
            if c.shape.family == "A":
                assert c.side.sign * sum(x.values[i - 1] for i in c.roots) == 1


def _root(n, idxs, doubled=()):
    v = [0] * n
    for i in idxs:
        v[i - 1] = 1
    for i in doubled:
        v[i - 1] = 2
    return tuple(v)


def test_symmetric_root_worked_examples():
    s = _seaweed(C8)
    _, bottoms = components(s)
    a4 = next(c for c in bottoms if c.roots == (5, 4, 3, 2))
    rs = s.root_system
    assert symmetric_root(rs, a4, _root(8, [5, 4, 3])) == _root(8, [2])
    assert symmetric_root(rs, a4, _root(8, [5, 4])) == _root(8, [3, 2])
    assert symmetric_root(rs, a4, _root(8, [5, 4, 3, 2])) is None


def test_symmetric_root_pairs_sum_to_one():
    for ref in (A9, B8, C8, D14):
        s = _seaweed(ref)
        x = simple_eigenvalues(s)
        tops, bottoms = components(s)
        for c in tops + bottoms:
            if c.shape.family != "A":
                continue
            for beta in sub_positive_roots(s.root_system, c.roots):
                mirror = symmetric_root(s.root_system, c, beta)
                if mirror is None:
                    assert c.side.sign * _evaluate(x, beta) == 1
                else:
                    total = _evaluate(x, beta) + _evaluate(x, mirror)
                    assert c.side.sign * total == 1


def test_symmetric_root_rejects_outside_support():
    s = _seaweed(C8)
    _, bottoms = components(s)
    a4 = next(c for c in bottoms if c.roots == (5, 4, 3, 2))
    with pytest.raises(ValueError):
        symmetric_root(s.root_system, a4, _root(8, [8]))


def test_full_c_component_multiplicities_closed_form():
    # a full distinguished-root component of rank k in the symplectic chain
    # carries k*(k+1)/2 zeros and ones each
    for k in range(2, 7):
        s = make_seaweed(LieType("C", k), set(range(1, k + 1)), set())
        sp = full_spectrum(s)
        binom = k * (k + 1) // 2
        assert dict(sp.mult) == {0: binom, 1: binom}


def test_spectrum_json_round_trip():
    sp = full_spectrum(_seaweed(B8))
    data = sp.to_json_dict()
    assert data["unbroken"] and data["symmetric"]
    assert Spectrum(tuple((e["k"], e["mult"])
                          for e in data["eigenvalues"])) == sp


# Reference evaluations over the ambient positive roots, as the spectrum
# path computed them before it evaluated components in closed form.

def _scanned_component_spectrum(c, x, rs):
    counts = Counter(c.side.sign * _evaluate(x, beta)
                     for beta in sub_positive_roots(rs, c.roots))
    counts[0] += zero_padding(c.shape)
    return Spectrum.from_counter(counts)


def _eliminated_values(s):
    tops, bottoms = components(s)
    rows = [row for c in tops + bottoms for row in component_constraints(c)]
    sol = solve_unique([[coeffs.get(i, 0) for i in range(1, s.rank + 1)]
                        for coeffs, _ in rows], [rhs for _, rhs in rows], s.rank)
    assert all(v.denominator == 1 for v in sol)
    return tuple(int(v) for v in sol)


def _scanned_dimension(s):
    rs = s.root_system
    return (len(sub_positive_roots(rs, s.pi1))
            + len(sub_positive_roots(rs, s.pi2)) + s.rank)


def _assert_matches_references(s):
    x = simple_eigenvalues(s)
    assert x.values == _eliminated_values(s)
    tops, bottoms = components(s)
    for c in tops + bottoms:
        assert (component_spectrum(c, x).values
                == _scanned_component_spectrum(c, x, s.root_system)), c
    assert seaweed_dimension(s) == _scanned_dimension(s)


CATALOG_TYPES = [LieType(fam, n)
                 for fam, lo in (("A", 1), ("B", 2), ("C", 2), ("D", 3))
                 for n in range(lo, 8)] + [
    LieType.parse(name) for name in ("E6", "E7", "E8", "F4", "G2")]


@lru_cache(maxsize=None)
def _catalog(t):
    return enumerate_frobenius(t).entries


@pytest.mark.parametrize("t", CATALOG_TYPES, ids=str)
def test_catalog_entries_match_root_scan_and_elimination(t):
    for s in _catalog(t):
        _assert_matches_references(s)


WINDING_BASES = [base for fam, qs in (("A", (1,)), ("B", range(2, 7)),
                                      ("C", range(2, 7)), ("D", range(3, 9)))
                 for q in qs for base in winding_bases(fam, q)]


@st.composite
def winding_seaweeds(draw, max_rank=24):
    pair = draw(st.sampled_from(WINDING_BASES))
    for move in draw(st.lists(st.sampled_from(list(Move)), max_size=16)):
        try:
            grown = winding_move(pair, move)
        except ValueError:
            continue
        if grown.n <= max_rank:
            pair = grown
    return pair.seaweed()


@given(winding_seaweeds())
@settings(max_examples=150, deadline=None)
def test_winding_seaweeds_match_root_scan_and_elimination(s):
    assert is_frobenius(s)
    _assert_matches_references(s)


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_dimension_matches_root_count_on_any_subsets(data):
    fam, lo, hi = data.draw(st.sampled_from(
        [("A", 1, 12), ("B", 2, 12), ("C", 2, 12), ("D", 3, 12),
         ("E", 6, 8), ("F", 4, 4), ("G", 2, 2)]))
    n = data.draw(st.integers(lo, hi))
    subsets = st.frozensets(st.integers(1, n))
    s = Seaweed(build_root_system(LieType(fam, n)), data.draw(subsets),
                data.draw(subsets))
    assert seaweed_dimension(s) == _scanned_dimension(s)


# C6 with top {1,2,3,4} (shape C4, order 1..4) and bottom {3,4,5,6} (shape
# A4, order 3..6) is Frobenius; the rules below replace the two shapes'
# (partner, value) rows.  A free pair ties x1 + x2 on vertices no bottom
# row reaches; the clashing rule pairs x3 + x4 = -1 against the top's
# pins x3 = x4 = 0.  A patched rule changes the involutions too, so
# is_frobenius would refuse first: the rule is patched where the side
# tables are built, and the solve is called directly on fresh involutions
# (the cached ones hold the true rules).
TRUE_C4 = ((0, 1, 2, 3), (1, 0, 0, 0))
TRUE_A4 = ((3, 2, 1, 0), (0, 1, 1, 0))
FREE_PAIR_C4 = ((1, 0, 2, 3), (0, 0, 0, 0))
CLASHING_A4 = ((1, 0, 2, 3), (1, 1, 0, 0))


@pytest.mark.parametrize("top,bottom,message", [
    (TRUE_C4, CLASHING_A4, "inconsistent linear system"),
    (FREE_PAIR_C4, TRUE_A4, "underdetermined linear system"),
    (FREE_PAIR_C4, CLASHING_A4, "inconsistent linear system"),
], ids=["inconsistent", "underdetermined", "inconsistent-beats-underdetermined"])
def test_broken_constraint_systems_raise(monkeypatch, top, bottom, message):
    s = make_seaweed(LieType("C", 6), {4, 3, 2, 1}, {6, 5, 4, 3})
    rules = {LieType("C", 4): top, LieType("A", 4): bottom}
    assert {shape: _orbit_rows(shape) for shape in rules} == {
        LieType("C", 4): TRUE_C4, LieType("A", 4): TRUE_A4}
    monkeypatch.setattr(meander, "_orbit_rows", rules.__getitem__)
    top, bottom = (meander._side_table(s.rank, comps)
                   for comps in components(s))
    with pytest.raises(AssertionError, match=message):
        spectrum._pin_walk(s, top, bottom)


def _table_component_spectrum(c, x):
    """component_spectrum with each 2*eps value a dot product of the
    side-normalized values with a row of the dense reference table."""
    family, vals = c.shape.family, x.side_normalized(c)
    f = [sum(map(mul, row, vals)) for row in twice_epsilon(family, len(vals))]
    counts = Counter(epsilon_root_values(family, f))
    counts[0] += zero_padding(c.shape)
    return Spectrum.from_counter(counts)


@pytest.mark.parametrize("t,top,bottom,dimension", [
    (LieType("B", 512), (), (1,) * 512, 262_656),
    (LieType("C", 512), (), (1,) * 512, 262_656),
    (LieType("D", 512), (), (1,) * 512, 262_144),
    (LieType("A", 512), (256,), (), 197_376),
], ids=["B512-borel", "C512-borel", "D512-borel", "A512-256-257"])
def test_rank_512_spectrum(t, top, bottom, dimension):
    """The three Borels, Frobenius at any rank in B and C and at even rank
    in D, and the maximal parabolic (256|257): every component's spectrum
    equals the dense-table evaluation, and the whole is unbroken and
    symmetric, with no ambient roots built."""
    s = from_compositions(t, Composition(top, t.rank),
                          Composition(bottom, t.rank))
    x = simple_eigenvalues(s)
    spectra, sp = component_spectra(components(s), x)
    assert [cs.values for cs in spectra] == [
        _table_component_spectrum(cs.component, x) for cs in spectra]
    assert sp == full_spectrum(s)
    assert verify_unbroken(sp) and verify_symmetric(sp)
    assert sp.total() == seaweed_dimension(s) == dimension
    assert "positive_roots" not in vars(s.root_system)


def test_spectrum_records_match_a_fresh_computation():
    """Every component of the E6, E7, E8, D8 and A9 censuses reads its
    spectrum and verdicts off the record of its (shape, side-normalized
    values), which equals the spectrum computed afresh: 6,895 components
    share 160 records, each holding in-bounds values, no broken centered
    run and a listed E6 pattern."""
    spectrum.shape_spectrum.cache_clear()
    count = 0
    for name in ("E6", "E7", "E8", "D8", "A9"):
        for s in enumerate_frobenius(LieType.parse(name)).entries:
            x = simple_eigenvalues(s)
            tops, bottoms = components(s)
            for c in tops + bottoms:
                record = spectrum.shape_spectrum(c.shape, x.side_normalized(c))
                sp, unbroken, symmetric = record[:3]
                assert sp == fresh_component_spectrum(c, x), (s, c)
                assert component_spectrum(c, x).values == sp
                assert (unbroken, symmetric) == (verify_unbroken(sp),
                                                 verify_symmetric(sp))
                assert record[3:] == (True, (), True), (s, c)
                count += 1
    assert (count, spectrum.shape_spectrum.cache_info().misses) == (6895, 160)


def _clear_seaweed_caches():
    for cached in (meander.components, meander.involution, meander.orbits,
                   meander._side_record, spectrum.shape_spectrum):
        cached.cache_clear()


def test_rank_512_loop_holds_bounded_memory():
    """124 distinct B512 seaweeds, each a zigzag over the top 128 roots with
    one defect (top v, bottom v - 1 or v + 1) above the B384 tail, hold
    under 8 MB once checked, solved and censused: about 47 KB each, mostly
    their new side record, since neighbouring seaweeds share a side, the
    B384 tail shares one spectrum record, its census verdicts included,
    and at most 64 seaweeds stay in the seaweed-keyed caches.  Caching
    each seaweed's own components and involutions held about 82 KB each
    (10 MB).  About 2 s under tracemalloc on a 2-core VM."""
    n, k = 512, 384
    rs = build_root_system(LieType("B", n))
    top = frozenset(range(n - 1, k, -2))
    bottom = frozenset(range(n, k, -2)) | frozenset(range(1, k + 1))
    _clear_seaweed_caches()
    report = enumerate_module.CensusReport()
    enumerate_module.verify_entry(Seaweed(rs, top, bottom), report)
    full_spectrum(Seaweed(rs, top, bottom))     # the shared B384 record
    gc.collect()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        seen = 0
        for v in range(k + 4, n - 1, 2):
            for w in (v - 1, v + 1):
                s = Seaweed(rs, top | {v}, bottom | {w})
                assert is_frobenius(s), s
                full_spectrum(s)
                enumerate_module.verify_entry(s, report)
                seen += 1
        del s
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
        _clear_seaweed_caches()
    assert seen == report.checked - 1 == 124 and report.ok()
    assert held < 8 * 2**20, held
