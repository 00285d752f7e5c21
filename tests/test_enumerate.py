from __future__ import annotations

import itertools
import json

import pytest

from seaweeds.rootsys import LieType, build_root_system, connected_components
from seaweeds.seaweed import Seaweed, make_seaweed, mask_subset
from seaweeds.meander import (Side, components, involution, is_frobenius,
                              orbits, side_permutation)
from seaweeds.enumerate import (APPENDIX_A_E6, Catalog, _frobenius_pairs,
                                _mask_pairs, check_appendix_a,
                                enumerate_frobenius, spectrum_census,
                                verify_entry, CensusReport)

from reference_data import CLASSICAL_FROBENIUS_COUNTS, FROBENIUS_COUNTS


@pytest.mark.parametrize("name", list(FROBENIUS_COUNTS), ids=str)
def test_exceptional_counts(name):
    cat = enumerate_frobenius(LieType.parse(name))
    assert cat.count == FROBENIUS_COUNTS[name]


def test_g2_catalog_content():
    cat = enumerate_frobenius(LieType("G", 2))
    pairs = {(tuple(sorted(s.pi1)), tuple(sorted(s.pi2))) for s in cat.entries}
    assert pairs == {((), (1, 2)), ((1,), (2,))}


@pytest.mark.parametrize("fam,n", sorted(CLASSICAL_FROBENIUS_COUNTS),
                         ids=lambda fn: f"{fn}")
def test_classical_counts_frozen(fam, n):
    cat = enumerate_frobenius(LieType(fam, n))
    assert cat.count == CLASSICAL_FROBENIUS_COUNTS[(fam, n)]


# Every A-D type of rank <= 7 and the exceptional types below E8.
SCAN_TYPES = [LieType(fam, n) for fam, lo in (("A", 1), ("B", 2), ("C", 2),
                                             ("D", 3))
              for n in range(lo, 8)] + [LieType("E", 6), LieType("E", 7),
                                        LieType("F", 4), LieType("G", 2)]


@pytest.mark.parametrize("n", range(1, 7))
def test_mask_pairs_are_the_full_union_pairs(n):
    pairs = list(_mask_pairs(n))
    states = itertools.product(((1, 0), (0, 1), (1, 1)), repeat=n)
    expected = {(sum(a << i for i, (a, _) in enumerate(st)),
                 sum(b << i for i, (_, b) in enumerate(st))) for st in states}
    assert len(pairs) == 3 ** n
    assert set(pairs) == expected


@pytest.mark.parametrize("t", SCAN_TYPES, ids=str)
def test_scan_pairs_match_the_per_pair_test(t):
    """The raw mask scan keeps exactly the pairs is_frobenius accepts, and
    those are the pairs whose orbits each meet pi1 & pi2's complement once."""
    rs = build_root_system(t)
    expected = set()
    for m1, m2 in _mask_pairs(t.rank):
        s = Seaweed(rs, mask_subset(m1), mask_subset(m2))
        target = s.pi_union_complement
        counted = all(sum(v in target for v in cyc) == 1
                      for cyc in orbits(s).orbits)
        assert is_frobenius(s) == counted, s
        if counted:
            expected.add((m1, m2))
    scanned = _frobenius_pairs(rs)
    assert len(scanned) == len(set(scanned))
    assert set(scanned) == expected


def _negated_longest_element(rs, piece) -> dict[int, int]:
    """-w0 on the simple roots of a connected piece, from its Cartan matrix:
    w grows by simple reflections while some w(alpha_i) is positive, which
    ends at w0; -w0 then maps each simple root to a simple root."""
    verts = sorted(piece)
    cartan = [[rs.cartan[i - 1][j - 1] for j in verts] for i in verts]
    k = len(verts)
    images = [[int(i == j) for i in range(k)] for j in range(k)]  # w(alpha_j)
    while True:
        grow = [i for i in range(k) if any(c > 0 for c in images[i])]
        if not grow:
            break
        i = grow[0]
        # w s_i (alpha_j) = w(alpha_j) - <alpha_j, alpha_i^v> w(alpha_i)
        images = [[a - cartan[j][i] * b for a, b in zip(images[j], images[i])]
                  for j in range(k)]
    out = {}
    for j, image in enumerate(images):
        (target,) = [i for i, c in enumerate(image) if c]
        assert image[target] == -1
        out[verts[j]] = verts[target]
    return out


@pytest.mark.parametrize("t", SCAN_TYPES, ids=str)
def test_side_permutations_match_involution_and_longest_element(t):
    rs = build_root_system(t)
    full = (1 << t.rank) - 1
    for mask in range(full + 1):
        sub = mask_subset(mask)
        expected = list(range(t.rank + 1))
        for piece in connected_components(sub, rs.neighbors):
            for a, b in _negated_longest_element(rs, piece).items():
                expected[a] = b
        entry = side_permutation(rs, sub)
        assert entry == tuple(expected), sorted(sub)
        s = Seaweed(rs, sub, mask_subset(full ^ mask))
        assert involution(s, Side.TOP).perm == entry
        assert involution(Seaweed(rs, s.pi2, s.pi1), Side.BOTTOM).perm == entry


def test_rank_guard():
    with pytest.raises(ValueError):
        enumerate_frobenius(LieType("A", 17))


def test_appendix_catalog_is_reproduced():
    cat = enumerate_frobenius(LieType("E", 6))
    diff = check_appendix_a(cat)
    assert diff.empty


def test_appendix_diff_detects_missing_row():
    cat = enumerate_frobenius(LieType("E", 6))
    removed = tuple(s for s in cat.entries
                    if {tuple(sorted(s.pi1, reverse=True)),
                        tuple(sorted(s.pi2, reverse=True))}
                    != {(6, 5, 4, 3, 2, 1), (6, 5, 4, 3)})
    assert len(removed) == 73
    diff = check_appendix_a(Catalog(cat.lie_type, removed))
    assert len(diff.missing) == 1 and not diff.extra
    missing_pair = {frozenset(a) for a in diff.missing[0]}
    assert missing_pair == {frozenset({6, 5, 4, 3, 2, 1}), frozenset({6, 5, 4, 3})}


def test_appendix_keeps_reflection_twins():
    rows = {(tuple(sorted(a, reverse=True)), tuple(sorted(b, reverse=True)))
            for a, b in APPENDIX_A_E6}
    assert ((6, 5, 4, 3, 2, 1), (6, 3)) in rows
    assert ((6, 5, 4, 3, 2, 1), (5, 1)) in rows
    cat = enumerate_frobenius(LieType("E", 6))
    keys = {frozenset((frozenset(s.pi1), frozenset(s.pi2))) for s in cat.entries}
    assert frozenset((frozenset({6, 5, 4, 3, 2, 1}), frozenset({6, 3}))) in keys
    assert frozenset((frozenset({6, 5, 4, 3, 2, 1}), frozenset({5, 1}))) in keys


def test_census_passes_on_small_catalogs():
    for name in ("G2", "F4"):
        cat = enumerate_frobenius(LieType.parse(name))
        rep = spectrum_census(cat)
        assert rep.checked == cat.count
        assert rep.ok(), rep.failures


def test_census_builds_no_ambient_roots():
    entries = (("A", (12, 11, 10, 8, 7, 6, 5, 4, 2, 1),
                (12, 11, 10, 9, 7, 6, 5, 4, 3, 2, 1)),
               ("C", (12, 10, 9, 8, 7, 6, 4, 3),
                (12, 11, 10, 9, 8, 7, 6, 5, 3, 2, 1)))
    for fam, pi1, pi2 in entries:
        t = LieType(fam, 12)
        # a fresh root system: the cached one may already hold its roots
        rs = build_root_system.__wrapped__(t)
        s = Seaweed(rs, frozenset(pi1), frozenset(pi2))
        assert any(c.shape.kind == "A" and c.shape.rank > 1
                   for side in components(s) for c in side)
        report = spectrum_census(Catalog(t, (s,)))
        assert report.checked == 1 and report.ok(), report.failures
        assert "positive_roots" not in vars(rs)


def test_census_rejects_non_frobenius_entry():
    report = CensusReport()
    bad = make_seaweed(LieType("A", 2), {2, 1}, {2, 1})
    with pytest.raises(ValueError):
        verify_entry(bad, report)


def test_census_detects_corrupted_values():
    from seaweeds.meander import components
    from seaweeds.spectrum import (SimpleEigenvalueVector, component_spectrum,
                                   simple_eigenvalues, verify_symmetric)
    s = make_seaweed(LieType("A", 4), {4, 3, 2, 1}, {4, 3, 1})
    x = simple_eigenvalues(s)
    bad = SimpleEigenvalueVector((x.values[0] + 1,) + x.values[1:])
    tops, bottoms = components(s)
    broken = [c for c in tops + bottoms
              if not verify_symmetric(component_spectrum(c, bad).values)]
    assert broken


def test_catalog_json_shape():
    cat = enumerate_frobenius(LieType("G", 2))
    payload = cat.to_json_dict()
    assert payload["type"] == "G2" and payload["count"] == 2
    text = json.dumps(payload, sort_keys=True)
    assert json.loads(text) == payload
