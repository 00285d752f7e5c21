from __future__ import annotations

import json

import pytest

from seaweeds.rootsys import LieType
from seaweeds.seaweed import make_seaweed
from seaweeds.enumerate import (APPENDIX_A_E6, Catalog, check_appendix_a,
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
