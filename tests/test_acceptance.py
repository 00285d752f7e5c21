"""Acceptance checklist.

Each test covers one numbered criterion, asserts it exactly (all equalities
are integer or multiset equalities, no tolerances), and records a summary
line printed at the end of the pytest run:

  A1 worked-example spectra        A5 catalog counts and the E6 list
  A2 simple-eigenvalue vectors     A6 matrix-oracle equivalence (type A)
  A3 per-component multisets       A7 incidence-algebra fixtures
  A4 exceptional component spectra A8 structural sweep over all catalogs
"""
from __future__ import annotations

import random

from seaweeds.rootsys import LieType, build_root_system
from seaweeds.seaweed import (Seaweed, canonical_form, make_seaweed,
                              mask_subset, subset_mask)
from seaweeds.meander import (Move, components, generate_frobenius,
                              is_frobenius, winding_bases, winding_move)
from seaweeds.spectrum import (component_spectrum, full_spectrum,
                               simple_eigenvalues)
from seaweeds.oracle import (ad_spectrum, frobenius_functional,
                             functional_from_labels, index, kirillov_rank,
                             poset_algebra_sl4, principal_element,
                             realize_type_a)
from seaweeds.enumerate import (CensusReport, _mask_pairs, check_appendix_a,
                                enumerate_frobenius, verify_entry)

from conftest import record_acceptance
from reference_data import (A9, B8, C8, COMPONENT_SPECTRA, D11, D14, E6X,
                            E6_BOTTOM_CONFIGURATION, E6_COMPONENT_BY_HEIGHT,
                            EXCEPTIONAL_COMPONENT_SPECTRA, FROBENIUS_COUNTS,
                            FULL_SPECTRA, SIMPLE_EIGENVALUES)


def _seaweed(ref):
    fam, rank, top, bottom = ref
    return make_seaweed(LieType(fam, rank), top, bottom)


def _record(name, ok, detail=""):
    record_acceptance(name, ok, detail)
    assert ok, f"{name} failed: {detail}"


def test_a1_worked_example_spectra():
    bad = []
    for ref in (A9, B8, C8, D14, D11, E6X):
        got = dict(full_spectrum(_seaweed(ref)).mult)
        if got != FULL_SPECTRA[ref]:
            bad.append((ref[:2], got))
    _record("A1 worked-example spectra", not bad, f"6 seaweeds; bad={bad}")


def test_a2_simple_eigenvalue_vectors():
    bad = []
    for ref in (A9, C8, E6X):
        got = simple_eigenvalues(_seaweed(ref)).values
        if got != SIMPLE_EIGENVALUES[ref]:
            bad.append((ref[:2], got))
    x = simple_eigenvalues(_seaweed(E6X))
    bottom_config = tuple(-v for v in x.values)
    if bottom_config != E6_BOTTOM_CONFIGURATION:
        bad.append(("E6 bottom", bottom_config))
    _record("A2 simple-eigenvalue vectors", not bad, f"bad={bad}")


def test_a3_per_component_multisets():
    bad = []
    for (ref, side_name, roots), expected in COMPONENT_SPECTRA.items():
        s = _seaweed(ref)
        x = simple_eigenvalues(s)
        tops, bottoms = components(s)
        pool = tops if side_name == "top" else bottoms
        comp = next(c for c in pool if c.roots == roots)
        got = dict(component_spectrum(comp, x).values.mult)
        if got != expected:
            bad.append((ref[:2], roots, got))
    # the 36 values of the full rank-6 exceptional bottom component, checked
    # row group by row group in decreasing root height
    s = _seaweed(E6X)
    x = simple_eigenvalues(s)
    rs = s.root_system
    by_height: dict[int, list[int]] = {}
    for beta in rs.positive_roots:
        by_height.setdefault(sum(beta), []).append(-x.evaluate(beta))
    for h, values in E6_COMPONENT_BY_HEIGHT.items():
        if sorted(by_height.get(h, [])) != sorted(values):
            bad.append(("E6 height", h, by_height.get(h)))
    _record("A3 per-component multisets", not bad,
            f"{len(COMPONENT_SPECTRA)} components + 36 E6 root values; bad={bad}")


def test_a4_exceptional_component_spectra():
    bad = []
    for name, expected in EXCEPTIONAL_COMPONENT_SPECTRA.items():
        t = LieType.parse(name)
        cat = enumerate_frobenius(t)
        hit = None
        for s in cat.entries:
            tops, bottoms = components(s)
            for c in tops + bottoms:
                if (c.shape.kind, c.shape.rank) == (name[0], int(name[1])):
                    x = simple_eigenvalues(s)
                    hit = dict(component_spectrum(c, x).values.mult)
                    break
            if hit:
                break
        if hit != expected:
            bad.append((name, hit))
    _record("A4 exceptional component spectra", not bad, f"bad={bad}")


def test_a5_catalog_counts_and_e6_list():
    bad = []
    for name, expected in FROBENIUS_COUNTS.items():
        got = enumerate_frobenius(LieType.parse(name)).count
        if got != expected:
            bad.append((name, got, expected))
    diff = check_appendix_a(enumerate_frobenius(LieType("E", 6)))
    if not diff.empty:
        bad.append(("E6 list", len(diff.missing), len(diff.extra)))
    _record("A5 catalog counts and the E6 list", not bad, f"bad={bad}")


def test_a6_matrix_oracle_equivalence():
    mismatched = []
    checked = 0
    for n in range(1, 8):
        for s in enumerate_frobenius(LieType("A", n)).entries:
            mat = realize_type_a(s)
            try:
                # a full modular rank certifies index 0
                f = frobenius_functional(mat)
            except ValueError:
                mismatched.append((repr(s), "nonzero index"))
                continue
            fhat = principal_element(mat, f)
            if ad_spectrum(mat, fhat).mult != full_spectrum(s).mult:
                mismatched.append((repr(s), "spectrum"))
            checked += 1
    pairs = 0
    for n in range(1, 6):
        rs = build_root_system(LieType("A", n))
        seen = set()
        for m1, m2 in _mask_pairs(n):
            s = canonical_form(Seaweed(rs, mask_subset(m1), mask_subset(m2)))
            key = (subset_mask(s.pi1), subset_mask(s.pi2))
            if key in seen:
                continue
            seen.add(key)
            if (index(realize_type_a(s)).index == 0) != is_frobenius(s):
                mismatched.append((repr(s), "index/meander"))
            pairs += 1
    _record("A6 matrix-oracle equivalence (type A)", not mismatched,
            f"{checked} spectra + {pairs} index checks; bad={mismatched[:3]}")


def test_a7_incidence_algebra_fixtures():
    bad = []
    pa = poset_algebra_sl4()
    f = functional_from_labels(pa, {"e1,4": 1, "e2,4": 1, "e2,3": 1})
    if kirillov_rank(pa, f) != 8:
        bad.append("form rank")
    fhat = principal_element(pa, f)
    from fractions import Fraction as Q
    # the diagonal (1/2, 1/2, -1/2, -1/2) in h coordinates, no unit part
    if fhat != [Q(1, 2), 1, Q(1, 2), 0, 0, 0, 0, 0]:
        bad.append("principal element")
    if dict(ad_spectrum(pa, fhat).mult) != {0: 4, 1: 4}:
        bad.append("incidence spectrum")
    s = make_seaweed(LieType("A", 3), {3, 1}, {3, 2})
    mat = realize_type_a(s)
    sp = ad_spectrum(mat, principal_element(mat, frobenius_functional(mat)))
    if dict(sp.mult) != {-1: 1, 0: 3, 1: 3, 2: 1}:
        bad.append("rank-3 seaweed spectrum")
    if dict(full_spectrum(s).mult) != {-1: 1, 0: 3, 1: 3, 2: 1}:
        bad.append("rank-3 combinatorial spectrum")
    _record("A7 incidence-algebra fixtures", not bad, f"bad={bad}")


def test_a8_structural_sweep():
    report = CensusReport()
    catalogs = 0
    for fam, lo in (("A", 1), ("B", 2), ("C", 2), ("D", 3)):
        for n in range(lo, 9):
            for s in enumerate_frobenius(LieType(fam, n)).entries:
                verify_entry(s, report)
            catalogs += 1
    for name in FROBENIUS_COUNTS:
        for s in enumerate_frobenius(LieType.parse(name)).entries:
            verify_entry(s, report)
        catalogs += 1
    # winding closure: random move words from every base family
    rng = random.Random(20240817)
    closures = 0
    for fam, qs in (("A", (1,)), ("B", (2, 3, 4)), ("C", (2, 3, 4)),
                    ("D", (4, 5, 6))):
        for q in qs:
            for base in winding_bases(fam, q):
                generate_frobenius(base, [])
                for _ in range(12):
                    pair = base
                    for _ in range(rng.randint(0, 6)):
                        try:
                            pair = winding_move(pair, rng.choice(list(Move)))
                        except ValueError:
                            continue
                    if not is_frobenius(pair.seaweed()):
                        report.failures.append(f"winding closure broke at {pair}")
                    closures += 1
    _record("A8 structural sweep",
            report.ok(),
            f"{report.checked} seaweeds across {catalogs} catalogs, "
            f"{closures} winding words; failures={report.failures[:3]}")
