from __future__ import annotations

import itertools
import json
from math import gcd

import pytest
from hypothesis import example, given, settings, strategies as st

import seaweeds.enumerate as enumerate_module
import seaweeds.meander as meander_module
from seaweeds.rootsys import LieType, build_root_system, connected_components
from seaweeds.seaweed import (Composition, Seaweed, from_compositions,
                              make_seaweed, mask_subset)
from seaweeds.meander import (Side, components, involution, is_frobenius,
                              orbits, side_permutation, side_permutations,
                              swapped_components)
from seaweeds.enumerate import (APPENDIX_A_E6, Catalog, _check_centered_runs,
                                _frobenius_pairs, _mask_pairs, _run_root,
                                check_appendix_a, enumerate_frobenius,
                                spectrum_census, verify_entry, CensusReport)
from seaweeds.spectrum import SimpleEigenvalueVector, simple_eigenvalues

from reference_data import CLASSICAL_FROBENIUS_COUNTS, FROBENIUS_COUNTS
from reference_impl import (_check_symmetric_roots, _mirror_run, cartan_matrix,
                            symmetric_root)


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


# Every catalog of rank <= 8: A-D and the exceptional types.
RANK_8_TYPES = [LieType(fam, n) for fam, lo in (("A", 1), ("B", 2), ("C", 2),
                                               ("D", 3))
                for n in range(lo, 9)] + [LieType.parse(name)
                                          for name in FROBENIUS_COUNTS]


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
    ambient = cartan_matrix(rs.lie_type)
    cartan = [[ambient[i - 1][j - 1] for j in verts] for i in verts]
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


# Every A-D type of rank <= 10 and every exceptional type.
RANK_10_TYPES = [LieType(fam, n) for fam, lo in (("A", 1), ("B", 2),
                                                ("C", 2), ("D", 3))
                 for n in range(lo, 11)] + [LieType.parse(name)
                                            for name in FROBENIUS_COUNTS]


@pytest.mark.parametrize("t", RANK_10_TYPES, ids=str)
def test_side_permutation_table_matches_each_subset(t):
    rs = build_root_system(t)
    table = side_permutations(rs)
    assert len(table) == 1 << t.rank
    for mask, perm in enumerate(table):
        assert perm == side_permutation(rs, mask_subset(mask)), mask


@pytest.mark.parametrize("name,pieces,count", [
    ("E6", 25, 74), ("E7", 34, 143), ("E8", 44, 301), ("D8", 41, 292),
    ("A9", 45, 570)])
def test_catalog_scan_builds_one_involution_per_connected_piece(
        monkeypatch, name, pieces, count):
    """The scan calls side_permutation once per connected piece of the
    diagram, not once per subset (64 to 512 of them here)."""
    t = LieType.parse(name)
    rs = build_root_system(t)
    seen = []

    def spy(rs_, subset):
        seen.append(frozenset(subset))
        return side_permutation(rs_, subset)

    monkeypatch.setattr(meander_module, "side_permutation", spy)
    assert enumerate_frobenius(t).count == count
    assert len(seen) == len(set(seen)) == pieces
    assert all(len(connected_components(sub, rs.neighbors)) == 1
               for sub in seen)
    connected = sum(len(connected_components(mask_subset(m), rs.neighbors))
                    == 1 for m in range(1, 1 << t.rank))
    assert connected == pieces


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
        assert any(c.shape.family == "A" and c.shape.rank > 1
                   for side in components(s) for c in side)
        report = spectrum_census(Catalog(t, (s,)))
        assert report.checked == 1 and report.ok(), report.failures
        assert "positive_roots" not in vars(rs)


def test_census_rejects_non_frobenius_entry():
    report = CensusReport()
    bad = make_seaweed(LieType("A", 2), {2, 1}, {2, 1})
    with pytest.raises(ValueError):
        verify_entry(bad, report)


@pytest.mark.parametrize("t", RANK_8_TYPES, ids=str)
def test_census_mirror_runs_match_symmetric_root(t):
    """The run (i, j) is the root on positions i..j of c.order, and its
    mirror run (lo, hi) is the root symmetric_root pairs it with.  A root
    plus its mirror, or a self-paired root alone, is the centered run
    i'..k+1-i' with i' = min(i, k+1-j), which is what lets the census check
    the centered runs alone."""
    for s in enumerate_frobenius(t).entries:
        for c in itertools.chain(*components(s)):
            if c.shape.family != "A":
                continue
            k = len(c.order)
            for i in range(1, k + 1):
                for j in range(i, k + 1):
                    run = c.order[i - 1:j]
                    beta = tuple(int(a in run) for a in range(1, s.rank + 1))
                    assert _run_root(s.rank, c.order, i, j) == beta
                    mirror = _mirror_run(k, i, j)
                    got = (None if mirror is None
                           else _run_root(s.rank, c.order, *mirror))
                    assert got == symmetric_root(s.root_system, c, beta), \
                        (s, c, i, j)
                    lo = min(i, k + 1 - j)
                    centered = _run_root(s.rank, c.order, lo, k + 1 - lo)
                    covered = tuple(map(sum, zip(beta, got or [0] * s.rank)))
                    assert covered == centered, (s, c, i, j)


def _chain_checks_agree(values: tuple[int, ...]) -> bool:
    """Whether the centered-run check and the per-pair reference fail the
    same self-paired roots, and pass or fail together, on one chain of
    side-normalized values (a top chain of A_k, whose sign is +1)."""
    k = len(values)
    s = make_seaweed(LieType("A", k), set(range(1, k + 1)), set())
    c, = components(s)[0]
    x = [0] * k
    for a, v in zip(c.order, values):
        x[a - 1] = v
    reference: list[str] = []
    _check_symmetric_roots(s, c, SimpleEigenvalueVector(tuple(x)),
                           reference.append)
    got: list[str] = []
    _check_centered_runs(s.rank, c.order, values, got.append)
    return (bool(got) == bool(reference)
            and got == [f for f in reference if f.startswith("self-paired")])


@st.composite
def _near_valid_chain_values(draw) -> tuple[int, ...]:
    """Chain values of length 1-12: mostly a valid pattern (the two values
    mirrored about the middle sum to zero, the middle one or two to one)
    with one entry moved by +-1, else a valid pattern or any small values."""
    k = draw(st.integers(1, 12))
    kind = draw(st.sampled_from(("near", "near", "near", "valid", "any")))
    if kind == "any":
        return tuple(draw(st.lists(st.integers(-3, 3), min_size=k,
                                   max_size=k)))
    outer = draw(st.lists(st.integers(-3, 3), min_size=(k - 1) // 2,
                          max_size=(k - 1) // 2))
    if k % 2:
        middle = [1]
    else:
        m = draw(st.integers(-3, 3))
        middle = [m, 1 - m]
    values = outer + middle + [-v for v in reversed(outer)]
    if kind == "near":
        values[draw(st.integers(0, k - 1))] += draw(st.sampled_from((-1, 1)))
    return tuple(values)


@settings(max_examples=300, deadline=None)
@given(values=_near_valid_chain_values())
def test_centered_runs_match_the_pair_check_on_drawn_values(values):
    assert _chain_checks_agree(values), values


@pytest.mark.parametrize("t", RANK_8_TYPES, ids=str)
def test_centered_runs_match_the_pair_check_on_catalog_chains(t):
    """Every chain of every catalog of rank <= 8, as solved and with each
    value moved by +-1."""
    for s in enumerate_frobenius(t).entries:
        x = simple_eigenvalues(s)
        for c in itertools.chain(*components(s)):
            if c.shape.family != "A":
                continue
            values = tuple(c.side.sign * x.values[a - 1] for a in c.order)
            assert _chain_checks_agree(values), (s, c)
            for p in range(len(values)):
                for d in (-1, 1):
                    moved = values[:p] + (values[p] + d,) + values[p + 1:]
                    assert _chain_checks_agree(moved), (s, c, moved)


@pytest.mark.parametrize("t", RANK_8_TYPES, ids=str)
def test_swapped_components_are_those_of_the_swapped_seaweed(t):
    for s in enumerate_frobenius(t).entries:
        flipped = Seaweed(s.root_system, s.pi2, s.pi1)
        assert swapped_components(s) == components(flipped), s


def test_census_reports_a_corrupted_chain_value(monkeypatch):
    """A wrong value on a chain fails each centered run that holds it: the
    whole top A4 chain and the bottom A1 chain {1}."""
    s = make_seaweed(LieType("A", 4), {4, 3, 2, 1}, {4, 3, 1})
    x = simple_eigenvalues(s)
    bad = SimpleEigenvalueVector((x.values[0] + 1,) + x.values[1:])
    monkeypatch.setattr(enumerate_module, "simple_eigenvalues",
                        lambda _: bad)
    report = CensusReport()
    verify_entry(s, report)
    mirror_messages = [f for f in report.failures
                       if "mirror roots" in f or "self-paired" in f]
    label = "p^A4(4,3,2,1|4,3,1): "
    assert mirror_messages == [label + m for m in (
        "self-paired root (1, 1, 1, 1) does not evaluate to one",
        "self-paired root (1, 0, 0, 0) does not evaluate to one")]


def test_census_reports_a_perturbed_side_swap_solve(monkeypatch):
    s = make_seaweed(LieType("A", 4), {4, 3, 2, 1}, {4, 3, 1})
    solve = enumerate_module._solve_eigenvalues

    def perturbed(seaweed, sides):
        x = solve(seaweed, sides)
        return SimpleEigenvalueVector((x.values[0] + 1,) + x.values[1:])

    report = CensusReport()
    verify_entry(s, report)
    assert report.ok(), report.failures
    monkeypatch.setattr(enumerate_module, "_solve_eigenvalues", perturbed)
    verify_entry(s, report)
    assert report.failures == [
        "p^A4(4,3,2,1|4,3,1): spectrum changed under the side swap"]


def test_census_runs_the_side_swap_frobenius_test(monkeypatch):
    s = make_seaweed(LieType("A", 4), {4, 3, 2, 1}, {4, 3, 1})
    monkeypatch.setattr(enumerate_module, "_meets_once", lambda *_: False)
    with pytest.raises(ValueError, match=r"p\^A4\(4,3,1\|4,3,2,1\) is not "
                                         "Frobenius"):
        verify_entry(s, CensusReport())


@pytest.mark.slow
@pytest.mark.parametrize("fam,n", [(fam, n) for fam in "ABCD"
                                   for n in range(9, 13)], ids=str)
def test_census_sweep_ranks_9_to_12(fam, n):
    """The paper's theorem, unbroken and symmetric spectra, with every other
    census check, on every Frobenius seaweed of the A-D catalogs of ranks
    9-12: 33,174 seaweeds in all."""
    cat = enumerate_frobenius(LieType(fam, n))
    assert cat.count == CLASSICAL_FROBENIUS_COUNTS[(fam, n)]
    report = spectrum_census(cat)
    assert report.checked == cat.count
    assert report.ok(), report.failures[:10]


@st.composite
def _closed_form_blocks(draw) -> tuple[int, ...]:
    """The blocks (a, b) or (a, b, c) of a type-A seaweed (a|b)/(N) or
    (a|b|c)/(N), every block positive, N = n + 1 in 2..513."""
    count = draw(st.sampled_from((2, 3)))
    big_n = draw(st.integers(count, 513))
    cuts = draw(st.lists(st.integers(1, big_n - 1), min_size=count - 1,
                         max_size=count - 1, unique=True))
    bounds = [0, *sorted(cuts), big_n]
    return tuple(hi - lo for lo, hi in zip(bounds, bounds[1:]))


@settings(max_examples=100, deadline=None)
@example(blocks=(256, 257))
@example(blocks=(200, 101, 212))
@given(blocks=_closed_form_blocks())
def test_closed_form_families_up_to_rank_512(blocks):
    """Coll-Giaquinto-Magnant: the maximal parabolic (a|b) is Frobenius
    exactly when gcd(a, b) = 1, and (a|b|c)/(N) exactly when
    gcd(a+b, b+c) = 1; every Frobenius draw passes the whole census.
    About 2.2 s on a 2-core VM, the two pinned rank-512 seaweeds included."""
    n = sum(blocks) - 1
    s = from_compositions(LieType("A", n), Composition(blocks[:-1], n),
                          Composition((), n))
    if len(blocks) == 2:
        a, b = blocks
        frobenius = gcd(a, b) == 1
    else:
        a, b, c = blocks
        frobenius = gcd(a + b, b + c) == 1
    assert is_frobenius(s) == frobenius, blocks
    if frobenius:
        report = CensusReport()
        verify_entry(s, report)
        assert report.checked == 1 and report.ok(), report.failures[:5]


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
