from __future__ import annotations

import itertools
import json
from collections import Counter
from math import gcd

import pytest
from hypothesis import example, given, settings, strategies as st

import seaweeds.enumerate as enumerate_module
import seaweeds.meander as meander_module
import seaweeds.spectrum as spectrum_module
from seaweeds.rootsys import LieType, build_root_system, connected_components
from seaweeds.seaweed import (Composition, Seaweed, from_compositions,
                              make_seaweed, mask_subset, subset_mask)
from seaweeds.cli import main
from seaweeds.meander import (CompositionPair, Move, Side, _meets_once,
                              components, generate_frobenius, involution,
                              is_frobenius, orbits, side_permutations,
                              u_turn_report, winding_bases, winding_move)
from seaweeds.enumerate import (APPENDIX_A_E6, Catalog, _frobenius_pairs,
                                _run_root, catalog_keys, check_appendix_a,
                                spectrum_census, verify_entry, CensusReport)
from seaweeds.spectrum import (SimpleEigenvalueVector, _broken_centered_runs,
                               _pin_walk, simple_eigenvalues)

from reference_data import CLASSICAL_FROBENIUS_COUNTS, FROBENIUS_COUNTS
from reference_impl import (_check_symmetric_roots, _mirror_run, cartan_matrix,
                            catalog_json_dict, enumerate_frobenius,
                            fixed_vertices, mask_pairs, orbit_counts,
                            side_permutation, symmetric_root)


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
    pairs = list(mask_pairs(n))
    states = itertools.product(((1, 0), (0, 1), (1, 1)), repeat=n)
    expected = {(sum(a << i for i, (a, _) in enumerate(st)),
                 sum(b << i for i, (_, b) in enumerate(st))) for st in states}
    assert len(pairs) == 3 ** n
    assert set(pairs) == expected


@pytest.mark.parametrize("t", SCAN_TYPES, ids=str)
def test_scan_pairs_match_the_per_pair_test(t):
    """The raw mask scan keeps exactly the m1 < m2 pairs is_frobenius
    accepts, and those are the pairs whose orbits each meet pi1 & pi2's
    complement once."""
    rs = build_root_system(t)
    expected = set()
    for m1, m2 in mask_pairs(t.rank):
        s = Seaweed(rs, mask_subset(m1), mask_subset(m2))
        target = s.pi_union_complement
        counted = all(sum(v in target for v in cyc) == 1
                      for cyc in orbits(s).orbits)
        assert is_frobenius(s) == counted, s
        if counted and m1 < m2:
            expected.add((m1, m2))
    scanned = _frobenius_pairs(rs)
    assert len(scanned) == len(set(scanned))
    assert set(scanned) == expected


@pytest.mark.parametrize("t", SCAN_TYPES, ids=str)
def test_frobenius_pairs_are_closed_under_the_swap(t):
    """Over all 3^n ordered pairs, (m1, m2) is Frobenius exactly when
    (m2, m1) is, and (full, full) never is: the scan's m1 < m2 half loses
    no catalog entry."""
    n = t.rank
    full = (1 << n) - 1
    rs = build_root_system(t)
    perms = side_permutations(rs)[0]
    frobenius = {(m1, m2) for m1, m2 in mask_pairs(n)
                 if _meets_once(perms[m1], perms[m2], full ^ (m1 & m2))}
    assert frobenius == {(m2, m1) for m1, m2 in frobenius}
    assert (full, full) not in frobenius
    assert len(frobenius) == 2 * len(_frobenius_pairs(rs))


@pytest.mark.parametrize("t", SCAN_TYPES, ids=str)
def test_catalog_keys_are_the_least_pair_of_each_orbit(t):
    """catalog_keys lists, sorted, the least of each orbit of the ordered
    Frobenius pairs under the swap and, on F4, G2, B2 and C2, the n-bit
    reversal of both masks."""
    n = t.rank
    full = (1 << n) - 1
    perms = side_permutations(build_root_system(t))[0]
    reverse = t.family in "FG" or (t.family in "BC" and n == 2)

    def flip(m):
        return int(f"{m:0{n}b}"[::-1], 2)

    keys = set()
    for m1, m2 in mask_pairs(n):
        if _meets_once(perms[m1], perms[m2], full ^ (m1 & m2)):
            orbit = [(m1, m2), (m2, m1)]
            if reverse:
                orbit += [(flip(m1), flip(m2)), (flip(m2), flip(m1))]
            keys.add(min(orbit))
    assert catalog_keys(t) == sorted(keys)


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
    """Each mask's perm is its whole subset's, and the orbit count and
    fixed mask carried with it, from its pieces' own, are |m| less its
    transpositions and the vertices of m it fixes, read per mask."""
    rs = build_root_system(t)
    table, counts, fixed = side_permutations(rs)
    assert len(table) == 1 << t.rank
    for mask, perm in enumerate(table):
        assert perm == side_permutation(rs, mask_subset(mask)), mask
    assert counts == orbit_counts(table)
    assert fixed == fixed_vertices(table)


@pytest.mark.parametrize("name,pieces,count", [
    ("E6", 25, 74), ("E7", 34, 143), ("E8", 44, 301), ("D8", 41, 292),
    ("A9", 45, 570)])
def test_catalog_scan_builds_one_involution_per_connected_piece(
        monkeypatch, name, pieces, count):
    """The scan classifies each connected piece of the diagram once, not
    each subset (64 to 512 of them here), and builds no side record: only
    a census reads those."""
    t = LieType.parse(name)
    rs = build_root_system(t)
    seen = []
    classify = meander_module.classify_component

    def spy(rs, piece):
        seen.append(frozenset(piece))
        return classify(rs, piece)

    monkeypatch.setattr(meander_module, "classify_component", spy)
    meander_module._side_record.cache_clear()
    assert len(catalog_keys(t)) == count
    assert meander_module._side_record.cache_info().misses == 0
    assert len(seen) == len(set(seen)) == pieces
    assert all(len(connected_components(sub, rs.neighbors)) == 1
               for sub in seen)
    connected = sum(len(connected_components(mask_subset(m), rs.neighbors))
                    == 1 for m in range(1, 1 << t.rank))
    assert connected == pieces


def _cycle_count(perm: list[int]) -> int:
    seen, cycles = set(), 0
    for v in range(len(perm)):
        if v not in seen:
            cycles += 1
            while v not in seen:
                seen.add(v)
                v = perm[v]
    return cycles


def _meander_pieces(p1, p2) -> tuple[int, int]:
    """The (paths, closed cycles) of the meander on 1..n with edges
    {v, p1[v]} and {v, p2[v]}: each piece is grown from an unseen vertex,
    and it is a path when some side fixes one of its vertices."""
    n = len(p1) - 1
    seen = [False] * (n + 1)
    paths = closed = 0
    for start in range(1, n + 1):
        if seen[start]:
            continue
        seen[start] = True
        stack, is_path = [start], False
        while stack:
            v = stack.pop()
            is_path |= p1[v] == v or p2[v] == v
            for w in (p1[v], p2[v]):
                if not seen[w]:
                    seen[w] = True
                    stack.append(w)
        paths += is_path
        closed += not is_path
    return paths, closed


@pytest.mark.parametrize("t", SCAN_TYPES, ids=str)
def test_sign_prefilter_only_drops_pairs_the_walk_rejects(t):
    """The scan's orbit-count and fixed-vertex tests are necessary
    conditions: every pair that _meets_once accepts has counts[m1] +
    counts[m2] == n, counts[m] being the orbit count the table carries for
    perms[m] (mod 2 this is the sign of p2.p1), and no vertex that both
    sides fix.  On every pair the meander's pieces, grown here,
    hold P = n - t1 - t2 paths, and p2.p1 has one cycle per path and two
    per closed cycle, read off its cycles, not off t1 and t2."""
    n = t.rank
    full = (1 << n) - 1
    rs = build_root_system(t)
    perms, counts, fixed = side_permutations(rs)
    swaps = [sum(v < w for v, w in enumerate(perm)) for perm in perms]
    accepted = 0
    for m1, m2 in mask_pairs(n):
        p1, p2 = perms[m1], perms[m2]
        paths, closed = _meander_pieces(p1, p2)
        assert paths == n - swaps[m1] - swaps[m2], (m1, m2)
        sigma = [p2[p1[v]] - 1 for v in range(1, n + 1)]
        assert _cycle_count(sigma) == paths + 2 * closed, (m1, m2)
        if _meets_once(p1, p2, full ^ (m1 & m2)):
            accepted += m1 < m2
            assert closed == 0, (m1, m2)
            assert paths == n - bin(m1 & m2).count("1"), (m1, m2)
            assert counts[m1] + counts[m2] == n, (m1, m2)
            assert not fixed[m1] & fixed[m2], (m1, m2)
    assert accepted == len(_frobenius_pairs(rs))


@pytest.mark.parametrize("name,count,walks", [
    ("A9", 570, 809), ("B10", 1082, 1971), ("C10", 1082, 1971),
    ("D10", 1257, 2791)], ids=["A9", "B10", "C10", "D10"])
def test_scan_walk_bounds(monkeypatch, name, count, walks):
    """A scan walks at most the pairs it walks today: it visits only the
    (3^n - 1)/2 pairs with m1 < m2, and the orbit-count and fixed-vertex
    tests, neither of which can have been reduced to True, skip most of
    those.  With the orbit count alone it walked 1,157 A9 pairs, 6,454 B10
    and C10 pairs and 5,206 D10 pairs."""
    calls = []

    def spy(p1, p2, target):
        calls.append(target)
        return _meets_once(p1, p2, target)

    monkeypatch.setattr(enumerate_module, "_meets_once", spy)
    assert len(catalog_keys(LieType.parse(name))) == count
    assert len(calls) <= walks


def test_rank_guard():
    with pytest.raises(ValueError):
        catalog_keys(LieType("A", 17))


def test_appendix_catalog_is_reproduced():
    diff = check_appendix_a(catalog_keys(LieType("E", 6)))
    assert diff.empty


def test_appendix_diff_detects_missing_row():
    row = {subset_mask({6, 5, 4, 3, 2, 1}), subset_mask({6, 5, 4, 3})}
    removed = [key for key in catalog_keys(LieType("E", 6))
               if set(key) != row]
    assert len(removed) == 73
    diff = check_appendix_a(removed)
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
    got = [f"self-paired root {_run_root(s.rank, c.order, lo, hi)} "
           "does not evaluate to one"
           for lo, hi in _broken_centered_runs(values)]
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
    # a side's components and involution depend on its subset alone, which
    # is why the census solves the swapped seaweed from s's involutions
    for s in enumerate_frobenius(t).entries:
        flipped = Seaweed(s.root_system, s.pi2, s.pi1)
        tops, bottoms = components(s)
        assert components(flipped) == (
            tuple(c._replace(side=Side.TOP) for c in bottoms),
            tuple(c._replace(side=Side.BOTTOM) for c in tops)), s
        assert involution(flipped, Side.TOP) == involution(s, Side.BOTTOM)
        assert involution(flipped, Side.BOTTOM) == involution(s, Side.TOP)


def test_census_reports_a_corrupted_chain_value(monkeypatch):
    """A wrong value on a chain fails each centered run that holds it: the
    whole top A4 chain and the bottom A1 chain {1}."""
    s = make_seaweed(LieType("A", 4), {4, 3, 2, 1}, {4, 3, 1})
    x = simple_eigenvalues(s)
    bad = SimpleEigenvalueVector((x.values[0] + 1,) + x.values[1:])
    pin_walk = enumerate_module._pin_walk
    monkeypatch.setattr(enumerate_module, "_pin_walk",
                        lambda *args: (bad, pin_walk(*args)[1]))
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
    pin_walk = enumerate_module._pin_walk

    def perturbed(seaweed, top, bottom):
        x, turns = pin_walk(seaweed, top, bottom)
        if seaweed.pi1 == s.pi1:        # s itself, not the swapped seaweed
            return x, turns
        return (SimpleEigenvalueVector((x.values[0] + 1,) + x.values[1:]),
                turns)

    report = CensusReport()
    verify_entry(s, report)
    assert report.ok(), report.failures
    monkeypatch.setattr(enumerate_module, "_pin_walk", perturbed)
    verify_entry(s, report)
    assert report.failures == [
        "p^A4(4,3,2,1|4,3,1): spectrum changed under the side swap"]


def test_census_builds_each_side_table_once(side_table_calls):
    # the side swap solves from s's involutions, sides exchanged
    s = make_seaweed(LieType("D", 6), {5, 4, 2, 1}, {6, 5, 4, 3, 2})
    report = CensusReport()
    verify_entry(s, report)
    assert report.ok(), report.failures
    assert len(side_table_calls) == 2


def test_catalog_census_builds_each_side_table_once(side_table_calls):
    """A census shares one side record among all the entries with that
    (subset, side): the D6 catalog's entries have fewer distinct sides
    than twice their count, and each side's table is built once."""
    cat = enumerate_frobenius(LieType("D", 6))
    meander_module._side_record.cache_clear()   # start from no side records
    side_table_calls.clear()
    report = spectrum_census(cat)
    assert report.ok() and report.checked == cat.count
    sides = ({(s.pi1, Side.TOP) for s in cat.entries}
             | {(s.pi2, Side.BOTTOM) for s in cat.entries})
    assert len(side_table_calls) == len(sides) < 2 * cat.count


@pytest.fixture
def fresh_spectrum_records():
    """shape_spectrum, which holds the census verdicts, starts and ends
    empty, so that records built under a patched check reach no other
    test."""
    spectrum_module.shape_spectrum.cache_clear()
    yield
    spectrum_module.shape_spectrum.cache_clear()


@pytest.mark.parametrize("module,check,message", [
    (spectrum_module, "eigenvalue_bounds_ok", "of shape A1 breaks value bounds"),
    (spectrum_module, "verify_unbroken", "spectrum ((0, 1), (1, 1)) is broken"),
    (spectrum_module, "verify_symmetric",
     "spectrum ((0, 1), (1, 1)) is asymmetric"),
], ids=["bounds", "unbroken", "symmetric"])
def test_shared_records_fail_with_each_components_roots(
        monkeypatch, fresh_spectrum_records, module, check, message):
    """The three A1 components of p^A3(2|3,1) have the same shape and
    side-normalized values, hence one spectrum record; a check forced to
    fail names each component by its own roots."""
    s = make_seaweed(LieType("A", 3), {2}, {3, 1})
    x = simple_eigenvalues(s)
    tops, bottoms = components(s)
    assert len({(c.shape, x.side_normalized(c)) for c in tops + bottoms}) == 1
    monkeypatch.setattr(module, check, lambda *_: False)
    report = CensusReport()
    verify_entry(s, report)
    assert report.failures == [f"p^A3(2|3,1): component {roots} {message}"
                               for roots in ((2,), (3,), (1,))]


def test_census_checks_each_shape_and_values_once(monkeypatch,
                                                 fresh_spectrum_records):
    """The census of the E6, E7, E8, D8 and A9 catalogs meets 6,895
    components but only 160 distinct (shape, side-normalized values): it
    runs the per-component checks, the value bounds first, once per key,
    and every other component reads the key's record from the cache."""
    calls = []
    bounds_ok = spectrum_module.eigenvalue_bounds_ok

    def spy(shape, values):
        calls.append((shape, values))
        return bounds_ok(shape, values)

    monkeypatch.setattr(spectrum_module, "eigenvalue_bounds_ok", spy)
    keys, count = set(), 0
    for name in ("E6", "E7", "E8", "D8", "A9"):
        cat = enumerate_frobenius(LieType.parse(name))
        report = spectrum_census(cat)
        assert report.ok() and report.checked == cat.count, report.failures
        for s in cat.entries:
            x = simple_eigenvalues(s)
            for c in itertools.chain(*components(s)):
                keys.add((c.shape, x.side_normalized(c)))
                count += 1
    assert (count, len(keys)) == (6895, 160)
    assert sorted(calls) == sorted(keys)
    info = spectrum_module.shape_spectrum.cache_info()
    assert (info.misses, info.hits) == (160, 6735)


def test_shared_chain_record_fails_with_each_components_root(
        monkeypatch, fresh_spectrum_records):
    """The bottom A1 chains {3} and {1} of p^A3(2|3,1), given the value
    zero, share one record whose chain pairing fails; each failure line
    names its own component's self-paired root."""
    s = make_seaweed(LieType("A", 3), {2}, {3, 1})
    x = simple_eigenvalues(s)
    bad = SimpleEigenvalueVector((0, x.values[1], 0))
    bottoms = components(s)[1]
    assert {(c.shape, bad.side_normalized(c)) for c in bottoms} == {
        (LieType("A", 1), (0,))}
    pin_walk = enumerate_module._pin_walk
    monkeypatch.setattr(enumerate_module, "_pin_walk",
                        lambda *args: (bad, pin_walk(*args)[1]))
    report = CensusReport()
    verify_entry(s, report)
    assert [f for f in report.failures if "self-paired" in f] == [
        f"p^A3(2|3,1): self-paired root {root} does not evaluate to one"
        for root in ((0, 0, 1), (1, 0, 0))]


def test_census_reports_an_unlisted_e6_pattern(monkeypatch):
    """Values moved on the full top E6 component of p^E6(6,5,4,3,2,1|6,3)
    to a pattern that is neither listed nor a listed one's flip, though
    its spectrum stays unbroken and symmetric and the two bottom A1 chains
    keep theirs: the E6 pattern check alone fails that component."""
    s = make_seaweed(LieType("E", 6), {6, 5, 4, 3, 2, 1}, {6, 3})
    assert simple_eigenvalues(s).values == (1, -1, -1, 1, 1, -1)
    bad = SimpleEigenvalueVector((2, 1, -1, 1, -1, -1))
    pin_walk = enumerate_module._pin_walk
    monkeypatch.setattr(enumerate_module, "_pin_walk",
                        lambda *args: (bad, pin_walk(*args)[1]))
    report = CensusReport()
    verify_entry(s, report)
    assert report.failures == [
        "p^E6(6,5,4,3,2,1|6,3): unlisted full-E6 value pattern "
        "(2, 1, -1, 1, -1, -1)",
        "p^E6(6,5,4,3,2,1|6,3): spectrum changed under the side swap"]


def test_census_runs_the_side_swap_frobenius_test(monkeypatch):
    s = make_seaweed(LieType("A", 4), {4, 3, 2, 1}, {4, 3, 1})
    monkeypatch.setattr(enumerate_module, "_meets_once", lambda *_: False)
    with pytest.raises(ValueError, match=r"p\^A4\(4,3,1\|4,3,2,1\) is not "
                                         "Frobenius"):
        verify_entry(s, CensusReport())


@pytest.mark.parametrize("t", RANK_8_TYPES, ids=str)
def test_census_u_turn_counts_are_the_check_rows(t):
    """The census reads each orbit's U-turns off the solve's pin walk; per
    seaweed they are the rows `seaweed check` prints, as a multiset of
    unordered (right, left) pairs, since a path may be walked either way."""
    for m1, m2 in catalog_keys(t):
        s = Seaweed(build_root_system(t), mask_subset(m1), mask_subset(m2))
        turns = _pin_walk(s, involution(s, Side.TOP),
                          involution(s, Side.BOTTOM))[1]
        rows = u_turn_report(orbits(s)).rows
        assert (Counter(tuple(sorted(pair)) for pair in turns)
                == Counter(tuple(sorted((r.right, r.left))) for r in rows)), s


@pytest.mark.parametrize("name,pi1,pi2,failures", [
    ("A4", (3, 2, 1), (4, 2, 1),
     ["orbit (1, 3, 2) has 2 right / 0 left U-turns"]),
    ("A4", (4, 3, 1), (4, 3, 2, 1),
     ["orbit (1, 4, 2, 3) has 1 right / 2 left U-turns",
      "orbit (1, 4, 2, 3) has more than two U-turns"]),
    ("A6", (5, 4, 3, 2, 1), (6, 5, 4, 3, 2),
     ["orbit (1, 3, 5) has 0 right / 2 left U-turns",
      "orbit (2, 4, 6) has 0 right / 2 left U-turns"]),
    ("E6", (4, 3, 2, 1), (6, 5, 4, 3, 2),
     ["orbit (1, 3, 4, 2) has more than two U-turns"]),
], ids=["A4-right", "A4-both", "A6-two-orbits", "E6-total"])
def test_census_reports_forced_u_turn_failures(monkeypatch, name, pi1, pi2,
                                               failures):
    """With every other vertex a diagram neighbour, every swapped pair of
    an involution is a U-turn step.  The census then fails the right/left
    dichotomy on A-D and the two-turn total everywhere (on E6 only the
    total is checked), naming each orbit as `seaweed check` lists it."""
    # a fresh root system, so that the patch reaches no cached one
    rs = build_root_system.__wrapped__(LieType.parse(name))
    s = Seaweed(rs, frozenset(pi1), frozenset(pi2))
    report = CensusReport()
    verify_entry(s, report)         # side records built on the true diagram
    assert report.ok(), report.failures
    n = rs.rank
    monkeypatch.setitem(vars(rs), "neighbors",
                        lambda i: tuple(j for j in range(1, n + 1) if j != i))
    verify_entry(s, report)
    assert report.failures == [f"{s!r}: {f}" for f in failures]
    assert report.failures[0].startswith(f"p^{name}(")


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


@pytest.mark.slow
@pytest.mark.parametrize("fam", "ABCD")
def test_census_sweep_rank_13(fam):
    """The same census on every rank-13 A-D catalog entry, each seaweed
    built from its catalog key as it is censused, so no list of them is
    held.  No rank-13 count is frozen: only the scan has counted them."""
    t = LieType(fam, 13)
    rs = build_root_system(t)
    keys = catalog_keys(t)
    report = CensusReport()
    for m1, m2 in keys:
        verify_entry(Seaweed(rs, mask_subset(m1), mask_subset(m2)), report)
    assert report.checked == len(keys)
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


@st.composite
def _winding_words(draw) -> tuple[CompositionPair, list[Move]]:
    """A declared winding base of any A-D family and a word of moves."""
    family = draw(st.sampled_from("ABCD"))
    q = 1 if family == "A" else draw(
        st.integers(2 if family in "BC" else 3, 512))
    base = draw(st.sampled_from(winding_bases(family, q)))
    return base, draw(st.lists(st.sampled_from(list(Move)), max_size=24))


# One word per A-D family that doubles the first part up to rank 512.
RANK_512_WORDS = [
    (CompositionPair("A", 1, (1,), ()), [Move.BLOCK_CREATION] * 9),
    (CompositionPair("B", 257, (1,) * 257, ()), [Move.BLOCK_CREATION] * 8),
    (CompositionPair("C", 257, (1,) * 257, ()), [Move.BLOCK_CREATION] * 8),
    (CompositionPair("D", 257, (1,) * 255 + (2,), ()),
     [Move.BLOCK_CREATION] * 8),
]


def _kept_moves(base: CompositionPair, word: list[Move]) -> list[Move]:
    """The moves of word that apply in turn, skipping each one refused on
    the pair reached or taking the rank above 512."""
    pair, kept = base, []
    for move in word:
        try:
            grown = winding_move(pair, move)
        except ValueError:
            continue
        if grown.n <= 512:
            pair = grown
            kept.append(move)
    return kept


def test_pinned_winding_words_reach_rank_512():
    for base, word in RANK_512_WORDS:
        assert _kept_moves(base, word) == word
        assert generate_frobenius(base, word).rank == 512


@settings(max_examples=150, deadline=None)
@example(case=RANK_512_WORDS[0])
@example(case=RANK_512_WORDS[1])
@example(case=RANK_512_WORDS[2])
@example(case=RANK_512_WORDS[3])
@given(case=_winding_words())
def test_winding_words_up_to_rank_512_pass_the_census(case):
    """The paper's induction: the winding moves from a declared base give a
    Frobenius seaweed, and it passes every census check, at any rank up to
    512 in every classical family."""
    base, word = case
    s = generate_frobenius(base, _kept_moves(base, word))
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


def test_catalog_json_shape(capsys):
    """`seaweed enumerate` prints the catalog as json.dumps writes it with
    indent=2 and sorted keys, byte for byte."""
    cat = enumerate_frobenius(LieType("G", 2))
    payload = catalog_json_dict(cat)
    assert payload["type"] == "G2" and payload["count"] == 2
    assert main(["enumerate", "--type", "G2"]) == 0
    assert capsys.readouterr().out == \
        json.dumps(payload, indent=2, sort_keys=True) + "\n"
