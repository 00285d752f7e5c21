from __future__ import annotations

import random
from operator import mul

import pytest
from hypothesis import given, settings, strategies as st

from seaweeds.rootsys import (LieType, _closure_roots, build_root_system,
                              classify_component, connected_components,
                              positive_root_count, twice_epsilon_values)

import reference_impl
from reference_impl import root_support, sub_positive_roots

ALL_TYPES = [LieType("A", 3), LieType("A", 9), LieType("B", 2), LieType("B", 8),
             LieType("C", 2), LieType("C", 8), LieType("D", 3), LieType("D", 8),
             LieType("E", 6), LieType("E", 7), LieType("E", 8),
             LieType("F", 4), LieType("G", 2)]


@pytest.mark.parametrize("t", ALL_TYPES, ids=str)
def test_positive_root_counts(t):
    rs = build_root_system(t)
    assert len(rs.positive_roots) == positive_root_count(t)
    assert len(set(rs.positive_roots)) == len(rs.positive_roots)


@pytest.mark.parametrize("fam,rank,count", [
    ("A", 3, 6), ("E", 6, 36), ("B", 3, 9), ("D", 5, 20), ("E", 7, 63),
    ("E", 8, 120), ("F", 4, 24), ("G", 2, 6),
])
def test_specific_counts(fam, rank, count):
    assert len(build_root_system(LieType(fam, rank)).positive_roots) == count


def test_b3_contains_doubled_root():
    rs = build_root_system(LieType("B", 3))
    assert (2, 2, 1) in rs.positive_roots  # a3 + 2a2 + 2a1


def test_c3_sub_roots_inside_c8():
    rs = build_root_system(LieType("C", 8))
    roots = sub_positive_roots(rs, {3, 2, 1})
    assert len(roots) == 9
    assert (1, 2, 2, 0, 0, 0, 0, 0) in roots  # 2a3 + 2a2 + a1


def test_a4_sub_roots_inside_a9():
    rs = build_root_system(LieType("A", 9))
    roots = sub_positive_roots(rs, {4, 3, 2, 1})
    assert len(roots) == 10
    assert (1, 1, 1, 1, 0, 0, 0, 0, 0) in roots


def test_generation_soundness():
    for t in ALL_TYPES:
        rs = build_root_system(t)
        known = set(rs.positive_roots)
        for beta in rs.positive_roots:
            if sum(beta) == 1:
                continue
            assert any(
                beta[i] and tuple(
                    c - (1 if j == i else 0) for j, c in enumerate(beta)
                ) in known
                for i in range(t.rank)
            ), f"{beta} has no descent in {t}"


def test_support_connected():
    for t in ALL_TYPES:
        rs = build_root_system(t)
        for beta in rs.positive_roots:
            supp = root_support(beta)
            assert len(connected_components(supp, rs.neighbors)) == 1


CLASSIFY_TYPES = [LieType(fam, n)
                  for fam, lo in (("A", 1), ("B", 2), ("C", 2), ("D", 3))
                  for n in range(lo, 13)] + [
    LieType("E", 6), LieType("E", 7), LieType("E", 8), LieType("F", 4),
    LieType("G", 2)]


@pytest.mark.parametrize("t", CLASSIFY_TYPES, ids=str)
def test_closed_form_roots_match_closure(t):
    """The closure driven by the adjacency and the arrow lists the dense
    reference closure's roots in its order, and the positive roots (closed
    form in A-D) are those roots sorted."""
    rs = build_root_system(t)
    closure = reference_impl.closure_roots(reference_impl.cartan_matrix(t))
    assert _closure_roots(rs) == closure
    assert rs.positive_roots == tuple(sorted(closure,
                                             key=lambda b: (sum(b), b)))


def _cartan_from_diagram(rs):
    """The Cartan matrix a RootSystem's adjacency and arrow define: 2 on the
    diagonal, -multiplicity at [long][short], -1 on every other edge."""
    n = rs.rank
    cartan = [[2 * (i == j) for j in range(n)] for i in range(n)]
    for i in range(1, n + 1):
        for j in rs.neighbors(i):
            cartan[i - 1][j - 1] = -1
    if rs.arrow:
        long, short, mult = rs.arrow
        cartan[long - 1][short - 1] = -mult
    return tuple(map(tuple, cartan))


@pytest.mark.parametrize("types", [
    [LieType(fam, n) for n in [*range(lo, 65), 512]]
    for fam, lo in (("A", 1), ("B", 2), ("C", 2), ("D", 3))] + [
    [LieType("E", 6), LieType("E", 7), LieType("E", 8), LieType("F", 4),
     LieType("G", 2)]], ids=["A", "B", "C", "D", "EFG"])
def test_diagram_defines_the_reference_cartan_matrix(types):
    """At ranks lo..64 and 512 of A-D and on E, F and G, adjacency plus
    arrow rebuild the dense reference matrix, and a system keeps no other
    field (its cached properties aside); its edges number rank - 1, since
    a Dynkin diagram is a tree."""
    for t in types:
        rs = build_root_system(t)
        cartan = reference_impl.cartan_matrix(t)
        assert _cartan_from_diagram(rs) == cartan, t
        assert sum(map(len, rs.adjacency)) == 2 * (t.rank - 1)
        assert set(vars(rs)) - {"columns", "positive_roots"} == {
            "lie_type", "adjacency", "arrow"}
        for i, j, _, _ in reference_impl._links(t):
            assert rs.edge_multiplicity(i, j) == rs.edge_multiplicity(
                j, i) == cartan[i - 1][j - 1] * cartan[j - 1][i - 1], (t, i, j)


@pytest.mark.parametrize("kind,lo", [("A", 1), ("B", 2), ("C", 2), ("D", 3)],
                         ids=["A", "B", "C", "D"])
def test_twice_epsilon_values_match_the_reference_table(kind, lo):
    """The running sums equal the dense 2*eps table times the values, in
    the table's order: at ranks lo..64 on seeded values in -3..3, the zero
    vector and each unit vector, and at rank 512 on seeded values and the
    zero vector."""
    rng = random.Random(kind)
    for k in [*range(lo, 65), 512]:
        table = reference_impl.twice_epsilon(kind, k)
        cases = [[rng.randint(-3, 3) for _ in range(k)] for _ in range(3)]
        cases.append([0] * k)
        if k <= 64:
            cases += [[int(p == q) for q in range(k)] for p in range(k)]
        for v in cases:
            assert twice_epsilon_values(kind, v) == [
                sum(map(mul, row, v)) for row in table], (kind, k, v)


def test_sub_positive_roots_full_and_empty():
    rs = build_root_system(LieType("D", 6))
    assert sub_positive_roots(rs, range(1, 7)) == list(rs.positive_roots)
    assert sub_positive_roots(rs, ()) == []


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_sub_positive_roots_monotone(data):
    t = data.draw(st.sampled_from(ALL_TYPES))
    rs = build_root_system(t)
    full = list(range(1, t.rank + 1))
    tau = frozenset(data.draw(st.sets(st.sampled_from(full))))
    sigma = frozenset(data.draw(st.sets(st.sampled_from(sorted(tau) or [1]))))
    if not sigma <= tau:
        sigma = frozenset()
    assert set(sub_positive_roots(rs, sigma)) <= set(sub_positive_roots(rs, tau))


@pytest.mark.parametrize("fam,rank,sigma,expect", [
    ("D", 14, {5, 4, 3, 2, 1}, "D5"),
    ("C", 8, {8, 7, 6}, "A3"),
    ("B", 8, {1}, "A1"),
    ("B", 8, {2, 1}, "B2"),
    ("C", 5, {2, 1}, "C2"),
    ("D", 9, {4, 3, 1}, "A3"),
    ("E", 6, {5, 4, 3, 2}, "D4"),
    ("E", 8, {1, 2, 3, 4, 5, 6}, "E6"),
    ("E", 8, {1, 2, 3, 4, 5, 6, 7}, "E7"),
    ("F", 4, {1, 2, 3}, "B3"),
    ("F", 4, {2, 3, 4}, "C3"),
    ("F", 4, {2, 3}, "B2"),
    ("F", 4, {1, 2}, "A2"),
    ("G", 2, {1, 2}, "G2"),
])
def test_induced_shape(fam, rank, sigma, expect):
    rs = build_root_system(LieType(fam, rank))
    assert str(classify_component(rs, frozenset(sigma))[0]) == expect


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_connected_components_partition_the_subset(data):
    if data.draw(st.booleans()):
        t = data.draw(st.sampled_from(ALL_TYPES))
        rs = build_root_system(t)
        subset = frozenset(data.draw(st.sets(st.integers(1, t.rank))))
        neighbors = rs.neighbors
    else:
        # the off-diagonal pattern of a matrix, searched as the reference
        # ad_spectrum does
        d = data.draw(st.integers(0, 12))
        pattern = [[0] * d for _ in range(d)]
        for i in range(d):
            for j in range(i + 1, d):
                pattern[i][j] = pattern[j][i] = data.draw(st.integers(0, 1))
        adj = [[j for j in range(d) if pattern[i][j]] for i in range(d)]
        subset, neighbors = frozenset(range(d)), adj.__getitem__
    pieces = connected_components(subset, neighbors)
    assert sum(len(p) for p in pieces) == len(subset)
    assert frozenset().union(*pieces) == subset
    for piece in pieces:
        reached = {min(piece)}
        while True:
            grown = reached | {w for v in reached for w in neighbors(v)
                               if w in piece}
            if grown == reached:
                break
            reached = grown
        assert reached == piece
        outside = subset - piece
        assert not any(w in outside for v in piece for w in neighbors(v))


def test_classify_order_for_chain_is_a_path():
    rs = build_root_system(LieType("E", 7))
    shape, order = classify_component(rs, frozenset({2, 4, 5}))
    assert shape == LieType("A", 3)
    for a, b in zip(order, order[1:]):
        assert b in rs.neighbors(a)


def _connected_subsets(rs):
    """Every connected subset of rs's diagram, grown one neighbour at a time
    from the single vertices."""
    found: set[frozenset[int]] = set()
    frontier = {frozenset({v}) for v in range(1, rs.rank + 1)}
    while frontier:
        found |= frontier
        frontier = {piece | {w} for piece in frontier for v in piece
                    for w in rs.neighbors(v) if w not in piece} - found
    return found


def test_classifier_matches_the_two_scan_reference():
    """The one-scan classifier gives the reference's type, printed name and
    vertex order on every connected subset of every diagram above."""
    checked = 0
    for t in CLASSIFY_TYPES:
        rs = build_root_system(t)
        for piece in _connected_subsets(rs):
            shape, order = classify_component(rs, piece)
            ref_shape, ref_order = reference_impl.classify_component(rs, piece)
            assert (tuple(shape), str(shape), order) == (
                tuple(ref_shape), str(ref_shape), ref_order), (t, sorted(piece))
            checked += 1
    assert checked == 1611


def test_invalid_lie_types_rejected():
    for fam, rank in (("A", 0), ("B", 1), ("C", 1), ("D", 2), ("E", 5),
                      ("E", 9), ("F", 3), ("G", 3), ("H", 2)):
        with pytest.raises(ValueError):
            LieType(fam, rank)


def test_parse_round_trip():
    assert str(LieType.parse("e6")) == "E6"
    assert LieType.parse("B12") == LieType("B", 12)
    with pytest.raises(ValueError):
        LieType.parse("X2")
