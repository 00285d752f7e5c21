from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

import reference_impl
from seaweeds import spectrum
from seaweeds.oracle import index, realize_type_a
from seaweeds.rootsys import LieType, build_root_system
from seaweeds.seaweed import Seaweed, make_seaweed
from seaweeds.meander import (CompositionPair, Move, Side, _walk, components,
                              generate_frobenius, involution, is_frobenius,
                              orbits, u_turn_report, winding_bases,
                              winding_move)

from reference_data import A9, B8, C8, D11, D14
from reference_impl import full_union_pairs


def _seaweed(ref):
    fam, rank, top, bottom = ref
    return make_seaweed(LieType(fam, rank), top, bottom)


def test_components_of_type_a_example():
    tops, bottoms = components(_seaweed(A9))
    assert [c.roots for c in tops] == [(9,), (7, 6), (4, 3, 2, 1)]
    assert [c.roots for c in bottoms] == [(9, 8, 7), (5, 4, 3, 2, 1)]
    assert all(c.shape.family == "A" for c in tops + bottoms)


def test_components_of_type_c_example():
    tops, _ = components(_seaweed(C8))
    assert [(c.roots, str(c.shape)) for c in tops] == [
        ((8, 7, 6), "A3"), ((3, 2, 1), "C3")]


def test_empty_side_has_no_components():
    s = make_seaweed(LieType("A", 3), set(), {3, 2, 1})
    tops, bottoms = components(s)
    assert tops == ()
    assert len(bottoms) == 1


def test_involution_reverses_chains():
    s = _seaweed(A9)
    i1 = involution(s, Side.TOP)
    assert i1(4) == 1 and i1(3) == 2 and i1(8) == 8 and i1(9) == 9
    i2 = involution(s, Side.BOTTOM)
    assert i2(9) == 7 and i2(8) == 8 and i2(5) == 1


def test_involution_swaps_odd_fork_prongs():
    s = make_seaweed(LieType("D", 5), {5, 4, 3, 2, 1}, set())
    i1 = involution(s, Side.TOP)
    assert i1(1) == 2 and i1(2) == 1 and i1(3) == 3 and i1(5) == 5


def test_involution_fixes_even_fork_component():
    s = make_seaweed(LieType("D", 4), {4, 3, 2, 1}, set())
    i1 = involution(s, Side.TOP)
    assert all(i1(i) == i for i in range(1, 5))


def test_involution_flips_rank_six_exceptional():
    s = make_seaweed(LieType("E", 6), {1, 2, 3, 4, 5, 6}, set())
    i1 = involution(s, Side.TOP)
    assert i1(1) == 6 and i1(3) == 5 and i1(2) == 2 and i1(4) == 4


@pytest.mark.parametrize("ref,expected", [
    (A9, [{9, 6, 7}, {8}, {5, 4, 3, 2, 1}]),
    (C8, [{7, 6, 8}, {5, 2}, {4, 3}, {1}]),
    (B8, [{7, 6, 8}, {5, 2}, {4, 3}, {1}]),
    (D14, [{6, 5}, {14, 11, 10, 7, 4}, {13, 12, 9, 8, 3, 2, 1}]),
    (D11, [{2, 7, 10, 9, 8}, {3, 6, 11}, {4, 5}, {1}]),
])
def test_orbit_partitions(ref, expected):
    got = [set(o) for o in orbits(_seaweed(ref)).orbits]
    assert sorted(map(sorted, got)) == sorted(map(sorted, expected))


def test_orbits_cover_and_start_minimal():
    m = orbits(_seaweed(D14))
    seen = [v for o in m.orbits for v in o]
    assert sorted(seen) == list(range(1, 15))
    assert all(o[0] == min(o) for o in m.orbits)


@pytest.mark.parametrize("ref", [A9, B8, C8, D14, D11])
def test_worked_examples_are_frobenius(ref):
    assert is_frobenius(_seaweed(ref))


def test_known_non_frobenius():
    s = make_seaweed(LieType("A", 7), {7, 6, 5, 4, 3, 2}, {7, 6, 4, 3, 2, 1})
    assert not is_frobenius(s)


def test_both_sides_full_is_not_frobenius():
    s = make_seaweed(LieType("A", 4), {4, 3, 2, 1}, {4, 3, 2, 1})
    assert not is_frobenius(s)


def test_frobenius_requires_full_union():
    s = make_seaweed(LieType("A", 3), {3}, {1})
    with pytest.raises(ValueError, match="decompose"):
        is_frobenius(s)


def test_u_turn_directions_on_even_fork_example():
    rep = u_turn_report(orbits(_seaweed(D11)))
    by_orbit = {frozenset(r.orbit): (r.right, r.left) for r in rep.rows}
    assert by_orbit[frozenset({2, 7, 10, 9, 8})] == (1, 1)
    assert by_orbit[frozenset({4, 5})] == (0, 1)
    assert by_orbit[frozenset({3, 6, 11})] == (0, 0)
    assert by_orbit[frozenset({1})] == (0, 0)


def test_odd_chain_contributes_no_u_turn():
    s = make_seaweed(LieType("A", 3), {3, 2, 1}, {3, 1})
    rep = u_turn_report(orbits(s))
    assert all(r.right == 0 and r.left == 0 for r in rep.rows)


def test_singleton_orbits_report_zero():
    s = make_seaweed(LieType("C", 2), {1}, {2})
    rep = u_turn_report(orbits(s))
    assert all((r.right, r.left) == (0, 0) for r in rep.rows)


def test_block_creation_on_rank_one_base():
    base = CompositionPair("A", 1, (1,), ())
    out = winding_move(base, Move.BLOCK_CREATION)
    assert out == CompositionPair("A", 2, (2,), (1,))


def test_flip_up_swaps():
    pair = CompositionPair("C", 6, (4, 2), (1,))
    assert winding_move(pair, Move.FLIP_UP) == CompositionPair("C", 6, (1,), (4, 2))


def test_pure_expansion_formula():
    pair = CompositionPair("C", 7, (4, 3), ())
    out = winding_move(pair, Move.PURE_EXPANSION)
    assert out == CompositionPair("C", 10, (10,), (3,))


def test_rotation_expansion_requires_bigger_first_part():
    pair = CompositionPair("C", 6, (2, 2), (2,))
    with pytest.raises(ValueError):
        winding_move(pair, Move.ROTATION_EXPANSION)
    ok = CompositionPair("C", 7, (4,), (2, 1))
    out = winding_move(ok, Move.ROTATION_EXPANSION)
    assert out == CompositionPair("C", 9, (6,), (4, 1))


def test_pure_expansion_requires_two_parts():
    with pytest.raises(ValueError):
        winding_move(CompositionPair("B", 3, (3,), ()), Move.PURE_EXPANSION)


def test_winding_bases():
    assert winding_bases("A", 1) == [CompositionPair("A", 1, (1,), ())]
    assert winding_bases("C", 3) == [CompositionPair("C", 3, (1, 1, 1), ())]
    assert winding_bases("D", 5) == [
        CompositionPair("D", 5, (1, 1, 1, 2), ()),
        CompositionPair("D", 5, (1, 1, 3), ()),
    ]
    assert winding_bases("D", 6) == [CompositionPair("D", 6, (1,) * 6, ())]


def test_bases_are_frobenius():
    for fam, q in (("A", 1), ("B", 2), ("B", 5), ("C", 3), ("D", 4), ("D", 5)):
        for base in winding_bases(fam, q):
            assert is_frobenius(base.seaweed()), base


def test_generate_frobenius_checks_base():
    with pytest.raises(ValueError):
        generate_frobenius(CompositionPair("C", 3, (2, 1), ()), [])


MOVES = st.sampled_from(list(Move))


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_winding_closure_random_sequences(data):
    fam = data.draw(st.sampled_from(["A", "B", "C", "D"]))
    qs = {"A": [1], "B": [2, 3, 4], "C": [2, 3, 4], "D": [4, 5, 6]}[fam]
    base = data.draw(st.sampled_from([b for q in qs for b in winding_bases(fam, q)]))
    pair = base
    for _ in range(data.draw(st.integers(0, 6))):
        mv = data.draw(MOVES)
        try:
            nxt = winding_move(pair, mv)
        except ValueError:
            continue
        if nxt.n <= 48:
            pair = nxt
    s = pair.seaweed()
    assert is_frobenius(s), (base, pair)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_involutions_square_to_identity(data):
    fam, max_rank = data.draw(st.sampled_from(
        [("A", 8), ("B", 8), ("C", 8), ("D", 8), ("E", 8), ("F", 4), ("G", 2)]))
    lo = {"A": 1, "B": 2, "C": 2, "D": 3, "E": 6, "F": 4, "G": 2}[fam]
    n = data.draw(st.integers(lo, max_rank))
    t = LieType(fam, n)
    pi1 = frozenset(data.draw(st.sets(st.integers(1, n))))
    pi2 = frozenset(data.draw(st.sets(st.integers(1, n))))
    s = make_seaweed(t, pi1, pi2)
    for side, subset in ((Side.TOP, pi1), (Side.BOTTOM, pi2)):
        inv = involution(s, side)
        for i in range(1, n + 1):
            assert inv(inv(i)) == i
            if i not in subset:
                assert inv(i) == i
    m = orbits(s)
    assert sorted(v for o in m.orbits for v in o) == list(range(1, n + 1))


def _full_union_seaweeds(t: LieType):
    rs = build_root_system(t)
    for top, bottom in full_union_pairs(t.rank):
        yield Seaweed(rs, frozenset(top), frozenset(bottom))


def _solve_outcome(solve, s, *sides):
    """The solved values, or the text of the AssertionError raised."""
    try:
        return solve(s, *sides).values
    except AssertionError as exc:
        return str(exc)


def _assert_walks_match_reference(t: LieType) -> None:
    for s in _full_union_seaweeds(t):
        m = orbits(s)
        assert u_turn_report(m) == reference_impl.u_turn_report(m), s
        flipped = Seaweed(s.root_system, s.pi2, s.pi1)
        assert involution(flipped, Side.TOP) == m.i2, s
        assert involution(flipped, Side.BOTTOM) == m.i1, s
        for seaweed, top, bottom in ((s, m.i1, m.i2), (flipped, m.i2, m.i1)):
            assert (_solve_outcome(lambda *args: spectrum._pin_walk(*args)[0],
                                   seaweed, top, bottom)
                    == _solve_outcome(reference_impl.solve_eigenvalues,
                                      seaweed, components(seaweed))), seaweed


def _types(spec: str) -> list[LieType]:
    return [LieType.parse(name) for name in spec.split()]


@pytest.mark.parametrize("t", _types(
    "A1 A2 A3 A4 A5 A6 B2 B3 B4 B5 C2 C3 C4 C5 D4 D5 E6 F4 G2"), ids=str)
def test_walks_match_reference_on_every_full_union_pair(t):
    # U-turn rows; the swapped seaweed's involutions, s's with the sides
    # exchanged; and the solved values or the error, for s and for the
    # swapped seaweed solved from s's involutions
    _assert_walks_match_reference(t)


@pytest.mark.slow
@pytest.mark.parametrize("t", _types("A7 A8 B6 B7 C6 C7 D6 D7 E7"), ids=str)
def test_walks_match_reference_at_higher_rank(t):
    _assert_walks_match_reference(t)


def test_one_vertex_orbit_on_a_closed_two_cycle_reports_no_u_turn():
    # both sides swap 1 and 2, so the composition fixes each: two
    # one-vertex orbits on one closed cycle of two U-turn steps
    m = orbits(make_seaweed(LieType("A", 2), {2, 1}, {2, 1}))
    assert m.orbits == ((1,), (2,))
    assert [(r.right, r.left) for r in u_turn_report(m).rows] == [(0, 0)] * 2


def _piece_counts(s: Seaweed) -> tuple[int, int, int]:
    """(C, P0, P2): the closed cycles of the meander, and its paths with no
    end, or both ends, outside pi1 & pi2, each piece walked with _walk."""
    perms = (involution(s, Side.TOP).perm, involution(s, Side.BOTTOM).perm)
    inter = s.pi1 & s.pi2
    seen: set[int] = set()
    outside = []
    for v in range(1, s.rank + 1):
        for side in (0, 1):
            if perms[side][v] == v and v not in seen:
                steps = list(_walk(perms, v, 1 - side))
                seen.update(w for _, w, _ in steps)
                seen.add(v)
                outside.append(len({v, steps[-1][1]} - inter))
    closed = 0
    for v in range(1, s.rank + 1):
        if v not in seen:
            seen.update(w for _, w, _ in _walk(perms, v, 0))
            closed += 1
    return closed, outside.count(0), outside.count(2)


@pytest.mark.parametrize("n", range(1, 7))
def test_piece_counts_give_the_type_a_index(n):
    for s in _full_union_seaweeds(LieType("A", n)):
        closed, p0, p2 = _piece_counts(s)
        assert 2 * closed + p0 + p2 == index(realize_type_a(s)).index, s
