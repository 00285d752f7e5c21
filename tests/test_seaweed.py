from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from seaweeds.rootsys import LieType
from seaweeds.seaweed import (Composition, composition_marks,
                              decompose_direct_sum, from_compositions,
                              make_seaweed, parse_subset)

from reference_impl import canonical_form


def test_marks_of_worked_composition():
    c = Composition((1, 1, 5, 1), 8)
    assert composition_marks(c) == frozenset({8, 7, 2, 1})
    assert composition_marks(Composition((4,), 8)) == frozenset({5})
    assert composition_marks(Composition((), 8)) == frozenset()


def test_from_compositions_type_c_example():
    s = from_compositions(LieType("C", 8), Composition((1, 1, 5, 1), 8),
                          Composition((4,), 8))
    assert s.pi1 == frozenset({6, 5, 4, 3})
    assert s.pi2 == frozenset({8, 7, 6, 4, 3, 2, 1})


def test_from_compositions_type_d_base():
    s = from_compositions(LieType("D", 4), Composition((1, 1, 1, 1), 4),
                          Composition((), 4))
    assert s.pi1 == frozenset()
    assert s.pi2 == frozenset({1, 2, 3, 4})


def test_from_compositions_borel_of_rank_one():
    s = from_compositions(LieType("A", 1), Composition((1,), 1),
                          Composition((), 1))
    assert s.pi1 == frozenset()
    assert s.pi2 == frozenset({1})


def test_composition_sum_guard():
    with pytest.raises(ValueError):
        Composition((5, 4), 8)
    with pytest.raises(ValueError):
        Composition((0, 1), 8)


def _compositions(budget: int):
    """Every tuple of positive parts summing to at most budget."""
    yield ()
    for p in range(1, budget + 1):
        for rest in _compositions(budget - p):
            yield (p,) + rest


def test_composition_marks_biject_onto_subsets():
    """One mark per part, and each subset of 1..n marks exactly one of the
    2^n compositions of sum at most n."""
    for n in range(1, 9):
        compositions = list(_compositions(n))
        marks = [composition_marks(Composition(c, n)) for c in compositions]
        assert [len(m) for m in marks] == [len(c) for c in compositions]
        assert len(set(marks)) == len(marks) == 2 ** n
        assert frozenset().union(*marks) == frozenset(range(1, n + 1))


def _composition_of_marks(marks, n: int) -> Composition:
    """Test-local inverse of composition_marks: mark i ends the part whose
    running sum is n + 1 - i."""
    sums = sorted(n + 1 - i for i in marks)
    return Composition(tuple(b - a for a, b in zip([0] + sums, sums)), n)


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_marks_round_trip(data):
    n = data.draw(st.integers(1, 12))
    parts = []
    budget = n
    while budget > 0:
        p = data.draw(st.integers(1, budget))
        parts.append(p)
        budget -= p
        if data.draw(st.booleans()):
            break
    c = Composition(tuple(parts), n)
    assert _composition_of_marks(composition_marks(c), n) == c


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_marks_inverse_round_trip(data):
    n = data.draw(st.integers(1, 12))
    subset = frozenset(data.draw(st.sets(st.integers(1, n))))
    c = _composition_of_marks(subset, n)
    assert composition_marks(c) == subset


def test_sides_may_be_any_collection_of_indices():
    """Sets and lists are coerced to frozensets, so they equal make_seaweed's
    result and run through the cached Frobenius test and the spectrum."""
    from seaweeds.meander import is_frobenius
    from seaweeds.rootsys import build_root_system
    from seaweeds.seaweed import Seaweed
    from seaweeds.spectrum import full_spectrum
    t = LieType("A", 3)
    want = make_seaweed(t, frozenset({3, 1}), frozenset({3, 2}))
    for top, bottom in (({3, 1}, {3, 2}), ([3, 1], [3, 2]),
                        ((1, 3), range(2, 4))):
        s = Seaweed(build_root_system(t), top, bottom)
        assert s == want
        assert type(s.pi1) is type(s.pi2) is frozenset
        assert is_frobenius(s) is is_frobenius(want) is True
        assert full_spectrum(s) == full_spectrum(want)
    with pytest.raises(ValueError):
        Seaweed(build_root_system(t), [4], [])


def test_pi_union_complement():
    s = make_seaweed(LieType("A", 9), {9, 7, 6, 4, 3, 2, 1},
                     {9, 8, 7, 5, 4, 3, 2, 1})
    assert s.pi_union_complement == frozenset({8, 6, 5})


def test_decompose_trivial_when_union_full():
    s = make_seaweed(LieType("B", 4), {4, 3}, {2, 1})
    assert decompose_direct_sum(s) == [s]


def test_decompose_splits_chain():
    s = make_seaweed(LieType("A", 5), {5, 4, 2, 1}, {5, 4, 2, 1})
    parts = decompose_direct_sum(s)
    assert [str(p.root_system.lie_type) for p in parts] == ["A2", "A2"]
    for p in parts:
        assert p.pi1 == p.pi2 == frozenset({1, 2})


def test_decompose_splits_fork_system():
    s = make_seaweed(LieType("D", 5), {5, 3, 2, 1}, {5, 3, 2, 1})
    parts = decompose_direct_sum(s)
    names = sorted(str(p.root_system.lie_type) for p in parts)
    assert names == ["A1", "A3"]
    ranks = sum(p.rank for p in parts)
    assert ranks == 5 - 1


def test_decompose_exceptional_fragment():
    s = make_seaweed(LieType("E", 6), {2, 3, 4, 5}, {2, 3, 4, 5})
    (part,) = decompose_direct_sum(s)
    assert str(part.root_system.lie_type) == "D4"


def test_e6_fragment_of_e8_reproduces_the_rank6_seaweed():
    from seaweeds.spectrum import full_spectrum
    inner = make_seaweed(LieType("E", 6), {5, 4, 3, 1}, {6, 5, 4, 3, 2, 1})
    outer = make_seaweed(LieType("E", 8), {5, 4, 3, 1}, {6, 5, 4, 3, 2, 1})
    (part,) = decompose_direct_sum(outer)
    assert part.root_system.lie_type == LieType("E", 6)
    assert (part.pi1, part.pi2) == (inner.pi1, inner.pi2)
    assert full_spectrum(outer) == full_spectrum(inner)


def test_fork_fragment_relabeling_is_consistent():
    # the D6 sitting inside E7 on {2,...,7} must behave like a standalone D6
    from seaweeds.spectrum import full_spectrum
    outer = make_seaweed(LieType("E", 7), set(range(2, 8)), set())
    (part,) = decompose_direct_sum(outer)
    assert part.root_system.lie_type == LieType("D", 6)
    direct = make_seaweed(LieType("D", 6), set(range(1, 7)), set())
    assert full_spectrum(part) == full_spectrum(direct)
    # odd-rank fork: the prong pair {2,3} of the embedded system renames to
    # {1,2}, so the flagged prong 3 must come out as the new 2
    outer2 = make_seaweed(LieType("E", 7), set(range(2, 7)), {3})
    (part2,) = decompose_direct_sum(outer2)
    direct2 = make_seaweed(LieType("D", 5), set(range(1, 6)), {2})
    assert (part2.root_system.lie_type, part2.pi1, part2.pi2) == \
        (LieType("D", 5), direct2.pi1, direct2.pi2)
    assert full_spectrum(outer2) == full_spectrum(direct2)


def test_canonical_form_swap_invariance():
    s = make_seaweed(LieType("A", 4), {4, 3}, {2, 1})
    t = make_seaweed(LieType("A", 4), {2, 1}, {4, 3})
    assert canonical_form(s) == canonical_form(t)
    assert canonical_form(canonical_form(s)) == canonical_form(s)


def test_canonical_form_keeps_automorphism_twins_apart():
    full = frozenset(range(1, 7))
    a = make_seaweed(LieType("E", 6), full, {6, 3})
    b = make_seaweed(LieType("E", 6), full, {5, 1})
    assert canonical_form(a) != canonical_form(b)


def test_self_paired_seaweed():
    s = make_seaweed(LieType("G", 2), {1, 2}, {1, 2})
    assert canonical_form(s) == s


def test_parse_subset():
    assert parse_subset("6,5,4,3", 8) == frozenset({6, 5, 4, 3})
    assert parse_subset("", 8) == frozenset()
    with pytest.raises(ValueError):
        parse_subset("9", 8)
    with pytest.raises(ValueError):
        parse_subset("1,x", 8)


def test_subset_bounds_checked():
    with pytest.raises(ValueError):
        make_seaweed(LieType("A", 3), {4}, set())
