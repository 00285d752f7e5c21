from __future__ import annotations

from hypothesis import given, settings, strategies as st

from seaweeds.rootsys import LieType, build_root_system
from seaweeds.seaweed import Seaweed, decompose_direct_sum
from seaweeds.meander import components, is_frobenius, orbits, u_turn_report
from seaweeds.spectrum import (full_spectrum, seaweed_dimension,
                               simple_eigenvalues, verify_symmetric,
                               verify_unbroken, zero_padding)

from reference_impl import canonical_form

TYPE_POOL = [("A", 1, 8), ("B", 2, 8), ("C", 2, 8), ("D", 3, 8),
             ("E", 6, 8), ("F", 4, 4), ("G", 2, 2)]


@st.composite
def seaweeds(draw, full_union: bool):
    fam, lo, hi = draw(st.sampled_from(TYPE_POOL))
    n = draw(st.integers(lo, hi))
    rs = build_root_system(LieType(fam, n))
    if full_union:
        states = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
        pi1 = frozenset(i + 1 for i, s in enumerate(states) if s != 1)
        pi2 = frozenset(i + 1 for i, s in enumerate(states) if s != 0)
    else:
        pi1 = frozenset(draw(st.sets(st.integers(1, n))))
        pi2 = frozenset(draw(st.sets(st.integers(1, n))))
    return Seaweed(rs, pi1, pi2)


@given(seaweeds(full_union=True))
@settings(max_examples=150, deadline=None)
def test_frobenius_orbit_count_matches_complement(s):
    m = orbits(s)
    assert sorted(v for o in m.orbits for v in o) == list(range(1, s.rank + 1))
    if is_frobenius(s):
        # one shared-complement element per orbit forces equal counts
        assert len(m.orbits) == len(s.pi_union_complement)


@given(seaweeds(full_union=True))
@settings(max_examples=120, deadline=None)
def test_frobenius_spectrum_properties(s):
    if not is_frobenius(s):
        return
    sp = full_spectrum(s)
    assert verify_unbroken(sp)
    assert verify_symmetric(sp)
    assert sp.total() == seaweed_dimension(s)
    tops, bottoms = components(s)
    assert sum(zero_padding(c.shape) for c in tops + bottoms) == s.rank


@given(seaweeds(full_union=True))
@settings(max_examples=100, deadline=None)
def test_flip_invariance(s):
    if not is_frobenius(s):
        return
    flipped = Seaweed(s.root_system, s.pi2, s.pi1)
    assert is_frobenius(flipped)
    assert full_spectrum(flipped) == full_spectrum(s)


@given(seaweeds(full_union=True))
@settings(max_examples=100, deadline=None)
def test_u_turns_at_most_two_per_orbit(s):
    if not is_frobenius(s):
        return
    for row in u_turn_report(orbits(s)).rows:
        assert row.right + row.left <= 2
        if s.root_system.lie_type.family in "ABCD":
            assert row.right <= 1 and row.left <= 1


@given(seaweeds(full_union=False))
@settings(max_examples=120, deadline=None)
def test_decompose_ranks_add_up(s):
    parts = decompose_direct_sum(s)
    removed = s.rank - len(s.pi1 | s.pi2)
    assert sum(p.rank for p in parts) == s.rank - removed
    if s.has_full_union():
        assert parts == [s]


@given(seaweeds(full_union=False))
@settings(max_examples=120, deadline=None)
def test_canonical_form_properties(s):
    c = canonical_form(s)
    swapped = Seaweed(s.root_system, s.pi2, s.pi1)
    assert canonical_form(swapped) == c
    assert canonical_form(c) == c
    assert {c.pi1, c.pi2} == {s.pi1, s.pi2}


@given(seaweeds(full_union=True))
@settings(max_examples=80, deadline=None)
def test_solved_values_are_integral(s):
    if not is_frobenius(s):
        return
    x = simple_eigenvalues(s)
    assert all(isinstance(v, int) for v in x.values)
