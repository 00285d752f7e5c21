"""Spectra of Frobenius seaweeds from the simple-eigenvalue constraint system.

Every maximally connected component constrains the values the simple roots
take on a principal element with one row per orbit of its involution
(`meander._orbit_rows` holds the rule of each shape, and each side's
`Involution` carries its rows' values): a fixed root's value is pinned, a
swapped pair's values have a set sum, and the values are negated on the
bottom side.  Each variable lies in at most one row per side, so the rows
form the meander's paths, pinned at their ends; the values are carried
along each path from a pin by `meander._walk`.  The per-component
eigenvalue multisets (each root evaluated on the solution, plus one zero
per orbit) then partition the full spectrum.  A component's multiset
depends on its shape and side-normalized values alone, and so does every
verdict the census makes of one component: `shape_spectrum` caches them
together by that pair.  A classical component's roots are evaluated from
the epsilon coordinates of its values, running sums along its order
(`rootsys.twice_epsilon_values`), never as root tuples; an exceptional
component's roots are those of the standalone system of its shape.
"""
from __future__ import annotations

from collections import Counter
from functools import lru_cache
from operator import mul
from typing import NamedTuple

from .rootsys import (LieType, build_root_system, epsilon_root_values,
                      positive_root_count, twice_epsilon_values)
from .meander import (Component, Involution, Side, _orbit_rows, _walk,
                      components, involution, is_frobenius)
from .seaweed import Seaweed, decompose_direct_sum


class SimpleEigenvalueVector(NamedTuple):
    """The integer value assigned to each simple root, indexed from 1."""

    values: tuple[int, ...]

    def side_normalized(self, c: Component) -> tuple[int, ...]:
        """The values of c's simple roots in c.order, negated on the bottom
        side: the one vector a component's spectrum and checks read."""
        sign, values = c.side.sign, self.values
        return tuple(sign * values[i - 1] for i in c.order)


class Spectrum(NamedTuple):
    """An integer -> multiplicity multiset."""

    mult: tuple[tuple[int, int], ...]   # sorted (eigenvalue, multiplicity) pairs

    @staticmethod
    def from_counter(c: Counter) -> "Spectrum":
        return Spectrum(tuple(sorted((k, m) for k, m in c.items() if m)))

    def total(self) -> int:
        return sum(m for _, m in self.mult)

    def support(self) -> list[int]:
        return [k for k, _ in self.mult]

    def to_json_dict(self) -> dict:
        return {
            "eigenvalues": [{"k": k, "mult": m} for k, m in self.mult],
            "unbroken": verify_unbroken(self),
            "symmetric": verify_symmetric(self),
            "dimension": self.total(),
        }


class ComponentSpectrum(NamedTuple):
    component: Component
    values: Spectrum


@lru_cache(maxsize=256)
def zero_padding(shape: LieType) -> int:
    """Zero multiplicity a component adds on top of its root values: one
    per orbit of its involution; the census sums it for every component."""
    return sum(j <= p for j, p in enumerate(_orbit_rows(shape)[0]))


def simple_eigenvalues(s: Seaweed) -> SimpleEigenvalueVector:
    """Solve the constraint system; the seaweed must be Frobenius."""
    if not is_frobenius(s):
        raise ValueError(f"{s} is not Frobenius; its spectrum is undefined")
    return _pin_walk(s, involution(s, Side.TOP),
                     involution(s, Side.BOTTOM))[0]


def _pin_walk(s: Seaweed, top: Involution, bottom: Involution
              ) -> tuple[SimpleEigenvalueVector, list[tuple[int, int]]]:
    """Solve the constraints of s's top and bottom involutions by walking
    the meander from each pin, a vertex its own row fixes; the bottom
    rows' values are negated.  Also returns the (right, left) U-turn
    counts of each path walked, by `u_turn_report`'s step rule.

    A pin starts a path, and each pair row on it sets x_w = total - x_v.
    The path's other end is a second pin, checked against the value
    reached, or a vertex with no row on that side.  A piece no pin reaches,
    such as an even cycle off the Frobenius case, is left without values.
    So on a Frobenius seaweed each path, one orbit, is walked once, end to
    end: its counts are its `u_turn_report` row's, right and left swapped
    where the walk runs the other way.
    """
    n = s.rank
    rs = s.root_system
    neighbors, cols = rs.neighbors, rs.columns
    perms = top.perm, bottom.perm
    totals = top.values, tuple(v if v is None else -v for v in bottom.values)
    x: list[int | None] = [None] * (n + 1)
    turns = []
    inconsistent = False
    for side in (0, 1):
        for start, (mate, pin) in enumerate(zip(perms[side], totals[side])):
            if mate != start or pin is None or x[start] is not None:
                continue
            x[start] = pin
            path = [0, 0]               # [left, right]
            for v, w, t in _walk(perms, start, 1 - side):
                value = totals[t][v]
                if w == v:              # the path's other end
                    inconsistent |= value is not None and value != x[v]
                else:
                    x[w] = value - x[v]
                    if w in neighbors(v):
                        path[(cols[w] > cols[v]) == (t == 1)] += 1
            turns.append((path[1], path[0]))
    problem = ("inconsistent" if inconsistent
               else "underdetermined" if None in x[1:] else None)
    if problem:
        raise AssertionError(
            f"constraint system for {s} is {problem} linear system; this "
            "indicates a component-classification bug")
    return SimpleEigenvalueVector(tuple(x[1:])), turns


@lru_cache(maxsize=1024)
def shape_spectrum(shape: LieType, values: tuple[int, ...]
                   ) -> tuple[Spectrum, bool, bool, bool, tuple, bool]:
    """The record of a component of this shape and side-normalized values:
    its spectrum, every root evaluated on them plus the zero padding, and
    every verdict the census makes of one component, which read the shape
    and values alone, never the component's roots.  The record is the
    tuple (spectrum, unbroken, symmetric, value bounds hold, the (lo, hi)
    positions of a chain's broken centered runs, empty off type A, E6
    pattern listed or not full E6).  No A-D catalog census up to rank 12
    meets more than 399 keys; a rank-512 record holds some 7 KB."""
    family = shape.family
    if family in "ABCD":
        counts = Counter(epsilon_root_values(
            family, twice_epsilon_values(family, values)))
    else:
        counts = Counter(sum(map(mul, beta, values))
                         for beta in build_root_system(shape).positive_roots)
    counts[0] += zero_padding(shape)
    sp = Spectrum.from_counter(counts)
    runs = tuple(_broken_centered_runs(values)) if family == "A" else ()
    return (sp, verify_unbroken(sp), verify_symmetric(sp),
            eigenvalue_bounds_ok(shape, values), runs,
            shape != ("E", 6) or _e6_pattern_listed(values))


def component_spectrum(c: Component,
                       x: SimpleEigenvalueVector) -> ComponentSpectrum:
    """Eigenvalue multiset of one component under the solved values (see
    shape_spectrum)."""
    values = x.side_normalized(c)
    return ComponentSpectrum(c, shape_spectrum(c.shape, values)[0])


def spectrum_union(parts) -> Spectrum:
    """The multiset union of the given spectra."""
    total: Counter = Counter()
    for sp in parts:
        for k, m in sp.mult:
            total[k] += m
    return Spectrum.from_counter(total)


def component_spectra(sides: tuple[tuple[Component, ...],
                                   tuple[Component, ...]],
                      x: SimpleEigenvalueVector
                      ) -> tuple[list[ComponentSpectrum], Spectrum]:
    """Every component's spectrum under the solved values, top side first,
    and their union: the full spectrum of the seaweed with these (tops,
    bottoms) components."""
    tops, bottoms = sides
    spectra = [component_spectrum(c, x) for c in tops + bottoms]
    return spectra, spectrum_union(cs.values for cs in spectra)


def full_spectrum(s: Seaweed) -> Spectrum:
    """Union of all component spectra; direct sums are split and merged."""
    if not s.has_full_union():
        return spectrum_union(map(full_spectrum, decompose_direct_sum(s)))
    return component_spectra(components(s), simple_eigenvalues(s))[1]


def verify_unbroken(sp: Spectrum) -> bool:
    """Support is a gap-free integer interval containing both 0 and 1."""
    supp = sp.support()
    if not supp or 0 not in supp or 1 not in supp:
        return False
    return supp == list(range(supp[0], supp[-1] + 1))


def verify_symmetric(sp: Spectrum) -> bool:
    """Multiplicities are symmetric about one half: r(k) == r(1-k)."""
    c = dict(sp.mult)
    return all(m == c.get(1 - k, 0) for k, m in c.items())


def eigenvalue_bounds_ok(shape: LieType, values: tuple[int, ...]) -> bool:
    """Side-normalized simple-eigenvalue ranges by component type; values
    are one component's values, with the bottom side's negated.

    Chain and fork values are bounded by three in absolute value (both
    signs occur: a chain inside a rank-6 system already realizes -3 and 3
    together); components with a distinguished root stay in the pinned
    ranges.
    """
    family = shape.family
    if family in ("A", "D"):
        allowed = range(-3, 4)
    elif family == "B":
        allowed = range(-1, 2)
    elif family == "C":
        allowed = range(0, 2)
    else:
        allowed = range(-2, 3)
    return all(v in allowed for v in values)


def _broken_centered_runs(values: tuple[int, ...]):
    """Yield the positions (i, k+1-i), from 1, of each centered run of a
    chain whose values do not sum to one (`enumerate.verify_entry` says why
    that is the mirror pairing): one running total, walked in from both
    ends, gives the runs in O(k)."""
    total = sum(values)
    lo, hi = 0, len(values) - 1
    while lo <= hi:
        if total != 1:
            yield lo + 1, hi + 1
        total -= values[lo] + values[hi]
        lo += 1
        hi -= 1


# The nine value patterns a full E6 component can realize, side-normalized
# and listed by simple-root index.
E6_COMPONENT_CONFIGURATIONS = (
    (-2, -1, -2, 1, 2, 2),
    (-2, -1, 1, 1, -1, 2),
    (-1, -1, 2, 1, -2, 1),
    (1, -1, -2, 1, 2, -1),
    (1, -1, -1, 1, 1, -1),
    (2, -1, -1, 1, 1, -2),
    (-1, -1, -1, 1, 1, 1),
    (-1, -1, 1, 1, -1, 1),
    (1, -1, 1, 1, -1, -1),
)


def _e6_pattern_listed(values: tuple[int, ...]) -> bool:
    """Whether full-E6 values, or their diagram flip, are listed."""
    flip = (values[5], values[1], values[4], values[3], values[2], values[0])
    return (values in E6_COMPONENT_CONFIGURATIONS
            or flip in E6_COMPONENT_CONFIGURATIONS)


def seaweed_dimension(s: Seaweed) -> int:
    """Algebra dimension: the positive roots of every component of both
    sides plus the rank."""
    tops, bottoms = components(s)
    return s.rank + sum(positive_root_count(c.shape) for c in tops + bottoms)
