"""Spectra of Frobenius seaweeds from the simple-eigenvalue constraint system.

Every maximally connected component contributes a batch of linear
constraints on the values the simple roots take on a principal element:
chain components tie mirror-image pairs, components containing a
distinguished root have their values pinned outright, and the values are
negated on the bottom side.  Every row has one or two terms with
coefficient +-1 and each variable lies in at most one row per side, so the
rows form a graph of paths and cycles; the system is solved by propagating
values along it from the pinned vertices, and for a Frobenius seaweed it
determines the values uniquely.  The per-component eigenvalue multisets
(each root evaluated on the solution, padded with zeros) then partition the
full spectrum.  A classical component's roots are evaluated from the
epsilon coordinates of its values, never as root tuples; an exceptional
component's roots are those of the standalone system of its shape.
"""
from __future__ import annotations

from collections import Counter
from operator import mul
from typing import NamedTuple

from ._linalg import solve_by_propagation
from .rootsys import (DiagramShape, LieType, build_root_system,
                      epsilon_root_values, positive_root_count,
                      twice_epsilon)
from .meander import Component, components, is_frobenius
from .seaweed import Seaweed, decompose_direct_sum


class SimpleEigenvalueVector(NamedTuple):
    """The integer value assigned to each simple root, indexed from 1."""

    values: tuple[int, ...]

    def of(self, i: int) -> int:
        return self.values[i - 1]

    def as_dict(self) -> dict[int, int]:
        return {i + 1: v for i, v in enumerate(self.values)}


class Spectrum(NamedTuple):
    """An integer -> multiplicity multiset."""

    mult: tuple[tuple[int, int], ...]   # sorted (eigenvalue, multiplicity) pairs

    @staticmethod
    def from_counter(c: Counter) -> "Spectrum":
        return Spectrum(tuple(sorted((k, m) for k, m in c.items() if m)))

    def as_counter(self) -> Counter:
        return Counter(dict(self.mult))

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


def zero_padding(shape: DiagramShape) -> int:
    """Zero multiplicity a component adds on top of its root values."""
    kind, k = shape.kind, shape.rank
    if kind == "A":
        return (k + 1) // 2
    if kind in ("B", "C"):
        return k
    if kind == "D":
        return k if k % 2 == 0 else k - 1
    if kind == "E":
        return {6: 4, 7: 7, 8: 8}[k]
    if kind == "F":
        return 4
    return 2  # G2


def _pinned(shape: DiagramShape) -> dict[int, int] | None:
    """Internal index -> value, for shapes whose values are fully forced."""
    kind, k = shape.kind, shape.rank
    if kind == "B":
        if k == 2:
            return {1: 0, 2: 1}
        if k % 2 == 1:
            return {i: (-1) ** (i - 1) for i in range(1, k + 1)}
        return {1: 0, **{i: (-1) ** i for i in range(2, k + 1)}}
    if kind == "C":
        return {1: 1, **{i: 0 for i in range(2, k + 1)}}
    if kind == "E" and k == 7:
        return {1: -1, 4: -1, 6: -1, 2: 1, 3: 1, 5: 1, 7: 1}
    if kind == "E" and k == 8:
        return {1: -1, 4: -1, 6: -1, 8: -1, 2: 1, 3: 1, 5: 1, 7: 1}
    if kind == "F":
        return {1: -1, 2: 1, 3: 0, 4: 0}
    if kind == "G":
        return {1: 1, 2: -1}
    return None


def component_constraints(c: Component) -> list[tuple[dict[int, int], int]]:
    """Linear constraints a component imposes, as (coefficients, rhs) rows.

    Coefficients address ambient simple-root indices; the side sign is
    already folded in.
    """
    s = c.side.sign
    kind, k = c.shape.kind, c.shape.rank
    order = c.order
    rows: list[tuple[dict[int, int], int]] = []
    pinned = _pinned(c.shape)
    if pinned is not None:
        for i, val in pinned.items():
            rows.append(({order[i - 1]: s}, val))
        return rows
    if kind == "A":
        path = order
        for i in range((k + 1) // 2):
            a, b = path[i], path[k - 1 - i]
            if a == b:
                rows.append(({a: s}, 1))
            elif k % 2 == 0 and i == k // 2 - 1:
                rows.append(({a: s, b: s}, 1))
            else:
                rows.append(({a: s, b: s}, 0))
        return rows
    if kind == "D":
        if k % 2 == 0:
            rows.append(({order[0]: s}, 1))
            rows.append(({order[1]: s}, 1))
            for i in range(3, k + 1):
                rows.append(({order[i - 1]: s}, (-1) ** i))
        else:
            rows.append(({order[0]: s, order[1]: s}, 0))
            for i in range(3, k + 1):
                rows.append(({order[i - 1]: s}, (-1) ** (i - 1)))
        return rows
    if kind == "E" and k == 6:
        rows.append(({order[1]: s}, -1))
        rows.append(({order[3]: s}, 1))
        rows.append(({order[0]: s, order[5]: s}, 0))
        rows.append(({order[2]: s, order[4]: s}, 0))
        return rows
    raise AssertionError(f"no constraint rule for shape {c.shape}")


def simple_eigenvalues(s: Seaweed) -> SimpleEigenvalueVector:
    """Solve the constraint system; the seaweed must be Frobenius."""
    if not is_frobenius(s):
        raise ValueError(f"{s} is not Frobenius; its spectrum is undefined")
    return _solve_eigenvalues(s, components(s))


def _solve_eigenvalues(s: Seaweed, sides: tuple[tuple[Component, ...],
                                                 tuple[Component, ...]]
                       ) -> SimpleEigenvalueVector:
    """Solve the constraints of s's (tops, bottoms) component pair."""
    tops, bottoms = sides
    rows = [row for c in tops + bottoms for row in component_constraints(c)]
    try:
        sol = solve_by_propagation(rows, s.rank)
    except ValueError as exc:
        raise AssertionError(
            f"constraint system for {s} is {exc}; this indicates a "
            "component-classification bug") from exc
    if any(x.denominator != 1 for x in sol):
        raise AssertionError(f"non-integer simple eigenvalues for {s}: {sol}")
    return SimpleEigenvalueVector(tuple(int(x) for x in sol))


def component_spectrum(c: Component,
                       x: SimpleEigenvalueVector) -> ComponentSpectrum:
    """Eigenvalue multiset of one component: every root of its shape
    evaluated on the solved values (negated on the bottom), plus the zero
    padding."""
    sgn = c.side.sign
    vals = [sgn * x.of(i) for i in c.order]
    kind = c.shape.kind
    if kind in "ABCD":
        f = [sum(map(mul, e, vals)) for e in twice_epsilon(kind, len(vals))]
        counts = Counter(epsilon_root_values(kind, f))
    else:
        shape = build_root_system(LieType(kind, c.shape.rank))
        counts = Counter(sum(map(mul, beta, vals))
                         for beta in shape.positive_roots)
    counts[0] += zero_padding(c.shape)
    return ComponentSpectrum(c, Spectrum.from_counter(counts))


def component_spectra(sides: tuple[tuple[Component, ...],
                                   tuple[Component, ...]],
                      x: SimpleEigenvalueVector
                      ) -> tuple[list[ComponentSpectrum], Spectrum]:
    """Every component's spectrum under the solved values, top side first,
    and their union: the full spectrum of the seaweed with these (tops,
    bottoms) components."""
    tops, bottoms = sides
    spectra = [component_spectrum(c, x) for c in tops + bottoms]
    total: Counter = Counter()
    for cs in spectra:
        for k, m in cs.values.mult:
            total[k] += m
    return spectra, Spectrum.from_counter(total)


def full_spectrum(s: Seaweed) -> Spectrum:
    """Union of all component spectra; direct sums are split and merged."""
    if not s.has_full_union():
        total: Counter = Counter()
        for part in decompose_direct_sum(s):
            total.update(full_spectrum(part).as_counter())
        return Spectrum.from_counter(total)
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


def eigenvalue_bounds_ok(c: Component, x: SimpleEigenvalueVector) -> bool:
    """Side-normalized simple-eigenvalue ranges by component type.

    Chain and fork values are bounded by three in absolute value (both
    signs occur: a chain inside a rank-6 system already realizes -3 and 3
    together); components with a distinguished root stay in the pinned
    ranges.
    """
    sgn = c.side.sign
    kind = c.shape.kind
    if kind in ("A", "D"):
        allowed = range(-3, 4)
    elif kind == "B":
        allowed = range(-1, 2)
    elif kind == "C":
        allowed = range(0, 2)
    else:
        allowed = range(-2, 3)
    return all(sgn * x.of(i) in allowed for i in c.roots)


def component_sum_ok(c: Component, x: SimpleEigenvalueVector) -> bool:
    """Chain components sum to one after side normalization."""
    if c.shape.kind != "A":
        return True
    return c.side.sign * sum(x.of(i) for i in c.roots) == 1


def seaweed_dimension(s: Seaweed) -> int:
    """Algebra dimension: the positive roots of every component of both
    sides plus the rank."""
    tops, bottoms = components(s)
    return s.rank + sum(positive_root_count(LieType(c.shape.kind, c.shape.rank))
                        for c in tops + bottoms)
