"""The package root and the records it exports.

The records are tuples: each prints, compares and hashes as the frozen
dataclass it replaced did, refuses assignment, and the validating ones
refuse bad fields with the same messages.  The root resolves its names on
first access, and `from seaweeds import *` still binds all of them.
"""
from __future__ import annotations

import pytest

import seaweeds
from seaweeds.enumerate import Catalog, CatalogDiff
from seaweeds.meander import (Component, CompositionPair, Involution,
                              OrbitUTurns, Side, UTurnReport, orbits)
from seaweeds.oracle import IndexCertificate, MatrixSeaweed
from seaweeds.rootsys import LieType, build_root_system
from seaweeds.seaweed import Composition, Seaweed, make_seaweed
from seaweeds.spectrum import (ComponentSpectrum, SimpleEigenvalueVector,
                               Spectrum)

# seaweeds.__all__ before the root became lazy, less DiagramShape, which
# left when a component's shape became its LieType, and enumerate_frobenius,
# which left for the test references when the CLI stopped building Seaweeds
PUBLIC_NAMES = [
    "APPENDIX_A_E6", "Catalog", "CatalogDiff", "CensusReport", "Component",
    "ComponentSpectrum", "Composition", "CompositionPair", "Functional",
    "IndexCertificate", "Involution", "LieType", "MatrixSeaweed", "Move",
    "OrbitMeander", "RootSystem", "Seaweed", "Side",
    "SimpleEigenvalueVector", "Spectrum", "UTurnReport", "ad_spectrum",
    "build_root_system", "check_appendix_a", "component_spectrum",
    "components", "composition_marks", "decompose_direct_sum", "enumerate",
    "frobenius_functional", "from_compositions",
    "full_spectrum", "generate_frobenius", "index", "involution",
    "is_frobenius", "make_seaweed", "meander", "oracle", "orbits",
    "positive_root_count", "principal_element", "realize_type_a", "rootsys",
    "seaweed", "seaweed_dimension", "simple_eigenvalues", "spectrum",
    "spectrum_census", "u_turn_report", "verify_symmetric", "verify_unbroken",
    "winding_bases", "winding_move", "zero_padding"]

A2 = LieType("A", 2)
TOP = Component(Side.TOP, (2, 1), A2, (1, 2))
SPECTRUM = Spectrum(((0, 2), (1, 2)))
TURNS = OrbitUTurns((1, 2), 1, 0)

# (factory, field names in order, the repr the dataclasses printed)
RECORDS = [
    (lambda: LieType("A", 2), "family rank", "LieType(family='A', rank=2)"),
    (lambda: Composition((1, 2), 4), "parts ambient_rank",
     "Composition(parts=(1, 2), ambient_rank=4)"),
    (lambda: make_seaweed(A2, {2, 1}, ()), "root_system pi1 pi2",
     "p^A2(2,1|-)"),
    (lambda: Component(Side.TOP, (2, 1), A2, (1, 2)),
     "side roots shape order",
     "Component(side=<Side.TOP: 1>, roots=(2, 1), shape=LieType("
     "family='A', rank=2), order=(1, 2))"),
    (lambda: Involution((0, 2, 1), (None, 1, 1)), "perm values",
     "Involution(perm=(0, 2, 1), values=(None, 1, 1))"),
    (lambda: orbits(make_seaweed(A2, {2, 1}, ())), "seaweed i1 i2 orbits",
     "OrbitMeander(seaweed=p^A2(2,1|-), i1=Involution(perm=(0, 2, 1), "
     "values=(None, 1, 1)), i2=Involution(perm=(0, 1, 2), "
     "values=(None, None, None)), orbits=((1, 2),))"),
    (lambda: OrbitUTurns((1, 2), 1, 0), "orbit right left",
     "OrbitUTurns(orbit=(1, 2), right=1, left=0)"),
    (lambda: UTurnReport((TURNS,)), "rows",
     "UTurnReport(rows=(OrbitUTurns(orbit=(1, 2), right=1, left=0),))"),
    (lambda: CompositionPair("A", 1, (1,), ()), "family n a b",
     "CompositionPair(family='A', n=1, a=(1,), b=())"),
    (lambda: SimpleEigenvalueVector((1, 0)), "values",
     "SimpleEigenvalueVector(values=(1, 0))"),
    (lambda: Spectrum(((0, 2), (1, 2))), "mult",
     "Spectrum(mult=((0, 2), (1, 2)))"),
    (lambda: ComponentSpectrum(TOP, SPECTRUM), "component values",
     "ComponentSpectrum(component=Component(side=<Side.TOP: 1>, roots=(2, 1)"
     ", shape=LieType(family='A', rank=2), order=(1, 2)), values="
     "Spectrum(mult=((0, 2), (1, 2))))"),
    (lambda: IndexCertificate(0, (1, -1), 20), "index witness samples",
     "IndexCertificate(index=0, witness=(1, -1), samples=20)"),
    (lambda: Catalog(A2, (make_seaweed(A2, {2, 1}, ()),)), "lie_type entries",
     "Catalog(lie_type=LieType(family='A', rank=2), entries=(p^A2(2,1|-),))"),
    (lambda: CatalogDiff((), ()), "missing extra",
     "CatalogDiff(missing=(), extra=())"),
]


@pytest.mark.parametrize("factory, fields, text", RECORDS,
                         ids=[type(r[0]()).__name__ for r in RECORDS])
def test_records_keep_their_dataclass_semantics(factory, fields, text):
    a, b = factory(), factory()
    assert repr(a) == text
    assert a == b and hash(a) == hash(b)
    # a frozen dataclass hashed the tuple of its fields, in field order
    names = fields.split()
    assert hash(a) == hash(tuple(getattr(a, f) for f in names))
    with pytest.raises(AttributeError):
        setattr(a, names[0], getattr(b, names[0]))


@pytest.mark.parametrize("obj, field", [
    (build_root_system(A2), "lie_type"),
    (MatrixSeaweed(3, ((0, 1),)), "units"),
])
def test_identity_records_refuse_assignment(obj, field):
    with pytest.raises(AttributeError):
        setattr(obj, field, None)
    with pytest.raises(AttributeError):
        delattr(obj, field)


@pytest.mark.parametrize("build, message", [
    (lambda: LieType("A", 0), "invalid rank 0 for family A"),
    (lambda: LieType("H", 2), "unknown family 'H'"),
    (lambda: Seaweed(build_root_system(A2), frozenset({3}), frozenset()),
     "subsets must consist of simple-root indices"),
    (lambda: Composition((2, 0), 4), "composition parts must be positive"),
    (lambda: Composition((3, 2), 4), "parts sum 5 exceeds rank 4"),
])
def test_validating_records_refuse_bad_fields(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def test_root_exports_the_same_names():
    assert seaweeds.__all__ == PUBLIC_NAMES


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from seaweeds import *", namespace)
    assert [n for n in PUBLIC_NAMES if n not in namespace] == []
    assert all(namespace[n] is getattr(seaweeds, n) for n in PUBLIC_NAMES)
    with pytest.raises(AttributeError):
        seaweeds.no_such_name
