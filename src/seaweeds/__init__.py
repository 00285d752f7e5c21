"""Frobenius seaweed subalgebras of the simple Lie algebras.

Public surface: root-system construction, seaweed presentation, orbit
meanders with the Frobenius test, principal-element spectra with their
structural verdicts, exhaustive catalogs, and an exact matrix oracle for
type A.
"""
from .rootsys import (DiagramShape, LieType, RootSystem, build_root_system,
                      induced_shape, positive_root_count, sub_positive_roots)
from .seaweed import (Composition, Seaweed, canonical_form,
                      composition_marks, decompose_direct_sum,
                      from_compositions, make_seaweed, marks_to_composition)
from .meander import (Component, CompositionPair, Involution, Move,
                      OrbitMeander, Side, UTurnReport, components,
                      generate_frobenius, involution, is_frobenius, orbits,
                      u_turn_report, winding_bases, winding_move)
from .spectrum import (ComponentSpectrum, SimpleEigenvalueVector, Spectrum,
                       component_spectrum, full_spectrum, seaweed_dimension,
                       simple_eigenvalues, symmetric_root, verify_symmetric,
                       verify_unbroken, zero_padding)
from .oracle import (Functional, IndexCertificate, MatrixSeaweed, ad_spectrum,
                     frobenius_functional, index, kirillov_rank,
                     poset_algebra_sl4, principal_element, realize_type_a)
from .enumerate import (APPENDIX_A_E6, Catalog, CatalogDiff, CensusReport,
                        check_appendix_a, enumerate_frobenius, spectrum_census)

__all__ = [name for name in dir() if not name.startswith("_")]
