"""Frobenius seaweed subalgebras of the simple Lie algebras.

Public surface: root-system construction, seaweed presentation, orbit
meanders with the Frobenius test, principal-element spectra with their
structural verdicts, exhaustive catalogs, and an exact matrix oracle for
type A.  Each name is imported from its module on first access (PEP 562),
so `import seaweeds` loads no submodule.
"""
from importlib import import_module

_EXPORTS = {
    "rootsys": "LieType RootSystem build_root_system positive_root_count",
    "seaweed": "Composition Seaweed composition_marks decompose_direct_sum "
               "from_compositions make_seaweed",
    "meander": "Component CompositionPair Involution Move OrbitMeander Side "
               "UTurnReport components generate_frobenius involution "
               "is_frobenius orbits u_turn_report winding_bases winding_move",
    "spectrum": "ComponentSpectrum SimpleEigenvalueVector Spectrum "
                "component_spectrum full_spectrum seaweed_dimension "
                "simple_eigenvalues verify_symmetric verify_unbroken "
                "zero_padding",
    "oracle": "Functional IndexCertificate MatrixSeaweed ad_spectrum "
              "frobenius_functional index principal_element realize_type_a",
    "enumerate": "APPENDIX_A_E6 Catalog CatalogDiff CensusReport "
                 "check_appendix_a spectrum_census",
}
_HOME = {name: module for module, names in _EXPORTS.items()
         for name in names.split()}

__all__ = sorted([*_HOME, *_EXPORTS])


def __getattr__(name: str):
    if name in _EXPORTS:
        return import_module(f".{name}", __name__)
    if name in _HOME:
        return getattr(import_module(f".{_HOME[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
