"""Exact calculus of semi-homogeneous bundles on tropical and
non-Archimedean abelian tori.

Everything is exact: scalars are rationals, field elements are monomials,
lattices are integer matrices in Hermite normal form.  The package mirrors a
two-sided picture — a multiplicative torus over a valued monomial field and
its real tropicalization — and the maps between them.
"""

import sys as _sys
from importlib.util import LazyLoader as _LazyLoader, find_spec as _find_spec
from importlib.util import module_from_spec as _module_from_spec

__version__ = "0.1.0"

# every public name, by its home module
_EXPORTS = {
    "bundles": """ModuliPoint TropLineBundle TropVectorBundle cover_torus direct_sum
        equivalent is_homogeneous is_semi_homogeneous moduli_point pullback
        pushforward restrict_line_bundle slope sym_point tensor translate""",
    "errors": "TropabelError",
    "groups": "FiniteAbelianGroup enumerate_subgroups quotient snf",
    "lattices": "QLattice Sublattice",
    "linalg": "Mat hnf",
    "monomials": "MultiplicativePoint ValuedMonomial eval_character",
    "naside": """NACharacter NALineBundle NASemisimpleRep bundle_times_character
        bundles_from_rep characters_equal_mod_m extend_r represent_on restrict_na
        translate_na trop_rep tropicalize_line_bundle tropicalize_simple
        unit_character verify_commuting_square""",
    "nspairings": "NSClass",
    "tori": """NATorus TropTorus dual_integrality_lattice extended_character_lattice
        integrality_lattice is_r_symmetric""",
    "tropchar": """OrbitSummand TropGLElement TropRepresentation bundle_from_rep
        canonical_form check_commuting compose conjugate decompose_rep identity
        inverse power rep_from_bundle stratum""",
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}
__all__ = sorted(_HOME)


def _lazy(module: str):
    """The submodule, put in sys.modules but compiled and run only on the
    first access to one of its attributes (importlib's LazyLoader); a reload
    of the package keeps the one already there."""
    name = f"{__name__}.{module}"
    if name in _sys.modules:
        return _sys.modules[name]
    spec = _find_spec(name)
    spec.loader = _LazyLoader(spec.loader)
    lazy = _sys.modules[name] = _module_from_spec(spec)
    spec.loader.exec_module(lazy)
    return lazy


# cli and jsonio are not registered: ``python -m tropabel.cli`` warns when the
# package has already put tropabel.cli in sys.modules
globals().update({module: _lazy(module) for module in _EXPORTS})


def __getattr__(name: str):
    if name in _HOME:
        return getattr(globals()[_HOME[name]], name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOME})
