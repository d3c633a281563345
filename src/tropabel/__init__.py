"""Exact calculus of semi-homogeneous bundles on tropical and
non-Archimedean abelian tori.

Everything is exact: scalars are rationals, field elements are monomials,
lattices are integer matrices in Hermite normal form.  The package mirrors a
two-sided picture — a multiplicative torus over a valued monomial field and
its real tropicalization — and the maps between them.
"""

from types import ModuleType as _ModuleType

from .bundles import (
    ModuliPoint,
    TropLineBundle,
    TropVectorBundle,
    as_bundle,
    cover_torus,
    direct_sum,
    equivalent,
    gamma_compatible,
    is_homogeneous,
    is_semi_homogeneous,
    iso_pushforward,
    line_bundle,
    moduli_point,
    pullback,
    pushforward,
    restrict_line_bundle,
    slope,
    sym_point,
    tensor,
    translate,
)
from .errors import TropabelError
from .lattices import (
    FiniteAbelianGroup,
    QLattice,
    Sublattice,
    enumerate_subgroups,
    quotient,
    reduce_mod_lattice,
)
from .linalg import Mat, hnf, snf
from .monomials import MultiplicativePoint, ValuedMonomial, eval_character
from .naside import (
    NACharacter,
    NALineBundle,
    NASemisimpleRep,
    bundle_times_character,
    bundles_from_rep,
    characters_equal_mod_m,
    extend_r,
    represent_on,
    restrict_na,
    translate_na,
    trop_rep,
    tropicalize_line_bundle,
    tropicalize_simple,
    unit_character,
    verify_commuting_square,
)
from .nspairings import (
    NATorus,
    NSClass,
    TropTorus,
    dual_integrality_lattice,
    extended_character_lattice,
    integrality_lattice,
    is_r_symmetric,
)
from .tropchar import (
    OrbitSummand,
    TropGLElement,
    TropRepresentation,
    bundle_from_rep,
    canonical_form,
    check_commuting,
    compose,
    conjugate,
    decompose_rep,
    from_matrix,
    identity,
    inverse,
    power,
    rep_from_bundle,
    stratum,
    to_matrix,
)

__version__ = "0.1.0"

# every public name the imports above bring in, and nothing else
__all__ = sorted(
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
