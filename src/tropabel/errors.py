"""Exception hierarchy.

Every domain error raised by the library derives from TropabelError, and the
CLI has one failure rule: a TropabelError exits with its class's ``exit_code``
and reports its class name as the kind,

    2  validation / precondition violations (the default)
    3  resource bound exceeded (TooLarge)
    4  internal inconsistency, a mathematical invariant failed (InternalInconsistency)

and any other exception, a built-in ValueError too, is a fault of the program:
it exits 4 and reports its class name and the command.
"""


class TropabelError(Exception):
    """Base class for all library errors."""

    exit_code = 2


# -- scalars -----------------------------------------------------------------
# Each also derives from the built-in exception that Python raises for the
# same fault, so callers that catch the built-in keep working.

class NotExact(TropabelError, TypeError):
    """A float, a boolean or another type where an exact rational (or an
    integer exponent) is required, or a value that is not a sequence (or not a
    library value) where one is."""


class MalformedScalar(TropabelError, ValueError):
    """A rational string outside the grammar, or a magnitude or a modulus that
    is not positive."""


class ZeroDenominator(TropabelError, ZeroDivisionError):
    """A rational string "p/0"."""


class IrrationalRoot(TropabelError, ValueError):
    """A rational power of a monomial whose magnitude has no rational root,
    so the result is not in the monomial model."""


# -- exact-lattice -----------------------------------------------------------

class RankDeficient(TropabelError):
    """Generators are linearly dependent where full rank is required."""


class DimensionMismatch(TropabelError):
    """Vector/matrix shapes do not agree."""


class NotContained(TropabelError):
    """Expected one lattice to contain the other."""


class TooLarge(TropabelError):
    """An enumeration exceeded its size bound."""

    exit_code = 3


class SingularLattice(TropabelError):
    """A lattice basis is singular."""


# -- pairings ----------------------------------------------------------------

class NotInLargeLattice(TropabelError):
    """A pairing argument has a non-integral image under the class matrix."""


class NotInSmallLattice(TropabelError):
    """Argument must lie in the symmetry lattice."""


class InvalidClass(TropabelError):
    """Matrix is not a valid class for the given torus."""


# -- tropical bundles --------------------------------------------------------

class AmbientMismatch(TropabelError):
    """Operands live on different ambient tori."""


class LatticeMismatch(TropabelError):
    """Operands live on different cover lattices."""


class EmptyBundle(TropabelError):
    """Operation undefined for the rank-zero bundle."""


class NotCompatible(TropabelError):
    """Bundle is not compatible with the given sublattice."""


class SlopeMismatch(TropabelError):
    """Bundle slope differs from the supplied class."""


class MixedClasses(TropabelError):
    """Moduli points belong to different (gamma, class) pairs."""


# -- tropical linear groups --------------------------------------------------

class SizeMismatch(TropabelError):
    """Group elements have different ranks."""


class NotInvertible(TropabelError):
    """Min-plus matrix is not a generalized permutation matrix."""


class NotCommuting(TropabelError):
    """Representation images do not commute."""


# -- non-Archimedean side ----------------------------------------------------

class NotInLattice(TropabelError):
    """Vector is not an element of the required sublattice."""


class NotAdmissible(TropabelError):
    """Sublattice is not admissible for the given class."""


class InternalInconsistency(TropabelError):
    """A structural invariant failed; indicates a bug, not bad input."""

    exit_code = 4
