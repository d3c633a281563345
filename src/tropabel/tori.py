"""Tropical and non-Archimedean tori and the lattices a class matrix H cuts out.

A torus is presented by its period lattice: either just tropically (positions
of the g lattice generators in N_R) or multiplicatively (g points of (K*)^g in
the monomial model).  A class is a rational g x g matrix H whose column j is
the image of the j-th lattice generator in character coordinates; this module
holds what the bundle and representation calculus reads of it — whether V^T H
is symmetric, where H is integral, and the dual-side lattices — while the
class itself, with its pairings and defect group, is ``nspairings.NSClass``.
"""

from __future__ import annotations

from functools import cached_property
from typing import Sequence, Union

from . import monomials  # a module, so that only a multiplicative torus loads it
from ._frozen import Frozen
from .errors import DimensionMismatch, SingularLattice
from .lattices import QLattice, Sublattice
from .linalg import Mat, congruence_lattice
from .rationals import as_tuple, check_types, over_one_denominator


class TropTorus(Frozen):
    """Real torus N_R/Lambda; column j of v = position of generator j in N_Q."""

    v: Mat

    def __post_init__(self):
        v = self.v
        check_types((v,), (Mat,))
        if v.n != v.m:
            raise DimensionMismatch("period matrix must be square")
        if v.n == 0:
            raise DimensionMismatch("a torus needs at least one period generator")
        # the Bareiss determinant of the integer numerator, zero exactly when det(v) is
        if v._eliminate([()] * v.n)[0] == 0:
            raise SingularLattice("period matrix must be nonsingular")

    @property
    def g(self) -> int:
        return self.v.n


class NATorus(Frozen):
    """Multiplicative torus (K*)^g / Lambda with monomial period generators."""

    generators: tuple[monomials.MultiplicativePoint, ...]

    def __post_init__(self):
        generators = as_tuple(self.generators, "MultiplicativePoints")
        check_types(generators, (monomials.MultiplicativePoint,) * len(generators))
        object.__setattr__(self, "generators", generators)
        self._checked()

    def _checked(self) -> "NATorus":
        """This torus, after the checks of its values: every generator has g
        coordinates, and the valuation matrix is a ``TropTorus`` period matrix."""
        g = len(self.generators)
        if any(p.g != g for p in self.generators):
            raise DimensionMismatch("generator coordinates must have length g")
        # rank and nonsingularity are those of the valuation matrix
        self._trop
        return self

    @property
    def g(self) -> int:
        return len(self.generators)

    @cached_property
    def v(self) -> Mat:
        # column j = valuations of generator j's coordinates, read row by row
        # as integers over their lcm, which leaves no common factor
        g = self.g
        rows = zip(*(p.coords for p in self.generators))
        num, den = over_one_denominator([c.valuation() for row in rows for c in row])
        return Mat._from_valid(tuple(tuple(num[i * g : i * g + g]) for i in range(g)), den)

    def trop(self) -> TropTorus:
        return self._trop

    @cached_property
    def _trop(self) -> TropTorus:
        return TropTorus(self.v)

    def embed(self, a: Sequence[int]) -> monomials.MultiplicativePoint:
        """The period-lattice point with integer coordinates a: coordinate k is
        the character a evaluated at the k-th coordinates of the generators."""
        cols = zip(*(gen.coords for gen in self.generators))
        point = monomials.MultiplicativePoint._from_valid
        return point(tuple(monomials.eval_character(point(c), a) for c in cols))


Torus = Union[TropTorus, NATorus]


def is_r_symmetric(h: Mat, v: Mat) -> bool:
    """Whether the real pairing V^T @ H is a symmetric matrix.

    V^T H is (V.num)^T H.num over the common factor V.den * H.den, so this
    compares integer dot products of columns of V.num and H.num, row by row.
    """
    check_types((h, v), (Mat, Mat))
    if len(v.num) != len(h.num):
        raise DimensionMismatch(f"cannot multiply {v.m}x{v.n} by {h.n}x{h.m}")
    g = v.m
    if g != h.m:
        return False
    rows = list(zip(v.num, h.num))
    for i in range(g):
        for j in range(i):
            d = 0
            for vr, hr in rows:
                d += vr[i] * hr[j] - vr[j] * hr[i]
            if d:
                return False
    return True


def integrality_lattice(h: Mat) -> Sublattice:
    """Sublattice of lattice vectors whose image under h is integral."""
    check_types((h,), (Mat,))
    return Sublattice._from_hermite(congruence_lattice(h.num, h.den))


def dual_integrality_lattice(h: Mat) -> Sublattice:
    """Sublattice of character-dual vectors n with h^T @ n integral."""
    check_types((h,), (Mat,))
    return integrality_lattice(h.T)


def extended_character_lattice(h: Mat) -> QLattice:
    """The character lattice enlarged by the image of h (full period lattice):
    the column span of [I | h] = [den I | num] / den, which is Z^g when h is
    integral, as [I | h] then holds I."""
    check_types((h,), (Mat,))
    if h.den == 1:
        return QLattice.standard(h.n)
    rows = [[h.den if i == j else 0 for j in range(h.n)] + list(r) for i, r in enumerate(h.num)]
    return QLattice(Mat._from_int(rows, h.den))
