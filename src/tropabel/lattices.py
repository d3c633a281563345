"""Finite-index sublattices of Z^g and rational lattices in Q^g.

Sublattice bases are kept in the canonical column Hermite form from
``linalg``, so two Sublattice values are equal exactly when they describe the
same subgroup of Z^g; a basis already in that form is recognised and kept.
Every question about the basis B is answered from its adjugate, computed once
per lattice by integer forward substitution: the coordinates of w / m are
adj(B) w / (det(B) m), membership is their integrality, and box
representatives are their floors, one integer pass over a batch of vectors
that also hands back the coordinates of the lattice vector that moved each
(the tests hold its reference, a ``Fraction`` solve and floor).
Sum and intersection are the diagonal blocks of one Hermite form.  A
``QLattice`` is a Sublattice scaled by 1/den and reduces through the same
pass.  Quotients by finite-index sublattices and their subgroups are the
finite side, in ``groups``; ``SUBGROUP_ENUMERATION_BOUND``, the default
budget of its subgroup walk, stays here, where the CLI reads it without
loading that module.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Sequence

from ._frozen import Frozen
from .errors import DimensionMismatch, NotContained, NotExact, RankDeficient, SingularLattice
from .linalg import IntRows, Mat, _common_length, column_hnf
from .rationals import as_int, as_tuple, exact_over_one_denominator

SUBGROUP_ENUMERATION_BOUND = 10_000


def _ints(x) -> tuple[int, ...]:
    """x as a tuple of ints, read by ``as_int``; ``NotExact`` otherwise."""
    return tuple(as_int(c, NotExact) for c in as_tuple(x, "integers"))


def _int_rows(x) -> tuple[tuple[int, ...], ...]:
    return tuple(map(_ints, as_tuple(x, "integer rows")))


def _is_hermite(rows: Sequence[Sequence[int]]) -> bool:
    """Whether a nonempty square integer basis is already in canonical Hermite
    form: lower-triangular, positive diagonal, and the entries left of the
    diagonal in [0, diagonal).  The form is unique, so ``column_hnf`` would
    return such a basis unchanged."""
    return bool(rows) and all(
        row[i] > 0 and all(0 <= x < row[i] for x in row[:i]) and not any(row[i + 1 :])
        for i, row in enumerate(rows)
    )


def _int_matrix(rows: Iterable[Iterable]) -> IntRows:
    """The rows with every entry read by ``as_int``: ``NotContained`` for an entry
    that is not an int (nor a bool) or an integral Fraction."""
    return [[as_int(x, NotContained) for x in row] for row in rows]


def _hermite_basis(rows: Sequence[Sequence[int]], error: type[Exception]) -> IntRows:
    """The Hermite basis of the column span of a g x n integer matrix: the
    matrix itself when canonical, else the first g columns of one column_hnf;
    ``error`` unless the columns span a full-rank lattice of Z^g."""
    g, n = len(rows), len(rows[0]) if rows else 0
    if n == g and _is_hermite(rows):
        return rows
    if 0 < g <= n:
        h = column_hnf(rows)
        # at full rank the first g columns, pivots on the diagonal, are the basis
        if all(h[i][i] for i in range(g)):
            return [row[:g] for row in h]
    raise error("the columns do not span a full-rank lattice")


class Sublattice(Frozen):
    """Finite-index sublattice of Z^g, stored by its Hermite basis.

    ``basis[i][j]`` is the i-th coordinate of the j-th basis vector; the basis
    matrix is lower-triangular with positive diagonal.
    """

    basis: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        rows = [as_tuple(row, "integers") for row in as_tuple(self.basis, "basis rows")]
        if any(len(row) != len(rows) for row in rows):
            raise DimensionMismatch("a lattice basis must be square")
        object.__setattr__(self, "basis", _int_matrix(rows))
        self._checked()

    def _checked(self) -> "Sublattice":
        """This lattice with its basis in Hermite form; ``RankDeficient`` unless of full rank."""
        basis = _hermite_basis(self.basis, RankDeficient)
        object.__setattr__(self, "basis", tuple(map(tuple, basis)))
        return self

    @classmethod
    def _from_hermite(cls, rows: Sequence[Sequence[int]]) -> "Sublattice":
        """The lattice of a basis already in canonical Hermite form."""
        return cls._from_valid(tuple(map(tuple, rows)))

    @classmethod
    def from_generators(cls, gens: Sequence[Sequence[int]]) -> "Sublattice":
        """Lattice spanned by the given vectors (nonempty, of one length, full rank).
        Most pullback lattices arrive as a Hermite basis, kept as is."""
        _common_length(gens, "generators")
        return cls._from_hermite(_hermite_basis(_int_matrix(zip(*gens)), SingularLattice))

    @classmethod
    def full(cls, g: int) -> "Sublattice":
        return cls._from_hermite([[1 if i == j else 0 for j in range(g)] for i in range(g)])

    # -- structure -----------------------------------------------------------

    def __repr__(self) -> str:
        return f"Sublattice({[list(r) for r in self.basis]})"

    @property
    def ambient_rank(self) -> int:
        return len(self.basis)

    @cached_property
    def mat(self) -> Mat:
        return Mat._from_int(self.basis)

    @property
    def index(self) -> int:
        """Index in Z^g: the product of the Hermite diagonal."""
        return math.prod(row[i] for i, row in enumerate(self.basis))

    def generators(self) -> list[tuple[int, ...]]:
        return list(zip(*self.basis))

    def is_full(self) -> bool:
        return self.index == 1

    # -- membership and coordinates ------------------------------------------

    def coordinates(self, v: Sequence[int | Fraction]) -> tuple[int | Fraction, ...]:
        """Coordinates adj(B) w / (det(B) m) of v = w / m, each an int where exact and
        a Fraction elsewhere; NotExact for an entry not an int (nor a bool) or a Fraction."""
        return self._coordinates(*exact_over_one_denominator(v))

    def _coordinates(self, w: Sequence[int], m: int) -> tuple[int | Fraction, ...]:
        """``coordinates`` of w / m for integer numerators w over m > 0, unchecked."""
        g = len(self.basis)
        if len(w) != g:
            raise DimensionMismatch(f"expected a vector of length {g}")
        d, adj = self._adjugate
        dm = d * m
        x = [sum(map(operator.mul, row, w)) for row in adj]
        return tuple([y // dm if y % dm == 0 else Fraction(y, dm) for y in x])

    def contains(self, v: Sequence[int | Fraction]) -> bool:
        return all(type(c) is int for c in self.coordinates(v))

    def contains_lattice(self, other: "Sublattice") -> bool:
        return all(type(c) is int for b in other.generators() for c in self._coordinates(b, 1))

    def __le__(self, other: "Sublattice") -> bool:
        return other.contains_lattice(self)

    def reduce(self, v: Sequence[int | Fraction]) -> tuple[int | Fraction, ...]:
        """The representative of v whose coordinates lie in [0,1)^g."""
        return self.reduce_all([v])[0]

    def reduce_all(
        self, vectors: Iterable[Sequence[int | Fraction]]
    ) -> list[tuple[int | Fraction, ...]]:
        """The representative of each vector whose coordinates lie in [0,1)^g;
        ints for an integer vector, Fractions otherwise."""
        return [
            tuple(r) if m == 1 else tuple(Fraction(x, m) for x in r)
            for r, m, _ in self._reduce_num(map(exact_over_one_denominator, vectors))
        ]

    @cached_property
    def _adjugate(self) -> tuple[int, IntRows]:
        """(det B, adj B) of the Hermite basis B, once per lattice; every solve
        with B reads it.  Column j of adj B solves B x = det(B) e_j by integer
        forward substitution: B is lower-triangular, so x_i = 0 for i < j, and
        every division is exact because adj B is an integer matrix."""
        basis = self.basis
        g = len(basis)
        d = self.index
        adj = [[0] * g for _ in range(g)]
        for j in range(g):
            adj[j][j] = d // basis[j][j]
            for i in range(j + 1, g):
                row = basis[i]
                adj[i][j] = -sum(row[t] * adj[t][j] for t in range(j, i)) // row[i]
        return d, adj

    def _reduce_num(
        self, pairs: Iterable[tuple[Sequence[int], int]]
    ) -> list[tuple[list[int], int, list[int]]]:
        """(r, m, k) per pair (w, m) of integer numerators w and a denominator
        m > 0, with r / m the representative of w / m whose coordinates lie in
        [0,1)^g and k the coordinates of w / m - r / m, the lattice vector that
        takes one to the other, in one integer pass.  The one reducer:
        ``reduce_all`` and ``QLattice._reduce_num`` convert their input once
        and call it.

        With B the Hermite basis, the coordinates of w / m are
        adj(B) w / (det(B) m), so their floor is k = (adj(B) w) // (det(B) m)
        and r = w - m B k.  adj(B) is the lattice's cached ``_adjugate``.
        """
        basis = self.basis
        g = len(basis)
        d, adj = self._adjugate
        out = []
        for w, m in pairs:
            if len(w) != g:
                raise DimensionMismatch(f"expected a vector of length {g}")
            dm = d * m
            k = [sum(map(operator.mul, row, w)) // dm for row in adj]
            r = [x - m * sum(map(operator.mul, row, k)) for x, row in zip(w, basis)]
            out.append((r, m, k))
        return out

    # -- arithmetic -----------------------------------------------------------

    def intersect(self, other: "Sublattice") -> "Sublattice":
        """Intersection, a block of one Hermite pass: ``_sum_and_intersection``."""
        return _sum_and_intersection(self, other)[1]

    def sum(self, other: "Sublattice") -> "Sublattice":
        return Sublattice.from_generators(self.generators() + other.generators())

    def __and__(self, other: "Sublattice") -> "Sublattice":
        return self.intersect(other)

    def __add__(self, other: "Sublattice") -> "Sublattice":
        return self.sum(other)

    def scaled(self, c: int) -> "Sublattice":
        return Sublattice.from_generators([tuple(c * x for x in gen) for gen in self.generators()])


def _sum_and_intersection(a: Sublattice, b: Sublattice) -> tuple[Sublattice, Sublattice]:
    """(L1 + L2, L1 ∩ L2): the upper-left and lower-right blocks of the column
    Hermite form of [[A, B], [A, 0]] (Zassenhaus), whose columns span the
    (A x + B y, A x); the columns zero on top (A x = -B y, in L2) hold L1 ∩ L2."""
    g = a.ambient_rank
    if b.ambient_rank != g:
        raise DimensionMismatch(f"cannot intersect ranks {g} and {b.ambient_rank}")
    zero = (0,) * g
    h = column_hnf([x + y for x, y in zip(a.basis, b.basis)] + [x + zero for x in a.basis])
    upper, lower = [row[:g] for row in h[:g]], [row[g:] for row in h[g:]]
    return Sublattice._from_hermite(upper), Sublattice._from_hermite(lower)


# ---------------------------------------------------------------------------
# Rational lattices
# ---------------------------------------------------------------------------


class QLattice(Frozen):
    """Full-rank lattice L in Q^g, kept as the Sublattice den * L of Z^g, where
    den, the least common denominator of L's coordinates, is an invariant of L
    (the lowest-terms denominator of any basis of L)."""

    den: int
    lattice: Sublattice

    def __init__(self, basis: Mat):
        """The lattice spanned by the columns of ``basis``."""
        if not isinstance(basis, Mat):
            raise NotExact(f"a QLattice is spanned by the columns of a Mat, got {basis!r}")
        object.__setattr__(self, "den", basis.den)
        object.__setattr__(self, "lattice", Sublattice.from_generators(list(zip(*basis.num))))

    @classmethod
    def from_generators(cls, gens: Sequence[Sequence[Fraction]]) -> "QLattice":
        return cls(Mat.from_cols(gens))

    @classmethod
    def standard(cls, g: int) -> "QLattice":
        return cls(Mat.identity(g))

    def __repr__(self) -> str:
        return f"QLattice({self.basis!r})"

    @property
    def basis(self) -> Mat:
        return Mat._from_int(self.lattice.basis, self.den)

    @property
    def covolume(self) -> Fraction:
        return Fraction(self.lattice.index, self.den**self.lattice.ambient_rank)

    def contains(self, v: Sequence[Fraction]) -> bool:
        w, m = exact_over_one_denominator(v)
        return all(type(c) is int for c in self.lattice._coordinates([self.den * x for x in w], m))

    def reduce(self, v: Sequence[Fraction]) -> tuple[Fraction, ...]:
        """The representative of v whose coordinates lie in [0,1)^g."""
        return self.reduce_all([v])[0]

    def reduce_all(self, vectors: Iterable[Sequence[Fraction]]) -> list[tuple[Fraction, ...]]:
        """The representative of each vector whose coordinates lie in [0,1)^g."""
        return [
            tuple(Fraction(x, m) for x in r)
            for r, m, _ in self._reduce_num(map(exact_over_one_denominator, vectors))
        ]

    def _reduce_num(
        self, pairs: Iterable[tuple[Sequence[int], int]]
    ) -> list[tuple[list[int], int, list[int]]]:
        """(r, m * den, k) per pair (w, m) of integer numerators w and a
        denominator m > 0, with r / (m * den) the representative of w / m whose
        coordinates lie in [0,1)^g and k the coordinates of their difference,
        in one integer pass: v reduced modulo L is den * v reduced modulo
        den * L, over den, and both bases have the same coordinates."""
        den = self.den
        reduced = self.lattice._reduce_num(([den * x for x in w], m) for w, m in pairs)
        return [(r, m * den, k) for r, m, k in reduced]

    def index_over(self, sub: "QLattice") -> Fraction:
        """[self : sub] for sub contained in self."""
        if sub.lattice.ambient_rank != self.lattice.ambient_rank:
            raise DimensionMismatch("lattices of different ranks have no index")
        return sub.covolume / self.covolume


def __getattr__(name: str):
    # bench/tracer.py wraps lattices.quotient and lattices.enumerate_subgroups by
    # these names; both live in groups, which is loaded only when one is asked for
    if name in ("quotient", "enumerate_subgroups"):
        from . import groups

        return getattr(groups, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
