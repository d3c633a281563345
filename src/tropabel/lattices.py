"""Finite-index sublattices of Z^g and rational lattices in Q^g.

Sublattice bases are kept in the canonical column Hermite form from
``linalg``, so two Sublattice values are equal exactly when they describe the
same subgroup of Z^g.  Quotients by finite-index sublattices come back as
``FiniteAbelianGroup`` values carrying invariant factors, generator lifts and
the projection map, which is everything the pairing machinery downstream
needs.  ``enumerate_subgroups`` lists the subgroups of such a group that have a
given order; admissible covers correspond to the Lagrangian (isotropic of
order sqrt|D|) subgroups of a defect group D.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Sequence

from .errors import NotContained, SingularLattice, TooLarge
from .linalg import Mat, column_hnf, hnf, kernel_columns, snf
from .rationals import lcm_denominator, rat

SUBGROUP_ENUMERATION_BOUND = 10_000


def _as_int_vec(v: Sequence[int | Fraction]) -> tuple[int, ...]:
    out = []
    for x in v:
        f = rat(x)
        if f.denominator != 1:
            raise NotContained(f"{f} is not an integer coordinate")
        out.append(int(f))
    return tuple(out)


class Sublattice:
    """Finite-index sublattice of Z^g, stored by its Hermite basis.

    ``basis[i][j]`` is the i-th coordinate of the j-th basis vector; the basis
    matrix is lower-triangular with positive diagonal.
    """

    def __init__(self, basis_rows: Sequence[Sequence[int]]):
        g = len(basis_rows)
        rows, _ = hnf([[int(x) for x in row] for row in basis_rows])
        if any(rows[i][i] <= 0 for i in range(g)):
            raise SingularLattice("basis does not have full rank")
        self.ambient_rank = g
        self.basis = tuple(tuple(row) for row in rows)

    @classmethod
    def from_generators(cls, gens: Sequence[Sequence[int]]) -> "Sublattice":
        """Lattice spanned by the given vectors (must have full rank)."""
        g = len(gens[0])
        cols = [_as_int_vec(v) for v in gens]
        h, _ = column_hnf([[c[i] for c in cols] for i in range(g)])
        nonzero = [j for j in range(len(cols)) if any(h[i][j] for i in range(g))]
        if len(nonzero) != g:
            raise SingularLattice("generators do not span a full-rank lattice")
        return cls([[h[i][j] for j in nonzero] for i in range(g)])

    @classmethod
    def full(cls, g: int) -> "Sublattice":
        return cls([[1 if i == j else 0 for j in range(g)] for i in range(g)])

    # -- structure -----------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Sublattice) and self.basis == other.basis

    def __hash__(self) -> int:
        return hash(self.basis)

    def __repr__(self) -> str:
        return f"Sublattice({[list(r) for r in self.basis]})"

    @cached_property
    def mat(self) -> Mat:
        return Mat(self.basis)

    @cached_property
    def mat_inv(self) -> Mat:
        return self.mat.inv()

    @property
    def index(self) -> int:
        """Index in Z^g: the product of the Hermite diagonal."""
        return math.prod(self.basis[i][i] for i in range(self.ambient_rank))

    def generators(self) -> list[tuple[int, ...]]:
        return [tuple(row[j] for row in self.basis) for j in range(self.ambient_rank)]

    def is_full(self) -> bool:
        return self.index == 1

    # -- membership and coordinates ------------------------------------------

    def coordinates(self, v: Sequence[int | Fraction]) -> tuple[Fraction, ...]:
        """Coordinates of v in this basis (rational for rational input)."""
        return self.mat_inv.mul_vec(tuple(rat(x) for x in v))

    def contains(self, v: Sequence[int | Fraction]) -> bool:
        return all(c.denominator == 1 for c in self.coordinates(v))

    def contains_lattice(self, other: "Sublattice") -> bool:
        return all(self.contains(gen) for gen in other.generators())

    def __le__(self, other: "Sublattice") -> bool:
        return other.contains_lattice(self)

    # -- arithmetic -----------------------------------------------------------

    def intersect(self, other: "Sublattice") -> "Sublattice":
        """Intersection, computed from the integer kernel of [A | -B]."""
        g = self.ambient_rank
        wide = [list(self.basis[i]) + [-x for x in other.basis[i]] for i in range(g)]
        gens = []
        for col in kernel_columns(wide):
            x = col[:g]
            gens.append(tuple(sum(self.basis[i][j] * x[j] for j in range(g)) for i in range(g)))
        return Sublattice.from_generators(gens)

    def sum(self, other: "Sublattice") -> "Sublattice":
        return Sublattice.from_generators(self.generators() + other.generators())

    def __and__(self, other: "Sublattice") -> "Sublattice":
        return self.intersect(other)

    def __add__(self, other: "Sublattice") -> "Sublattice":
        return self.sum(other)

    def scaled(self, c: int) -> "Sublattice":
        return Sublattice.from_generators([tuple(c * x for x in gen) for gen in self.generators()])


@dataclass(frozen=True)
class FiniteAbelianGroup:
    """Quotient of a lattice by a finite-index sublattice.

    invariant_factors: the d_i > 1 with d_1 | d_2 | ...; the group is
    the direct sum of Z/d_i. generator_lifts are ambient integer vectors
    mapping to generators of the cyclic factors.
    """

    invariant_factors: tuple[int, ...]
    generator_lifts: tuple[tuple[int, ...], ...]
    _proj: Mat = field(repr=False)
    _moduli: tuple[int, ...] = field(repr=False)

    @property
    def order(self) -> int:
        return math.prod(self.invariant_factors)

    def project(self, v: Sequence[int | Fraction]) -> tuple[int, ...]:
        """Coordinates of the class of v, one entry per invariant factor."""
        x = self._proj.mul_vec(tuple(rat(c) for c in v))
        if any(c.denominator != 1 for c in x):
            raise NotContained("vector is not in the numerator lattice")
        full = [int(c) % d for c, d in zip(x, self._moduli)]
        return tuple(full[i] for i in range(len(full)) if self._moduli[i] > 1)

    def lift(self, e: Sequence[int]) -> tuple[int, ...]:
        """An ambient representative of the element with coordinates e."""
        g = len(self._proj.entries)
        out = [0] * g
        for c, gen in zip(e, self.generator_lifts):
            for i in range(g):
                out[i] += c * gen[i]
        return tuple(out)

    def elements(self) -> list[tuple[int, ...]]:
        return list(itertools.product(*(range(d) for d in self.invariant_factors)))


def quotient(ambient: Sublattice, sub: Sublattice) -> FiniteAbelianGroup:
    """The finite group ambient/sub, with generator lifts in Z^g coordinates."""
    if not ambient.contains_lattice(sub):
        raise NotContained("quotient requires the second lattice inside the first")
    g = ambient.ambient_rank
    c = ambient.mat_inv @ sub.mat
    u, d, w = snf(c.int_rows())
    diag = [d[i][i] for i in range(g)]
    u_inv = Mat(u).inv()
    lift_cols = ambient.mat @ u_inv
    kept = [i for i in range(g) if diag[i] > 1]
    lifts = tuple(tuple(int(lift_cols.entries[i][j]) for i in range(g)) for j in kept)
    proj = Mat(u) @ ambient.mat_inv
    return FiniteAbelianGroup(
        invariant_factors=tuple(diag[i] for i in kept),
        generator_lifts=lifts,
        _proj=proj,
        _moduli=tuple(diag),
    )


# ---------------------------------------------------------------------------
# Subgroup enumeration
# ---------------------------------------------------------------------------


def _divisors(n: int) -> list[int]:
    return [a for a in range(1, n + 1) if n % a == 0]


def _contains_diagonal(basis: Sequence[Sequence[int]], d: Sequence[int]) -> bool:
    """Whether the lower-triangular basis spans every d_j e_j, by integer
    forward substitution (the diagonal of ``basis`` divides ``d``)."""
    k = len(d)
    for j in range(k):
        x = [0] * k
        x[j] = d[j] // basis[j][j]
        for i in range(j + 1, k):
            x[i], r = divmod(-sum(basis[i][l] * x[l] for l in range(j, i)), basis[i][i])
            if r:
                return False
    return True


def enumerate_subgroups(
    group: FiniteAbelianGroup, order: int, bound: int = SUBGROUP_ENUMERATION_BOUND
) -> list[tuple[tuple[int, ...], ...]]:
    """All subgroups of the given order, each as a sorted Hermite basis.

    In the group's Smith coordinates, with invariant factors d, a subgroup is
    M / diag(d) Z^k for a lattice diag(d) Z^k <= M <= Z^k of index
    |G| / order.  M is returned as its lower-triangular Hermite basis
    (``basis[i][j]`` is the i-th coordinate of the j-th column, entries left
    of the diagonal reduced into range(basis[i][i])); its columns generate
    the subgroup.  Raises TooLarge when the group order exceeds ``bound``.
    """
    if group.order > bound:
        raise TooLarge(f"group of order {group.order} exceeds enumeration bound {bound}")
    d = group.invariant_factors
    k = len(d)
    if group.order % order:
        return []
    index = group.order // order
    below = [(i, j) for i in range(k) for j in range(i)]
    found = []
    for diag in itertools.product(*(_divisors(x) for x in d)):
        if math.prod(diag) != index:
            continue
        for entries in itertools.product(*(range(diag[i]) for i, _ in below)):
            basis = [[diag[i] if i == j else 0 for j in range(k)] for i in range(k)]
            for (i, j), x in zip(below, entries):
                basis[i][j] = x
            if _contains_diagonal(basis, d):
                found.append(tuple(tuple(row) for row in basis))
    return sorted(found)


# ---------------------------------------------------------------------------
# Rational lattices and box reduction
# ---------------------------------------------------------------------------


def reduce_mod_lattice(
    v: Sequence[int | str | Fraction], basis: Mat
) -> tuple[Fraction, ...]:
    """The representative of v modulo the column lattice of ``basis`` whose
    coordinate vector in that basis lies in [0,1)^g."""
    if basis.n != basis.m or basis.det() == 0:
        raise SingularLattice("lattice basis must be square and nonsingular")
    w = tuple(rat(x) for x in v)
    coords = basis.solve(w)
    k = [math.floor(c) for c in coords]
    shift = basis.mul_vec(tuple(Fraction(x) for x in k))
    return tuple(a - b for a, b in zip(w, shift))


class QLattice:
    """Full-rank lattice in Q^g, canonicalized by a scaled Hermite basis."""

    __slots__ = ("basis",)

    def __init__(self, basis: Mat):
        self.basis = basis

    @classmethod
    def from_generators(cls, gens: Sequence[Sequence[Fraction]]) -> "QLattice":
        g = len(gens[0])
        cols = [tuple(rat(x) for x in v) for v in gens]
        den = lcm_denominator([x for col in cols for x in col])
        int_rows = [[int(col[i] * den) for col in cols] for i in range(g)]
        h, _ = column_hnf(int_rows)
        nonzero = [j for j in range(len(cols)) if any(h[i][j] for i in range(g))]
        if len(nonzero) != g:
            raise SingularLattice("generators do not span a full-rank lattice")
        basis = Mat([[Fraction(h[i][j], den) for j in nonzero] for i in range(g)])
        return cls(basis)

    @classmethod
    def standard(cls, g: int) -> "QLattice":
        return cls(Mat.identity(g))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, QLattice) and self.basis == other.basis

    def __hash__(self) -> int:
        return hash(self.basis)

    def __repr__(self) -> str:
        return f"QLattice({self.basis!r})"

    @property
    def covolume(self) -> Fraction:
        return abs(self.basis.det())

    def contains(self, v: Sequence[Fraction]) -> bool:
        return all(c.denominator == 1 for c in self.basis.solve(tuple(rat(x) for x in v)))

    def reduce(self, v: Sequence[Fraction]) -> tuple[Fraction, ...]:
        return reduce_mod_lattice(v, self.basis)

    def index_over(self, sub: "QLattice") -> Fraction:
        """[self : sub] for sub contained in self."""
        return sub.covolume / self.covolume
