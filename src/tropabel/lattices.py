"""Finite-index sublattices of Z^g and rational lattices in Q^g.

Sublattice bases are kept in the canonical column Hermite form from
``linalg``, so two Sublattice values are equal exactly when they describe the
same subgroup of Z^g; a basis already in that form is recognised and kept.
The basis is lower-triangular, so coordinates and membership come from one
integer forward substitution (``_forward_solve``).  Sum and intersection are
the diagonal blocks of one Hermite form.  Box representatives come from one
integer pass over a batch of vectors: one adjugate of the Hermite basis and a
floor division per coordinate.  A ``QLattice`` is a Sublattice scaled by 1/den
and reduces through the same pass.  Quotients by finite-index sublattices come
back as ``FiniteAbelianGroup`` values carrying invariant factors, generator
lifts and the projection map, which is everything the pairing machinery
downstream needs.  ``enumerate_subgroups`` lists the subgroups of such a group
that have a given order, by a walk over Hermite bases that checks each new
column in integers and abandons a failing branch; given an alternating form it
keeps only the isotropic subgroups, so the admissible covers, which correspond
to the Lagrangian (isotropic of order sqrt|D|) subgroups of a defect group D,
come out of the walk directly.  The walk charges its work to one budget of
steps as it goes and raises ``TooLarge`` when the budget runs out.
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Sequence

from ._frozen import Frozen
from .errors import (
    DimensionMismatch,
    MalformedScalar,
    NotContained,
    NotExact,
    RankDeficient,
    SingularLattice,
    TooLarge,
)
from .linalg import IntRows, Mat, _common_length, column_hnf, snf
from .rationals import as_int, as_tuple, over_one_denominator, rat

SUBGROUP_ENUMERATION_BOUND = 10_000


def _forward_solve(basis: Sequence[Sequence[int]], v: Sequence) -> tuple[int | Fraction, ...]:
    """x with basis @ x = v for a lower-triangular integer basis, by forward substitution;
    x_i is an int where the division is exact and a Fraction where it is not."""
    x: list[int | Fraction] = []
    for i, row in enumerate(basis):
        r = v[i] - sum(row[j] * x[j] for j in range(i))
        if type(r) is int:
            q, m = divmod(r, row[i])
            x.append(Fraction(r, row[i]) if m else q)
        else:
            x.append(r / row[i])
    return tuple(x)


def _is_integral(x: Sequence[int | Fraction]) -> bool:
    return all(c.denominator == 1 for c in x)


def _is_hermite(rows: Sequence[Sequence[int]]) -> bool:
    """Whether a nonempty square integer basis is already in canonical Hermite
    form: lower-triangular, positive diagonal, and the entries left of the
    diagonal in [0, diagonal).  The form is unique, so ``column_hnf`` would
    return such a basis unchanged."""
    return bool(rows) and all(
        row[i] > 0 and all(0 <= x < row[i] for x in row[:i]) and not any(row[i + 1 :])
        for i, row in enumerate(rows)
    )


def _hermite_basis(rows: Iterable[Iterable], error: type[Exception]) -> IntRows:
    """The Hermite basis of the column span of a g x n matrix read by ``as_int``:
    the matrix itself when canonical, else the first g columns of one column_hnf;
    ``error`` unless the columns span a full-rank lattice of Z^g."""
    rows = [[as_int(x, NotContained) for x in row] for row in rows]
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
        g = len(rows)
        if any(len(row) != g for row in rows):
            raise DimensionMismatch("a lattice basis must be square")
        object.__setattr__(self, "basis", tuple(map(tuple, _hermite_basis(rows, RankDeficient))))

    @classmethod
    def _from_hermite(cls, rows: Sequence[Sequence[int]]) -> "Sublattice":
        """The lattice of a basis already in canonical Hermite form."""
        return cls._from_valid(tuple(map(tuple, rows)))

    @classmethod
    def from_generators(cls, gens: Sequence[Sequence[int]]) -> "Sublattice":
        """Lattice spanned by the given vectors (nonempty, of one length, full rank).
        Most covers and pullback lattices arrive as a Hermite basis, kept as is."""
        _common_length(gens, "generators")
        return cls._from_hermite(_hermite_basis(zip(*gens), SingularLattice))

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
        """Coordinates of v in this basis (rational where v is off the lattice)."""
        if len(v) != len(self.basis):
            raise DimensionMismatch(f"expected a vector of length {self.ambient_rank}")
        return _forward_solve(self.basis, v)

    def contains(self, v: Sequence[int | Fraction]) -> bool:
        return _is_integral(self.coordinates(v))

    def contains_lattice(self, other: "Sublattice") -> bool:
        return all(self.contains(gen) for gen in other.generators())

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
            for r, m in self._reduce_num(map(over_one_denominator, vectors))
        ]

    def _reduce_num(
        self, pairs: Iterable[tuple[Sequence[int], int]]
    ) -> list[tuple[list[int], int]]:
        """(r, m) per pair (w, m) of integer numerators w and a denominator m > 0,
        with r / m the representative of w / m whose coordinates lie in [0,1)^g,
        in one integer pass.  The one reducer: ``reduce_all`` and
        ``QLattice._reduce_num`` convert their input once and call it.

        With B the Hermite basis, the coordinates of w / m are
        adj(B) w / (det(B) m), so their floor is k = (adj(B) w) // (det(B) m)
        and r = w - m B k.  adj(B) comes from one elimination for the batch.
        """
        basis = self.basis
        g = len(basis)
        d, adj = self.mat._eliminate([[int(i == j) for j in range(g)] for i in range(g)])
        out = []
        for w, m in pairs:
            if len(w) != g:
                raise DimensionMismatch(f"expected a vector of length {g}")
            dm = d * m
            k = [sum(a * x for a, x in zip(row, w)) // dm for row in adj]
            r = [x - m * sum(b * c for b, c in zip(row, k)) for x, row in zip(w, basis)]
            out.append((r, m))
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


class FiniteAbelianGroup(Frozen):
    """Quotient of a lattice by a finite-index sublattice.

    invariant_factors: the d_i > 1 with d_1 | d_2 | ...; the group is
    the direct sum of Z/d_i. generator_lifts are ambient integer vectors
    mapping to generators of the cyclic factors; with the private _trivial,
    the adapted basis vectors of the factors d_i = 1, they form a basis of
    the ambient lattice.
    """

    invariant_factors: tuple[int, ...]
    generator_lifts: tuple[tuple[int, ...], ...]
    _ambient: Sublattice
    _u: tuple[tuple[int, ...], ...]
    _moduli: tuple[int, ...]
    _trivial: tuple[tuple[int, ...], ...]

    @property
    def order(self) -> int:
        return math.prod(self.invariant_factors)

    def project(self, v: Sequence[int | Fraction]) -> tuple[int, ...]:
        """Coordinates of the class of v, one entry per invariant factor:
        U times the integer coordinates of v in the ambient basis."""
        x = self._ambient.coordinates(v)
        if not _is_integral(x):
            raise NotContained("vector is not in the numerator lattice")
        rows = zip(self._u, self._moduli)
        return tuple(sum(a * int(c) for a, c in zip(row, x)) % d for row, d in rows if d > 1)

    def lift(self, e: Sequence[int]) -> tuple[int, ...]:
        """An ambient representative of the element with coordinates e."""
        if len(e) != len(self.generator_lifts):
            raise DimensionMismatch(f"expected an element of length {len(self.generator_lifts)}")
        g = self._ambient.ambient_rank
        return tuple(sum(c * gen[i] for c, gen in zip(e, self.generator_lifts)) for i in range(g))

    def elements(self) -> list[tuple[int, ...]]:
        return list(itertools.product(*(range(d) for d in self.invariant_factors)))


def _smith_adapted(ambient: Sublattice, sub: Sublattice) -> tuple[IntRows, list[int], list]:
    """(U, d, A): the Smith form U C W = diag(d) of sub's coordinates C in ambient's
    basis B, and the basis A = B U^-1 of ambient, whose multiples d_j A_j span sub:
    A diag(d) = B U^-1 U C W = S W for sub's basis S = B C, so A_j = (S W)_j / d_j."""
    g = ambient.ambient_rank
    cols = [ambient.coordinates(gen) for gen in sub.generators()]
    if not all(_is_integral(col) for col in cols):
        raise NotContained("the second lattice is not inside the first")
    u, d, w = snf(list(zip(*cols)))
    adapted = [
        tuple(sum(s * w[k][j] for k, s in enumerate(row)) // d[j][j] for row in sub.basis)
        for j in range(g)
    ]
    return u, [d[i][i] for i in range(g)], adapted


def quotient(ambient: Sublattice, sub: Sublattice) -> FiniteAbelianGroup:
    """The finite group ambient/sub, with generator lifts in Z^g coordinates."""
    u, diag, adapted = _smith_adapted(ambient, sub)
    kept = [i for i, x in enumerate(diag) if x > 1]
    return FiniteAbelianGroup(
        invariant_factors=tuple(diag[i] for i in kept),
        generator_lifts=tuple(adapted[i] for i in kept),
        _ambient=ambient,
        _u=tuple(map(tuple, u)),
        _moduli=tuple(diag),
        _trivial=tuple(adapted[i] for i, x in enumerate(diag) if x == 1),
    )


# ---------------------------------------------------------------------------
# Subgroup enumeration
# ---------------------------------------------------------------------------


def _divisors(n: int) -> list[int]:
    """The divisors of n in increasing order, by trial division up to isqrt(n)."""
    low = [a for a in range(1, math.isqrt(n) + 1) if n % a == 0]
    return low + [n // a for a in reversed(low) if a * a != n]


def _in_span(v: list[int], cols: Sequence[Sequence[int]], start: int) -> bool:
    """Whether v, read from row ``start`` on, lies in the span of the
    lower-triangular columns cols[start:]: divmod forward substitution, which
    consumes v."""
    for i in range(start, len(v)):
        q, m = divmod(v[i], cols[i][i])
        if m:
            return False
        if q:
            for t in range(i + 1, len(v)):
                v[t] -= q * cols[i][t]
    return True


def enumerate_subgroups(
    group: FiniteAbelianGroup,
    order: int,
    bound: int = SUBGROUP_ENUMERATION_BOUND,
    form: tuple[Sequence[Sequence[int]], int] | None = None,
) -> list[tuple[tuple[int, ...], ...]]:
    """All subgroups of the given order, each as a sorted Hermite basis;
    with ``form = (F, den)``, an alternating integer form on the group's Smith
    coordinates, only the subgroups isotropic for u^T F v mod den.

    In the group's Smith coordinates, with invariant factors d, a subgroup is
    M / diag(d) Z^k for a lattice diag(d) Z^k <= M <= Z^k of index
    |G| / order.  M is returned as its lower-triangular Hermite basis
    (``basis[i][j]`` is the i-th coordinate of the j-th column, entries left
    of the diagonal reduced into range(basis[i][i])); its columns generate
    the subgroup.  The basis is built from its last column to its first;
    column j takes a diagonal entry c | d_j only when the index left to reach,
    divided by c, divides d_0 ... d_{j-1}, that is when the columns before it
    can still reach it.  Each new column is checked at once against the
    columns after it, in integers: d_j e_j must lie in their span (divmod
    forward substitution), and under ``form`` the column must pair to 0 with
    each of them.  A branch that fails is abandoned.  The work is charged to
    one budget of ``bound`` steps as it is done (isqrt(d_j) to list the
    divisors of d_j, one per candidate column tried); TooLarge is raised when
    the budget runs out.  An order or a bound that is not an integer raises
    NotExact, a form whose F is not k x k DimensionMismatch, and one whose den
    is not positive MalformedScalar.
    """
    order, bound = as_int(order, NotExact), as_int(bound, NotExact)
    d = group.invariant_factors
    k = len(d)
    if form is not None:
        f, den = form
        if len(f) != k or any(len(row) != k for row in f):
            raise DimensionMismatch(f"the form must be {k} x {k} on a group of rank {k}")
        if den < 1:
            raise MalformedScalar(f"the form's modulus must be positive, got {den}")
    if order < 1 or group.order % order:
        return []
    left = bound

    def spend(steps: int) -> None:
        nonlocal left
        left -= steps
        if left < 0:
            raise TooLarge(f"subgroup enumeration exceeds its bound of {bound} steps")

    spend(sum(map(math.isqrt, d)))
    divisors = [_divisors(x) for x in d]
    # reach[j] = d_0 ... d_{j-1}: the indices that columns 0..j-1 can reach are its divisors
    reach = list(itertools.accumulate(d, operator.mul, initial=1))
    found: list[tuple[tuple[int, ...], ...]] = []
    cols: list[tuple[int, ...]] = [()] * k
    images: list[list[int]] = [[]] * k  # F cols[i], under form = (F, den)

    def place(j: int, index: int) -> None:
        """Each column j that extends cols[j + 1:] toward the remaining index,
        then the columns before it; a complete basis goes to found as its rows."""
        if j < 0:
            found.append(tuple(zip(*cols)))
            return
        diag = [cols[i][i] for i in range(j + 1, k)]
        for c in divisors[j]:
            if index % c or reach[j] % (index // c):
                continue
            spend(math.prod(diag))
            x = d[j] // c
            for below in itertools.product(*map(range, diag)):
                col = (0,) * j + (c,) + below
                # d_j e_j = x * col - x * below lies in the span of cols[j:] exactly
                # when x * below, rows j + 1.. of x * col, lies in that of cols[j + 1:]
                if not _in_span([x * e for e in col], cols, j + 1):
                    continue
                if form is not None:
                    if any(sum(map(operator.mul, col, images[i])) % den for i in range(j + 1, k)):
                        continue
                    images[j] = [sum(map(operator.mul, row, col)) for row in f]
                cols[j] = col
                place(j - 1, index // c)

    place(k - 1, group.order // order)
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
    shift = basis.mul_vec(k)
    return tuple(a - b for a, b in zip(w, shift))


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
        return self.lattice.contains([x * self.den for x in v])

    def reduce(self, v: Sequence[Fraction]) -> tuple[Fraction, ...]:
        """The representative of v whose coordinates lie in [0,1)^g."""
        return self.reduce_all([v])[0]

    def reduce_all(self, vectors: Iterable[Sequence[Fraction]]) -> list[tuple[Fraction, ...]]:
        """The representative of each vector whose coordinates lie in [0,1)^g."""
        return [
            tuple(Fraction(x, m) for x in r)
            for r, m in self._reduce_num(map(over_one_denominator, vectors))
        ]

    def _reduce_num(
        self, pairs: Iterable[tuple[Sequence[int], int]]
    ) -> list[tuple[list[int], int]]:
        """(r, m * den) per pair (w, m) of integer numerators w and a denominator
        m > 0, with r / (m * den) the representative of w / m whose coordinates
        lie in [0,1)^g, in one integer pass: v reduced modulo L is den * v
        reduced modulo den * L, over den."""
        den = self.den
        reduced = self.lattice._reduce_num(([den * x for x in w], m) for w, m in pairs)
        return [(r, m * den) for r, m in reduced]

    def index_over(self, sub: "QLattice") -> Fraction:
        """[self : sub] for sub contained in self."""
        if sub.lattice.ambient_rank != self.lattice.ambient_rank:
            raise DimensionMismatch("lattices of different ranks have no index")
        return sub.covolume / self.covolume
