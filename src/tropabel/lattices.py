"""Finite-index sublattices of Z^g and rational lattices in Q^g.

Sublattice bases are kept in the canonical column Hermite form from
``linalg``, so two Sublattice values are equal exactly when they describe the
same subgroup of Z^g; a basis already in that form is recognised and kept.
Every question about the basis B is answered from its adjugate, computed once
per lattice by integer forward substitution: the coordinates of w / m are
adj(B) w / (det(B) m), membership is their integrality, and box
representatives are their floors, one integer pass over a batch of vectors
that also hands back the coordinates of the lattice vector that moved each.
Sum and intersection are the diagonal blocks of one Hermite form.  A
``QLattice`` is a Sublattice scaled by 1/den and reduces through the same
pass.  Quotients by finite-index sublattices come back as
``FiniteAbelianGroup`` values carrying invariant factors, generator lifts and
the projection map, which is everything the pairing machinery downstream
needs.  ``enumerate_subgroups`` lists the subgroups of such a group that have
a given order, by a walk over Hermite bases that checks each new column in
integers and abandons a failing branch; given an alternating form it keeps
only the isotropic subgroups, so the admissible covers, which correspond to
the Lagrangian (isotropic of order sqrt|D|) subgroups of a defect group D,
come out of the walk directly, each carrying its basis down the walk (one
extended-gcd step per entry at each node), not taking a Hermite form of its
own.  The walk charges its work to one budget of steps as it goes and raises
``TooLarge`` when the budget runs out.
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
from .rationals import as_int, as_tuple, exact_over_one_denominator, rat

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


class FiniteAbelianGroup(Frozen):
    """Quotient of a lattice by a finite-index sublattice.

    invariant_factors: the d_i > 1 with d_1 | d_2 | ...; the group is
    the direct sum of Z/d_i. generator_lifts are ambient integer vectors
    mapping to generators of the cyclic factors; with the private _trivial,
    the adapted basis vectors of the factors d_i = 1, they form a basis of
    the ambient lattice.  The constructor checks the types and shapes of the
    six fields; ``quotient`` builds the group unchecked.
    """

    invariant_factors: tuple[int, ...]
    generator_lifts: tuple[tuple[int, ...], ...]
    _ambient: Sublattice
    _u: tuple[tuple[int, ...], ...]
    _moduli: tuple[int, ...]
    _trivial: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if not isinstance(self._ambient, Sublattice):
            raise NotExact(f"a group's ambient lattice is a Sublattice, got {self._ambient!r}")
        g = self._ambient.ambient_rank
        factors, moduli = _ints(self.invariant_factors), _ints(self._moduli)
        lifts, u, trivial = map(_int_rows, (self.generator_lifts, self._u, self._trivial))
        if len(lifts) != len(factors) or len(moduli) != g or len(u) != g:
            raise DimensionMismatch(f"a group on a rank-{g} lattice has g moduli and a g x g U")
        if len(lifts) + len(trivial) != g or any(len(v) != g for v in lifts + trivial + u):
            raise DimensionMismatch(f"the lifts and trivial vectors must form a basis of Z^{g}")
        fields = (factors, lifts, self._ambient, u, moduli, trivial)
        for name, value in zip(self.__match_args__, fields):
            object.__setattr__(self, name, value)

    @property
    def order(self) -> int:
        return math.prod(self.invariant_factors)

    def project(self, v: Sequence[int | Fraction]) -> tuple[int, ...]:
        """Coordinates of the class of v, one entry per invariant factor:
        U times the integer coordinates of v in the ambient basis."""
        x = self._ambient.coordinates(v)
        if any(type(c) is not int for c in x):
            raise NotContained("vector is not in the numerator lattice")
        rows = zip(self._u, self._moduli)
        return tuple(sum(a * c for a, c in zip(row, x)) % d for row, d in rows if d > 1)

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
    cols = [ambient._coordinates(gen, 1) for gen in sub.generators()]
    if any(type(c) is not int for col in cols for c in col):
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
    return FiniteAbelianGroup._from_valid(
        tuple(diag[i] for i in kept),
        tuple(adapted[i] for i in kept),
        ambient,
        tuple(map(tuple, u)),
        tuple(diag),
        tuple(adapted[i] for i, x in enumerate(diag) if x == 1),
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


def _hermite_add(cols: Sequence[Sequence[int]], v: Sequence[int]) -> list:
    """The columns of a lower-triangular basis with positive diagonal, joined by
    v: one extended-gcd step per nonzero entry of v (Cohen, GTM 138, 2.4); the
    entries left of the diagonal are not reduced."""
    cols = list(cols)
    for i in range(len(v)):
        if v[i]:
            c, p, x = cols[i], cols[i][i], v[i]
            d = math.gcd(p, x)
            t = pow(x // d, -1, p // d)  # s p + t x = d for the s below
            s = (d - t * x) // p
            cols[i] = [s * y + t * z for y, z in zip(c, v)]
            v = [p // d * z - x // d * y for y, z in zip(c, v)]
    return cols


def _hermite_rows(cols: Sequence[Sequence[int]]) -> list[tuple[int, ...]]:
    """The rows of the canonical Hermite form of such columns: each entry left
    of the diagonal reduced into range(diagonal) by the column of its row."""
    cols = [list(col) for col in cols]
    for j in range(len(cols) - 2, -1, -1):
        for i in range(j + 1, len(cols)):
            q = cols[j][i] // cols[i][i]
            if q:
                cols[j][i:] = [y - q * z for y, z in zip(cols[j][i:], cols[i][i:])]
    return list(zip(*cols))


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
    the subgroup.  They are the leaves of ``_walk``, which carries the columns
    placed so far and raises TooLarge when its budget of ``bound`` steps runs
    out.  An order or a bound that is not an integer raises NotExact, a form
    whose F is not k x k DimensionMismatch, and one whose den is not positive
    MalformedScalar.
    """
    leaves = _walk(group, order, bound, form, (), lambda cols, col: (col,) + cols)
    return sorted(tuple(zip(*cols)) for cols in leaves)


def _walk(group, order, bound, form, root, extend) -> list:
    """The states at the leaves of the subgroup walk: ``root`` at the top, and
    ``extend(state, col)`` at the node that places col, shared by every leaf
    below it.  The basis is built from its last column to its first; column j
    takes a diagonal entry c | d_j only when the index left to reach, divided
    by c, divides d_0 ... d_{j-1}, that is when the columns before it can
    still reach it.  Each new column is checked at once against the columns
    after it, in integers: d_j e_j must lie in their span (divmod forward
    substitution), and under ``form`` the column must pair to 0 with each of
    them.  A branch that fails is abandoned.  Each step of the budget is
    charged as it is done: isqrt(d_j) to list the divisors of d_j, one per
    candidate column tried.
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
    found = []
    cols: list[tuple[int, ...]] = [()] * k
    images: list[list[int]] = [[]] * k  # F cols[i], under form = (F, den)

    def place(j: int, index: int, state) -> None:
        """Each column j that extends cols[j + 1:] toward the remaining index,
        then the columns before it; a complete basis puts its state in found."""
        if j < 0:
            found.append(state)
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
                place(j - 1, index // c, extend(state, col))

    place(k - 1, group.order // order, root)
    return found


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
