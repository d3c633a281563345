"""Finite abelian groups: Smith form, quotients of lattices, subgroup walks.

This is the finite side of the package, the defect group D = integrality /
symmetry of a class, whose Lagrangian subgroups are its admissible covers;
only ``NSClass.defect_group`` and ``NSClass.admissible_lattices`` (and
``naside.represent_on``, through the Smith-adapted basis) run it.

``snf`` is the Smith form with transformation matrices.  Quotients by
finite-index sublattices come back as ``FiniteAbelianGroup`` values carrying
invariant factors, generator lifts and the projection map, which is
everything the pairing machinery downstream needs.  ``enumerate_subgroups``
lists the subgroups of such a group that have a given order, by a walk over
Hermite bases that checks each new column in integers and abandons a failing
branch; given an alternating form it keeps only the isotropic subgroups, so
the admissible covers, which correspond to the Lagrangian (isotropic of order
sqrt|D|) subgroups of a defect group D, come out of the walk directly, each
carrying its basis down the walk (one extended-gcd step per entry at each
node), not taking a Hermite form of its own.  The walk charges its work to
one budget of steps as it goes and raises ``TooLarge`` when the budget runs
out.
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction
from typing import Sequence

from ._frozen import Frozen
from .errors import DimensionMismatch, MalformedScalar, NotContained, NotExact, TooLarge
from .lattices import SUBGROUP_ENUMERATION_BOUND, Sublattice, _int_rows, _ints
from .linalg import IntRows, _common_length, _identity
from .rationals import as_int


def snf(rows: Sequence[Sequence[int]]) -> tuple[IntRows, IntRows, IntRows]:
    """Smith form: returns (U, D, W) with U @ A @ W = D.

    D is diagonal with nonnegative entries d_1 | d_2 | ...; U and W are
    unimodular.  Raises DimensionMismatch for empty or ragged rows and NotExact
    for an entry that is not an integer (an integral Fraction is read as one).
    """
    m = _common_length(rows, "rows")
    a = [[as_int(x, NotExact) for x in r] for r in rows]
    n = len(a)
    u, w = _identity(n), _identity(m)

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in w:
            row[i], row[j] = row[j], row[i]

    def add_row(dst, src, q):
        a[dst] = [x - q * y for x, y in zip(a[dst], a[src])]
        u[dst] = [x - q * y for x, y in zip(u[dst], u[src])]

    def add_col(dst, src, q):
        for row in a:
            row[dst] -= q * row[src]
        for row in w:
            row[dst] -= q * row[src]

    t = 0
    while t < min(n, m):
        entries = [(i, j) for i in range(t, n) for j in range(t, m) if a[i][j] != 0]
        if not entries:
            break
        i0, j0 = min(entries, key=lambda ij: abs(a[ij[0]][ij[1]]))
        if i0 != t:
            swap_rows(t, i0)
        if j0 != t:
            swap_cols(t, j0)
        dirty = True
        while dirty:
            dirty = False
            for i in range(t + 1, n):
                while a[i][t] != 0:
                    add_row(i, t, a[i][t] // a[t][t])
                    if a[i][t] != 0:
                        swap_rows(t, i)
                        dirty = True
            for j in range(t + 1, m):
                while a[t][j] != 0:
                    add_col(j, t, a[t][j] // a[t][t])
                    if a[t][j] != 0:
                        swap_cols(t, j)
                        dirty = True
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
            u[t] = [-x for x in u[t]]
        # enforce d_t | every remaining entry
        viol = next(
            ((i, j) for i in range(t + 1, n) for j in range(t + 1, m) if a[i][j] % a[t][t]),
            None,
        )
        if viol is not None:
            add_row(t, viol[0], -1)
            continue
        t += 1
    return u, a, w


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
