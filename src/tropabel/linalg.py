"""Exact linear algebra over Q and over Z.

Two layers live here:

  * ``Mat`` — an immutable dense rational matrix, the ``Frozen`` value of
    integer rows ``num`` over one positive denominator ``den`` in lowest terms,
    so that products, sums, transposes and integrality tests are integer work
    and two equal matrices have equal fields.  ``Mat(rows)`` coerces ints,
    ``"p/q"`` strings and ``Fraction``s, and ``<`` orders matrices as their
    ``Fraction`` rows without building them.
    Determinant, solve and inverse come from one fraction-free Gauss-Jordan
    pass on the integer ``num``; desk-scale only, with "first nonzero" pivots as the
    arithmetic is exact, and with each row's identity updates skipped.

  * the integer Hermite form — column Hermite form in one fixed convention
    (lower-triangular, positive diagonal, off-diagonal row entries reduced into
    [0, diagonal)), built by one join and one reducer and no transform:
    ``_hermite_add`` adds a vector to an echelon basis by Euclid steps, and
    ``_hermite_rows`` reduces the basis once.  ``column_hnf`` folds the join
    over its input's columns, and the subgroup walk of ``groups`` joins each
    cover's generators onto the symmetry lattice's basis with it.  ``hnf``'s
    transform and a congruence lattice are read as a block of the Hermite form
    of a block matrix; no other module builds a Hermite transform.  The Smith
    form belongs to the finite side, ``groups``.

The Hermite convention is load-bearing: canonical bases make structural
equality of lattices coincide with mathematical equality everywhere else in
the package.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence

from ._frozen import Frozen
from .errors import DimensionMismatch, NotExact, RankDeficient, SingularLattice
from .rationals import as_int, as_tuple, rat

IntRows = list[list[int]]


def _common_length(rows: Sequence[Sequence], what: str) -> int:
    """The one length of nonempty rows, in O(len(rows)); DimensionMismatch otherwise."""
    m = len(rows[0]) if rows else 0
    if not m or any(len(row) != m for row in rows):
        raise DimensionMismatch(f"{what} must be nonempty and of one length")
    return m


class Mat(Frozen):
    """Immutable rational matrix ``num / den`` in lowest terms: gcd(den, num) = 1."""

    num: tuple[tuple[int, ...], ...]
    den: int

    def __init__(self, rows: Iterable[Iterable[int | str | Fraction]]):
        entries = [[rat(x) for x in as_tuple(row, "rationals")] for row in as_tuple(rows, "rows")]
        if entries:
            m = len(entries[0])
            if any(len(row) != m for row in entries):
                raise DimensionMismatch("ragged rows")
        # the lcm of lowest-terms denominators leaves no common factor
        den = math.lcm(*(x.denominator for row in entries for x in row))
        num = tuple(tuple(x.numerator * den // x.denominator for x in row) for row in entries)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    @classmethod
    def _from_int(cls, num: Iterable[Iterable[int]], den: int = 1) -> "Mat":
        """The matrix num / den for integer rows num and den > 0, reduced to lowest terms;
        over den = 1 the rows are already in lowest terms, so no gcd is taken."""
        num = tuple(map(tuple, num))
        if den == 1:
            return cls._from_valid(num, 1)
        d = math.gcd(den, *(x for row in num for x in row))
        if d != 1:
            num = tuple(tuple(x // d for x in row) for row in num)
            den //= d
        return cls._from_valid(num, den)

    # -- shape -----------------------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.num)

    @property
    def m(self) -> int:
        return len(self.num[0]) if self.num else 0

    @classmethod
    def identity(cls, n: int) -> "Mat":
        return cls._from_int(_identity(n))

    @classmethod
    def zeros(cls, n: int, m: int) -> "Mat":
        return cls._from_int([[0] * m for _ in range(n)])

    # -- structure -----------------------------------------------------------

    def __lt__(self, other: "Mat") -> bool:
        """The order of the ``Fraction`` rows, lexicographic row by
        row, decided on ``num`` by cross-multiplication: x/a < y/b iff x*b < y*a."""
        a, b = self.den, other.den
        for r, s in zip(self.num, other.num):
            for x, y in zip(r, s):
                if x * b != y * a:
                    return x * b < y * a
            if len(r) != len(s):
                return len(r) < len(s)
        return len(self.num) < len(other.num)

    @property
    def T(self) -> "Mat":
        return Mat._from_int(zip(*self.num), self.den)

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: "Mat") -> "Mat":
        self._same_shape(other)
        den = math.lcm(self.den, other.den)
        a, b = den // self.den, den // other.den
        return Mat._from_int(
            ([a * x + b * y for x, y in zip(r, s)] for r, s in zip(self.num, other.num)), den
        )

    def scale(self, c: int | Fraction) -> "Mat":
        c = rat(c)
        p = c.numerator
        return Mat._from_int(([p * x for x in row] for row in self.num), self.den * c.denominator)

    def __matmul__(self, other: "Mat") -> "Mat":
        if self.m != other.n:
            raise DimensionMismatch(f"cannot multiply {self.n}x{self.m} by {other.n}x{other.m}")
        cols = list(zip(*other.num))
        return Mat._from_int(
            ([sum(a * b for a, b in zip(row, col)) for col in cols] for row in self.num),
            self.den * other.den,
        )

    def num_image(self, v: Sequence[int | Fraction]) -> list[int | Fraction]:
        """num @ v, the image of v times den: integers for an integer v."""
        if len(v) != self.m:
            raise DimensionMismatch(f"vector length {len(v)} != {self.m}")
        return [sum(a * b for a, b in zip(row, v)) for row in self.num]

    def _same_shape(self, other: "Mat") -> None:
        if (self.n, self.m) != (other.n, other.m):
            raise DimensionMismatch("shape mismatch")

    # -- elimination ---------------------------------------------------------

    def _eliminate(self, rhs: Sequence[Sequence[int]]) -> tuple[int, IntRows]:
        """(det(num), Y) with num @ Y = det(num) * rhs for integer rows rhs
        (Y is empty when det(num) = 0).  Fraction-free Gauss-Jordan (Bareiss):
        each step divides by the previous pivot, every entry stays a minor of
        [num | rhs] so the division is exact, and every diagonal entry ends
        equal to the last pivot, det(num) up to the sign of the row swaps.  A row
        with 0 in the pivot column is kept while the pivot equals the previous
        one: its update is then the identity."""
        n = self.n
        a = [[*row, *r] for row, r in zip(self.num, rhs)]
        sign, prev = 1, 1
        for k in range(n):
            piv = k
            while not a[piv][k]:
                piv += 1
                if piv == n:
                    return 0, []
            if piv != k:
                a[k], a[piv] = a[piv], a[k]
                sign = -sign
            pivot_row = a[k]
            p = pivot_row[k]
            for i in range(n):
                f = a[i][k]
                if i != k and (f or p != prev):
                    a[i] = [(p * x - f * y) // prev for x, y in zip(a[i], pivot_row)]
            prev = p
        return sign * prev, [row[n:] if sign == 1 else [-x for x in row[n:]] for row in a]

    def det(self) -> Fraction:
        if self.n != self.m:
            raise DimensionMismatch("determinant of non-square matrix")
        d, _ = self._eliminate([()] * self.n)
        return Fraction(d, self.den**self.n)

    def solve_mat(self, rhs: "Mat") -> "Mat":
        """Solve self @ X = rhs for a square nonsingular self."""
        if self.n != self.m:
            raise DimensionMismatch("solve needs a square matrix")
        if rhs.n != self.n:
            raise DimensionMismatch("right-hand side has wrong height")
        # num @ Y = d * rhs.num, so X = den * Y / (d * rhs.den)
        d, y = self._eliminate(rhs.num)
        if d == 0:
            raise SingularLattice("singular matrix in exact solve")
        c = self.den if d > 0 else -self.den
        return Mat._from_int(([c * x for x in row] for row in y), abs(d) * rhs.den)

    def inv(self) -> "Mat":
        return self.solve_mat(Mat.identity(self.n))


# ---------------------------------------------------------------------------
# The integer Hermite form
# ---------------------------------------------------------------------------


def _identity(n: int) -> IntRows:
    return [[int(i == j) for j in range(n)] for i in range(n)]


def _hermite_add(cols: Sequence[Sequence[int] | None], v: Sequence[int]) -> list:
    """An echelon basis joined by v, as a new list: ``cols[i]`` is the column
    whose first nonzero entry, positive, is in row i, or None.  One Euclid step
    per nonzero entry of v (reduce and swap until v's entry is 0, then fix the
    sign), on copies, since callers share the columns; the entries in later
    pivot rows are not reduced."""
    cols, v = list(cols), list(v)
    n = len(v)
    for i in range(n):
        if v[i]:
            c = cols[i]
            if c is None:
                cols[i] = v if v[i] > 0 else [-z for z in v]
                break
            c = list(c)
            while v[i]:
                q = c[i] // v[i]
                for t in range(i, n):  # both are 0 above row i
                    c[t] -= q * v[t]
                c, v = v, c
            cols[i] = c if c[i] > 0 else [-y for y in c]
    return cols


def _hermite_rows(cols: Sequence[Sequence[int] | None]) -> IntRows:
    """The rows of the canonical Hermite form of such a basis, its columns in
    pivot order: each entry in a pivot row reduced into range(pivot) by the
    column of that row (len(cols) empty rows when no column holds a pivot)."""
    pivots = [i for i, c in enumerate(cols) if c is not None]
    h = [list(cols[i]) for i in pivots]
    for j in range(len(h) - 2, -1, -1):
        col = h[j]
        for c, i in zip(h[j + 1 :], pivots[j + 1 :]):
            q = col[i] // c[i]
            if q:
                for t in range(i, len(col)):
                    col[t] -= q * c[t]
    return [list(row) for row in zip(*h)] if h else [[] for _ in cols]


def column_hnf(rows: Sequence[Sequence[int]]) -> IntRows:
    """Column Hermite form H = A @ U for some unimodular U, which is not built.

    For square nonsingular A this is lower-triangular with positive diagonal
    and row entries left of the diagonal reduced into [0, diagonal); in
    general the nonzero columns come first and zero columns sink to the right.
    """
    gens = list(zip(*rows))
    if not gens:
        return []
    cols: list = [None] * len(rows)
    for v in gens:
        cols = _hermite_add(cols, v)
    return [row + [0] * (len(gens) - len(row)) for row in _hermite_rows(cols)]


def hnf(rows: Sequence[Sequence[int]]) -> tuple[IntRows, IntRows]:
    """Canonical column Hermite form of a full-column-rank integer matrix.

    Returns (H, U) with H = A @ U, U unimodular: the column form of A stacked
    on I is [A U; U], its top rows taking all the pivots. Raises RankDeficient
    when the columns are dependent, since then no canonical full set of
    generators exists, DimensionMismatch for ragged rows and NotExact for an
    entry that is not an integer (an integral Fraction is read as one).
    """
    rows = as_tuple(rows, "integer rows")
    if not rows or not rows[0]:
        raise RankDeficient("empty matrix")
    k, n = _common_length(rows, "rows"), len(rows)
    h = column_hnf([*([as_int(x, NotExact) for x in row] for row in rows), *_identity(k)])
    if any(all(h[i][j] == 0 for i in range(n)) for j in range(k)):
        raise RankDeficient("columns are linearly dependent")
    return h[:n], h[n:]


def congruence_lattice(
    rows: Sequence[Sequence[int]], modulus: int, basis: Sequence[Sequence[int]] | None = None
) -> IntRows:
    """Canonical basis of {B x : A @ x = 0 (mod modulus)}, modulus >= 1, B a
    nonsingular m x m basis (I by default), a full-rank lattice (it holds
    modulus * B Z^m).  For A n x m (DimensionMismatch if empty or ragged), the
    columns of [[A, modulus I], [B, 0]] span the (A x + modulus y, B x); the first
    n columns of its column Hermite form take the pivots of the top rows, and the
    lower-right m x m block is the Hermite basis of the B x.  When modulus divides
    every entry of A, every x solves it: the block is empty (n = 0), and the
    lattice is I itself or B's own Hermite form."""
    n, m = len(rows), _common_length(rows, "rows")
    if not any(x % modulus for row in rows for x in row):
        if basis is None:
            return _identity(m)
        n, rows = 0, []
    top = [list(row) + [modulus * (i == j) for j in range(n)] for i, row in enumerate(rows)]
    h = column_hnf(top + [list(row) + [0] * n for row in basis or _identity(m)])
    if not all(h[n + i][n + i] for i in range(m)):
        raise RankDeficient("congruence solution lattice is rank deficient")
    return [row[n:] for row in h[n:]]


def __getattr__(name: str):
    # bench/tracer.py wraps linalg.snf by this name; the Smith form lives in
    # groups, which is loaded only when it is asked for
    if name == "snf":
        from . import groups

        return groups.snf
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
