"""Tropical representations of a period lattice and their bundle counterparts.

An invertible tropical r x r matrix is a generalized permutation matrix: a
permutation together with a rational translation vector.  Commuting tuples of
such elements are representations of the period lattice; they decompose into
induced pieces indexed by the orbits of the permutation action, and each piece
corresponds to a homogeneous line-bundle summand on the cover given by the
orbit stabilizer.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from ._frozen import Frozen
from .bundles import TropLineBundle, TropVectorBundle, _coset_reps
from .errors import (
    NotCommuting,
    NotExact,
    NotInLattice,
    NotInvertible,
    SizeMismatch,
    TropabelError,
)
from .lattices import Sublattice
from .linalg import Mat
from .nspairings import TropTorus
from .rationals import as_int, as_tuple, over_one_denominator, rat


class TropGLElement(Frozen):
    """A permutation with a translation: acts by (Ax)_i = d_i + x at sigma^-1(i).

    perm is stored 0-indexed with perm[i] = sigma(i).
    """

    perm: tuple[int, ...]
    d: tuple[Fraction, ...]

    def __post_init__(self):
        # read through as_int: a float or a boolean entry would pass the sort
        perm = tuple(as_int(x, NotExact) for x in as_tuple(self.perm, "integers"))
        d = as_tuple(self.d, "rationals")
        r = len(perm)
        if sorted(perm) != list(range(r)):
            raise NotInvertible("perm is not a permutation")
        if len(d) != r:
            raise SizeMismatch("translation vector length differs from perm size")
        object.__setattr__(self, "perm", perm)
        object.__setattr__(self, "d", tuple(rat(x) for x in d))

    @property
    def r(self) -> int:
        return len(self.perm)

    @property
    def inv_perm(self) -> tuple[int, ...]:
        out = [0] * self.r
        for i, j in enumerate(self.perm):
            out[j] = i
        return tuple(out)

    def act(self, x: Sequence[Fraction]) -> tuple[Fraction, ...]:
        if len(x) != self.r:
            raise SizeMismatch("vector length differs from element size")
        inv = self.inv_perm
        return tuple(self.d[i] + rat(x[inv[i]]) for i in range(self.r))


def identity(r: int) -> TropGLElement:
    return TropGLElement._from_valid(tuple(range(r)), (Fraction(0),) * r)


def compose(a: TropGLElement, b: TropGLElement) -> TropGLElement:
    """(sigma, d) o (sigma', d') = (sigma sigma', d + sigma . d')."""
    if a.r != b.r:
        raise SizeMismatch("cannot compose elements of different sizes")
    perm = tuple(a.perm[b.perm[i]] for i in range(a.r))
    a_inv = a.inv_perm
    d = tuple(a.d[i] + b.d[a_inv[i]] for i in range(a.r))
    return TropGLElement._from_valid(perm, d)


def inverse(a: TropGLElement) -> TropGLElement:
    inv = a.inv_perm
    d = tuple(-a.d[a.perm[i]] for i in range(a.r))
    return TropGLElement._from_valid(inv, d)


def power(a: TropGLElement, n: int) -> TropGLElement:
    """a^n by repeated squaring: O(log n) compositions, exact by associativity."""
    if type(n) is not int:
        raise TropabelError(f"power needs an int exponent, got {n!r}")
    if n < 0:
        return power(inverse(a), -n)
    out = identity(a.r)
    while n:
        if n & 1:
            out = compose(out, a)
        n >>= 1
        if n:
            a = compose(a, a)
    return out


def from_matrix(rows: Sequence[Sequence[Fraction | int | str | None]]) -> TropGLElement:
    """Parse a min-plus matrix with one finite entry per row and column.

    The finite entry in row i sits at column sigma^-1(i) and equals d_i.
    """
    rows = [as_tuple(row, "entries") for row in as_tuple(rows, "matrix rows")]
    r = len(rows)
    if any(len(row) != r for row in rows):
        raise NotInvertible("matrix is not square")
    perm = [-1] * r
    d = [Fraction(0)] * r
    for i, row in enumerate(rows):
        finite = [(j, x) for j, x in enumerate(row) if x is not None]
        if len(finite) != 1:
            raise NotInvertible(f"row {i} must have exactly one finite entry")
        j, x = finite[0]
        if perm[j] != -1:
            raise NotInvertible(f"column {j} has more than one finite entry")
        perm[j] = i
        d[i] = rat(x)
    return TropGLElement(tuple(perm), tuple(d))


def to_matrix(a: TropGLElement) -> list[list[Fraction | None]]:
    rows: list[list[Fraction | None]] = [[None] * a.r for _ in range(a.r)]
    inv = a.inv_perm
    for i in range(a.r):
        rows[i][inv[i]] = a.d[i]
    return rows


class TropRepresentation(Frozen):
    """Images of the g period-lattice basis vectors in GL_r of the min-plus semifield."""

    images: tuple[TropGLElement, ...]

    def __post_init__(self):
        object.__setattr__(self, "images", as_tuple(self.images, "TropGLElements"))
        if not self.images:
            raise SizeMismatch("a representation needs at least one generator image")
        if not all(isinstance(a, TropGLElement) for a in self.images):
            raise NotExact(f"generator images must be TropGLElements, got {self.images!r}")
        r = self.images[0].r
        if any(a.r != r for a in self.images):
            raise SizeMismatch("generator images have different sizes")

    @property
    def r(self) -> int:
        return self.images[0].r

    @property
    def g(self) -> int:
        return len(self.images)

    def value(self, a: Sequence[int]) -> TropGLElement:
        """The image of the lattice vector with coordinates a (commuting product)."""
        if len(a) != self.g:
            raise SizeMismatch("coordinate length differs from the number of generators")
        out = identity(self.r)
        for img, e in zip(self.images, a):
            out = compose(out, power(img, as_int(e, NotInLattice)))
        return out


def _integer_translations(rep: TropRepresentation) -> tuple[list[list[int]], int]:
    """(nums, den): the images' translations as integer numerators over one
    denominator, nums[k][i] / den = rep.images[k].d[i]."""
    flat, den = over_one_denominator([x for a in rep.images for x in a.d])
    r = rep.r
    return [flat[k * r : (k + 1) * r] for k in range(rep.g)], den


def _commute(rep: TropRepresentation, nums: list[list[int]]) -> bool:
    """``check_commuting`` on the integer translations of ``_integer_translations``."""
    parts = [(a.perm, d, a.inv_perm) for a, d in zip(rep.images, nums)]
    for k, (pa, da, ia) in enumerate(parts):
        for pb, db, ib in parts[k + 1 :]:
            if any(pa[y] != pb[x] for x, y in zip(pa, pb)):
                return False
            if any(da[i] - da[ib[i]] != db[i] - db[ia[i]] for i in range(len(pa))):
                return False
    return True


def check_commuting(rep: TropRepresentation) -> bool:
    """Whether the images commute, without composing them: ab = ba iff the permutations commute
    and a.d[i] - a.d[b^-1(i)] = b.d[i] - b.d[a^-1(i)] (see compose), over one denominator."""
    return _commute(rep, _integer_translations(rep)[0])


class OrbitSummand(Frozen):
    """One indecomposable piece: an orbit, its stabilizer lattice, and the
    rational character of the stabilizer read off at the orbit's base point."""

    orbit: tuple[int, ...]
    lattice: Sublattice
    l: tuple[Fraction, ...]

    def __post_init__(self):
        orbit = tuple(as_int(i, NotExact) for i in as_tuple(self.orbit, "integers"))
        if not isinstance(self.lattice, Sublattice):
            raise NotExact(f"an orbit summand's lattice is a Sublattice, got {self.lattice!r}")
        l = tuple(rat(x) for x in as_tuple(self.l, "rationals"))
        if len(l) != self.lattice.ambient_rank:
            raise SizeMismatch("an orbit summand takes one value per basis vector")
        object.__setattr__(self, "orbit", orbit)
        object.__setattr__(self, "l", l)


def decompose_rep(rep: TropRepresentation) -> tuple[OrbitSummand, ...]:
    """Split into induced pieces over the orbits of the permutation action.

    For each orbit with base point p (its smallest index), the stabilizer
    {b : sigma^b p = p} is built in Hermite form from the last column to the
    first.  Column j has diagonal d_j, the first return of sigma_j^-1 from p
    into the orbit already labelled (by Hermite-box coordinates), and below it
    the label of the return point; the orbit then grows as sigma_j^t, t < d_j.
    The covector value at a stabilizer element is the translation component
    at p of its image, read by walking the base point: (A x)_p = d_p + x at
    sigma^-1(p), so the translation of A_1^(b_1) ... A_g^(b_g) at p is the
    sum of the d-entries met while p is moved b_1 times by sigma_1^-1, then
    b_2 times by sigma_2^-1, and so on.  Hermite generators have no negative
    coordinates, so the walk only steps forward, and it must end at p.  The
    sum is taken in the integer translations over one denominator, and each
    covector entry becomes one Fraction.
    """
    nums, den = _integer_translations(rep)
    if not _commute(rep, nums):
        raise NotCommuting("generator images do not commute")
    g = rep.g
    perms = [a.perm for a in rep.images]
    inv_perms = [a.inv_perm for a in rep.images]
    seen: set[int] = set()
    out = []
    for p in range(rep.r):
        if p in seen:
            continue
        labels: dict[int, tuple[int, ...]] = {p: ()}
        cols = []
        for j in range(g - 1, -1, -1):
            perm, inv = perms[j], inv_perms[j]
            q, d = inv[p], 1
            while q not in labels:
                q, d = inv[q], d + 1
            cols.insert(0, (0,) * j + (d,) + labels[q])
            grown = {}
            for q, c in labels.items():
                for t in range(d):
                    grown[q] = (t,) + c
                    q = perm[q]
            labels = grown
        seen.update(labels)
        lat = Sublattice._from_hermite([[col[i] for col in cols] for i in range(g)])
        l = []
        for b in cols:
            pos, acc = p, 0
            for d, inv, e in zip(nums, inv_perms, b):
                for _ in range(e):
                    acc += d[pos]
                    pos = inv[pos]
            if pos != p:
                raise NotCommuting("stabilizer element does not fix the base point")
            l.append(Fraction(acc, den))
        out.append(OrbitSummand._from_valid(tuple(sorted(labels)), lat, tuple(l)))
    return tuple(out)


def canonical_form(
    rep: TropRepresentation,
) -> tuple[tuple[Sublattice, tuple[Fraction, ...]], ...]:
    """Conjugation-invariant form: the sorted multiset of (stabilizer, covector)."""
    pieces = [(s.lattice, s.l) for s in decompose_rep(rep)]
    return tuple(sorted(pieces, key=lambda p: (p[0].basis, p[1])))


def stratum(rep: TropRepresentation) -> tuple[Sublattice, ...]:
    """The multiset of orbit stabilizer lattices, canonically ordered: the
    lattices of the canonical form."""
    return tuple(lat for lat, _ in canonical_form(rep))


def bundle_from_rep(rep: TropRepresentation, torus: TropTorus) -> TropVectorBundle:
    """The homogeneous bundle of a representation: one summand per orbit,
    pushed forward from the stabilizer cover with zero class."""
    if torus.g != rep.g:
        raise SizeMismatch("torus rank differs from the number of generators")
    zero = Mat.zeros(torus.g, torus.g)
    # the zero class is symmetric and integral on every cover
    summands = [
        TropLineBundle._from_valid(torus, s.lattice, zero, s.l) for s in decompose_rep(rep)
    ]
    return TropVectorBundle(torus, tuple(summands))


def conjugate(rep: TropRepresentation, a: TropGLElement) -> TropRepresentation:
    a_inv = inverse(a)
    # as many images as rep's, each of rep's size (compose checks a's)
    return TropRepresentation._from_valid(
        tuple(compose(compose(a, img), a_inv) for img in rep.images)
    )


def rep_from_bundle(e: TropVectorBundle) -> TropRepresentation:
    """A representation whose bundle is the given homogeneous bundle.

    Each summand contributes the block induced from its cover lattice: the
    permutation part shifts canonical coset representatives, and the
    translation part is the covector evaluated on the lattice element closing
    each shift.  Inverse to bundle construction up to equivalence.
    """
    if not e.summands:
        raise SizeMismatch("cannot build a representation from an empty bundle")
    g = e.torus.g
    total = e.rank
    perms = [[0] * total for _ in range(g)]
    ds: list[list[Fraction]] = [[Fraction(0)] * total for _ in range(g)]
    off = 0
    for s in e.summands:
        reps = _coset_reps(s.lattice)
        lookup = {c: k for k, c in enumerate(reps)}
        # every rep shifted by every unit vector, reduced in one batch
        shifted = [c[:j] + (c[j] + 1,) + c[j + 1 :] for j in range(g) for c in reps]
        for n, (v, target) in enumerate(zip(shifted, s.lattice.reduce_all(shifted))):
            j, k = divmod(n, len(reps))
            k2 = lookup[target]
            perms[j][off + k] = off + k2
            ds[j][off + k2] = s.l_value(tuple(a - b for a, b in zip(v, target)))
        off += len(reps)
    # g >= 1 images, each of size e.rank
    return TropRepresentation._from_valid(
        tuple(TropGLElement._from_valid(tuple(p), tuple(d)) for p, d in zip(perms, ds))
    )
