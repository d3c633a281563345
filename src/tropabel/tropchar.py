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

from . import bundles  # a module, so that only the bundle correspondence loads it
from ._frozen import Frozen
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
from .rationals import as_int, as_tuple, over_one_denominator, rat
from .tori import TropTorus


class TropGLElement(Frozen):
    """A permutation with a translation: acts by (Ax)_i = d_i + x at sigma^-1(i).

    perm is stored 0-indexed with perm[i] = sigma(i).
    """

    perm: tuple[int, ...]
    d: tuple[Fraction, ...]

    def __post_init__(self):
        # read through as_int: a float or a boolean entry would pass the sort
        perm = tuple(as_int(x, NotExact) for x in as_tuple(self.perm, "integers"))
        object.__setattr__(self, "perm", perm)
        object.__setattr__(self, "d", as_tuple(self.d, "rationals"))
        # the translations are read after the checks, which only count them
        object.__setattr__(self, "d", tuple(rat(x) for x in self._checked().d))

    def _checked(self) -> "TropGLElement":
        """This element, after checking that perm is a permutation of 0..r-1
        and that d holds r translations."""
        r = len(self.perm)
        if sorted(self.perm) != list(range(r)):
            raise NotInvertible("perm is not a permutation")
        if len(self.d) != r:
            raise SizeMismatch("translation vector length differs from perm size")
        return self

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
        # over no images this passes, so it may precede the check for none
        if not all(isinstance(a, TropGLElement) for a in self.images):
            raise NotExact(f"generator images must be TropGLElements, got {self.images!r}")
        self._checked()

    def _checked(self) -> "TropRepresentation":
        """This representation, after checking that it has at least one image
        and that all have one size."""
        if not self.images:
            raise SizeMismatch("a representation needs at least one generator image")
        if any(a.r != self.r for a in self.images):
            raise SizeMismatch("generator images have different sizes")
        return self

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


def _integer_translations(elements: Sequence[TropGLElement]) -> tuple[list[list[int]], int]:
    """(nums, den): the translations of elements of one size as integer
    numerators over one denominator, nums[k][i] / den = elements[k].d[i]."""
    flat, den = over_one_denominator([x for a in elements for x in a.d])
    r = elements[0].r
    return [flat[k * r : (k + 1) * r] for k in range(len(elements))], den


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
    return _commute(rep, _integer_translations(rep.images)[0])


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
    nums, den = _integer_translations(rep.images)
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


def bundle_from_rep(rep: TropRepresentation, torus: TropTorus) -> bundles.TropVectorBundle:
    """The homogeneous bundle of a representation: one summand per orbit,
    pushed forward from the stabilizer cover with zero class."""
    if not isinstance(torus, TropTorus):
        raise NotExact(f"the bundle of a representation lives on a TropTorus, got {torus!r}")
    if torus.g != rep.g:
        raise SizeMismatch("torus rank differs from the number of generators")
    zero = Mat.zeros(torus.g, torus.g)
    # the zero class is symmetric and integral on every cover
    summands = [
        bundles.TropLineBundle._from_valid(torus, s.lattice, zero, s.l) for s in decompose_rep(rep)
    ]
    return bundles.TropVectorBundle._sorted(torus, summands)


def conjugate(rep: TropRepresentation, a: TropGLElement) -> TropRepresentation:
    """The images b = a img a^-1, each built in one pass without composing:
    b(i) = a(img(a^-1 i)) and, by compose and inverse, the translation
    d_b(i) = d_a(i) + d_img(a^-1 i) - d_a(b^-1 i), summed in the translations
    of a and of every image as integers over one denominator."""
    if rep.r != a.r:
        raise SizeMismatch("cannot compose elements of different sizes")
    a_perm, a_inv = a.perm, a.inv_perm
    (d_a, *nums), den = _integer_translations((a, *rep.images))
    images = []
    for img, d_img in zip(rep.images, nums):
        perm = tuple(a_perm[img.perm[j]] for j in a_inv)
        num = [x + d_img[j] for x, j in zip(d_a, a_inv)]
        for j, i in enumerate(perm):  # j = b^-1(i)
            num[i] -= d_a[j]
        images.append(TropGLElement._from_valid(perm, tuple(Fraction(x, den) for x in num)))
    # as many images as rep's, each of rep's size
    return TropRepresentation._from_valid(tuple(images))


def rep_from_bundle(e: bundles.TropVectorBundle) -> TropRepresentation:
    """A representation whose bundle is the given homogeneous bundle.

    Each summand contributes the block induced from its cover lattice: the
    permutation part shifts canonical coset representatives, and the
    translation part is the covector evaluated on the lattice element closing
    each shift.  The reducer hands back that element's lattice coordinates,
    so each translation is one integer dot product with the covector's
    numerators, over their denominator.  Inverse to bundle construction up to
    equivalence.
    """
    if not e.summands:
        raise SizeMismatch("cannot build a representation from an empty bundle")
    g = e.torus.g
    total = e.rank
    perms = [[0] * total for _ in range(g)]
    ds: list[list[Fraction]] = [[Fraction(0)] * total for _ in range(g)]
    off = 0
    for s in e.summands:
        reps = bundles._coset_reps(s.lattice)
        lookup = {c: i for i, c in enumerate(reps)}
        l_num, m = s._l_num
        # every rep shifted by every unit vector, reduced in one batch
        shifted = [(c[:j] + (c[j] + 1,) + c[j + 1 :], 1) for j in range(g) for c in reps]
        for n, (target, _, k) in enumerate(s.lattice._reduce_num(shifted)):
            j, i = divmod(n, len(reps))
            i2 = off + lookup[tuple(target)]
            perms[j][off + i] = i2
            ds[j][i2] = Fraction(sum(a * b for a, b in zip(l_num, k)), m)
        off += len(reps)
    # g >= 1 images, each of size e.rank
    return TropRepresentation._from_valid(
        tuple(TropGLElement._from_valid(tuple(p), tuple(d)) for p, d in zip(perms, ds))
    )
