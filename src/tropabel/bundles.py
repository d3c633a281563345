"""Tropical line and vector bundles on real tori with integral structure.

A line-bundle summand is a triple (cover lattice, class matrix, covector):
the bundle on the quotient torus obtained by pushing the factor of automorphy
(H, l) forward along the finite cover N_R/Lambda' -> N_R/Lambda.  A vector
bundle is the multiset of its indecomposable summands, kept in a canonical
order so that structural equality of values is equality of bundles.

The class matrix of a summand is stored ambiently (on the full period-lattice
basis); restriction to the cover is a basis change, and the unique Q-linear
extension back to the full lattice — the summand's slope — is the stored
matrix itself; so is the covector's, one integer row over one denominator
(``_l_ext``), which the ops read at integer points: one ``Fraction`` per output entry.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from fractions import Fraction
from typing import Iterable, Sequence

from ._frozen import Frozen
from .errors import (
    AmbientMismatch,
    DimensionMismatch,
    EmptyBundle,
    InvalidClass,
    LatticeMismatch,
    MixedClasses,
    NotCompatible,
    NotContained,
    NotExact,
    SlopeMismatch,
)
from .lattices import QLattice, Sublattice, _sum_and_intersection
from .linalg import Mat
from .rationals import as_tuple, exact_over_one_denominator, over_one_denominator, rat
from .tori import TropTorus, extended_character_lattice, is_r_symmetric


class TropLineBundle(Frozen):
    """One indecomposable summand: the pushforward of (ns, l) from a cover.

    ``l`` holds the covector's values on the Hermite basis of ``lattice``;
    ``ns`` is the ambient class matrix, required to be real-symmetric for the
    torus and integral on the cover.
    """

    torus: TropTorus
    lattice: Sublattice
    ns: Mat
    l: tuple[Fraction, ...]

    def __post_init__(self):
        l = _exact_values(self.torus, self.lattice, self.ns, self.l)
        object.__setattr__(self, "l", l)
        self._checked()

    def _checked(self) -> "TropLineBundle":
        """This summand, after the checks of its typed fields: the ranks, the
        real symmetry of V^T H, and the class integral on the cover."""
        torus, lattice, ns = self.torus, self.lattice, self.ns
        _check_ranks("summand", torus.g, lattice, ns, self.l)
        if not is_r_symmetric(ns, torus.v):
            raise InvalidClass("V^T H is not symmetric")
        # ns @ basis is integral exactly when ns.num @ basis = 0 mod ns.den
        den = ns.den
        if den != 1 and any(x % den for gen in lattice.generators() for x in ns.num_image(gen)):
            raise InvalidClass("class matrix is not integral on the cover lattice")
        return self

    @property
    def rank(self) -> int:
        return self.lattice.index

    @property
    def sort_key(self):
        return (self.lattice.basis, self.ns, self.l)

    @functools.cached_property
    def _l_num(self) -> tuple[list[int], int]:
        """The covector's integer numerators over their least common
        denominator m, once per summand."""
        return over_one_denominator(self.l)

    @functools.cached_property
    def _l_ext(self) -> tuple[list[int], int]:
        """The covector's Q-linear extension l B^-1 to Z^g, for the Hermite basis
        B, once per summand: the integer row num adj(B) over m det(B)."""
        num, m = self._l_num
        d, adj = self.lattice._adjugate
        return [sum(map(operator.mul, num, col)) for col in zip(*adj)], m * d

    def l_value(self, x: Sequence[int | Fraction]) -> Fraction:
        """The Q-linear extension of the covector at a rational point x, one dot product
        with ``_l_ext``; an entry that is not an int or a Fraction raises NotExact."""
        w, m = exact_over_one_denominator(x)
        ext, den = self._l_ext
        if len(w) != len(ext):
            raise DimensionMismatch(f"expected a vector of length {len(ext)}")
        return Fraction(sum(map(operator.mul, ext, w)), den * m)


def _exact_values(
    torus: TropTorus, lattice: Sublattice, ns: Mat, values: Sequence
) -> tuple[Fraction, ...]:
    """values as Fractions, after checking the types of the (torus, lattice,
    class, values) of a summand or a moduli point."""
    _check_types((torus, lattice, ns), (TropTorus, Sublattice, Mat))
    return tuple(rat(x) for x in as_tuple(values, "rationals"))


def _check_ranks(what: str, g: int, lattice: Sublattice, ns: Mat, values: Sequence) -> None:
    """The lattice, the g x g class and one value per basis vector of a summand
    or a moduli point must match the torus rank g."""
    if lattice.ambient_rank != g or (ns.n, ns.m) != (g, g):
        raise AmbientMismatch(f"{what} data does not match the torus rank")
    if len(values) != g:
        raise AmbientMismatch(f"a {what} takes one value per basis vector")


def _canonical_order(summands: Iterable[TropLineBundle]) -> tuple[TropLineBundle, ...]:
    """Summands in the canonical order of a vector bundle."""
    return tuple(sorted(summands, key=lambda s: s.sort_key))


class TropVectorBundle(Frozen):
    """Multiset of summands in canonical order."""

    torus: TropTorus
    summands: tuple[TropLineBundle, ...]

    def __post_init__(self):
        summands = as_tuple(self.summands, "TropLineBundles")
        _check_types((self.torus, *summands), (TropTorus,) + (TropLineBundle,) * len(summands))
        if any(s.torus != self.torus for s in summands):
            raise AmbientMismatch("summands live on a different torus")
        object.__setattr__(self, "summands", _canonical_order(summands))

    @classmethod
    def _sorted(cls, torus: TropTorus, summands: Iterable[TropLineBundle]) -> "TropVectorBundle":
        """The bundle of summands on torus that are valid by construction, put
        in canonical order without the constructor's checks."""
        return cls._from_valid(torus, _canonical_order(summands))

    @property
    def rank(self) -> int:
        return sum(s.rank for s in self.summands)


def line_bundle(
    torus: TropTorus,
    lattice: Sublattice,
    ns: Mat,
    l: Sequence[int | str | Fraction],
) -> TropLineBundle:
    return TropLineBundle(torus, lattice, ns, tuple(l))


def as_bundle(summands: TropLineBundle | Iterable[TropLineBundle]) -> TropVectorBundle:
    if isinstance(summands, TropLineBundle):
        return TropVectorBundle(summands.torus, (summands,))
    summands = tuple(summands)
    if not summands:
        raise EmptyBundle("cannot infer the torus of an empty bundle")
    return TropVectorBundle(summands[0].torus, summands)


def cover_torus(torus: TropTorus, sub: Sublattice) -> TropTorus:
    """The torus of the cover: period positions are those of sub's basis.
    det(V S) = det(V) [Z^g : sub] is nonzero, so no determinant is taken."""
    if sub.ambient_rank != torus.g:
        raise AmbientMismatch("cover lattice does not match the torus rank")
    return TropTorus._from_valid(torus.v @ sub.mat)


def _check_types(values: tuple, types: tuple) -> None:
    """NotExact unless each value is an instance of the type beside it."""
    for value, cls in zip(values, types):
        if not isinstance(value, cls):
            raise NotExact(f"expected a {cls.__name__}, got a {type(value).__name__}")


def _at(row: tuple, points: Iterable[Sequence[int]]) -> tuple[list[int], int]:
    """A covector's row (integers, den) at integer points: numerators over that den."""
    ext, den = row
    return [sum(map(operator.mul, ext, p)) for p in points], den


def _twists(
    torus: TropTorus, ns: Mat, cols: Sequence, l: tuple, shifts: Iterable, q: int = 1
) -> Iterable[tuple[Fraction, ...]]:
    """The covector values a / m on the columns cols, l = (a, m), twisted by the
    translation over each shift y / q: a[i] / m - <V cols[i], H y / q>, one tuple
    of Fractions per shift; the pairing is (V.num cols[i]) . (H.num y) over V.den H.den q."""
    positions = [torus.v.num_image(c) for c in cols]
    nums, m = l
    den = torus.v.den * ns.den * q
    for y in map(ns.num_image, shifts):
        yield tuple(
            Fraction(a * den - sum(map(operator.mul, p, y)) * m, m * den)
            for a, p in zip(nums, positions)
        )


def _coset_reps(lat: Sublattice) -> list[tuple[int, ...]]:
    """Canonical representatives of Z^g / lat: the Hermite diagonal box, a
    complete residue system, reduced into lat's basis box."""
    box = itertools.product(*(range(row[i]) for i, row in enumerate(lat.basis)))
    return sorted(tuple(r) for r, _, _ in lat._reduce_num((v, 1) for v in box))


# ---------------------------------------------------------------------------
# Bundle operations
# ---------------------------------------------------------------------------


def _same_torus(e1, e2, cls: type) -> None:
    _check_types((e1, e2), (cls, cls))
    if e1.torus != e2.torus:
        raise AmbientMismatch("operands live on different tori")


def direct_sum(e1: TropVectorBundle, e2: TropVectorBundle) -> TropVectorBundle:
    _same_torus(e1, e2, TropVectorBundle)
    return TropVectorBundle._sorted(e1.torus, e1.summands + e2.summands)


def tensor(e1: TropVectorBundle, e2: TropVectorBundle) -> TropVectorBundle:
    """Fiber-product tensor: summand pairs split into coset components.

    For summands on covers L1, L2 the components are indexed by the cosets of
    L1 + L2; each lives on L1 ∩ L2 with class H1 + H2, and the second factor's
    covector is twisted by the translation over the canonical coset
    representative delta, contributing -<., H2(delta)>.
    """
    _same_torus(e1, e2, TropVectorBundle)
    torus = e1.torus
    out = []
    for s1 in e1.summands:
        for s2 in e2.summands:
            total, inter = _sum_and_intersection(s1.lattice, s2.lattice)
            ns = s1.ns + s2.ns
            basis = inter.generators()
            (a, m1), (b, m2) = s1._l_ext, s2._l_ext
            m = math.lcm(m1, m2)
            row = [x * (m // m1) + y * (m // m2) for x, y in zip(a, b)]
            for l in _twists(torus, s2.ns, basis, _at((row, m), basis), _coset_reps(total)):
                out.append(TropLineBundle._from_valid(torus, inter, ns, l))
    return TropVectorBundle._sorted(torus, out)


def pullback(e: TropVectorBundle, sub: Sublattice) -> TropVectorBundle:
    """Pull back along the cover N_R/sub -> N_R/Lambda.

    The result lives on the cover torus; summands split into components over
    the cosets of (summand lattice + sub), each on the intersection, with the
    covector twisted by the coset representative's translation.
    """
    _check_types((e, sub), (TropVectorBundle, Sublattice))
    torus = e.torus
    target = cover_torus(torus, sub)
    out = []
    for s in e.summands:
        total, inter = _sum_and_intersection(s.lattice, sub)
        new_lat = Sublattice.from_generators([sub._coordinates(b, 1) for b in inter.generators()])
        amb_cols = [sub.mat.num_image(c) for c in new_lat.generators()]
        new_ns = s.ns @ sub.mat
        for l in _twists(torus, s.ns, amb_cols, _at(s._l_ext, amb_cols), _coset_reps(total)):
            out.append(TropLineBundle._from_valid(target, new_lat, new_ns, l))
    return TropVectorBundle._sorted(target, out)


def pushforward(
    e: TropVectorBundle, sub: Sublattice, parent: TropTorus
) -> TropVectorBundle:
    """Push a bundle on the cover N_R/sub down to the parent torus.

    Pure relabeling through the composed cover: each summand's lattice is
    mapped into parent coordinates, and its class and covector row multiplied by S^-1.
    """
    _check_types((e, sub, parent), (TropVectorBundle, Sublattice, TropTorus))
    if e.torus != cover_torus(parent, sub):
        raise AmbientMismatch("bundle does not live on the stated cover of the parent")
    sub_inv = Mat._from_int(sub._adjugate[1], sub.index)
    out = []
    for s in e.summands:
        amb_lat = Sublattice.from_generators([sub.mat.num_image(c) for c in s.lattice.generators()])
        ns = s.ns @ sub_inv
        nums, m = _at(_at(s._l_ext, zip(*sub_inv.num)), amb_lat.generators())
        l = tuple(Fraction(x, m * sub_inv.den) for x in nums)
        out.append(TropLineBundle._from_valid(parent, amb_lat, ns, l))
    return TropVectorBundle._sorted(parent, out)


def translate(e: TropVectorBundle, x: Sequence[int | str | Fraction]) -> TropVectorBundle:
    """Translate by the point with N_Q-coordinates x: l goes to l - <., H(x)>."""
    _check_types((e,), (TropVectorBundle,))
    torus = e.torus
    lam = torus.v.solve(as_tuple(x, "rationals"))
    lam_num, q = over_one_denominator(lam)
    out = []
    for s in e.summands:
        (l,) = _twists(torus, s.ns, s.lattice.generators(), s._l_num, [lam_num], q)
        out.append(TropLineBundle._from_valid(torus, s.lattice, s.ns, l))
    return TropVectorBundle._sorted(torus, out)


def slope(e: TropVectorBundle) -> Mat:
    """Rank-weighted average of the summand classes (a rational class matrix)."""
    _check_types((e,), (TropVectorBundle,))
    if not e.summands:
        raise EmptyBundle("slope of the empty bundle")
    g = e.torus.g
    total = Mat.zeros(g, g)
    for s in e.summands:
        total = total + s.ns.scale(s.rank)
    return total.scale(Fraction(1, e.rank))


def is_homogeneous(e: TropVectorBundle) -> bool:
    _check_types((e,), (TropVectorBundle,))
    zero = Mat.zeros(e.torus.g, e.torus.g)
    return all(s.ns == zero for s in e.summands)


def is_semi_homogeneous(e: TropVectorBundle) -> bool:
    _check_types((e,), (TropVectorBundle,))
    if not e.summands:
        return True
    first = e.summands[0].ns
    return all(s.ns == first for s in e.summands)


# ---------------------------------------------------------------------------
# Equivalence and moduli coordinates
# ---------------------------------------------------------------------------


def restrict_line_bundle(s: TropLineBundle, cover: Sublattice) -> TropLineBundle:
    """The same factor of automorphy on a finer cover (pure restriction)."""
    _check_types((s, cover), (TropLineBundle, Sublattice))
    if cover.ambient_rank != s.torus.g:
        raise AmbientMismatch("cover lattice does not match the torus rank")
    if not s.lattice.contains_lattice(cover):
        raise NotContained("restriction target is not contained in the cover lattice")
    nums, m = _at(s._l_ext, cover.generators())
    return TropLineBundle._from_valid(s.torus, cover, s.ns, tuple(Fraction(x, m) for x in nums))


@functools.lru_cache(maxsize=64)
def _twist_lattice(torus: TropTorus, lat: Sublattice, ns: Mat) -> QLattice:
    """Covectors on lat coming from integral characters and class images: the
    image of the extended character lattice under B^T V^T.  Memoised: every
    argument and the result are immutable.  ``moduli_points`` reduces all
    summands in one call, so the memo serves repeated (torus, lattice, class)
    triples across calls: at seed 1 the ops on one ``bundle-calculus``
    scenario share it (200 hits to 100 misses per pass), and each
    ``verify-square`` case hits it once.  ``jsonio`` hands every repeat of a
    wire torus or lattice the same value, so a hit compares them by identity."""
    return QLattice(lat.mat.T @ torus.v.T @ extended_character_lattice(ns).basis)


def iso_pushforward(s1: TropLineBundle, s2: TropLineBundle) -> bool:
    """Whether the two pushforwards from the same cover are isomorphic.

    True exactly when the classes agree and the covector difference lies in
    the lattice of covectors induced by integral characters plus class images
    of full-lattice translations.
    """
    _same_torus(s1, s2, TropLineBundle)
    if s1.lattice != s2.lattice:
        raise LatticeMismatch("summands live on different covers")
    if s1.ns != s2.ns:
        return False
    diff = tuple(a - b for a, b in zip(s1.l, s2.l))
    return _twist_lattice(s1.torus, s1.lattice, s1.ns).contains(diff)


def equivalent(
    s1: TropLineBundle, s2: TropLineBundle, cover: Sublattice | None = None
) -> bool:
    """Bundle equivalence through a common cover (defaults to the intersection)."""
    _same_torus(s1, s2, TropLineBundle)
    if cover is None:
        cover = s1.lattice & s2.lattice
    return iso_pushforward(
        restrict_line_bundle(s1, cover), restrict_line_bundle(s2, cover)
    )


class ModuliPoint(Frozen):
    """Canonical coordinate of a compatible summand class.

    coords is the box representative of the restricted covector modulo the
    twist lattice on gamma.
    """

    torus: TropTorus
    gamma: Sublattice
    ns: Mat
    coords: tuple[Fraction, ...]

    def __post_init__(self):
        coords = _exact_values(self.torus, self.gamma, self.ns, self.coords)
        object.__setattr__(self, "coords", coords)
        _check_ranks("moduli point", self.torus.g, self.gamma, self.ns, coords)


def moduli_point(s: TropLineBundle, gamma: Sublattice, ns: Mat) -> ModuliPoint:
    return moduli_points([s], gamma, ns)[0]


def moduli_points(
    summands: Sequence[TropLineBundle], gamma: Sublattice, ns: Mat
) -> list[ModuliPoint]:
    """The moduli points of summands on one torus, all for (gamma, ns).

    Each summand must have class ns and a cover lattice containing gamma.
    gamma's basis is solved once in each distinct cover lattice, and every
    restricted covector is reduced modulo the one twist lattice in a single
    integer pass: each restricted covector goes to the reducer as integer
    numerators over one denominator, and its point is read back as Fractions.
    """
    summands = as_tuple(summands, "TropLineBundles")
    _check_types((gamma, ns, *summands), (Sublattice, Mat) + (TropLineBundle,) * len(summands))
    if not summands:
        return []
    first = summands[0]
    if gamma.ambient_rank != first.torus.g:
        raise AmbientMismatch("gamma does not match the torus rank")
    gens = gamma.generators()
    cols: dict[Sublattice, list[tuple[int | Fraction, ...]]] = {}
    restricted = []
    for s in summands:
        if s.torus != first.torus:
            raise AmbientMismatch("operands live on different tori")
        if s.ns != ns:
            raise SlopeMismatch("summand slope differs from the supplied class")
        c = cols.get(s.lattice)
        if c is None:
            c = [s.lattice._coordinates(b, 1) for b in gens]
            if not all(type(x) is int for col in c for x in col):
                raise NotCompatible("gamma is not contained in the summand's cover lattice")
            cols[s.lattice] = c
        l_num, m = s._l_num
        restricted.append(([sum(a * x for a, x in zip(l_num, col)) for col in c], m))
    reduced = _twist_lattice(first.torus, gamma, ns)._reduce_num(restricted)
    return [
        ModuliPoint._from_valid(s.torus, gamma, ns, tuple(Fraction(x, m) for x in r))
        for s, (r, m, _) in zip(summands, reduced)
    ]


def sym_point(points: Sequence[ModuliPoint]) -> tuple[tuple[Fraction, ...], ...]:
    """Canonical (sorted) coordinate multiset of equally-typed moduli points."""
    points = as_tuple(points, "ModuliPoints")
    _check_types(points, (ModuliPoint,) * len(points))
    if not points:
        return ()
    first = points[0]
    for p in points[1:]:
        if (p.torus, p.gamma, p.ns) != (first.torus, first.gamma, first.ns):
            raise MixedClasses("moduli points carry different (gamma, class) data")
    return tuple(sorted(p.coords for p in points))
