"""Line bundles and semisimple representations over the monomial field model.

A line-bundle factor on a cover is a class together with multiplicative data r
on the cover lattice; r is stored on a basis and extended by a fixed cocycle
formula whose correctness is pinned by the cocycle identity.  Tropicalization
sends the data to the real side of the same torus, landing in the moduli
coordinates computed by the bundle module, and diagonal semisimple
representations tropicalize entrywise by valuation.

The rational work inside each operation runs on integer numerators over one
denominator, and only its results become Fractions: a semisimple
representation orders its characters by integer keys, and tropicalizing a
line bundle builds each covector entry as one Fraction.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from . import bundles, tropchar  # modules, so that only the functions using them load them
from ._frozen import Frozen
from .errors import (
    AmbientMismatch,
    InvalidClass,
    NotAdmissible,
    NotContained,
    NotExact,
    NotInLattice,
    SizeMismatch,
    TropabelError,
)
from .lattices import Sublattice, _smith_adapted
from .linalg import Mat
from .monomials import MultiplicativePoint, ValuedMonomial, eval_character
from .nspairings import NATorus, NSClass
from .rationals import as_int, as_tuple, over_one_denominator


class NACharacter(Frozen):
    """A homomorphism from the period lattice to the monomial units,
    stored by its values on the lattice basis."""

    values: tuple[ValuedMonomial, ...]

    def __post_init__(self):
        values = as_tuple(self.values, "ValuedMonomials")
        if not all(isinstance(v, ValuedMonomial) for v in values):
            raise TropabelError("character values must be ValuedMonomial values")
        object.__setattr__(self, "values", values)

    @property
    def g(self) -> int:
        return len(self.values)

    def value(self, a: Sequence[int]) -> ValuedMonomial:
        if len(a) != self.g:
            raise SizeMismatch("coordinate length differs from the character rank")
        return eval_character(MultiplicativePoint._from_valid(self.values), a)

    def __mul__(self, other: "NACharacter") -> "NACharacter":
        if self.g != other.g:
            raise SizeMismatch("characters have different ranks")
        return NACharacter._from_valid(tuple(a * b for a, b in zip(self.values, other.values)))


def unit_character(torus: NATorus, m: Sequence[int]) -> NACharacter:
    """The character lambda -> <lambda, m> of an integral character m."""
    return NACharacter._from_valid(tuple(eval_character(gen, m) for gen in torus.generators))


class NALineBundle(Frozen):
    """Factor of automorphy (class, r) on a cover lattice.

    ``r_basis`` holds the values of r on the Hermite basis of ``lattice``;
    the class must be integral and symmetric for the unit-group pairing there,
    which makes the cocycle extension below single-valued.
    """

    ns: NSClass
    lattice: Sublattice
    r_basis: tuple[ValuedMonomial, ...]

    def __post_init__(self):
        r_basis = as_tuple(self.r_basis, "ValuedMonomials")
        if not (
            isinstance(self.ns, NSClass)
            and isinstance(self.lattice, Sublattice)
            and all(isinstance(v, ValuedMonomial) for v in r_basis)
        ):
            raise NotExact("a line bundle takes an NSClass, a Sublattice and ValuedMonomials")
        object.__setattr__(self, "r_basis", r_basis)
        self._checked()

    def _checked(self) -> "NALineBundle":
        """This bundle, after the checks of its typed fields: a class on a
        multiplicative torus, the ranks, and ``_check_cover``."""
        torus = self.ns.torus
        if not isinstance(torus, NATorus):
            raise InvalidClass("the class must live on a multiplicative torus")
        if self.lattice.ambient_rank != torus.g or len(self.r_basis) != torus.g:
            raise AmbientMismatch("bundle data does not match the torus rank")
        _check_cover(self.ns, self.lattice)
        return self


def _check_cover(ns: NSClass, lattice: Sublattice) -> None:
    """The class must be integral and multiplicatively symmetric on the cover."""
    if not ns.integrality.contains_lattice(lattice):
        raise InvalidClass("class is not integral on the cover lattice")
    form, _ = ns._phase_form(lattice.generators())
    if any(any(row) for row in form):
        raise InvalidClass("class is not symmetric on the cover lattice")


def _extend_from_basis(
    ns: NSClass,
    basis: Sequence[tuple[int, ...]],
    values: Sequence[ValuedMonomial],
    coeffs: Sequence[int],
) -> ValuedMonomial:
    """r at sum(a_j b_j) for an r given on the b_j, via the cocycle formula.

    r(sum a_j b_j) = prod r_j^(a_j) * prod_(i<j) [b_i,b_j]^(a_i a_j)
                     * prod_j [b_j,b_j]^(a_j (a_j - 1)/2).
    """
    out = eval_character(MultiplicativePoint._from_valid(values), coeffs)
    n = len(basis)
    for i in range(n):
        a_i = coeffs[i]
        for j in range(i + 1, n):
            e = a_i * coeffs[j]
            if e:
                out = out * ns.gm_pairing(basis[i], basis[j]) ** e
        e = a_i * (a_i - 1) // 2
        if e:
            out = out * ns.gm_pairing(basis[i], basis[i]) ** e
    return out


def extend_r(b: NALineBundle, lam: Sequence[int]) -> ValuedMonomial:
    """The value of r at an arbitrary element of the cover lattice."""
    coeffs = b.lattice.coordinates([as_int(x, NotInLattice) for x in lam])
    if any(type(c) is not int for c in coeffs):
        raise NotInLattice("element is not in the cover lattice")
    return _extend_from_basis(b.ns, b.lattice.generators(), b.r_basis, coeffs)


def restrict_na(b: NALineBundle, sub: Sublattice) -> NALineBundle:
    """The same factor on a finer cover: r evaluated on the sublattice basis.
    A class integral and symmetric on the cover is so on sub."""
    if sub.ambient_rank != b.lattice.ambient_rank:
        raise AmbientMismatch("restriction target does not match the torus rank")
    if not b.lattice.contains_lattice(sub):
        raise NotContained("restriction target is not contained in the cover lattice")
    values = tuple(extend_r(b, v) for v in sub.generators())
    return NALineBundle._from_valid(b.ns, sub, values)


def represent_on(b: NALineBundle, target: Sublattice) -> NALineBundle:
    """A factor on another cover lattice with the same restriction to the
    intersection (hence the same bundle class).

    Works through a basis of the target adapted to the intersection and takes
    exact roots of the restricted values; raises ``IrrationalRoot`` (a
    ``ValueError``) when a required root does not exist in the monomial
    model.  Of the constructor's checks only the class on the new cover is
    not implied by b.
    """
    if target.ambient_rank != b.lattice.ambient_rank:
        raise AmbientMismatch("target lattice does not match the torus rank")
    u, d, adapted = _smith_adapted(target, b.lattice & target)
    values = []
    for k, w in zip(d, adapted):
        scaled = tuple(k * x for x in w)
        chi = extend_r(b, scaled)
        corr = b.ns.gm_pairing(w, w) ** (k * (k - 1) // 2)
        values.append((chi / corr).root_pow(Fraction(1, k)))
    values = tuple(values)
    # U holds the Hermite basis of target in adapted coordinates
    r_basis = tuple(
        _extend_from_basis(b.ns, adapted, values, [row[j] for row in u])
        for j in range(target.ambient_rank)
    )
    _check_cover(b.ns, target)
    return NALineBundle._from_valid(b.ns, target, r_basis)


def tropicalize_line_bundle(b: NALineBundle) -> bundles.TropLineBundle:
    """Valuation of the factor: l = v(r) - (1/2) [., .]-real on the basis.

    r at the k-th basis vector is r_basis[k] itself (every cocycle exponent
    of ``extend_r`` vanishes there), so its valuation is read off directly.
    The real pairing [v, v] = v^T G v, G = V^T H, is one integer quadratic
    form on G's numerator, over 2 * G's denominator with the 1/2, so each
    entry is one Fraction over the valuation's denominator times that.
    """
    torus = b.ns.torus.trop()
    gram = b.ns.gram
    den2 = 2 * gram.den
    l = []
    for r, v in zip(b.r_basis, b.lattice.generators()):
        form = sum(x * y for x, y in zip(v, gram.num_image(v)))
        t = r.t_exponent
        l.append(Fraction(t.numerator * den2 - form * t.denominator, t.denominator * den2))
    # b's class is real-symmetric (NSClass) and integral on its lattice
    return bundles.TropLineBundle._from_valid(torus, b.lattice, b.ns.matrix, tuple(l))


def tropicalize_simple(b: NALineBundle) -> bundles.ModuliPoint:
    """Moduli coordinate of the simple bundle presented by b.

    b's cover is integral and isotropic for the class (``NALineBundle``), so it
    is admissible iff it holds the symmetry lattice and has index class_rank().
    Restricts to the symmetry lattice of the class, tropicalizes, and reduces
    into the canonical coordinates; the output does not depend on which
    admissible cover was used to present the bundle.
    """
    gamma = b.ns.symmetry
    if not (gamma <= b.lattice and b.lattice.index == b.ns.class_rank()):
        raise NotAdmissible("cover lattice is not admissible for the class")
    s = tropicalize_line_bundle(restrict_na(b, gamma))
    return bundles.moduli_point(s, gamma, b.ns.matrix)


def translate_na(b: NALineBundle, x: MultiplicativePoint) -> NALineBundle:
    """Translate by a multiplicative point: r picks up <x, class(.)>."""
    if x.g != b.ns.torus.g:
        raise AmbientMismatch("point rank differs from the torus rank")
    h = b.ns.matrix
    values = []
    for v, r in zip(b.lattice.generators(), b.r_basis):
        # H v is integral: the class is integral on the cover
        values.append(r * eval_character(x, [c // h.den for c in h.num_image(v)]))
    return NALineBundle._from_valid(b.ns, b.lattice, tuple(values))


def bundle_times_character(b: NALineBundle, chi: NACharacter) -> NALineBundle:
    """Tensor with the degree-zero line bundle of a character."""
    values = tuple(
        r * chi.value(v) for r, v in zip(b.r_basis, b.lattice.generators())
    )
    return NALineBundle._from_valid(b.ns, b.lattice, values)


# ---------------------------------------------------------------------------
# Semisimple representations and the commuting square
# ---------------------------------------------------------------------------


class NASemisimpleRep(Frozen):
    """A multiset of rank-one representations, kept canonically sorted."""

    characters: tuple[NACharacter, ...]

    def __post_init__(self):
        characters = as_tuple(self.characters, "NACharacters")
        # over no characters this passes, so it may precede the check for none
        if not all(isinstance(c, NACharacter) for c in characters):
            raise NotExact(f"a representation takes NACharacters, got {characters!r}")
        object.__setattr__(self, "characters", characters)
        self._checked()

    def _checked(self) -> "NASemisimpleRep":
        """This representation with its characters in canonical order, after
        checking that there is at least one and that all have one rank."""
        if not self.characters:
            raise SizeMismatch("a representation needs at least one character")
        if any(c.g != self.g for c in self.characters):
            raise SizeMismatch("characters have different ranks")
        # the key of a character: its (magnitude, phase, t_exponent) Fractions,
        # value by value, each position scaled to integers over the lcm of its
        # denominators across the characters, which keeps their order; the
        # index last keeps the sort stable
        chars = self.characters
        rows = [[x for v in c.values for x in (v.magnitude, v.phase, v.t_exponent)] for c in chars]
        cols = [over_one_denominator(col)[0] for col in zip(*rows)]
        keys = sorted(zip(*cols, range(len(chars))))
        object.__setattr__(self, "characters", tuple(chars[k[-1]] for k in keys))
        return self

    @property
    def r(self) -> int:
        return len(self.characters)

    @property
    def g(self) -> int:
        return self.characters[0].g


def bundles_from_rep(rep: NASemisimpleRep, torus: NATorus) -> tuple[NALineBundle, ...]:
    """One degree-zero line bundle on the full lattice per character.

    Of the checks of ``NALineBundle`` only the torus type can fail here: the
    zero class is real- and multiplicatively symmetric and integral on the
    full lattice, and every character has g values.  So the torus type is
    checked, and the zero class and every bundle are built unchecked.
    """
    if torus.g != rep.g:
        raise AmbientMismatch("torus rank differs from the representation rank")
    if not isinstance(torus, NATorus):
        raise InvalidClass("the class must live on a multiplicative torus")
    zero = NSClass._from_valid(torus, Mat.zeros(torus.g, torus.g))
    full = Sublattice.full(torus.g)
    return tuple(NALineBundle._from_valid(zero, full, c.values) for c in rep.characters)


def trop_rep(rep: NASemisimpleRep) -> tropchar.TropRepresentation:
    """Entrywise valuation: a diagonal tropical representation."""
    r, g = rep.r, rep.g
    idperm = tuple(range(r))
    images = []
    for j in range(g):
        d = tuple(c.values[j].valuation() for c in rep.characters)
        images.append(tropchar.TropGLElement._from_valid(idperm, d))
    return tropchar.TropRepresentation(tuple(images))


def characters_equal_mod_m(c1: NACharacter, c2: NACharacter, torus: NATorus) -> bool:
    """Whether the characters present the same degree-zero bundle.

    True when the ratio is <., m> for an integral character m, found by
    solving the valuation system and verified by exact monomial equality.
    """
    if c1.g != c2.g or c1.g != torus.g:
        raise SizeMismatch("character ranks differ")
    ratios = tuple(b / a for a, b in zip(c1.values, c2.values))
    vals = tuple(r.valuation() for r in ratios)
    m = torus.v.T.solve(vals)
    if any(x.denominator != 1 for x in m):
        return False
    return all(eval_character(gen, m) == r for gen, r in zip(torus.generators, ratios))


def verify_commuting_square(
    rep: NASemisimpleRep, torus: NATorus
) -> tuple[bool, list[bundles.ModuliPoint], list[bundles.ModuliPoint]]:
    """Compare tropicalizing the bundle against the bundle of the
    tropicalized representation, as canonical moduli-point multisets.

    Both pipelines produce points for (full lattice, zero class) on the same
    real torus; returns the boolean together with both sorted point lists.
    The lists are sorted by their coordinates as integer numerators over one
    denominator common to all of them, the order of the coordinates.
    """
    g = torus.g
    zero = Mat.zeros(g, g)
    full = Sublattice.full(g)

    via_na = bundles.moduli_points(
        [tropicalize_line_bundle(b) for b in bundles_from_rep(rep, torus)], full, zero
    )
    trop_bundle = tropchar.bundle_from_rep(trop_rep(rep), torus.trop())
    via_trop = bundles.moduli_points(trop_bundle.summands, full, zero)
    den = math.lcm(*{x.denominator for p in via_na + via_trop for x in p.coords})

    def key(p: bundles.ModuliPoint) -> tuple[int, ...]:
        return tuple(x.numerator * (den // x.denominator) for x in p.coords)

    via_na.sort(key=key)
    via_trop.sort(key=key)
    return via_na == via_trop, via_na, via_trop
