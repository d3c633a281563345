"""Polarization classes on degenerate tori and their pairing lattices.

A class is a rational g x g matrix H over a torus (``tori``) whose column j
is the image of the j-th lattice generator in character coordinates.  From
(torus, H) the module computes the two distinguished sublattices — where H
is integral, and where the multiplicative pairing is symmetric against
everything — the torsion pairing between them, the defect group and the
admissible sublattices sitting between the two.  The defect group and the
walk over its Lagrangian subgroups are the finite side, ``groups``, read as
a module, so that only the defect group and the covers load it.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from functools import cached_property
from typing import Sequence

from . import groups, monomials  # modules, so that only the functions using them load them
from ._frozen import Frozen
from .errors import (
    DimensionMismatch,
    InternalInconsistency,
    InvalidClass,
    NotExact,
    NotInLargeLattice,
    NotInSmallLattice,
)
from .lattices import SUBGROUP_ENUMERATION_BOUND, Sublattice
from .linalg import Mat, _hermite_add, _hermite_rows, congruence_lattice
from .rationals import over_one_denominator
from .tori import NATorus, Torus, TropTorus, integrality_lattice, is_r_symmetric


def _h_image(h: Mat, b: Sequence[int | Fraction]) -> list[int]:
    """h @ b, which must be integral."""
    img = h.num_image(b)
    if any(x % h.den for x in img):
        raise NotInLargeLattice(f"h-image of {tuple(b)} is not integral")
    return [x // h.den for x in img]


class NSClass(Frozen):
    """A polarization-type class H over a fixed torus.

    Over a multiplicative torus the constructor additionally requires that
    some integer multiple of H is symmetric for the multiplicative pairing
    (equivalently: the torsion pairing of d*H on basis pairs is genuinely
    torsion).  Without that, the symmetry lattice is not defined.
    """

    torus: Torus
    matrix: Mat

    def __post_init__(self):
        if not isinstance(self.torus, (TropTorus, NATorus)) or not isinstance(self.matrix, Mat):
            raise NotExact("a class takes a TropTorus or an NATorus and a Mat")
        g = self.torus.g
        if (self.matrix.n, self.matrix.m) != (g, g):
            raise DimensionMismatch("class matrix must be g x g")
        if not is_r_symmetric(self.matrix, self.torus.v):
            raise InvalidClass("V^T H is not symmetric")
        if isinstance(self.torus, NATorus):
            # gm(e_i, e_j) for num = den * H is prod_k x_ik^num[k][j], x_ik coordinate k
            # of generator i.  Its valuations are symmetric (V^T H is) and phases never
            # decide torsion, so only magnitudes, pairs (N, D) cross-multiplied, can fail.
            mag = [[_power_ratio([c.magnitude.as_integer_ratio() for c in p.coords], col)
                    for col in zip(*self.matrix.num)] for p in self.torus.generators]
            if any(mag[i][j][0] * mag[j][i][1] != mag[j][i][0] * mag[i][j][1]
                   for i in range(g) for j in range(i)):
                raise InvalidClass(
                    "no integer multiple of H is symmetric for the "
                    "multiplicative pairing on this torus"
                )

    # -- basic pairings ------------------------------------------------------

    @cached_property
    def gram(self) -> Mat:
        """The real pairing matrix V^T @ H (symmetric by construction)."""
        return self.torus.v.T @ self.matrix

    def real_pairing(self, a: Sequence[int | Fraction], b: Sequence[int | Fraction]) -> Fraction:
        row = self.gram.mul_vec(b)
        return sum((x * y for x, y in zip(a, row)), Fraction(0))

    def _multiplicative_torus(self) -> NATorus:
        if not isinstance(self.torus, NATorus):
            raise InvalidClass("operation requires a multiplicative torus")
        return self.torus

    def gm_pairing(self, a: Sequence[int], b: Sequence[int]) -> monomials.ValuedMonomial:
        """The multiplicative pairing <a, H(b)>; b must land integrally."""
        point = self._multiplicative_torus().embed(a)
        return monomials.eval_character(point, _h_image(self.matrix, b))

    def torsion_pairing(self, a: Sequence[int], b: Sequence[int]) -> monomials.ValuedMonomial:
        """The alternating pairing gm(a,b)/gm(b,a); both args where H is integral."""
        return self.gm_pairing(a, b) / self.gm_pairing(b, a)

    def is_gm_symmetric_on(self, sub: Sublattice) -> bool:
        """Whether the multiplicative pairing is symmetric on the sublattice,
        which must lie in the integrality lattice."""
        if not self.integrality.contains_lattice(sub):
            raise NotInLargeLattice("sublattice is not contained in the integrality lattice")
        form, _ = self._phase_form(sub.generators())
        return not any(any(row) for row in form)

    @cached_property
    def _omega(self) -> tuple[list[list[int]], int]:
        """(W, den) with W / den = Omega = PH - (PH)^T, P[j][i] the phase of
        coordinate i of torus generator j.

        The phase of gm(a, b) is a^T P H b, so torsion_pairing(a, b) has phase
        a^T Omega b mod 1: magnitudes and valuations cancel for every class
        that passes the constructor.  Checked once, on each pair (a, b) of
        integrality generators, against torsion_pairing(a, b) read straight
        from the monomial components x_rk (coordinate k of generator r), in
        integers: with the net exponents e_rk = a_r (Hb)_k - b_r (Ha)_k it is
        prod x_rk^e_rk, of magnitude prod mag_rk^e_rk (``_power_ratio``) and of
        valuation and phase e . texp and e . phase, over one denominator each.
        """
        t = self._multiplicative_torus()
        g = self.torus.g
        coords = [c for gen in t.generators for c in gen.coords]
        phases, m = over_one_denominator([c.phase for c in coords])
        ph = Mat._from_int([phases[j * g : (j + 1) * g] for j in range(g)], m) @ self.matrix
        omega = [[ph.num[i][j] - ph.num[j][i] for j in range(g)] for i in range(g)]
        gens = self.integrality.generators()
        form = _form_mod(omega, ph.den, gens)
        images = [_h_image(self.matrix, b) for b in gens]
        mags = [c.magnitude.as_integer_ratio() for c in coords]
        texps, _ = over_one_denominator([c.t_exponent for c in coords])
        m_den = m * ph.den  # e . phase - form[i][j] / ph.den over m_den
        for i, (a, ha) in enumerate(zip(gens, images)):
            for j in range(i + 1, len(gens)):
                b, hb = gens[j], images[j]
                exps = [a[r] * hb[k] - b[r] * ha[k] for r in range(g) for k in range(g)]
                top, bottom = _power_ratio(mags, exps)
                if top != bottom or sum(map(operator.mul, exps, texps)):
                    raise InternalInconsistency("torsion pairing left the torsion subgroup")
                if (sum(map(operator.mul, exps, phases)) * ph.den - form[i][j] * m) % m_den:
                    raise InternalInconsistency("torsion pairing disagrees with its phase matrix")
        return omega, ph.den

    def _phase_form(self, gens: Sequence[Sequence[int]]) -> tuple[list[list[int]], int]:
        """(F, den) with F[i][j] / den the phase of torsion_pairing(gens[i], gens[j]):
        the integer form G^T Omega G mod den, Omega = PH - (PH)^T (see _omega);
        every generator must lie in the integrality lattice."""
        omega, den = self._omega
        return _form_mod(omega, den, gens), den

    # -- the distinguished lattices ------------------------------------------

    @cached_property
    def integrality(self) -> Sublattice:
        return integrality_lattice(self.matrix)

    @cached_property
    def symmetry(self) -> Sublattice:
        """Vectors pairing symmetrically with the whole integrality lattice G Z^g:
        the G x with G^T Omega G x = 0 mod 1, Omega = PH - (PH)^T the phase
        matrix of the torsion pairing, read from one congruence block over G."""
        lam = self.integrality
        cond, den = self._phase_form(lam.generators())
        return Sublattice._from_hermite(congruence_lattice(cond, den, lam.basis))

    @cached_property
    def defect_group(self) -> groups.FiniteAbelianGroup:
        """integrality / symmetry, the finite group carrying the torsion pairing."""
        return groups.quotient(self.integrality, self.symmetry)

    @cached_property
    def defect_phases(self) -> tuple[list[list[int]], int]:
        """(F, den) with F[i][j] / den the phase of the torsion pairing of the
        defect group's generator lifts i and j: the pairing is bilinear, so
        this one table holds it on the whole group."""
        return self._phase_form(self.defect_group.generator_lifts)

    def admissible_lattices(
        self, bound: int = SUBGROUP_ENUMERATION_BOUND
    ) -> list[Sublattice]:
        """Sublattices between symmetry and integrality whose defect image is a
        Lagrangian subgroup (isotropic of order sqrt|D|: the pairing is
        nondegenerate on D); each has index ``class_rank()`` in Z^g.  Their
        Hermite bases are built in the one subgroup walk (``groups._walk``),
        with no Hermite form per cover.  ``bound`` is the walk's step budget; it
        raises TooLarge when that runs out."""
        q = self.defect_group
        n = self.class_rank()
        lifts = list(zip(*q.generator_lifts))

        def extend(cols, col):
            # the node that places col joins its lift to the basis of every cover below
            return _hermite_add(cols, [sum(map(operator.mul, row, col)) for row in lifts])

        # symmetry = span(trivial columns, d_i * generator lifts) and a subgroup holds
        # each d_i e_i, so its cover is symmetry + span(lifts of its columns)
        root = list(zip(*self.symmetry.basis))
        leaves = groups._walk(
            q, n // self.integrality.index, bound, self.defect_phases, root, extend
        )
        lattices = [Sublattice._from_hermite(_hermite_rows(cols)) for cols in leaves]
        if not lattices or any(lat.index != n for lat in lattices):
            raise InternalInconsistency("admissible lattices violate the defect-order identity")
        return sorted(lattices, key=lambda lat: lat.basis)

    def class_rank(self) -> int:
        """The common index in Z^g of the admissible sublattices, with no enumeration:
        a Lagrangian has index sqrt|D| in D, so a cover has sqrt|D| * [Z^g : integrality].
        |D| = [integrality : symmetry] is read from the two indices in Z^g."""
        order = self.symmetry.index // self.integrality.index
        half = math.isqrt(order)
        if half * half != order:
            raise InternalInconsistency("defect group order is not a perfect square")
        return half * self.integrality.index

    # -- the extended pairing -------------------------------------------------

    def extended_pairing(
        self, gamma: Sequence[int], m0: Sequence[int], lam: Sequence[int]
    ) -> monomials.ValuedMonomial:
        """Pairing of gamma (in the symmetry lattice) against m0 + H(lam).

        The value <embed(gamma), m0> * gm(lam, gamma) does not depend on the
        chosen decomposition of the extended character.
        """
        if not self.symmetry.contains(gamma):
            raise NotInSmallLattice(f"{tuple(gamma)} is not in the symmetry lattice")
        t = self._multiplicative_torus()
        part = monomials.eval_character(t.embed(gamma), m0)
        return part * self.gm_pairing(lam, gamma)


def _form_mod(
    omega: Sequence[Sequence[int]], den: int, gens: Sequence[Sequence[int]]
) -> list[list[int]]:
    """The integer form gens^T omega gens, reduced mod den."""
    images = [[sum(w * x for w, x in zip(row, b)) for row in omega] for b in gens]
    return [[sum(x * y for x, y in zip(a, wb)) % den for wb in images] for a in gens]


def _power_ratio(mags: Sequence[tuple[int, int]], exps: Sequence[int]) -> tuple[int, int]:
    """(N, D) with N / D = prod (p / q)^e over the magnitudes p / q in lowest
    terms and their exponents e: p^e over q^e for e > 0, q^-e over p^-e for e < 0."""
    top = bottom = 1
    for (p, q), e in zip(mags, exps):
        if e and p != q:
            if e < 0:
                p, q, e = q, p, -e
            top, bottom = top * p**e, bottom * q**e
    return top, bottom
