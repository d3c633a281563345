"""Polarization classes on degenerate tori and their pairing lattices.

A torus is presented by its period lattice: either just tropically (positions
of the g lattice generators in N_R) or multiplicatively (g points of (K*)^g in
the monomial model).  A class is a rational g x g matrix H whose column j is
the image of the j-th lattice generator in character coordinates.

From (torus, H) the module computes the two distinguished sublattices — where
H is integral, and where the multiplicative pairing is symmetric against
everything — the torsion pairing between them, the admissible sublattices
sitting between the two, and the dual-side lattices with their index identity.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property
from typing import Sequence, Union

from ._frozen import Frozen
from .errors import (
    DimensionMismatch,
    InternalInconsistency,
    InvalidClass,
    NotExact,
    NotInLargeLattice,
    NotInSmallLattice,
    SingularLattice,
)
from .lattices import (
    SUBGROUP_ENUMERATION_BOUND,
    FiniteAbelianGroup,
    QLattice,
    Sublattice,
    enumerate_subgroups,
    quotient,
)
from .linalg import Mat, congruence_lattice
from .monomials import MultiplicativePoint, ValuedMonomial, eval_character
from .rationals import as_tuple


class TropTorus(Frozen):
    """Real torus N_R/Lambda; column j of v = position of generator j in N_Q."""

    v: Mat

    def __post_init__(self):
        v = self.v
        if not isinstance(v, Mat):
            raise NotExact(f"a period matrix is a Mat, got {v!r}")
        if v.n != v.m:
            raise DimensionMismatch("period matrix must be square")
        if v.n == 0:
            raise DimensionMismatch("a torus needs at least one period generator")
        if v.det() == 0:
            raise SingularLattice("period matrix must be nonsingular")

    @property
    def g(self) -> int:
        return self.v.n

    def position(self, a: Sequence[int | Fraction]) -> tuple[Fraction, ...]:
        """N_Q-coordinates of the point with lattice coordinates a."""
        return self.v.mul_vec(a)


class NATorus(Frozen):
    """Multiplicative torus (K*)^g / Lambda with monomial period generators."""

    generators: tuple[MultiplicativePoint, ...]

    def __post_init__(self):
        generators = as_tuple(self.generators, "MultiplicativePoints")
        if not all(isinstance(p, MultiplicativePoint) for p in generators):
            raise NotExact(f"torus generators must be MultiplicativePoints, got {generators!r}")
        object.__setattr__(self, "generators", generators)
        g = len(generators)
        if any(p.g != g for p in generators):
            raise DimensionMismatch("generator coordinates must have length g")
        # rank and nonsingularity are those of the valuation matrix
        self._trop

    @property
    def g(self) -> int:
        return len(self.generators)

    @cached_property
    def v(self) -> Mat:
        # column j = valuations of generator j's coordinates
        return Mat(
            [
                [self.generators[j].coords[i].valuation() for j in range(self.g)]
                for i in range(self.g)
            ]
        )

    def trop(self) -> TropTorus:
        return self._trop

    @cached_property
    def _trop(self) -> TropTorus:
        return TropTorus(self.v)

    def embed(self, a: Sequence[int]) -> MultiplicativePoint:
        """The period-lattice point with integer coordinates a: coordinate k is
        the character a evaluated at the k-th coordinates of the generators."""
        cols = zip(*(gen.coords for gen in self.generators))
        return MultiplicativePoint._from_valid(
            tuple(eval_character(MultiplicativePoint._from_valid(c), a) for c in cols)
        )


Torus = Union[TropTorus, NATorus]


def is_r_symmetric(h: Mat, v: Mat) -> bool:
    """Whether the real pairing V^T @ H is a symmetric matrix.

    V^T H is (V.num)^T H.num over the common factor V.den * H.den, so this
    compares the integer dot products of columns of V.num and H.num.
    """
    if v.n != h.n:
        raise DimensionMismatch(f"cannot multiply {v.m}x{v.n} by {h.n}x{h.m}")
    if v.m != h.m:
        return False
    vc, hc = list(zip(*v.num)), list(zip(*h.num))
    return all(
        sum(a * b for a, b in zip(vc[i], hc[j])) == sum(a * b for a, b in zip(vc[j], hc[i]))
        for i in range(v.m)
        for j in range(i)
    )


def integrality_lattice(h: Mat) -> Sublattice:
    """Sublattice of lattice vectors whose image under h is integral."""
    return Sublattice._from_hermite(congruence_lattice(h.num, h.den))


def dual_integrality_lattice(h: Mat) -> Sublattice:
    """Sublattice of character-dual vectors n with h^T @ n integral."""
    return integrality_lattice(h.T)


def extended_character_lattice(h: Mat) -> QLattice:
    """The character lattice enlarged by the image of h (full period lattice):
    the column span of [I | h] = [den I | num] / den."""
    rows = [[h.den if i == j else 0 for j in range(h.n)] + list(r) for i, r in enumerate(h.num)]
    return QLattice(Mat._from_int(rows, h.den))


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
            # gm(e_i, e_j) for num = den * H is prod_k x_ik^num[k][j], x_ik
            # coordinate k of generator i.  Its valuations are symmetric (V^T H
            # is) and phases never decide torsion, so only magnitudes can fail.
            num = self.matrix.num
            mag = [[math.prod(c.magnitude ** row[j] for c, row in zip(p.coords, num))
                    for j in range(g)] for p in self.torus.generators]
            if any(mag[i][j] != mag[j][i] for i in range(g) for j in range(i)):
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

    def gm_pairing(self, a: Sequence[int], b: Sequence[int]) -> ValuedMonomial:
        """The multiplicative pairing <a, H(b)>; b must land integrally."""
        return eval_character(self._multiplicative_torus().embed(a), _h_image(self.matrix, b))

    def torsion_pairing(self, a: Sequence[int], b: Sequence[int]) -> ValuedMonomial:
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
        exact rationals: with the net exponents e_rk = a_r (Hb)_k - b_r (Ha)_k
        it is prod x_rk^e_rk, of magnitude prod mag_rk^e_rk, valuation
        sum e_rk texp_rk and phase sum e_rk phase_rk.
        """
        t = self._multiplicative_torus()
        ph = Mat([[c.phase for c in gen.coords] for gen in t.generators]) @ self.matrix
        g = self.torus.g
        omega = [[ph.num[i][j] - ph.num[j][i] for j in range(g)] for i in range(g)]
        gens = self.integrality.generators()
        form = _form_mod(omega, ph.den, gens)
        images = [_h_image(self.matrix, b) for b in gens]
        coords = [c for gen in t.generators for c in gen.coords]
        for i, (a, ha) in enumerate(zip(gens, images)):
            for j in range(i + 1, len(gens)):
                b, hb = gens[j], images[j]
                exps = [a[r] * hb[k] - b[r] * ha[k] for r in range(g) for k in range(g)]
                terms = [(e, c) for e, c in zip(exps, coords) if e]
                magnitude = math.prod(c.magnitude**e for e, c in terms if c.magnitude != 1)
                if magnitude != 1 or sum(e * c.t_exponent for e, c in terms):
                    raise InternalInconsistency("torsion pairing left the torsion subgroup")
                phase = sum(e * c.phase for e, c in terms) - Fraction(form[i][j], ph.den)
                if phase.denominator != 1:
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
    def defect_group(self) -> FiniteAbelianGroup:
        """integrality / symmetry, the finite group carrying the torsion pairing."""
        return quotient(self.integrality, self.symmetry)

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
        nondegenerate on D); each has index ``class_rank()`` in Z^g.  ``bound``
        is the step budget of the walk in ``enumerate_subgroups``, which raises
        TooLarge when it runs out."""
        q = self.defect_group
        n = self.class_rank()
        lattices = []
        # the walk keeps only the subgroups isotropic for the pairing
        form = self.defect_phases
        for basis in enumerate_subgroups(q, n // self.integrality.index, bound, form):
            # symmetry = span(trivial columns, d_i * generator lifts) and the
            # subgroup holds each d_i e_i, so these g vectors span the cover
            gens = list(q._trivial) + [q.lift(c) for c in zip(*basis)]
            lattices.append(Sublattice.from_generators(gens))
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
    ) -> ValuedMonomial:
        """Pairing of gamma (in the symmetry lattice) against m0 + H(lam).

        The value <embed(gamma), m0> * gm(lam, gamma) does not depend on the
        chosen decomposition of the extended character.
        """
        if not self.symmetry.contains(gamma):
            raise NotInSmallLattice(f"{tuple(gamma)} is not in the symmetry lattice")
        t = self._multiplicative_torus()
        part = eval_character(t.embed(gamma), m0)
        return part * self.gm_pairing(lam, gamma)


def _form_mod(
    omega: Sequence[Sequence[int]], den: int, gens: Sequence[Sequence[int]]
) -> list[list[int]]:
    """The integer form gens^T omega gens, reduced mod den."""
    images = [[sum(w * x for w, x in zip(row, b)) for row in omega] for b in gens]
    return [[sum(x * y for x, y in zip(a, wb)) % den for wb in images] for a in gens]
