"""Monomial model of the multiplicative group of a valued field.

An element is q * zeta * t^v with q a positive rational magnitude, zeta the
root of unity e^(2*pi*i*theta) for a rational phase theta in [0,1), and t the
uniformizer carrying the valuation v in Q.  This subgroup of K* is closed
under every operation the package performs and has decidable equality, which
is the whole point: pairings, cocycles and torsion questions are answered
exactly.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction

from ._frozen import Frozen
from .errors import DimensionMismatch, IrrationalRoot, MalformedScalar, NotExact, NotInLattice
from .rationals import as_int, as_tuple, check_types, frac_mod_1, rat


class ValuedMonomial(Frozen):
    """q * e^(2 pi i phase) * t^t_exponent, with q = magnitude > 0."""

    magnitude: Fraction
    phase: Fraction
    t_exponent: Fraction

    def __post_init__(self):
        object.__setattr__(self, "magnitude", rat(self.magnitude))
        object.__setattr__(self, "phase", frac_mod_1(rat(self.phase)))
        object.__setattr__(self, "t_exponent", rat(self.t_exponent))
        self._checked()

    def _checked(self) -> "ValuedMonomial":
        """This monomial, after checking that its magnitude is positive."""
        if self.magnitude.numerator <= 0:
            raise MalformedScalar(f"magnitude must be positive, got {self.magnitude}")
        return self

    @classmethod
    def _from_valid(
        cls, magnitude: Fraction, phase: Fraction, t_exponent: Fraction
    ) -> "ValuedMonomial":
        """A monomial from Fractions with magnitude > 0, as results of the group
        operations are: only the phase is reduced mod 1, the other checks are skipped."""
        self = cls.__new__(cls)
        object.__setattr__(self, "magnitude", magnitude)
        object.__setattr__(self, "phase", frac_mod_1(phase))
        object.__setattr__(self, "t_exponent", t_exponent)
        return self

    # -- constructors --------------------------------------------------------

    @classmethod
    def one(cls) -> "ValuedMonomial":
        return cls(Fraction(1), Fraction(0), Fraction(0))

    @classmethod
    def minus_one(cls) -> "ValuedMonomial":
        return cls(Fraction(1), Fraction(1, 2), Fraction(0))

    @classmethod
    def uniformizer(cls, v: int | str | Fraction = 1) -> "ValuedMonomial":
        """t^v: the canonical element of valuation v."""
        return cls(Fraction(1), Fraction(0), rat(v))

    # -- group structure -----------------------------------------------------

    def __mul__(self, other: "ValuedMonomial") -> "ValuedMonomial":
        return ValuedMonomial._from_valid(
            self.magnitude * other.magnitude,
            self.phase + other.phase,
            self.t_exponent + other.t_exponent,
        )

    def inv(self) -> "ValuedMonomial":
        return ValuedMonomial._from_valid(1 / self.magnitude, -self.phase, -self.t_exponent)

    def __truediv__(self, other: "ValuedMonomial") -> "ValuedMonomial":
        return self * other.inv()

    def __pow__(self, n: int) -> "ValuedMonomial":
        if type(n) is not int:
            raise NotExact(f"integer exponent required, got {n!r}; use root_pow for rationals")
        return ValuedMonomial._from_valid(self.magnitude**n, n * self.phase, n * self.t_exponent)

    def root_pow(self, e: Fraction) -> "ValuedMonomial":
        """x^e for rational e, defined only when the result stays monomial.

        Phase and valuation are divisible, but a fractional power of the
        magnitude must itself be rational; otherwise ``IrrationalRoot`` (a
        ``ValueError``) is raised.
        """
        e = rat(e)
        base = self.magnitude**e.numerator
        num = _int_root(base.numerator, e.denominator)
        den = _int_root(base.denominator, e.denominator)
        if num is None or den is None:
            raise IrrationalRoot(f"{self.magnitude}^{e} is not rational")
        # a rational root of a positive magnitude is positive
        return ValuedMonomial._from_valid(Fraction(num, den), e * self.phase, e * self.t_exponent)

    # -- structure of elements -----------------------------------------------

    def valuation(self) -> Fraction:
        return self.t_exponent


def _int_root(a: int, k: int) -> int | None:
    """Exact k-th root of a nonnegative integer, or None. Pure integer search."""
    if k == 1 or a in (0, 1):
        return a
    lo, hi = 1, 1 << (a.bit_length() // k + 1)
    while lo < hi:
        mid = (lo + hi) // 2
        if mid**k < a:
            lo = mid + 1
        else:
            hi = mid
    return lo if lo**k == a else None


ONE = ValuedMonomial.one()


class MultiplicativePoint(Frozen):
    """A point of (K*)^g in the monomial model."""

    coords: tuple[ValuedMonomial, ...]

    def __post_init__(self):
        coords = as_tuple(self.coords, "ValuedMonomials")
        check_types(coords, (ValuedMonomial,) * len(coords))
        object.__setattr__(self, "coords", coords)

    @property
    def g(self) -> int:
        return len(self.coords)


def eval_character(p: MultiplicativePoint, m: Sequence[int]) -> ValuedMonomial:
    """The character with exponent vector m, evaluated at p: prod p_i^{m_i}.

    This is the one monomial product of the package.  Each m_i must be an int
    or an integral Fraction; anything else raises ``NotInLattice``.
    """
    check_types((p, m), (MultiplicativePoint, Sequence))
    if len(m) != p.g:
        raise DimensionMismatch(f"character length {len(m)} != point length {p.g}")
    out = ONE
    for c, e in zip(p.coords, m):
        e = as_int(e, NotInLattice)
        if e:
            out = out * c**e
    return out
