"""Rational scalars.

The whole library computes over Q, represented by ``fractions.Fraction``.
These helpers coerce input to it and reject floats, so that none ever enters
the pipeline.
"""

from __future__ import annotations

from fractions import Fraction


def rat(x: int | str | Fraction) -> Fraction:
    """Coerce an int, Fraction, or "p/q" string to an exact rational.

    Floats are rejected on purpose: they have no place in an exact pipeline.
    """
    if isinstance(x, float):
        raise TypeError("floats are not allowed; pass an int, Fraction, or 'p/q' string")
    return Fraction(x)


def frac_mod_1(x: Fraction) -> Fraction:
    """Representative of x in [0, 1)."""
    return x - (x.numerator // x.denominator)

