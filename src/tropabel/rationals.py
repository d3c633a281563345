"""Rational scalars.

The whole library computes over Q, represented by ``fractions.Fraction``.
These helpers coerce input to it and reject floats and booleans, so that
none ever enters the pipeline.
"""

from __future__ import annotations

import re
from fractions import Fraction

# the one grammar of rational strings: "[+-]n" or "[+-]p/q"
RATIONAL = re.compile(r"([+-]?\d+)(?:/(\d+))?")


def rat(x: int | str | Fraction) -> Fraction:
    """Coerce an int, Fraction, or "n" / "p/q" string to an exact rational;
    a Fraction is returned as it is.

    Floats and booleans are rejected on purpose: they have no place in an
    exact pipeline.  Any other string raises ``ValueError``; "p/0" raises
    ``ZeroDivisionError``.
    """
    if type(x) is Fraction:
        return x
    if isinstance(x, str):
        match = RATIONAL.fullmatch(x)
        if match is None:
            raise ValueError(f"expected an integer or a rational string 'p/q', got {x!r}")
        num, den = match.groups()
        return Fraction(int(num), int(den) if den is not None else 1)
    if isinstance(x, (float, bool)):
        raise TypeError(
            "floats and booleans are not allowed; pass an int, Fraction, or 'p/q' string"
        )
    return Fraction(x)


def frac_mod_1(x: Fraction) -> Fraction:
    """Representative of x in [0, 1)."""
    return x - (x.numerator // x.denominator)
