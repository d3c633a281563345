"""Rational scalars.

The whole library computes over Q, represented by ``fractions.Fraction``.
These helpers coerce input to it and reject floats and booleans, so that
none ever enters the pipeline, and read an integer without truncating it.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import MalformedScalar, NotExact, TropabelError, ZeroDenominator

# the one grammar of rational strings: "[+-]n" or "[+-]p/q"
RATIONAL = re.compile(r"([+-]?\d+)(?:/(\d+))?")


def rat(x: int | str | Fraction) -> Fraction:
    """Coerce an int, Fraction, or "n" / "p/q" string to an exact rational;
    a Fraction is returned as it is.

    Floats and booleans are rejected on purpose: they have no place in an
    exact pipeline.  They and any other type raise ``NotExact`` (a
    ``TypeError``), any other string ``MalformedScalar`` (a ``ValueError``) and
    "p/0" ``ZeroDenominator`` (a ``ZeroDivisionError``).
    """
    if type(x) is Fraction:
        return x
    if isinstance(x, str):
        match = RATIONAL.fullmatch(x)
        if match is None:
            raise MalformedScalar(f"expected an integer or a rational string 'p/q', got {x!r}")
        num, den = match.groups()
        den = int(den) if den is not None else 1
        if den == 0:
            raise ZeroDenominator(f"rational {x!r} has a zero denominator")
        return Fraction(int(num), den)
    if isinstance(x, (float, bool)):
        raise NotExact(
            "floats and booleans are not allowed; pass an int, Fraction, or 'p/q' string"
        )
    try:
        return Fraction(x)
    except TypeError:
        raise NotExact(f"expected an int, Fraction, or 'p/q' string, got {x!r}") from None


def as_int(x: int | Fraction, error: type[TropabelError]) -> int:
    """x as an int, raising ``error`` unless x is an int (not a bool) or an
    integral Fraction: a float or a non-integral value is never truncated."""
    if type(x) is int:
        return x
    if isinstance(x, Fraction) and x.denominator == 1:
        return x.numerator
    raise error(f"expected an integer, got {x!r}")


def frac_mod_1(x: Fraction) -> Fraction:
    """Representative of x in [0, 1)."""
    return x - (x.numerator // x.denominator)
