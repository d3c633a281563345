"""Rational scalars.

The whole library computes over Q, represented by ``fractions.Fraction``.
These helpers coerce input to it and reject floats and booleans, so that
none ever enters the pipeline, and read an integer without truncating it
or a sequence without accepting a scalar.
Strings in the one rational grammar are parsed by ``parse_rational``, which
memoises its results: the wire repeats few distinct strings.  Integer work on
a rational vector starts from ``over_one_denominator`` (checked at an entry point).
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from .errors import MalformedScalar, NotExact, TropabelError, ZeroDenominator

# the one grammar of rational strings: "[+-]n" or "[+-]p/q"
RATIONAL = re.compile(r"([+-]?\d+)(?:/(\d+))?")

# Entries kept by parse_rational's memo: a pass of the rep-square benchmark
# workload reads about 960 distinct strings.  An accepted string has at most 2 x 4,300 digits
# (the int conversion limit) at up to 4 bytes a character (a digit outside
# the BMP), about 34 KB, and a Fraction of two ints of about 1.9 KB each, so
# the memo holds at most about 75 MiB; a short wire string such as "-7/12"
# costs about 0.2 KB an entry.
PARSE_CACHE_SIZE = 2048


@lru_cache(maxsize=PARSE_CACHE_SIZE)
def parse_rational(s: str) -> Fraction:
    """The lowest-terms Fraction of a string in the ``RATIONAL`` grammar, memoised:
    a Fraction is immutable, so one value may serve every repeat of its string.
    Any other string, or a part with more digits than an int may be read from,
    raises ``MalformedScalar``, and "p/0" ``ZeroDenominator``; a raise is never
    cached."""
    match = RATIONAL.fullmatch(s)
    if match is None:
        raise MalformedScalar(f"expected an integer or a rational string 'p/q', got {s!r}")
    num, den = match.groups()
    try:
        num, den = int(num), int(den or "1")
    except ValueError:  # the grammar admits only digits: the int conversion digit limit
        raise MalformedScalar(
            f"rational string of {len(s)} characters has more digits than an int may be read from"
        ) from None
    if den == 0:
        raise ZeroDenominator(f"rational {s!r} has a zero denominator")
    return Fraction(num, den)


def rat(x: int | str | Fraction) -> Fraction:
    """Coerce an int, Fraction, or "n" / "p/q" string to an exact rational;
    a Fraction is returned as it is.

    Floats and booleans are rejected on purpose: they have no place in an
    exact pipeline.  They and any other type raise ``NotExact`` (a
    ``TypeError``).  A string is read by ``parse_rational``: any other string
    raises ``MalformedScalar`` (a ``ValueError``) and "p/0" ``ZeroDenominator``
    (a ``ZeroDivisionError``).
    """
    if type(x) is Fraction:
        return x
    if isinstance(x, str):
        return parse_rational(x)
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


def as_tuple(x, what: str) -> tuple:
    """x as a tuple; ``NotExact`` (a ``TypeError``) when x is not iterable."""
    try:
        return tuple(x)
    except TypeError:
        raise NotExact(f"expected a sequence of {what}, got {x!r}") from None


def over_one_denominator(v: Sequence[int | Fraction]) -> tuple[list[int], int]:
    """(w, m): the integer numerators of v over m, the lcm of its denominators."""
    m = math.lcm(*[x.denominator for x in v])
    if m == 1:
        return [x.numerator for x in v], 1
    return [x.numerator * (m // x.denominator) for x in v], m


def exact_over_one_denominator(v) -> tuple[list[int], int]:
    """``over_one_denominator`` of a vector of ints (not bools) and Fractions;
    ``NotExact`` for any other entry, or for a v that is not a sequence."""
    v = as_tuple(v, "rationals")
    if not set(map(type, v)) <= {int, Fraction}:
        raise NotExact(f"expected a vector of ints and Fractions, got {v!r}")
    return over_one_denominator(v)


def frac_mod_1(x: Fraction) -> Fraction:
    """Representative of x in [0, 1): x itself when it lies there, else the
    numerator reduced mod the denominator, which keeps it in lowest terms."""
    n, d = x.numerator, x.denominator
    if 0 <= n < d:
        return x
    return Fraction(n % d, d)
