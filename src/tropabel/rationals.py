"""Rational scalars.

The whole library computes over Q, represented by ``fractions.Fraction``.
These helpers coerce input to it and reject floats and booleans, so that none ever
enters the pipeline, and read an integer without truncating it or a sequence without
accepting a scalar.  ``parse_rational`` parses the one rational grammar and is
memoised (the wire repeats few distinct strings); a wire matrix reads its Fractions as
pairs, ``as_integer_ratio()``, with no cache of its own.  The bounds of the wire
boundary's three memos are kept here together: this parse memo's and those of the
lattice and torus memos of ``jsonio``.  Integer work on a rational vector starts from
``over_one_denominator`` (checked at an entry point).  ``check_types`` is the one rule
for an argument of the wrong type: every entry point calls it before any work.
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

# Entries kept by parse_rational's memo, the one cache of parsed strings: a pass of the
# rep-square benchmark reads about 960 distinct strings.  An accepted string has at most
# 2 x 4,300 digits (the int conversion limit) at up to 4 bytes a character (a digit outside
# the BMP), about 34 KB, and a Fraction of two ints of about 1.9 KB each, so the memo holds
# at most about 75 MiB; a short string such as "-7/12" costs about 0.2 KB an entry.
# Reading an entry as a pair (``as_integer_ratio()``) stores nothing more.
PARSE_CACHE_SIZE = 2048

# Entries kept by jsonio's memo of decoded lattices, keyed by the wire basis: a case of
# the bundle-calculus benchmark reads about 17 bases, at most 7 of them distinct.  An
# entry holds its g x g key and the lattice: the Hermite basis, ``mat`` (the same ints)
# and ``_adjugate``, whose entries are bounded by the determinant, at most about g times
# the bits of the largest key entry.  At the int conversion limit (about 1.9 KB an
# int) that is at most (2g + 1) g^2 x 1.9 KB, 0.27 MB for g = 4 and so about 9 MiB
# for the memo; a basis of small ints costs about 2 KB an entry.
LATTICE_CACHE_SIZE = 32

# Entries kept by jsonio's memo of decoded tropical tori, keyed by the period matrix,
# which the torus shares: a scenario has one torus.  Over the lcm of g^2 wire
# denominators a numerator has at most g^2 + 1 times the digits of one wire integer,
# so an entry is at most g^2 (g^2 + 1) x 1.9 KB, 0.52 MB for g = 4 and so about
# 4 MiB for the memo; a small g = 2 period matrix costs about 0.4 KB.
TORUS_CACHE_SIZE = 8


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
    """x as a tuple; ``NotExact`` (a ``TypeError``) when x is not iterable, or is a
    ``str`` or ``bytes``, whose characters would otherwise be read as entries."""
    if isinstance(x, (str, bytes)):
        raise NotExact(f"expected a sequence of {what}, got {x!r}")
    try:
        return tuple(x)
    except TypeError:
        raise NotExact(f"expected a sequence of {what}, got {x!r}") from None


def check_types(values: tuple, types: tuple) -> None:
    """NotExact unless each value is an instance of the type (or a tuple of types) beside it."""
    for value, cls in zip(values, types):
        if not isinstance(value, cls):
            names = " or ".join(t.__name__ for t in cls) if isinstance(cls, tuple) else cls.__name__
            raise NotExact(f"expected a {names}, got a {type(value).__name__}")


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
