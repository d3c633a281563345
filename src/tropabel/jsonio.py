"""JSON wire formats.

Rationals travel as strings "p/q" (plain "p" when integral) so that no float
ever enters the pipeline; integer lattice bases travel as JSON integers.
Every wire string is read by the memoised ``rationals.parse_rational``, so a
string that repeats is parsed once, and its errors come out here as
``ScenarioError`` with the same message.  A wire matrix decodes straight to
integer rows over one denominator.  Every encoder here has a decoder that
round-trips losslessly.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Any, Sequence

from .bundles import ModuliPoint, TropLineBundle, TropVectorBundle
from .errors import DimensionMismatch, MalformedScalar, TropabelError, ZeroDenominator
from .lattices import Sublattice
from .linalg import Mat
from .monomials import MultiplicativePoint, ValuedMonomial
from .naside import NACharacter, NALineBundle, NASemisimpleRep
from .nspairings import NATorus, NSClass, TropTorus
from .rationals import parse_rational
from .tropchar import TropGLElement, TropRepresentation


class ScenarioError(TropabelError):
    """Malformed or unresolvable scenario data."""


def _json_list(data: Any, what: str) -> list:
    """data, which must be a JSON list (of ``what``)."""
    if not isinstance(data, list):
        raise ScenarioError(f"expected a list of {what}, got {data!r}")
    return data


def rational_to_json(x: Fraction) -> str:
    return str(x)


def rational_from_json(s: Any) -> Fraction:
    """A JSON integer (not a boolean) or a string "n" / "p/q"; a string is
    read by ``parse_rational``, whose errors are raised as ``ScenarioError``."""
    if type(s) is int:
        return Fraction(s)
    if not isinstance(s, str):
        raise ScenarioError(f"expected an integer or a rational string 'p/q', got {s!r}")
    try:
        return parse_rational(s)
    except (MalformedScalar, ZeroDenominator) as exc:
        raise ScenarioError(str(exc)) from None


def _rational_pair(s: Any) -> tuple[int, int]:
    """(p, q), q > 0, in lowest terms, of a wire rational read by ``rational_from_json``."""
    if type(s) is int:
        return s, 1
    x = rational_from_json(s)
    return x.numerator, x.denominator


def vector_to_json(v: Sequence[Fraction]) -> list[str]:
    return [str(x) for x in v]


def vector_from_json(data: Any) -> tuple[Fraction, ...]:
    return tuple(rational_from_json(x) for x in _json_list(data, "rationals"))


def matrix_to_json(m: Mat) -> list[list[str]]:
    if m.den == 1:
        return [[str(x) for x in row] for row in m.num]
    return [[str(Fraction(x, m.den)) for x in row] for row in m.num]


def matrix_from_json(data: Any) -> Mat:
    """The integer rows over the lcm of the wire denominators; ``Mat._from_int``
    cancels their common factor, which leaves the least denominator."""
    rows = [
        [_rational_pair(x) for x in _json_list(row, "rationals")]
        for row in _json_list(data, "matrix rows")
    ]
    if any(len(row) != len(rows[0]) for row in rows):
        raise DimensionMismatch("ragged rows")
    den = math.lcm(*(q for row in rows for _, q in row))
    return Mat._from_int([[p * (den // q) for p, q in row] for row in rows], den)


def lattice_to_json(lat: Sublattice) -> list[list[int]]:
    return [list(row) for row in lat.basis]


def lattice_from_json(data: Any) -> Sublattice:
    if (
        not isinstance(data, list)
        or not data
        or not all(
            isinstance(r, list) and len(r) == len(data) and all(type(x) is int for x in r)
            for r in data
        )
    ):
        raise ScenarioError(f"expected a square integer lattice basis, got {data!r}")
    return Sublattice(data)


def mono_to_json(m: ValuedMonomial) -> dict[str, str]:
    return {
        "mag": str(m.magnitude),
        "phase": str(m.phase),
        "texp": str(m.t_exponent),
    }


def mono_from_json(data: Any) -> ValuedMonomial:
    """mag, phase and texp, each parsed once; a magnitude that is not positive
    raises a bare ValueError, whose CLI error kind is ``ValueError`` (the
    ``ValuedMonomial`` constructor raises ``MalformedScalar``, a subclass)."""
    if not isinstance(data, dict):
        raise ScenarioError(f"expected a monomial object, got {data!r}")
    mag = rational_from_json(data.get("mag", 1))
    phase = rational_from_json(data.get("phase", 0))
    texp = rational_from_json(data.get("texp", 0))
    if mag <= 0:
        raise ValueError(f"magnitude must be positive, got {mag}")
    return ValuedMonomial._from_valid(mag, phase, texp)


def point_to_json(p: MultiplicativePoint) -> list[dict[str, str]]:
    return [mono_to_json(c) for c in p.coords]


def point_from_json(data: Any) -> MultiplicativePoint:
    return MultiplicativePoint(tuple(mono_from_json(c) for c in _json_list(data, "monomials")))


def torus_to_json(t: TropTorus | NATorus) -> dict[str, Any]:
    if isinstance(t, NATorus):
        return {"g": t.g, "generators": [point_to_json(p) for p in t.generators]}
    return {"g": t.g, "v": matrix_to_json(t.v)}


def torus_from_json(data: Any) -> TropTorus | NATorus:
    if not isinstance(data, dict):
        raise ScenarioError(f"expected a torus object, got {data!r}")
    if "generators" in data:
        return NATorus(tuple(point_from_json(p) for p in _json_list(data["generators"], "points")))
    if "v" in data:
        return TropTorus(matrix_from_json(data["v"]))
    raise ScenarioError("torus needs either 'generators' or 'v'")


def summand_to_json(s: TropLineBundle) -> dict[str, Any]:
    return {
        "lattice": lattice_to_json(s.lattice),
        "H": matrix_to_json(s.ns),
        "l": vector_to_json(s.l),
    }


def summand_from_json(data: Any, torus: TropTorus) -> TropLineBundle:
    if not isinstance(data, dict):
        raise ScenarioError(f"expected a summand object, got {data!r}")
    missing = [key for key in ("lattice", "H", "l") if key not in data]
    if missing:
        raise ScenarioError(f"summand is missing {', '.join(missing)}")
    return TropLineBundle(
        torus,
        lattice_from_json(data["lattice"]),
        matrix_from_json(data["H"]),
        vector_from_json(data["l"]),
    )


def bundle_to_json(e: TropVectorBundle) -> dict[str, Any]:
    return {"summands": [summand_to_json(s) for s in e.summands]}


def bundle_from_json(data: Any, torus: TropTorus) -> TropVectorBundle:
    if not isinstance(data, dict):
        raise ScenarioError(f"expected a bundle object, got {data!r}")
    summands = _json_list(data.get("summands"), "summands")
    return TropVectorBundle(torus, tuple(summand_from_json(s, torus) for s in summands))


def moduli_point_to_json(p: ModuliPoint) -> dict[str, Any]:
    return {
        "gamma": lattice_to_json(p.gamma),
        "H": matrix_to_json(p.ns),
        "coords": vector_to_json(p.coords),
    }


def gl_element_to_json(a: TropGLElement) -> dict[str, Any]:
    return {"perm": [a.perm[i] + 1 for i in range(a.r)], "d": vector_to_json(a.d)}


def gl_element_from_json(data: Any) -> TropGLElement:
    if not isinstance(data, dict) or "perm" not in data:
        raise ScenarioError(f"expected a tropical matrix object, got {data!r}")
    if not isinstance(data["perm"], list) or not all(type(i) is int for i in data["perm"]):
        raise ScenarioError(f"perm must be a list of integers, got {data['perm']!r}")
    perm = tuple(i - 1 for i in data["perm"])
    d = vector_from_json(data.get("d", ["0"] * len(perm)))
    return TropGLElement(perm, d)


def rep_to_json(rep: TropRepresentation) -> dict[str, Any]:
    return {"images": [gl_element_to_json(a) for a in rep.images]}


def rep_from_json(data: Any) -> TropRepresentation:
    if not isinstance(data, dict) or "images" not in data:
        raise ScenarioError(f"expected a representation object, got {data!r}")
    images = _json_list(data["images"], "tropical matrices")
    return TropRepresentation(tuple(gl_element_from_json(a) for a in images))


def character_to_json(c: NACharacter) -> list[dict[str, str]]:
    return [mono_to_json(v) for v in c.values]


def character_from_json(data: Any) -> NACharacter:
    return NACharacter(tuple(mono_from_json(v) for v in _json_list(data, "monomials")))


def na_bundle_from_json(data: Any, torus: NATorus, default_ns: Mat | None) -> NALineBundle:
    if not isinstance(data, dict) or "r" not in data:
        raise ScenarioError(f"expected a line-bundle object, got {data!r}")
    if "H" in data:
        h = matrix_from_json(data["H"])
    elif default_ns is not None:
        h = default_ns
    else:
        raise ScenarioError("line bundle needs 'H' (no scenario ns_class to fall back on)")
    lattice = (
        lattice_from_json(data["lattice"])
        if "lattice" in data
        else Sublattice.full(torus.g)
    )
    r = tuple(mono_from_json(v) for v in _json_list(data["r"], "monomials"))
    return NALineBundle(NSClass(torus, h), lattice, r)


def na_rep_to_json(rep: NASemisimpleRep) -> dict[str, Any]:
    return {"characters": [character_to_json(c) for c in rep.characters]}


def na_rep_from_json(data: Any) -> NASemisimpleRep:
    if not isinstance(data, dict) or "characters" not in data:
        raise ScenarioError(f"expected a semisimple representation, got {data!r}")
    characters = _json_list(data["characters"], "characters")
    return NASemisimpleRep(tuple(character_from_json(c) for c in characters))
