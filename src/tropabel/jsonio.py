"""JSON wire formats.

Rationals travel as strings "p/q" (plain "p" when integral) so that no float
ever enters the pipeline; integer lattice bases travel as JSON integers.
Every wire string is read by the memoised ``rationals.parse_rational``, so a
string that repeats is parsed once, and its errors come out here as
``ScenarioError`` with the same message.  A wire matrix decodes straight to
integer rows over one denominator.  Every encoder here but
``moduli_point_to_json``, whose points are only reported, has a decoder that
round-trips losslessly; ``na_bundle_from_json`` has no encoder, as no report
prints a multiplicative line bundle.

A decoder checks the JSON types and shapes, and returns
``Cls._from_valid(...)._checked()``: ``_checked()`` is the value's one
validation step, which its public constructor runs too, so each check is
written in the value's class alone, runs once and raises the constructor's error.

``bundles``, ``monomials``, ``naside`` and ``tropchar`` are read as modules,
which the package loads lazily, so decoding a tropical torus or a class on it
compiles none of them.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Any, Sequence

from . import bundles, monomials, naside, tropchar
from .errors import DimensionMismatch, MalformedScalar, TropabelError, ZeroDenominator
from .lattices import Sublattice
from .linalg import Mat
from .nspairings import NATorus, NSClass, TropTorus
from .rationals import parse_rational


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
    return Sublattice._from_valid(data)._checked()


def mono_to_json(m: monomials.ValuedMonomial) -> dict[str, str]:
    return {
        "mag": str(m.magnitude),
        "phase": str(m.phase),
        "texp": str(m.t_exponent),
    }


def mono_from_json(data: Any) -> monomials.ValuedMonomial:
    """mag, phase and texp, each parsed once."""
    if not isinstance(data, dict):
        raise ScenarioError(f"expected a monomial object, got {data!r}")
    mag = rational_from_json(data.get("mag", 1))
    phase = rational_from_json(data.get("phase", 0))
    texp = rational_from_json(data.get("texp", 0))
    return monomials.ValuedMonomial._from_valid(mag, phase, texp)._checked()


def point_to_json(p: monomials.MultiplicativePoint) -> list[dict[str, str]]:
    return [mono_to_json(c) for c in p.coords]


def point_from_json(data: Any) -> monomials.MultiplicativePoint:
    coords = tuple(mono_from_json(c) for c in _json_list(data, "monomials"))
    return monomials.MultiplicativePoint._from_valid(coords)


def torus_to_json(t: TropTorus | NATorus) -> dict[str, Any]:
    if isinstance(t, NATorus):
        return {"g": t.g, "generators": [point_to_json(p) for p in t.generators]}
    return {"g": t.g, "v": matrix_to_json(t.v)}


def torus_from_json(data: Any) -> TropTorus | NATorus:
    """The torus of 'generators' or 'v'; a 'g', which may be left out, must be its rank."""
    if not isinstance(data, dict):
        raise ScenarioError(f"expected a torus object, got {data!r}")
    if "generators" in data:
        points = tuple(point_from_json(p) for p in _json_list(data["generators"], "points"))
        torus = NATorus._from_valid(points)._checked()
    elif "v" in data:
        torus = TropTorus(matrix_from_json(data["v"]))
    else:
        raise ScenarioError("torus needs either 'generators' or 'v'")
    g = data.get("g", torus.g)
    if type(g) is not int or g != torus.g:
        raise ScenarioError(f"torus.g must be the rank {torus.g} of the torus, got {g!r}")
    return torus


def summand_to_json(s: bundles.TropLineBundle) -> dict[str, Any]:
    return {
        "lattice": lattice_to_json(s.lattice),
        "H": matrix_to_json(s.ns),
        "l": vector_to_json(s.l),
    }


def summand_from_json(data: Any, torus: TropTorus) -> bundles.TropLineBundle:
    """The summand on torus, a TropTorus, of its wire object."""
    if not isinstance(data, dict):
        raise ScenarioError(f"expected a summand object, got {data!r}")
    missing = [key for key in ("lattice", "H", "l") if key not in data]
    if missing:
        raise ScenarioError(f"summand is missing {', '.join(missing)}")
    lattice = lattice_from_json(data["lattice"])
    ns = matrix_from_json(data["H"])
    l = vector_from_json(data["l"])
    return bundles.TropLineBundle._from_valid(torus, lattice, ns, l)._checked()


def bundle_to_json(e: bundles.TropVectorBundle) -> dict[str, Any]:
    return {"summands": [summand_to_json(s) for s in e.summands]}


def bundle_from_json(data: Any, torus: TropTorus) -> bundles.TropVectorBundle:
    if not isinstance(data, dict):
        raise ScenarioError(f"expected a bundle object, got {data!r}")
    summands = _json_list(data.get("summands"), "summands")
    return bundles.TropVectorBundle._sorted(torus, [summand_from_json(s, torus) for s in summands])


def moduli_point_to_json(p: bundles.ModuliPoint) -> dict[str, Any]:
    return {
        "gamma": lattice_to_json(p.gamma),
        "H": matrix_to_json(p.ns),
        "coords": vector_to_json(p.coords),
    }


def gl_element_to_json(a: tropchar.TropGLElement) -> dict[str, Any]:
    return {"perm": [a.perm[i] + 1 for i in range(a.r)], "d": vector_to_json(a.d)}


def gl_element_from_json(data: Any) -> tropchar.TropGLElement:
    if not isinstance(data, dict) or "perm" not in data:
        raise ScenarioError(f"expected a tropical matrix object, got {data!r}")
    perm = data["perm"]
    if not isinstance(perm, list) or not all(type(i) is int for i in perm):
        raise ScenarioError(f"perm must be a list of integers, got {perm!r}")
    perm = tuple(i - 1 for i in perm)
    d = vector_from_json(data.get("d", ["0"] * len(perm)))
    return tropchar.TropGLElement._from_valid(perm, d)._checked()


def rep_to_json(rep: tropchar.TropRepresentation) -> dict[str, Any]:
    return {"images": [gl_element_to_json(a) for a in rep.images]}


def rep_from_json(data: Any) -> tropchar.TropRepresentation:
    if not isinstance(data, dict) or "images" not in data:
        raise ScenarioError(f"expected a representation object, got {data!r}")
    images = tuple(gl_element_from_json(a) for a in _json_list(data["images"], "tropical matrices"))
    return tropchar.TropRepresentation._from_valid(images)._checked()


def character_to_json(c: naside.NACharacter) -> list[dict[str, str]]:
    return [mono_to_json(v) for v in c.values]


def character_from_json(data: Any) -> naside.NACharacter:
    values = tuple(mono_from_json(v) for v in _json_list(data, "monomials"))
    return naside.NACharacter._from_valid(values)


def na_bundle_from_json(data: Any, torus: NATorus, default_ns: Mat | None) -> naside.NALineBundle:
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
    return naside.NALineBundle._from_valid(NSClass(torus, h), lattice, r)._checked()


def na_rep_to_json(rep: naside.NASemisimpleRep) -> dict[str, Any]:
    return {"characters": [character_to_json(c) for c in rep.characters]}


def na_rep_from_json(data: Any) -> naside.NASemisimpleRep:
    if not isinstance(data, dict) or "characters" not in data:
        raise ScenarioError(f"expected a semisimple representation, got {data!r}")
    characters = tuple(character_from_json(c) for c in _json_list(data["characters"], "characters"))
    return naside.NASemisimpleRep._from_valid(characters)._checked()
