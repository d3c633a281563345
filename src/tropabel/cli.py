"""Deterministic command-line interface over JSON scenario files.

Usage: tropabel <command> [op] --scenario FILE [--seed N] [--bound N] [--out FILE]

The commands (ns-analyze, bundle, rep, na), their help texts and op names are
the one table ``COMMANDS``; the parser is built from it, and one ``cmd_*``
function per command implements its ops.  Identical (scenario, seed) pairs produce
byte-identical output; exit codes are 0 success, 2 validation, 3 resource
bound exceeded, 4 internal inconsistency or any other fault of the program.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from fractions import Fraction
from typing import Any, Callable

from . import bundles, jsonio, monomials, naside, tropchar
from .errors import AmbientMismatch, SizeMismatch, TooLarge, TropabelError
from .lattices import SUBGROUP_ENUMERATION_BOUND
from .nspairings import (
    NATorus,
    NSClass,
    TropTorus,
    dual_integrality_lattice,
    extended_character_lattice,
)


# each integer parameter: its default, its least value (None: any) and its description
INT_PARAMETERS: dict[str, tuple[int, int | None, str]] = {
    "count": (5, 1, "a positive integer"),
    "r": (2, 1, "a positive integer"),
    "seed": (0, None, "an integer"),
    "bound": (SUBGROUP_ENUMERATION_BOUND, 0, "a nonnegative integer"),
}


def _int_parameter(key: str, value: Any, where: str) -> int:
    """value, checked by the rule of the integer parameter key; the error names it as where."""
    _, least, kind = INT_PARAMETERS[key]
    if type(value) is not int or least is not None and value < least:
        raise jsonio.ScenarioError(f"{where} must be {kind}, got {value!r}")
    return value


class Scenario:
    """Parsed scenario file: a torus plus named objects and parameters."""

    def __init__(self, data: Any):
        if not isinstance(data, dict):
            raise jsonio.ScenarioError("scenario root must be a JSON object")
        if "torus" not in data:
            raise jsonio.ScenarioError("scenario is missing the 'torus' field")
        self.torus = jsonio.torus_from_json(data["torus"])
        self.ns_class = (
            jsonio.matrix_from_json(data["ns_class"]) if "ns_class" in data else None
        )
        self.parameters: dict[str, Any] = data.get("parameters", {})
        if not isinstance(self.parameters, dict):
            raise jsonio.ScenarioError("'parameters' must be an object")
        # the integer parameters, each as given or its default
        self.integers = {
            key: _int_parameter(key, self.parameters.get(key, default), f"parameters.{key}")
            for key, (default, _, _) in INT_PARAMETERS.items()
        }
        names = self.parameters.get("operands", "")
        if not isinstance(names, (str, list)) or not all(isinstance(n, str) for n in names):
            raise jsonio.ScenarioError(f"parameters.operands must be names, got {names!r}")
        self._raw = data

    @property
    def trop_torus(self) -> TropTorus:
        return self.torus.trop() if isinstance(self.torus, NATorus) else self.torus

    @property
    def na_torus(self) -> NATorus:
        if not isinstance(self.torus, NATorus):
            raise jsonio.ScenarioError("this command needs a multiplicative torus")
        return self.torus

    def named(self, section: str, kind: str, decode: Callable[[Any], Any]) -> dict[str, Any]:
        """The objects of a named section, each decoded in file order."""
        table = self._raw.get(section, {})
        if not isinstance(table, dict):
            raise jsonio.ScenarioError(f"'{section}' must be an object of named {kind}s")
        return {name: decode(raw) for name, raw in table.items()}

    def operands(
        self, count: int, section: str, kind: str, decode: Callable[[Any], Any]
    ) -> list[Any]:
        """The first ``count`` objects that parameters.operands names in the
        section (without names, a section of ``count`` objects in name order);
        the whole section is decoded, by ``named``."""
        available = self.named(section, kind, decode)
        names = self.parameters.get("operands")
        if isinstance(names, str):
            names = [names]
        if names is None:
            if len(available) == count:
                names = sorted(available)
            else:
                raise jsonio.ScenarioError(
                    f"parameters.operands must name {count} entries of '{section}'"
                )
        if len(names) < count:
            raise jsonio.ScenarioError(f"expected {count} operands, got {len(names)}")
        out = []
        for name in names[:count]:
            if name not in available:
                raise jsonio.ScenarioError(f"'{name}' not found in '{section}'")
            out.append(available[name])
        return out


def load_scenario(path: str) -> Scenario:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise jsonio.ScenarioError(f"cannot read scenario: {exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise jsonio.ScenarioError(f"scenario is not valid JSON: {exc}") from exc
    except ValueError as exc:  # json.load reads an integer past the int conversion digit limit
        raise jsonio.ScenarioError(
            "scenario has a JSON integer with more digits than an int may be read from"
        ) from exc
    return Scenario(data)


def write_report(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise jsonio.ScenarioError(f"cannot write report: {exc}") from exc


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_ns_analyze(scenario: Scenario, bound: int) -> dict[str, Any]:
    if scenario.ns_class is None:
        raise jsonio.ScenarioError("ns-analyze needs an 'ns_class' matrix")
    torus = scenario.torus
    cls = NSClass(torus, scenario.ns_class)  # refuses a class whose V^T H is not symmetric
    report: dict[str, Any] = {
        "g": torus.g,
        "ns_class": jsonio.matrix_to_json(cls.matrix),
        "r_symmetric": True,
        "integrality_lattice": jsonio.lattice_to_json(cls.integrality),
        "integrality_index": cls.integrality.index,
    }
    m_large = extended_character_lattice(cls.matrix)
    n_large = dual_integrality_lattice(cls.matrix)
    report["extended_character_lattice"] = jsonio.matrix_to_json(m_large.basis)
    report["extended_character_index"] = int(1 / m_large.covolume)
    report["dual_integrality_lattice"] = jsonio.lattice_to_json(n_large)
    report["dual_integrality_index"] = n_large.index
    if isinstance(torus, NATorus):
        # the pairing is symmetric on the integrality lattice exactly when that is
        # the symmetry lattice
        report["gm_symmetric"] = cls.symmetry == cls.integrality
        report["symmetry_lattice"] = jsonio.lattice_to_json(cls.symmetry)
        report["symmetry_index"] = cls.symmetry.index
        defect = cls.defect_group
        report["defect_invariants"] = [d for d in defect.invariant_factors]
        lifts = [list(l) for l in defect.generator_lifts]
        report["defect_generators"] = lifts
        form, den = cls.defect_phases
        report["torsion_pairing_phases"] = [
            [jsonio.rational_to_json(Fraction(x, den)) for x in row] for row in form
        ]
        admissible = cls.admissible_lattices(bound)
        report["admissible_lattices"] = [jsonio.lattice_to_json(l) for l in admissible]
        report["class_rank"] = cls.class_rank()
    return report


def _with_torus(obj: Any, to_json: Callable[[Any], dict[str, Any]]) -> dict[str, Any]:
    """``to_json(obj)`` plus the torus that ``obj`` lives on."""
    out = to_json(obj)
    out["torus"] = jsonio.torus_to_json(obj.torus)
    return out


def cmd_bundle(scenario: Scenario, op: str) -> dict[str, Any]:
    torus = scenario.trop_torus
    params = scenario.parameters

    def need(key: str, decode: Callable[[Any], Any]) -> Any:
        if key not in params:
            raise jsonio.ScenarioError(f"{op} needs parameters.{key}")
        return decode(params[key])

    def operands(count: int, on: TropTorus = torus) -> list[bundles.TropVectorBundle]:
        return scenario.operands(
            count, "bundles", "bundle", lambda raw: jsonio.bundle_from_json(raw, on)
        )

    def single_summand(e: bundles.TropVectorBundle) -> bundles.TropLineBundle:
        if len(e.summands) != 1:
            raise jsonio.ScenarioError("this operation needs a single-summand bundle")
        return e.summands[0]

    if op in ("sum", "tensor"):
        e1, e2 = operands(2)
        result = bundles.direct_sum(e1, e2) if op == "sum" else bundles.tensor(e1, e2)
        return _with_torus(result, jsonio.bundle_to_json)
    if op == "pullback":
        sub = need("sub", jsonio.lattice_from_json)
        (e,) = operands(1)
        return _with_torus(bundles.pullback(e, sub), jsonio.bundle_to_json)
    if op == "pushforward":
        sub = need("sub", jsonio.lattice_from_json)
        (e,) = operands(1, bundles.cover_torus(torus, sub))
        return _with_torus(bundles.pushforward(e, sub, torus), jsonio.bundle_to_json)
    if op == "translate":
        x = need("x", jsonio.vector_from_json)
        (e,) = operands(1)
        return _with_torus(bundles.translate(e, x), jsonio.bundle_to_json)
    if op == "slope":
        (e,) = operands(1)
        return {
            "slope": jsonio.matrix_to_json(bundles.slope(e)),
            "rank": e.rank,
            "homogeneous": bundles.is_homogeneous(e),
            "semi_homogeneous": bundles.is_semi_homogeneous(e),
        }
    if op == "equiv":
        e1, e2 = operands(2)
        s1, s2 = single_summand(e1), single_summand(e2)
        cover = (
            jsonio.lattice_from_json(params["cover"]) if "cover" in params else None
        )
        return {"equivalent": bundles.equivalent(s1, s2, cover)}
    if op == "moduli-point":
        (e,) = operands(1)
        s = single_summand(e)
        gamma = (
            jsonio.lattice_from_json(params["gamma"])
            if "gamma" in params
            else s.lattice
        )
        ns = scenario.ns_class if scenario.ns_class is not None else s.ns
        return jsonio.moduli_point_to_json(bundles.moduli_point(s, gamma, ns))
    raise jsonio.ScenarioError(f"unknown bundle op {op!r}")


def cmd_rep(scenario: Scenario, op: str) -> dict[str, Any]:
    (rep,) = scenario.operands(1, "representations", "representation", jsonio.rep_from_json)
    if rep.g != scenario.torus.g:
        raise SizeMismatch("torus rank differs from the number of generators")
    if op == "decompose":
        pieces = tropchar.decompose_rep(rep)
        return {
            "summands": [
                {
                    "orbit": [i + 1 for i in s.orbit],
                    "lattice": jsonio.lattice_to_json(s.lattice),
                    "l": jsonio.vector_to_json(s.l),
                }
                for s in pieces
            ]
        }
    if op == "canonical":
        classes = tropchar.canonical_form(rep)
        return {
            "classes": [
                {"lattice": jsonio.lattice_to_json(lat), "l": jsonio.vector_to_json(l)}
                for lat, l in classes
            ]
        }
    if op == "eta":
        e = tropchar.bundle_from_rep(rep, scenario.trop_torus)
        return _with_torus(e, jsonio.bundle_to_json)
    if op == "stratum":
        lats = tropchar.stratum(rep)
        return {"lattices": [jsonio.lattice_to_json(lat) for lat in lats]}
    raise jsonio.ScenarioError(f"unknown rep op {op!r}")


def _random_monomial(rng: random.Random) -> monomials.ValuedMonomial:
    mag = Fraction(rng.randint(1, 5), rng.randint(1, 5))
    phase = Fraction(rng.randint(0, 5), rng.randint(1, 6))
    texp = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
    return monomials.ValuedMonomial(mag, phase, texp)


def _random_na_rep(rng: random.Random, r: int, g: int) -> naside.NASemisimpleRep:
    chars = tuple(
        naside.NACharacter(tuple(_random_monomial(rng) for _ in range(g)))
        for _ in range(r)
    )
    return naside.NASemisimpleRep(chars)


def cmd_na(scenario: Scenario, op: str, seed: int, bound: int) -> dict[str, Any]:
    torus = scenario.na_torus

    def of_torus_rank(rep: naside.NASemisimpleRep) -> naside.NASemisimpleRep:
        if rep.g != torus.g:
            raise AmbientMismatch("torus rank differs from the representation rank")
        return rep

    rep_section = ("na_reps", "semisimple representation", jsonio.na_rep_from_json)
    if op in ("trop-line", "trop-simple"):
        (b,) = scenario.operands(
            1,
            "na_bundles",
            "line bundle",
            lambda raw: jsonio.na_bundle_from_json(raw, torus, scenario.ns_class),
        )
        if op == "trop-line":
            return _with_torus(naside.tropicalize_line_bundle(b), jsonio.summand_to_json)
        return jsonio.moduli_point_to_json(naside.tropicalize_simple(b))
    if op == "trop-rep":
        (rep,) = scenario.operands(1, *rep_section)
        return jsonio.rep_to_json(naside.trop_rep(of_torus_rank(rep)))
    if op == "verify-square":
        table = scenario.named(*rep_section)
        if table:
            reps = [of_torus_rank(table[name]) for name in sorted(table)]
        else:
            rng = random.Random(seed)
            count, r = scenario.integers["count"], scenario.integers["r"]
            if count * r > bound:
                raise TooLarge(f"{count} representations of size {r} exceed the bound {bound}")
            reps = [_random_na_rep(rng, r, torus.g) for _ in range(count)]
        cases = []
        for rep in reps:
            equal, via_na, via_trop = naside.verify_commuting_square(rep, torus)
            cases.append(
                {
                    "equal": equal,
                    "via_na": [jsonio.moduli_point_to_json(p) for p in via_na],
                    "via_trop": [jsonio.moduli_point_to_json(p) for p in via_trop],
                }
            )
        return {"all_equal": all(c["equal"] for c in cases), "cases": cases}
    raise jsonio.ScenarioError(f"unknown na op {op!r}")


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


# command -> (help text, op names); a command without ops takes no op argument
COMMANDS: dict[str, tuple[str, tuple[str, ...]]] = {
    "ns-analyze": ("full pairing/lattice report of a class", ()),
    "bundle": (
        "tropical bundle operations",
        ("sum", "tensor", "pullback", "pushforward", "translate", "slope", "equiv", "moduli-point"),
    ),
    "rep": ("tropical representation operations", ("decompose", "canonical", "eta", "stratum")),
    "na": (
        "non-Archimedean side operations",
        ("trop-line", "trop-simple", "trop-rep", "verify-square"),
    ),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tropabel",
        description="Exact calculus of semi-homogeneous bundles on abelian tori.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, ops) in COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        if ops:
            p.add_argument("op", choices=ops)
        p.add_argument("--scenario", required=True, help="JSON scenario file")
        p.add_argument("--seed", type=int, default=None, help="seed for randomized ops")
        p.add_argument("--bound", type=int, default=None, help="enumeration bound")
        p.add_argument("--out", default=None, help="write the report to this file")
    return parser


def run(args: argparse.Namespace) -> dict[str, Any]:
    # a flag is checked before the scenario is read, and takes precedence over it
    given = [(key, getattr(args, key)) for key in ("seed", "bound")]
    flags = {key: _int_parameter(key, v, f"--{key}") for key, v in given if v is not None}
    scenario = load_scenario(args.scenario)
    integers = {**scenario.integers, **flags}
    if args.command == "ns-analyze":
        return cmd_ns_analyze(scenario, integers["bound"])
    if args.command == "bundle":
        return cmd_bundle(scenario, args.op)
    if args.command == "rep":
        return cmd_rep(scenario, args.op)
    return cmd_na(scenario, args.op, integers["seed"], integers["bound"])


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        report = run(args)
        # a valid answer prints in full: the int-to-str digit limit lifts for it alone
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        try:
            if limit:
                sys.set_int_max_str_digits(0)
            text = json.dumps(report, sort_keys=True, indent=2) + "\n"
        finally:
            if limit:
                sys.set_int_max_str_digits(limit)
        if args.out:
            write_report(args.out, text)
    except Exception as exc:
        if isinstance(exc, TropabelError):
            code, record = exc.exit_code, {"kind": type(exc).__name__}
        else:  # a fault of the program, not of its input
            code, record = 4, {"kind": type(exc).__name__, "command": args.command}
        print(json.dumps({"error": str(exc), **record}), file=sys.stderr)
        return code
    if not args.out:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
