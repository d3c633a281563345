"""Deterministic command-line interface over JSON scenario files.

Usage: tropabel <command> [op] --scenario FILE [--seed N] [--bound N] [--out FILE]

Commands: ns-analyze; bundle {sum,tensor,pullback,pushforward,translate,slope,
equiv,moduli-point}; rep {decompose,canonical,eta,stratum}; na {trop-line,
trop-simple,trop-rep,verify-square}.  Identical (scenario, seed) pairs produce
byte-identical output; exit codes are 0 success, 2 validation, 3 resource
bound exceeded, 4 internal inconsistency or any other fault of the program.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from fractions import Fraction
from typing import Any

from . import bundles, jsonio, naside, tropchar
from .errors import TooLarge, TropabelError
from .lattices import SUBGROUP_ENUMERATION_BOUND, Sublattice
from .monomials import ValuedMonomial
from .nspairings import (
    NATorus,
    NSClass,
    TropTorus,
    dual_integrality_lattice,
    extended_character_lattice,
    is_r_symmetric,
)


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
        for key in ("count", "r", "seed", "bound"):
            value = self.parameters.get(key, 1)
            positive = key in ("count", "r")
            if type(value) is not int or positive and value < 1:
                kind = "a positive integer" if positive else "an integer"
                raise jsonio.ScenarioError(f"parameters.{key} must be {kind}, got {value!r}")
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

    def named(self, section: str, kind: str) -> dict[str, Any]:
        table = self._raw.get(section, {})
        if not isinstance(table, dict):
            raise jsonio.ScenarioError(f"'{section}' must be an object of named {kind}s")
        return table

    def operands(self, count: int, available: dict[str, Any], section: str) -> list[Any]:
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
    except json.JSONDecodeError as exc:
        raise jsonio.ScenarioError(f"scenario is not valid JSON: {exc}") from exc
    return Scenario(data)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_ns_analyze(scenario: Scenario, bound: int) -> dict[str, Any]:
    if scenario.ns_class is None:
        raise jsonio.ScenarioError("ns-analyze needs an 'ns_class' matrix")
    torus = scenario.torus
    cls = NSClass(torus, scenario.ns_class)
    report: dict[str, Any] = {
        "g": torus.g,
        "ns_class": jsonio.matrix_to_json(cls.matrix),
        "r_symmetric": is_r_symmetric(cls.matrix, torus.v),
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
        report["gm_symmetric"] = cls.is_gm_symmetric_on(cls.integrality)
        report["symmetry_lattice"] = jsonio.lattice_to_json(cls.symmetry)
        report["symmetry_index"] = cls.symmetry.index
        defect = cls.defect_group
        report["defect_invariants"] = [d for d in defect.invariant_factors]
        lifts = [list(l) for l in defect.generator_lifts]
        report["defect_generators"] = lifts
        form, den = cls._phase_form(defect.generator_lifts)
        report["torsion_pairing_phases"] = [
            [jsonio.rational_to_json(Fraction(x, den)) for x in row] for row in form
        ]
        admissible = cls.admissible_lattices(bound)
        report["admissible_lattices"] = [jsonio.lattice_to_json(l) for l in admissible]
        report["class_rank"] = admissible[0].index
    return report


def cmd_bundle(scenario: Scenario, op: str) -> dict[str, Any]:
    torus = scenario.trop_torus
    params = scenario.parameters

    def parse_table(t: TropTorus) -> dict[str, bundles.TropVectorBundle]:
        raw = scenario.named("bundles", "bundle")
        return {k: jsonio.bundle_from_json(v, t) for k, v in raw.items()}

    def with_torus(e: bundles.TropVectorBundle) -> dict[str, Any]:
        out = jsonio.bundle_to_json(e)
        out["torus"] = jsonio.torus_to_json(e.torus)
        return out

    def single_summand(e: bundles.TropVectorBundle) -> bundles.TropLineBundle:
        if len(e.summands) != 1:
            raise jsonio.ScenarioError("this operation needs a single-summand bundle")
        return e.summands[0]

    if op in ("sum", "tensor"):
        table = parse_table(torus)
        e1, e2 = scenario.operands(2, table, "bundles")
        result = bundles.direct_sum(e1, e2) if op == "sum" else bundles.tensor(e1, e2)
        return with_torus(result)
    if op == "pullback":
        if "sub" not in params:
            raise jsonio.ScenarioError("pullback needs parameters.sub")
        sub = jsonio.lattice_from_json(params["sub"])
        table = parse_table(torus)
        (e,) = scenario.operands(1, table, "bundles")
        return with_torus(bundles.pullback(e, sub))
    if op == "pushforward":
        if "sub" not in params:
            raise jsonio.ScenarioError("pushforward needs parameters.sub")
        sub = jsonio.lattice_from_json(params["sub"])
        cover = bundles.cover_torus(torus, sub)
        table = parse_table(cover)
        (e,) = scenario.operands(1, table, "bundles")
        return with_torus(bundles.pushforward(e, sub, torus))
    if op == "translate":
        if "x" not in params:
            raise jsonio.ScenarioError("translate needs parameters.x")
        x = jsonio.vector_from_json(params["x"])
        table = parse_table(torus)
        (e,) = scenario.operands(1, table, "bundles")
        return with_torus(bundles.translate(e, x))
    if op == "slope":
        table = parse_table(torus)
        (e,) = scenario.operands(1, table, "bundles")
        return {
            "slope": jsonio.matrix_to_json(bundles.slope(e)),
            "rank": e.rank,
            "homogeneous": bundles.is_homogeneous(e),
            "semi_homogeneous": bundles.is_semi_homogeneous(e),
        }
    if op == "equiv":
        table = parse_table(torus)
        e1, e2 = scenario.operands(2, table, "bundles")
        s1, s2 = single_summand(e1), single_summand(e2)
        cover = (
            jsonio.lattice_from_json(params["cover"]) if "cover" in params else None
        )
        return {"equivalent": bundles.equivalent(s1, s2, cover)}
    if op == "moduli-point":
        table = parse_table(torus)
        (e,) = scenario.operands(1, table, "bundles")
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
    raw = scenario.named("representations", "representation")
    table = {k: jsonio.rep_from_json(v) for k, v in raw.items()}
    (rep,) = scenario.operands(1, table, "representations")
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
        out = jsonio.bundle_to_json(e)
        out["torus"] = jsonio.torus_to_json(e.torus)
        return out
    if op == "stratum":
        lats = tropchar.stratum(rep)
        return {"lattices": [jsonio.lattice_to_json(lat) for lat in lats]}
    raise jsonio.ScenarioError(f"unknown rep op {op!r}")


def _random_monomial(rng: random.Random) -> ValuedMonomial:
    mag = Fraction(rng.randint(1, 5), rng.randint(1, 5))
    phase = Fraction(rng.randint(0, 5), rng.randint(1, 6))
    texp = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
    return ValuedMonomial(mag, phase, texp)


def _random_na_rep(rng: random.Random, r: int, g: int) -> naside.NASemisimpleRep:
    chars = tuple(
        naside.NACharacter(tuple(_random_monomial(rng) for _ in range(g)))
        for _ in range(r)
    )
    return naside.NASemisimpleRep(chars)


def cmd_na(scenario: Scenario, op: str, seed: int, bound: int) -> dict[str, Any]:
    torus = scenario.na_torus
    params = scenario.parameters

    def na_bundles() -> dict[str, naside.NALineBundle]:
        raw = scenario.named("na_bundles", "line bundle")
        return {
            k: jsonio.na_bundle_from_json(v, torus, scenario.ns_class)
            for k, v in raw.items()
        }

    def na_reps() -> dict[str, naside.NASemisimpleRep]:
        raw = scenario.named("na_reps", "semisimple representation")
        return {k: jsonio.na_rep_from_json(v) for k, v in raw.items()}

    if op == "trop-line":
        (b,) = scenario.operands(1, na_bundles(), "na_bundles")
        s = naside.tropicalize_line_bundle(b)
        out = jsonio.summand_to_json(s)
        out["torus"] = jsonio.torus_to_json(s.torus)
        return out
    if op == "trop-simple":
        (b,) = scenario.operands(1, na_bundles(), "na_bundles")
        point = naside.tropicalize_simple(b, bound)
        return jsonio.moduli_point_to_json(point)
    if op == "trop-rep":
        (rep,) = scenario.operands(1, na_reps(), "na_reps")
        return jsonio.rep_to_json(naside.trop_rep(rep))
    if op == "verify-square":
        raw = scenario.named("na_reps", "semisimple representation")
        if raw:
            reps = [jsonio.na_rep_from_json(v) for _, v in sorted(raw.items())]
        else:
            rng = random.Random(seed)
            count = params.get("count", 5)
            r = params.get("r", 2)
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tropabel",
        description="Exact calculus of semi-homogeneous bundles on abelian tori.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--scenario", required=True, help="JSON scenario file")
        p.add_argument("--seed", type=int, default=None, help="seed for randomized ops")
        p.add_argument("--bound", type=int, default=None, help="enumeration bound")
        p.add_argument("--out", default=None, help="write the report to this file")

    common(sub.add_parser("ns-analyze", help="full pairing/lattice report of a class"))

    p_bundle = sub.add_parser("bundle", help="tropical bundle operations")
    p_bundle.add_argument(
        "op",
        choices=[
            "sum",
            "tensor",
            "pullback",
            "pushforward",
            "translate",
            "slope",
            "equiv",
            "moduli-point",
        ],
    )
    common(p_bundle)

    p_rep = sub.add_parser("rep", help="tropical representation operations")
    p_rep.add_argument("op", choices=["decompose", "canonical", "eta", "stratum"])
    common(p_rep)

    p_na = sub.add_parser("na", help="non-Archimedean side operations")
    p_na.add_argument(
        "op", choices=["trop-line", "trop-simple", "trop-rep", "verify-square"]
    )
    common(p_na)
    return parser


def run(args: argparse.Namespace) -> dict[str, Any]:
    scenario = load_scenario(args.scenario)
    params = scenario.parameters
    seed = args.seed if args.seed is not None else params.get("seed", 0)
    bound = params.get("bound", SUBGROUP_ENUMERATION_BOUND) if args.bound is None else args.bound
    if args.command == "ns-analyze":
        return cmd_ns_analyze(scenario, bound)
    if args.command == "bundle":
        return cmd_bundle(scenario, args.op)
    if args.command == "rep":
        return cmd_rep(scenario, args.op)
    if args.command == "na":
        return cmd_na(scenario, args.op, seed, bound)
    raise jsonio.ScenarioError(f"unknown command {args.command!r}")


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        report = run(args)
    except Exception as exc:
        if isinstance(exc, TropabelError):
            code, record = exc.exit_code, {"kind": type(exc).__name__}
        elif isinstance(exc, ValueError):
            code, record = 2, {"kind": "ValueError"}
        else:  # a fault of the program, not of its input
            code, record = 4, {"kind": type(exc).__name__, "command": args.command}
        print(json.dumps({"error": str(exc), **record}), file=sys.stderr)
        return code
    text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
