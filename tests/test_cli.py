import argparse
import builtins
import contextlib
import copy
import hashlib
import importlib.metadata
import io
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tropabel import cli, groups, jsonio, naside, nspairings, tori
from tropabel.bundles import as_bundle, line_bundle
from tropabel.cli import main
from tropabel.errors import TropabelError
from tropabel.lattices import Sublattice
from tropabel.linalg import Mat
from tropabel.monomials import ValuedMonomial
from tropabel.naside import NACharacter, NASemisimpleRep
from tropabel.nspairings import NSClass
from tropabel.tori import NATorus, TropTorus
from tropabel.tropchar import TropGLElement, TropRepresentation

from conftest import mono
from test_acceptance import CLI_MATRIX

F = Fraction
ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = ROOT / "scenarios"


def scen(name: str) -> str:
    return str(SCENARIOS / name)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


# ---------------------------------------------------------------------------
# Frozen outputs, one per command
# ---------------------------------------------------------------------------


def test_ns_analyze_report(capsys):
    report = run_json(capsys, "ns-analyze", "--scenario", scen("reference_example.json"))
    assert report["g"] == 2
    assert report["r_symmetric"] is True
    assert report["gm_symmetric"] is False
    assert report["integrality_lattice"] == [[1, 0], [0, 1]]
    assert report["integrality_index"] == 1
    assert report["symmetry_lattice"] == [[2, 0], [0, 2]]
    assert report["symmetry_index"] == 4
    assert report["defect_invariants"] == [2, 2]
    assert report["torsion_pairing_phases"] == [["0", "1/2"], ["1/2", "0"]]
    assert report["admissible_lattices"] == [
        [[1, 0], [0, 2]],
        [[1, 0], [1, 2]],
        [[2, 0], [0, 1]],
    ]
    assert report["class_rank"] == 2
    assert report["extended_character_index"] == 1
    assert report["dual_integrality_index"] == 1


def test_bundle_sum(capsys):
    out = run_json(capsys, "bundle", "sum", "--scenario", scen("bundle_ops.json"))
    assert out["torus"] == {"g": 2, "v": [["1", "0"], ["0", "1"]]}
    assert out["summands"] == [
        {"H": [["1", "0"], ["0", "1"]], "l": ["1/2", "1/3"], "lattice": [[1, 0], [0, 1]]},
        {"H": [["0", "0"], ["0", "0"]], "l": ["0", "1/4"], "lattice": [[2, 0], [0, 2]]},
    ]


def test_bundle_tensor(capsys):
    out = run_json(capsys, "bundle", "tensor", "--scenario", scen("bundle_ops.json"))
    assert out["summands"] == [
        {"H": [["1", "0"], ["0", "1"]], "l": ["1", "11/12"], "lattice": [[2, 0], [0, 2]]}
    ]


def test_bundle_pullback(capsys):
    out = run_json(capsys, "bundle", "pullback", "--scenario", scen("bundle_ops.json"))
    assert out["torus"]["v"] == [["2", "0"], ["0", "1"]]
    assert out["summands"] == [
        {"H": [["2", "0"], ["0", "1"]], "l": ["1", "1/3"], "lattice": [[1, 0], [0, 1]]}
    ]


def test_bundle_pushforward(capsys):
    out = run_json(
        capsys, "bundle", "pushforward", "--scenario", scen("pushforward_demo.json")
    )
    assert out["torus"]["v"] == [["1", "0"], ["0", "1"]]
    assert out["summands"] == [
        {"H": [["0", "0"], ["0", "0"]], "l": ["1/5", "2/5"], "lattice": [[2, 0], [0, 2]]}
    ]


def test_bundle_translate(capsys):
    out = run_json(capsys, "bundle", "translate", "--scenario", scen("bundle_ops.json"))
    # l = (1/2 - 1/3, 1/3 - 2/7)
    assert out["summands"][0]["l"] == ["1/6", "1/21"]


def test_bundle_slope(capsys):
    out = run_json(capsys, "bundle", "slope", "--scenario", scen("bundle_ops.json"))
    assert out == {
        "homogeneous": False,
        "rank": 1,
        "semi_homogeneous": True,
        "slope": [["1", "0"], ["0", "1"]],
    }


def test_bundle_equiv(capsys):
    out = run_json(capsys, "bundle", "equiv", "--scenario", scen("bundle_ops.json"))
    assert out == {"equivalent": False}


def test_bundle_moduli_point(capsys):
    out = run_json(
        capsys, "bundle", "moduli-point", "--scenario", scen("bundle_ops.json")
    )
    assert out == {
        "H": [["1", "0"], ["0", "1"]],
        "coords": ["1/2", "1/3"],
        "gamma": [[1, 0], [0, 1]],
    }


def test_rep_decompose(capsys):
    out = run_json(capsys, "rep", "decompose", "--scenario", scen("rep_demo.json"))
    assert out == {
        "summands": [
            {"l": ["7/6", "1/4"], "lattice": [[2, 0], [0, 1]], "orbit": [1, 2]}
        ]
    }


def test_rep_canonical(capsys):
    out = run_json(capsys, "rep", "canonical", "--scenario", scen("rep_demo.json"))
    assert out == {"classes": [{"l": ["7/6", "1/4"], "lattice": [[2, 0], [0, 1]]}]}


def test_rep_eta(capsys):
    out = run_json(capsys, "rep", "eta", "--scenario", scen("rep_demo.json"))
    assert out["summands"] == [
        {"H": [["0", "0"], ["0", "0"]], "l": ["7/6", "1/4"], "lattice": [[2, 0], [0, 1]]}
    ]


def test_rep_stratum(capsys):
    out = run_json(capsys, "rep", "stratum", "--scenario", scen("rep_demo.json"))
    assert out == {"lattices": [[[2, 0], [0, 1]]]}


def test_na_trop_line(capsys):
    out = run_json(capsys, "na", "trop-line", "--scenario", scen("reference_example.json"))
    assert out == {
        "H": [["1", "0"], ["0", "1"]],
        "l": ["-4/3", "-1"],
        "lattice": [[2, 0], [0, 1]],
        "torus": {"g": 2, "v": [["1", "0"], ["0", "1"]]},
    }


def test_na_trop_simple(capsys):
    out = run_json(capsys, "na", "trop-simple", "--scenario", scen("reference_example.json"))
    assert out == {
        "H": [["1", "0"], ["0", "1"]],
        "coords": ["2/3", "0"],
        "gamma": [[2, 0], [0, 2]],
    }


def test_na_trop_simple_ignores_the_bound(capsys):
    # admissibility is read from the cover's index, so no enumeration is bounded
    argv = ("na", "trop-simple", "--scenario", scen("reference_example.json"))
    plain = run_cli(capsys, *argv)
    assert plain[0] == 0
    assert run_cli(capsys, *argv, "--bound", "1") == plain


def test_na_trop_rep(capsys):
    out = run_json(capsys, "na", "trop-rep", "--scenario", scen("na_square.json"))
    assert out == {
        "images": [
            {"d": ["3/4", "1/2"], "perm": [1, 2]},
            {"d": ["1/5", "-2/3"], "perm": [1, 2]},
        ]
    }


def test_na_verify_square_named(capsys):
    out = run_json(capsys, "na", "verify-square", "--scenario", scen("na_square.json"))
    assert out["all_equal"] is True
    assert len(out["cases"]) == 1
    case = out["cases"][0]
    assert case["equal"] is True
    assert case["via_na"] == case["via_trop"]
    assert [p["coords"] for p in case["via_na"]] == [["1/2", "1/3"], ["3/4", "1/5"]]


def test_na_verify_square_generated(capsys):
    out = run_json(capsys, "na", "verify-square", "--scenario", scen("na_random.json"))
    assert out["all_equal"] is True
    assert len(out["cases"]) == 3
    for case in out["cases"]:
        assert case["via_na"] == case["via_trop"]


def test_na_verify_square_rank_three_large(capsys, tmp_path):
    # the benchmark runs verify-square at g = 2 only
    def gen(phase, texps):
        return [{"mag": "1", "phase": phase, "texp": t} for t in texps]

    scenario = {
        "torus": {
            "g": 3,
            "generators": [
                gen("1/3", ["2", "1/2", "0"]),
                gen("0", ["-1/3", "1", "1/5"]),
                gen("1/4", ["0", "-2/7", "3/2"]),
            ],
        },
        "parameters": {"count": 2, "r": 64},
    }
    path = tmp_path / "na_rank3.json"
    path.write_text(json.dumps(scenario), encoding="utf-8")
    out = run_json(capsys, "na", "verify-square", "--scenario", str(path), "--seed", "5")
    assert out["all_equal"] is True
    assert len(out["cases"]) == 2
    for case in out["cases"]:
        assert case["equal"] is True
        assert len(case["via_na"]) == 64
        assert case["via_na"] == case["via_trop"]
        assert len({tuple(p["coords"]) for p in case["via_na"]}) > 1


# ---------------------------------------------------------------------------
# Determinism and output plumbing
# ---------------------------------------------------------------------------


def test_output_is_deterministic(capsys):
    runs = [
        run_cli(capsys, "ns-analyze", "--scenario", scen("reference_example.json"))
        for _ in range(2)
    ]
    assert runs[0] == runs[1]
    seeded = [
        run_cli(
            capsys,
            "na",
            "verify-square",
            "--scenario",
            scen("na_random.json"),
            "--seed",
            "11",
        )
        for _ in range(2)
    ]
    assert seeded[0] == seeded[1]


def test_seed_changes_generated_cases(capsys):
    a = run_cli(
        capsys, "na", "verify-square", "--scenario", scen("na_random.json"), "--seed", "1"
    )
    b = run_cli(
        capsys, "na", "verify-square", "--scenario", scen("na_random.json"), "--seed", "2"
    )
    assert a[1] != b[1]
    assert json.loads(a[1])["all_equal"] and json.loads(b[1])["all_equal"]


def test_out_file_matches_stdout(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "rep", "stratum", "--scenario", scen("rep_demo.json"))
    assert code == 0
    target = tmp_path / "report.json"
    code2 = main(
        ["rep", "stratum", "--scenario", scen("rep_demo.json"), "--out", str(target)]
    )
    capsys.readouterr()
    assert code2 == 0
    assert target.read_text(encoding="utf-8") == out
    assert out.endswith("\n")


def test_cli_runs_as_a_process():
    proc = subprocess.run(
        [sys.executable, "-m", "tropabel.cli", "rep", "canonical", "--scenario", scen("rep_demo.json")],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout) == {
        "classes": [{"l": ["7/6", "1/4"], "lattice": [[2, 0], [0, 1]]}]
    }


# ---------------------------------------------------------------------------
# Errors and exit codes
# ---------------------------------------------------------------------------


def test_missing_scenario_is_validation_error(capsys):
    code, out, err = run_cli(capsys, "ns-analyze", "--scenario", "no-such-file.json")
    assert code == 2
    assert out == ""
    assert json.loads(err)["kind"] == "ScenarioError"


@pytest.mark.parametrize("where", ["missing-directory", "directory"])
def test_unwritable_out_is_validation_error(capsys, tmp_path, where):
    # a report that cannot be written exits 2 with one error record, as an
    # unreadable scenario does, and prints nothing on stdout
    target = tmp_path / "no-such-dir" / "x.json" if where == "missing-directory" else tmp_path
    code, out, err = run_cli(
        capsys, "ns-analyze", "--scenario", scen("reference_example.json"), "--out", str(target)
    )
    assert code == 2
    assert out == ""
    record = json.loads(err)
    assert record["kind"] == "ScenarioError"
    assert record["error"].startswith("cannot write report: ")


def test_malformed_scenario(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    # JSON text is UTF-8, so a Latin-1 byte is malformed JSON too
    for text in (b"{not json", b'{"ns_class": "\xff"}'):
        bad.write_bytes(text)
        code, _, err = run_cli(capsys, "ns-analyze", "--scenario", str(bad))
        assert code == 2
        record = json.loads(err)
        assert record["kind"] == "ScenarioError" and "JSON" in record["error"]


def test_missing_parameter(capsys, tmp_path):
    data = json.loads(Path(scen("bundle_ops.json")).read_text(encoding="utf-8"))
    del data["parameters"]["sub"]
    trimmed = tmp_path / "no_sub.json"
    trimmed.write_text(json.dumps(data), encoding="utf-8")
    code, _, err = run_cli(capsys, "bundle", "pullback", "--scenario", str(trimmed))
    assert code == 2
    assert "sub" in json.loads(err)["error"]


@pytest.mark.parametrize(
    "op, scenario, key",
    [
        ("pushforward", "pushforward_demo.json", "sub"),
        ("translate", "bundle_ops.json", "x"),
    ],
)
def test_missing_parameter_is_named(capsys, tmp_path, op, scenario, key):
    data = json.loads(Path(scen(scenario)).read_text(encoding="utf-8"))
    del data["parameters"][key]
    trimmed = tmp_path / "trimmed.json"
    trimmed.write_text(json.dumps(data), encoding="utf-8")
    code, out, err = run_cli(capsys, "bundle", op, "--scenario", str(trimmed))
    assert code == 2 and out == ""
    assert json.loads(err) == {"error": f"{op} needs parameters.{key}", "kind": "ScenarioError"}


def _installed() -> bool:
    """Whether a tropabel distribution is installed, so its console script is."""
    try:
        importlib.metadata.distribution("tropabel")
    except importlib.metadata.PackageNotFoundError:
        return False
    return True


def _run_in_process(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    return code, out.encode(), err


def _run_console_script(capsys, argv):
    # without PYTHONPATH, the script imports the installed package
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(["tropabel", *argv], capture_output=True, env=env, timeout=60)
    return proc.returncode, proc.stdout, proc.stderr


@pytest.mark.parametrize(
    "runner",
    [
        _run_in_process,
        pytest.param(
            _run_console_script,
            marks=pytest.mark.skipif(not _installed(), reason="tropabel is not installed"),
        ),
    ],
    ids=["main", "console-script"],
)
def test_shipped_scenarios_match_the_recorded_digests(capsys, monkeypatch, runner):
    # the byte-identical oracle of the benchmark, run through cli.main and
    # through the entry point of [project.scripts]; it only reads the digest file
    with open(ROOT / "bench" / "cli_digests.json", encoding="utf-8") as fh:
        digests = {tuple(d["argv"]): d for d in json.load(fh)}
    cases = [
        ([command] + ([op] if op else []), scenario, [])
        for command, op, scenario in CLI_MATRIX
    ] + [(["ns-analyze"], "reference_example.json", ["--bound", "1"])]
    assert len(cases) == len(digests)
    monkeypatch.chdir(ROOT)
    for head, scenario, extra in cases:
        argv = head + ["--scenario", f"scenarios/{scenario}"] + extra
        record = digests[tuple(argv)]
        code, out, err = runner(capsys, argv)
        assert code == record["exit"], argv
        assert hashlib.sha256(out).hexdigest() == record["stdout_sha256"], argv
        if record.get("stderr_kind") is not None:
            assert json.loads(err)["kind"] == record["stderr_kind"], argv


def test_bound_exceeded_exit_code(capsys):
    code, _, err = run_cli(
        capsys,
        "ns-analyze",
        "--scenario",
        scen("reference_example.json"),
        "--bound",
        "2",
    )
    assert code == 3
    assert json.loads(err)["kind"] == "TooLarge"


@pytest.mark.parametrize(
    "argv",
    [
        ("ns-analyze", "--scenario", scen("reference_example.json")),
        # named representations, so no bound was ever compared against
        ("na", "verify-square", "--scenario", scen("na_square.json")),
    ],
    ids=["ns-analyze", "verify-square"],
)
def test_negative_bound_is_a_validation_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv, "--bound", "-1")
    assert (code, out) == (2, ""), err
    assert json.loads(err)["kind"] == "ScenarioError"


def test_zero_bound_is_exceeded(capsys):
    code, out, err = run_cli(
        capsys, "ns-analyze", "--scenario", scen("reference_example.json"), "--bound", "0"
    )
    assert (code, out) == (3, "")
    assert json.loads(err)["kind"] == "TooLarge"


def test_scenario_bound_parameter_is_read_and_overridden(capsys, tmp_path):
    # a valid parameters.bound limits the walk, and --bound takes precedence over it
    edit = _set_at(("parameters", "bound"), 1)
    code, out, err = run_edited(capsys, tmp_path, "reference_example.json", edit, "ns-analyze")
    assert (code, out) == (3, "")
    assert json.loads(err)["kind"] == "TooLarge"
    code, out, err = run_edited(
        capsys, tmp_path, "reference_example.json", edit, "ns-analyze", "--bound", "10000"
    )
    assert code == 0, err
    with open(ROOT / "bench" / "cli_digests.json", encoding="utf-8") as fh:
        (record,) = [
            d for d in json.load(fh)
            if d["argv"] == ["ns-analyze", "--scenario", "scenarios/reference_example.json"]
        ]
    assert hashlib.sha256(out.encode()).hexdigest() == record["stdout_sha256"]


def run_edited(capsys, tmp_path, scenario, edit, *argv):
    """Run the CLI on a copy of a shipped scenario changed by ``edit``."""
    data = json.loads(Path(scen(scenario)).read_text(encoding="utf-8"))
    edit(data)
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    return run_cli(capsys, *argv, "--scenario", str(path))


def test_zero_denominator_is_validation_error(capsys, tmp_path):
    def edit(data):
        data["ns_class"][0][0] = "1/0"

    code, out, err = run_edited(capsys, tmp_path, "reference_example.json", edit, "ns-analyze")
    assert code == 2
    assert out == ""
    assert json.loads(err)["kind"] == "ScenarioError"


@pytest.mark.parametrize(
    "text", ["1" + "0" * 5000, "1/1" + "0" * 5000], ids=["numerator", "denominator"]
)
def test_rational_beyond_the_int_digit_limit_is_validation_error(capsys, tmp_path, text):
    # a part of more than about 4,300 digits is not read as an int by Python
    def edit(data):
        data["ns_class"][0][0] = text

    code, out, err = run_edited(capsys, tmp_path, "reference_example.json", edit, "ns-analyze")
    assert code == 2
    assert out == ""
    assert json.loads(err)["kind"] == "ScenarioError"


def test_json_integer_beyond_the_int_digit_limit_is_validation_error(capsys, tmp_path):
    # json.load itself refuses the integer; the text is written directly, since
    # json.dumps of such an int hits the same limit
    text = Path(scen("reference_example.json")).read_text(encoding="utf-8")
    path = tmp_path / "long_int.json"
    path.write_text(text.replace('"ns_class": [', '"ns_class": [' + "1" * 5001 + ", ", 1))
    code, out, err = run_cli(capsys, "ns-analyze", "--scenario", str(path))
    assert code == 2
    assert out == ""
    record = json.loads(err)
    assert record["kind"] == "ScenarioError"
    assert "set_int_max_str_digits" not in record["error"]


def test_too_deeply_nested_scenario_is_validation_error(capsys, tmp_path):
    # json.load recurses once per level and runs out of stack on this file
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    code, out, err = run_cli(capsys, "ns-analyze", "--scenario", str(path))
    assert code == 2
    assert out == ""
    assert "Traceback" not in err
    assert json.loads(err)["kind"] == "ScenarioError"


def test_an_answer_past_the_int_digit_limit_prints(capsys, tmp_path):
    # a 5 x 5 basis of 1000-digit entries has an index of about 5000 digits, past
    # the int-to-str limit that the wire keeps on input
    rng = random.Random(4300)
    basis = [[rng.randrange(10**999, 10**1000) for _ in range(5)] for _ in range(5)]
    zeros = [["0"] * 5 for _ in range(5)]
    summand = {"lattice": basis, "H": zeros, "l": ["0"] * 5}
    data = {
        "torus": {"g": 5, "v": [["1" if i == j else "0" for j in range(5)] for i in range(5)]},
        "bundles": {"E": {"summands": [summand]}},
        "parameters": {"operands": ["E"]},
    }
    path = tmp_path / "huge_rank.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    limit = sys.get_int_max_str_digits()
    code, out, err = run_cli(capsys, "bundle", "slope", "--scenario", str(path))
    assert (code, err) == (0, "")
    assert sys.get_int_max_str_digits() == limit
    sys.set_int_max_str_digits(0)
    try:
        assert json.loads(out)["rank"] == Sublattice(basis).index > 10**limit
    finally:
        sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize("value", [True, False])
def test_boolean_rational_is_validation_error(capsys, tmp_path, value):
    def edit(data):
        data["bundles"]["E1"]["summands"][0]["l"] = [value, "0"]

    code, out, err = run_edited(capsys, tmp_path, "bundle_ops.json", edit, "bundle", "sum")
    assert code == 2
    assert out == ""
    assert json.loads(err)["kind"] == "ScenarioError"


@pytest.mark.parametrize("sub", [[[2, 0], [0]], [[2.5, 0], [0, 1]]])
def test_malformed_lattice_is_validation_error(capsys, tmp_path, sub):
    def edit(data):
        data["parameters"]["sub"] = sub

    code, out, err = run_edited(capsys, tmp_path, "bundle_ops.json", edit, "bundle", "pullback")
    assert code == 2
    assert out == ""
    assert json.loads(err)["kind"] == "ScenarioError"


def test_summand_missing_key_is_validation_error(capsys, tmp_path):
    def edit(data):
        del data["bundles"]["E1"]["summands"][0]["l"]

    code, out, err = run_edited(capsys, tmp_path, "bundle_ops.json", edit, "bundle", "sum")
    assert code == 2
    assert out == ""
    assert "l" in json.loads(err)["error"]


@pytest.mark.parametrize(
    "torus, argv",
    [
        ({"generators": []}, ("ns-analyze",)),
        ({"generators": []}, ("na", "verify-square")),
        ({"v": []}, ("ns-analyze",)),
    ],
    ids=["na-ns-analyze", "na-verify-square", "trop-ns-analyze"],
)
def test_zero_rank_torus_is_validation_error(capsys, tmp_path, torus, argv):
    path = tmp_path / "zero_rank.json"
    path.write_text(json.dumps({"torus": torus, "ns_class": []}), encoding="utf-8")
    code, out, err = run_cli(capsys, *argv, "--scenario", str(path))
    assert code == 2
    assert out == ""
    assert json.loads(err)["kind"] == "DimensionMismatch"


@pytest.mark.parametrize("e2_class", ["0", "1"], ids=["classes-differ", "classes-agree"])
@pytest.mark.parametrize(
    "cover", [[[1, 0], [0, 1]], [[2, 0], [0, 1]]], ids=["full", "index-2"]
)
def test_equiv_cover_of_another_rank_is_validation_error(capsys, tmp_path, cover, e2_class):
    scenario = {
        "torus": {"v": [["1"]]},
        "bundles": {
            "E1": {"summands": [{"lattice": [[1]], "H": [["1"]], "l": ["0"]}]},
            "E2": {"summands": [{"lattice": [[1]], "H": [[e2_class]], "l": ["0"]}]},
        },
        "parameters": {"operands": ["E1", "E2"], "cover": cover},
    }
    path = tmp_path / "wide_cover.json"
    path.write_text(json.dumps(scenario), encoding="utf-8")
    code, out, err = run_cli(capsys, "bundle", "equiv", "--scenario", str(path))
    assert code == 2
    assert out == ""
    assert json.loads(err)["kind"] == "AmbientMismatch"


def test_equiv_cover_of_lower_rank_is_validation_error(capsys, tmp_path):
    def edit(data):
        data["parameters"]["cover"] = [[1]]

    code, out, err = run_edited(capsys, tmp_path, "bundle_ops.json", edit, "bundle", "equiv")
    assert code == 2
    assert out == ""
    assert json.loads(err)["kind"] == "AmbientMismatch"


@pytest.mark.parametrize("gamma", [[[1]], [[1, 0, 0], [0, 1, 0], [0, 0, 1]]])
def test_moduli_point_gamma_of_another_rank_is_validation_error(capsys, tmp_path, gamma):
    def edit(data):
        data["parameters"]["gamma"] = gamma

    code, out, err = run_edited(
        capsys, tmp_path, "bundle_ops.json", edit, "bundle", "moduli-point"
    )
    assert code == 2
    assert out == ""
    assert json.loads(err)["kind"] == "AmbientMismatch"


@pytest.mark.parametrize("sub", [[[2]], [[1, 0, 0], [0, 1, 0], [0, 0, 2]]])
@pytest.mark.parametrize(
    "scenario, op", [("bundle_ops.json", "pullback"), ("pushforward_demo.json", "pushforward")]
)
def test_cover_of_another_rank_is_validation_error(capsys, tmp_path, scenario, op, sub):
    def edit(data):
        data["parameters"]["sub"] = sub

    code, out, err = run_edited(capsys, tmp_path, scenario, edit, "bundle", op)
    assert code == 2
    assert out == ""
    assert json.loads(err)["kind"] == "AmbientMismatch"


def _set_summands(data, value):
    data["bundles"]["E1"]["summands"] = value


def _set_perm(data, value):
    data["representations"]["R"]["images"][0]["perm"] = value


@pytest.mark.parametrize(
    "scenario, edit, argv",
    [
        ("bundle_ops.json", lambda d: _set_summands(d, 5), ("bundle", "sum")),
        ("rep_demo.json", lambda d: _set_perm(d, [[1]]), ("rep", "decompose")),
        ("rep_demo.json", lambda d: _set_perm(d, [1.7, 2]), ("rep", "decompose")),
        ("rep_demo.json", lambda d: _set_perm(d, 2), ("rep", "decompose")),
    ],
    ids=["summands-not-a-list", "perm-nested", "perm-float", "perm-not-a-list"],
)
def test_malformed_json_shapes_are_validation_errors(capsys, tmp_path, scenario, edit, argv):
    code, out, err = run_edited(capsys, tmp_path, scenario, edit, *argv)
    assert code == 2
    assert out == ""
    assert json.loads(err)["kind"] == "ScenarioError"


def _set_at(path, value):
    def edit(data):
        node = data
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value

    return edit


# JSON lists the decoders iterate: a non-list there is malformed input
LIST_FIELDS = [
    ("na_square.json", ("torus", "generators"), ("na", "trop-rep")),
    ("rep_demo.json", ("representations", "R", "images"), ("rep", "decompose")),
    ("na_square.json", ("na_reps", "S", "characters"), ("na", "trop-rep")),
    ("reference_example.json", ("na_bundles", "B1", "r"), ("na", "trop-line")),
]
# parameters: integers (not bool), count and r positive, bound nonnegative, operands names
BAD_PARAMETERS = [
    ("na_random.json", "count", [-2, 0, 2.7, True, None], ("na", "verify-square")),
    ("na_random.json", "r", [0, 1.9], ("na", "verify-square")),
    ("na_random.json", "seed", [None, 1.5, "7"], ("na", "verify-square")),
    ("reference_example.json", "bound", [-1, 10.5, True], ("ns-analyze",)),
    ("bundle_ops.json", "operands", [5, [["E1"], "E2"], None], ("bundle", "sum")),
]


@pytest.mark.parametrize(
    "scenario, edit, argv",
    [
        pytest.param(scenario, _set_at(path, value), argv, id=f"{path[-1]}={json.dumps(value)}")
        for scenario, path, argv in LIST_FIELDS
        for value in (5, None, True)
    ]
    + [
        pytest.param(
            scenario, _set_at(("parameters", key), value), argv, id=f"{key}={json.dumps(value)}"
        )
        for scenario, key, values, argv in BAD_PARAMETERS
        for value in values
    ],
)
def test_malformed_fields_are_validation_errors(capsys, tmp_path, scenario, edit, argv):
    code, out, err = run_edited(capsys, tmp_path, scenario, edit, *argv)
    assert code == 2, err
    assert out == ""
    assert json.loads(err)["kind"] == "ScenarioError"


def _delete_at(path):
    def edit(data):
        node = data
        for key in path[:-1]:
            node = node[key]
        del node[path[-1]]

    return edit


def _two_summands(data):
    e1 = data["bundles"]["E1"]["summands"]
    e1.extend(data["bundles"]["E2"]["summands"])


def _no_class_and_no_h(data):
    del data["ns_class"]
    assert "H" not in data["na_bundles"]["B1"]


# one validation exit of the scenario's checks each: scenario, edit, argv, message
VALIDATION_EXITS = [
    pytest.param(
        "reference_example.json", _delete_at(("torus",)), ("ns-analyze",),
        "scenario is missing the 'torus' field", id="no-torus",
    ),
    pytest.param(
        "bundle_ops.json", lambda d: None, ("na", "trop-rep"),
        "this command needs a multiplicative torus", id="na-on-a-tropical-torus",
    ),
    pytest.param(
        "bundle_ops.json", _delete_at(("parameters", "operands")), ("bundle", "pullback"),
        "parameters.operands must name 1 entries of 'bundles'", id="operands-not-named",
    ),
    pytest.param(
        "reference_example.json", _delete_at(("ns_class",)), ("ns-analyze",),
        "ns-analyze needs an 'ns_class' matrix", id="no-ns-class",
    ),
    pytest.param(
        "bundle_ops.json", _two_summands, ("bundle", "equiv"),
        "this operation needs a single-summand bundle", id="two-summands",
    ),
    pytest.param(
        "reference_example.json", _delete_at(("torus", "generators")), ("ns-analyze",),
        "torus needs either 'generators' or 'v'", id="torus-without-generators",
    ),
    pytest.param(
        "reference_example.json", _delete_at(("na_bundles", "B1", "r")), ("na", "trop-line"),
        "expected a line-bundle object, got {'lattice': [[2, 0], [0, 1]]}", id="bundle-without-r",
    ),
    pytest.param(
        "reference_example.json", _no_class_and_no_h, ("na", "trop-line"),
        "line bundle needs 'H' (no scenario ns_class to fall back on)", id="bundle-without-h",
    ),
    pytest.param(
        "na_square.json", _delete_at(("na_reps", "S", "characters")), ("na", "trop-rep"),
        "expected a semisimple representation, got {}", id="rep-without-characters",
    ),
]


@pytest.mark.parametrize("scenario, edit, argv, message", VALIDATION_EXITS)
def test_validation_exits_name_the_fault(capsys, tmp_path, scenario, edit, argv, message):
    code, out, err = run_edited(capsys, tmp_path, scenario, edit, *argv)
    assert (code, out) == (2, ""), err
    assert json.loads(err) == {"error": message, "kind": "ScenarioError"}


@pytest.mark.parametrize(
    "scenario, argv",
    [("bundle_ops.json", ("bundle", "sum")), ("rep_demo.json", ("rep", "decompose"))],
    ids=["bundle-sum", "rep-decompose"],
)
def test_operands_default_to_the_whole_section_in_name_order(capsys, tmp_path, scenario, argv):
    # without parameters.operands, a section of exactly as many entries as the
    # op takes is read in name order: here the shipped names, in that order
    code, out, err = run_edited(
        capsys, tmp_path, scenario, _delete_at(("parameters", "operands")), *argv
    )
    assert code == 0, err
    assert out == run_cli(capsys, *argv, "--scenario", scen(scenario))[1]


def test_parser_is_built_from_the_command_table():
    (sub,) = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    assert list(sub.choices) == list(cli.COMMANDS)
    for command, (help_text, ops) in cli.COMMANDS.items():
        (listed,) = [a for a in sub._choices_actions if a.dest == command]
        assert listed.help == help_text
        op_args = [a for a in sub.choices[command]._actions if a.dest == "op"]
        assert [tuple(a.choices) for a in op_args] == ([ops] if ops else [])
    # no op ships without a byte-determinism case
    pairs = {(command, op) for command, (_, ops) in cli.COMMANDS.items() for op in ops or [None]}
    assert pairs == {(command, op) for command, op, _ in CLI_MATRIX}


def test_unknown_op_is_scenario_error():
    bundle = cli.load_scenario(scen("bundle_ops.json"))
    with pytest.raises(jsonio.ScenarioError, match="unknown bundle op 'nope'"):
        cli.cmd_bundle(bundle, "nope")
    with pytest.raises(jsonio.ScenarioError, match="unknown rep op 'nope'"):
        cli.cmd_rep(cli.load_scenario(scen("rep_demo.json")), "nope")
    with pytest.raises(jsonio.ScenarioError, match="unknown na op 'nope'"):
        cli.cmd_na(cli.load_scenario(scen("na_square.json")), "nope", 0, 10)


def test_named_sections_decode_in_file_order(capsys, tmp_path):
    data = json.loads(Path(scen("na_square.json")).read_text(encoding="utf-8"))
    data["na_reps"] = {"b": {"characters": 1}, "a": {"x": 2}}
    data["parameters"]["operands"] = ["a"]
    path = tmp_path / "two_bad.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    for op in ("trop-rep", "verify-square"):
        code, _, err = run_cli(capsys, "na", op, "--scenario", str(path))
        assert code == 2
        assert json.loads(err)["error"] == "expected a list of characters, got 1"


def test_verify_square_takes_named_reps_in_name_order(capsys, tmp_path):
    data = json.loads(Path(scen("na_square.json")).read_text(encoding="utf-8"))
    two = data["na_reps"]["S"]
    one = {"characters": two["characters"][:1]}
    data["na_reps"] = {"T": one, "S": two}
    path = tmp_path / "two_reps.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    out = run_json(capsys, "na", "verify-square", "--scenario", str(path))
    assert [len(case["via_na"]) for case in out["cases"]] == [2, 1]


def test_verify_square_reads_the_parameter_defaults(capsys, tmp_path):
    # without count, r and seed: five representations of size 2 from seed 0
    def edit(data):
        for key in ("count", "r", "seed"):
            del data["parameters"][key]

    def run(*extra):
        return run_edited(capsys, tmp_path, "na_random.json", edit, "na", "verify-square", *extra)

    code, out, err = run()
    assert code == 0, err
    assert [len(case["via_na"]) for case in json.loads(out)["cases"]] == [2] * 5
    assert run("--seed", "0") == (0, out, "")
    code, out, err = run("--bound", "9")
    assert (code, out) == (3, "")
    assert json.loads(err)["error"] == "5 representations of size 2 exceed the bound 9"


@pytest.mark.parametrize(
    "command, op, kind, message",
    [
        *[
            ("rep", op, "SizeMismatch", "torus rank differs from the number of generators")
            for op in ("decompose", "canonical", "eta", "stratum")
        ],
        *[
            ("na", op, "AmbientMismatch", "torus rank differs from the representation rank")
            for op in ("trop-rep", "verify-square")
        ],
    ],
)
def test_representation_of_another_rank_is_validation_error(
    capsys, tmp_path, command, op, kind, message
):
    # one image, or characters of rank 1 or 0, against a torus of rank 2
    def cut(keep):
        def edit(data):
            if command == "rep":
                del data["representations"]["R"]["images"][keep:]
            else:
                for character in data["na_reps"]["S"]["characters"]:
                    del character[keep:]

        return edit

    scenario, ranks = ("rep_demo.json", [1]) if command == "rep" else ("na_square.json", [1, 0])
    for keep in ranks:
        code, out, err = run_edited(capsys, tmp_path, scenario, cut(keep), command, op)
        assert (code, out) == (2, ""), err
        assert json.loads(err) == {"error": message, "kind": kind}


def test_verify_square_checks_every_rank_before_any_square(capsys, tmp_path, monkeypatch):
    # A of rank 2 sorts before B of rank 1: B is refused before A's square is computed
    squares = []
    square = naside.verify_commuting_square

    def counted(rep, torus):
        squares.append(rep)
        return square(rep, torus)

    monkeypatch.setattr(naside, "verify_commuting_square", counted)

    def edit(data):
        a = data["na_reps"].pop("S")
        b = {"characters": [character[:1] for character in a["characters"]]}
        data["na_reps"] = {"A": a, "B": b}

    code, out, err = run_edited(capsys, tmp_path, "na_square.json", edit, "na", "verify-square")
    assert (code, out) == (2, ""), err
    assert json.loads(err) == {
        "error": "torus rank differs from the representation rank",
        "kind": "AmbientMismatch",
    }
    assert squares == []


def test_unexpected_exception_maps_to_exit_4(capsys, monkeypatch):
    def broken(args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "run", broken)
    code, out, err = run_cli(capsys, "rep", "decompose", "--scenario", scen("rep_demo.json"))
    assert code == 4
    assert out == ""
    assert json.loads(err) == {"error": "boom", "kind": "RuntimeError", "command": "rep"}


def test_builtin_value_error_maps_to_exit_4(capsys, monkeypatch):
    # only a library error's class sets an exit code: a built-in ValueError
    # from a handler is a fault of the program, not bad input
    def broken(scenario, op):
        raise ValueError("boom")

    monkeypatch.setattr(cli, "cmd_bundle", broken)
    code, out, err = run_cli(capsys, "bundle", "slope", "--scenario", scen("bundle_ops.json"))
    assert (code, out) == (4, "")
    assert json.loads(err) == {"error": "boom", "kind": "ValueError", "command": "bundle"}


def _unit_torus_scenario(g: int, phases: dict) -> dict:
    """Class I on the torus whose generator j has valuation e_j and phase
    phases[(j, i)] in coordinate i."""
    gens = [
        [
            {"mag": "1", "phase": phases.get((j, i), "0"), "texp": "1" if i == j else "0"}
            for i in range(g)
        ]
        for j in range(g)
    ]
    identity = [["1" if i == j else "0" for j in range(g)] for i in range(g)]
    return {"torus": {"g": g, "generators": gens}, "ns_class": identity}


def test_ns_analyze_tabulates_the_pairing_once(monkeypatch):
    # the phase table, the isotropy tests and the once-per-class self-check
    # read the phase matrix and the monomial components: no pairing is built
    calls = 0
    real = NSClass.torsion_pairing

    def counting(self, a, b):
        nonlocal calls
        calls += 1
        return real(self, a, b)

    data = _unit_torus_scenario(4, {(0, 1): "1/3", (2, 3): "1/3"})
    monkeypatch.setattr(NSClass, "torsion_pairing", counting)
    report = cli.cmd_ns_analyze(cli.Scenario(data), cli.SUBGROUP_ENUMERATION_BOUND)
    monkeypatch.undo()
    assert report["defect_invariants"] == [3, 3, 3, 3]
    assert len(report["admissible_lattices"]) == 40
    assert calls == 0
    ns = NSClass(cli.Scenario(data).torus, Mat.identity(4))
    lifts = report["defect_generators"]
    assert report["torsion_pairing_phases"] == [
        [jsonio.rational_to_json(ns.torsion_pairing(a, b).phase) for b in lifts] for a in lifts
    ]


def test_ns_analyze_six_to_the_fourth_within_the_default_bound(capsys, tmp_path):
    path = tmp_path / "six_to_the_fourth.json"
    path.write_text(json.dumps(_unit_torus_scenario(4, {(0, 1): "1/6", (2, 3): "1/6"})))
    report = run_json(capsys, "ns-analyze", "--scenario", str(path))
    assert report["defect_invariants"] == [6, 6, 6, 6]
    assert len(report["admissible_lattices"]) == 600
    assert report["class_rank"] == 36


@pytest.mark.parametrize(
    "phases",
    [{}, {(0, 1): "1/2"}, {(0, 1): "1/3", (1, 0): "1/3"}, {(0, 1): "1/4", (2, 3): "1/2"}],
)
def test_ns_analyze_reads_the_symmetry_facts_from_the_class(capsys, tmp_path, phases):
    data = _unit_torus_scenario(4, phases)
    path = tmp_path / "unit.json"
    path.write_text(json.dumps(data))
    report = run_json(capsys, "ns-analyze", "--scenario", str(path))
    ns = NSClass(cli.Scenario(data).torus, Mat.identity(4))
    assert report["r_symmetric"] is tori.is_r_symmetric(ns.matrix, ns.torus.v) is True
    assert report["gm_symmetric"] is ns.is_gm_symmetric_on(ns.integrality)


def test_na_trop_simple_builds_no_smith_form(capsys, monkeypatch):
    # the class rank is read from the integrality and symmetry indices
    calls = 0
    real = groups.snf

    def counting(rows):
        nonlocal calls
        calls += 1
        return real(rows)

    monkeypatch.setattr(groups, "snf", counting)
    run_json(capsys, "na", "trop-simple", "--scenario", scen("reference_example.json"))
    assert calls == 0


@pytest.mark.parametrize(
    "twist",
    [
        # the Omega side: every entry of the phase table off by 1/den
        ("disagrees with its phase matrix", None),
        # a class the constructor would refuse, let past it: V^T H is not symmetric
        ("left the torsion subgroup", [["1", "1"], ["0", "1"]]),
    ],
)
def test_disagreeing_reference_pairing_exits_4(capsys, monkeypatch, tmp_path, twist):
    message, ns_class = twist
    data = json.loads(Path(scen("reference_example.json")).read_text())
    if ns_class is None:
        real = nspairings._form_mod
        monkeypatch.setattr(
            nspairings,
            "_form_mod",
            lambda omega, den, gens: [[(x + 1) % den for x in r] for r in real(omega, den, gens)],
        )
    else:
        data["ns_class"] = ns_class
        monkeypatch.setattr(NSClass, "__post_init__", lambda self: None)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(data))
    code, out, err = run_cli(capsys, "ns-analyze", "--scenario", str(path))
    assert code == 4
    assert out == ""
    record = json.loads(err)
    assert record["kind"] == "InternalInconsistency"
    assert message in record["error"]


def test_verify_square_work_is_bounded(capsys):
    argv = ("na", "verify-square", "--scenario", scen("na_random.json"))
    # na_random.json generates count = 3 representations of size r = 3
    code, out, err = run_cli(capsys, *argv, "--bound", "8")
    assert code == 3
    assert out == ""
    assert json.loads(err)["kind"] == "TooLarge"
    assert run_cli(capsys, *argv, "--bound", "9")[0] == 0


# ---------------------------------------------------------------------------
# JSON round-trips
# ---------------------------------------------------------------------------


def test_rational_and_matrix_round_trip():
    assert jsonio.rational_from_json("22/7") == F(22, 7)
    assert jsonio.rational_from_json("-3") == -3
    assert jsonio.rational_from_json("+5/10") == F(1, 2)
    assert jsonio.rational_from_json(7) == 7
    assert jsonio.rational_to_json(F(-3, 4)) == "-3/4"
    m = Mat([[F(1, 2), F(3)], [F(0), F(-5, 6)]])
    assert jsonio.matrix_from_json(jsonio.matrix_to_json(m)) == m
    with pytest.raises(jsonio.ScenarioError):
        jsonio.rational_from_json(0.5)


def _wire_rational(rng):
    """A random rational in one of its wire spellings, often unreduced."""
    p, q, k = rng.randint(-12, 12), rng.choice([1, 1, 2, 3, 4, 6]), rng.randint(1, 3)
    spelling = rng.randrange(4)
    if q == 1 and spelling == 0:
        return p
    if q == 1 and spelling == 1:
        return str(p)
    if p >= 0 and spelling == 2:
        return f"+{k * p}/{k * q}"
    return f"{k * p}/{k * q}"


def test_matrix_from_json_equals_rational_decoding():
    # a wire matrix decodes straight to integer rows over one denominator;
    # it is the Mat of the per-entry Fraction decoding
    rng = random.Random(619)
    cases = [
        [["2/4", "+5/10"], ["-3", 7]],
        [["6/3", "-4/2"], [0, "+9"]],
        [[0, "0/5"], ["-0", "0"]],
        [[1, 2], [3, -4]],
        [["-3"]],
        [],
    ]
    for _ in range(200):
        n, m = rng.randint(1, 4), rng.randint(1, 4)
        cases.append([[_wire_rational(rng) for _ in range(m)] for _ in range(n)])
    dens = set()
    for rows in cases:
        got = jsonio.matrix_from_json(rows)
        expected = Mat([jsonio.vector_from_json(row) for row in rows])
        assert (got.num, got.den) == (expected.num, expected.den)
        assert got == expected and hash(got) == hash(expected)
        dens.add(got.den)
    assert len(dens) >= 5


@pytest.mark.parametrize(
    "rows",
    [
        [["1/0", "1"]],
        [["1", "2"], [True, "3"]],
        [[0.5, 1]],
        [["1", "2"], ["3"]],
        [["1", "2"], "3"],
        "1/2",
    ],
    ids=["zero-denominator", "boolean", "float", "ragged", "row-not-a-list", "not-a-list"],
)
def test_matrix_from_json_errors_match_rational_decoding(rows):
    with pytest.raises(TropabelError) as got:
        jsonio.matrix_from_json(rows)
    with pytest.raises(TropabelError) as expected:
        Mat([jsonio.vector_from_json(row) for row in jsonio._json_list(rows, "matrix rows")])
    assert type(got.value) is type(expected.value)
    assert str(got.value) == str(expected.value)


@pytest.mark.parametrize("text", ["1.5", "1e3", "-2.0", "1/2.5", " 1/2", "", "0x10", True, False])
def test_rational_strings_are_p_over_q_only(text):
    with pytest.raises(jsonio.ScenarioError):
        jsonio.rational_from_json(text)


def test_mono_and_torus_round_trip():
    x = mono(F(2, 3), F(1, 4), F(-5))
    assert jsonio.mono_from_json(jsonio.mono_to_json(x)) == x
    trop = TropTorus(Mat([[1, 0], [1, 2]]))
    assert jsonio.torus_from_json(jsonio.torus_to_json(trop)) == trop


@pytest.mark.parametrize(
    "field, value, kind, message",
    [
        ("mag", "0", "MalformedScalar", "magnitude must be positive, got 0"),
        ("mag", "-2/4", "MalformedScalar", "magnitude must be positive, got -1/2"),
        ("mag", True, "ScenarioError", "got True"),
        ("phase", 1.5, "ScenarioError", "got 1.5"),
        ("texp", "1/0", "ScenarioError", "zero denominator"),
        ("mag", "x", "ScenarioError", "got 'x'"),
    ],
)
def test_malformed_monomials_exit_2(capsys, tmp_path, field, value, kind, message):
    data = json.loads(Path(scen("reference_example.json")).read_text())
    data["na_bundles"]["B1"]["r"][0][field] = value
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(data))
    code, out, err = run_cli(capsys, "na", "trop-line", "--scenario", str(path))
    assert (code, out) == (2, "")
    record = json.loads(err)
    assert record["kind"] == kind
    assert message in record["error"]


def test_na_torus_round_trip(reference_torus):
    data = jsonio.torus_to_json(reference_torus)
    back = jsonio.torus_from_json(data)
    assert isinstance(back, NATorus)
    assert back.generators == reference_torus.generators


def test_bundle_round_trip():
    torus = TropTorus(Mat.identity(2))
    e = as_bundle(
        [
            line_bundle(torus, Sublattice([[2, 0], [0, 1]]), Mat.identity(2), (F(1, 2), 0)),
            line_bundle(torus, Sublattice.full(2), Mat.zeros(2, 2), (1, F(-2, 3))),
        ]
    )
    assert jsonio.bundle_from_json(jsonio.bundle_to_json(e), torus) == e


def test_rep_round_trip():
    rep = TropRepresentation(
        (
            TropGLElement((1, 0), (F(1, 3), F(5, 6))),
            TropGLElement((0, 1), (F(1, 4), F(1, 4))),
        )
    )
    data = jsonio.rep_to_json(rep)
    # wire format is 1-indexed
    assert data["images"][0]["perm"] == [2, 1]
    assert jsonio.rep_from_json(data) == rep


def test_na_rep_round_trip():
    rep = NASemisimpleRep(
        (
            NACharacter((mono(2, 0, 1), mono(1, F(1, 2), 0))),
            NACharacter((mono(1, 0, F(1, 3)), mono(3, 0, -1))),
        )
    )
    assert jsonio.na_rep_from_json(jsonio.na_rep_to_json(rep)) == rep


# ---------------------------------------------------------------------------
# Fuzzed scenarios: one node of a shipped scenario replaced by a small leaf
# ---------------------------------------------------------------------------

LEAVES = [-1, 0, 1, 2, 3, 7, 100, 2.5, True, None, "x", "0/0", "1/2", "1/0", [], {}]
# lattice-, matrix- and vector-shaped leaves reach the lattice and covector nodes
LEAVES += [[[2, 0], [0, 2]], [[0, 0], [0, 0]], [0, 0]]


def _paths(tree, path=()):
    """Every node of a JSON tree, as the key path from the root."""
    yield path
    if isinstance(tree, (dict, list)):
        for key, child in tree.items() if isinstance(tree, dict) else enumerate(tree):
            yield from _paths(child, path + (key,))


def _replaced(tree, path, leaf):
    if not path:
        return leaf
    tree = copy.deepcopy(tree)
    _set_at(path, leaf)(tree)
    return tree


@settings(derandomize=True, deadline=None, max_examples=300, database=None)
@given(st.data())
def test_mutated_scenarios_keep_the_exit_code_contract(tmp_path_factory, data):
    command, op, scenario = data.draw(st.sampled_from(CLI_MATRIX))
    tree = json.loads(Path(scen(scenario)).read_text(encoding="utf-8"))
    path = data.draw(st.sampled_from(list(_paths(tree))))
    leaf = data.draw(st.sampled_from(LEAVES))
    target = tmp_path_factory.mktemp("fuzz") / scenario
    target.write_text(json.dumps(_replaced(tree, path, leaf)), encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([command] + ([op] if op else []) + ["--scenario", str(target)])
    assert code in (0, 2, 3, 4)
    if code == 0:
        assert err.getvalue() == ""
        return
    assert out.getvalue() == ""
    record = json.loads(err.getvalue())
    kind = record["kind"]
    # a built-in exception is a fault of the program
    assert not isinstance(getattr(builtins, kind, None), type), record
    assert code != 4 or kind == "InternalInconsistency", record
