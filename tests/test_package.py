"""The package surface, the exported functions that the CLI runs, the sources
each CLI command compiles, and the documented session of README.md."""

import ast
import importlib
import json
import os
import re
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from types import ModuleType

import pytest

import tropabel
from tropabel import ValuedMonomial

from test_acceptance import CLI_MATRIX

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"
SRC = str(Path(tropabel.__file__).resolve().parent.parent)

# collects in ``compiled`` the package's source files that the interpreter compiles
HOOK = """
import contextlib, io, json, os, sys
compiled = set()

def record(event, args):
    if event == "compile" and isinstance(args[1], str):
        folder, name = os.path.split(args[1])
        if os.path.basename(folder) == "tropabel":
            compiled.add(name)

sys.addaudithook(record)
"""
# runs one CLI call, its report kept off stdout, and prints its exit code and the
# package's source files that the interpreter compiled
AUDIT = HOOK + """
from tropabel import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[1:])
print(json.dumps({"exit": code, "compiled": sorted(compiled)}))
"""

# runs the CLI calls of the digest file named by its argument in one interpreter,
# under a profiler that records each Python function entered, and prints whether
# each exit code was the recorded one, the exported functions and those never entered
SURFACE = """
import contextlib, inspect, io, json, sys
import tropabel
from tropabel import cli
entered = set()

def record(frame, event, arg):
    if event == "call":
        entered.add(frame.f_code)

with open(sys.argv[1], encoding="utf-8") as fh:
    records = json.load(fh)
sys.setprofile(record)
try:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        exits = [cli.main(r["argv"]) for r in records]
finally:
    sys.setprofile(None)
functions = {n: f for n in tropabel.__all__ if inspect.isfunction(f := getattr(tropabel, n))}
print(json.dumps({
    "runs": len(records),
    "exits_recorded": exits == [r["exit"] for r in records],
    "functions": sorted(functions),
    "never_entered": sorted(n for n, f in functions.items() if f.__code__ not in entered),
}))
"""


# (command, op) -> the sources that its call has no use for; op None: every
# other op of the command
NOT_COMPILED = {
    ("ns-analyze", None): {"bundles.py", "tropchar.py", "naside.py"},
    ("bundle", None): {"tropchar.py", "naside.py", "monomials.py", "nspairings.py", "groups.py"},
    ("rep", None): {"bundles.py", "naside.py", "monomials.py", "nspairings.py", "groups.py"},
    ("rep", "eta"): {"naside.py", "monomials.py", "nspairings.py", "groups.py"},
    ("na", None): {"groups.py"},
    ("na", "trop-line"): {"tropchar.py", "groups.py"},
    ("na", "trop-simple"): {"tropchar.py", "groups.py"},
    ("na", "trop-rep"): {"bundles.py", "nspairings.py", "groups.py"},
}


def _not_compiled(command: str, op: str | None) -> set[str]:
    return NOT_COMPILED.get((command, op), NOT_COMPILED.get((command, None), set()))


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from tropabel import *", namespace)
    assert sorted(n for n in namespace if n != "__builtins__") == tropabel.__all__
    assert tropabel.__all__ == sorted(set(tropabel.__all__))


def test_exports_are_the_objects_of_their_home_modules():
    for name in tropabel.__all__:
        value = getattr(tropabel, name)
        home = importlib.import_module(value.__module__)
        assert getattr(home, name) is value, name


def test_every_public_non_module_name_is_exported():
    public = {
        name
        for name in dir(tropabel)
        if not name.startswith("_") and not isinstance(getattr(tropabel, name), ModuleType)
    }
    assert public == set(tropabel.__all__)


def _listed_as_library_api() -> list[str]:
    """The names of README.md's section on the library API that no command runs."""
    text = README.read_text(encoding="utf-8")
    section = re.search(r"### Library API that no command runs\n(.*?)\n#", text, re.S).group(1)
    return re.findall(r"^- `(\w+)`", section, re.M)


def test_every_exported_function_is_run_by_the_cli_or_listed_in_the_readme():
    # in a fresh interpreter, so that no cache filled by another test spares a call
    out = subprocess.run(
        [sys.executable, "-c", SURFACE, str(ROOT / "bench" / "cli_digests.json")],
        capture_output=True,
        text=True,
        check=True,
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": SRC},
    )
    report = json.loads(out.stdout)
    assert report["runs"] == 19 and report["exits_recorded"]
    listed = _listed_as_library_api()
    assert len(listed) == len(set(listed)), listed
    not_run = set(report["never_entered"])
    assert not_run - set(listed) == set(), "exported, run by no CLI call and not listed"
    assert set(listed) - set(report["functions"]) == set(), "listed, but not an exported function"
    assert set(listed) - not_run == set(), "listed, but a CLI call runs it"


def test_a_reload_of_the_package_keeps_its_submodules():
    script = (
        "import importlib, tropabel; torus = tropabel.TropTorus; "
        "importlib.reload(tropabel); print(tropabel.TropTorus is torus)"
    )
    out = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": SRC},
    )
    assert out.stdout.strip() == "True"


@pytest.fixture(scope="module")
def sources_only(tmp_path_factory) -> Path:
    """A folder that holds a copy of the package's sources and no bytecode."""
    root = tmp_path_factory.mktemp("src")
    shutil.copytree(
        Path(tropabel.__file__).parent,
        root / "tropabel",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    return root


@pytest.mark.parametrize(
    "command, op, scenario",
    [case for case in CLI_MATRIX if _not_compiled(*case[:2])],
)
def test_a_command_compiles_only_the_modules_it_runs(sources_only, command, op, scenario):
    # the copy has no bytecode and -B writes none, so every module that the call
    # loads is compiled from source; the standard library keeps its bytecode
    argv = [command] + ([op] if op else []) + ["--scenario", str(ROOT / "scenarios" / scenario)]
    out = subprocess.run(
        [sys.executable, "-B", "-c", AUDIT, *argv],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": str(sources_only)},
    )
    report = json.loads(out.stdout)
    compiled = set(report["compiled"])
    assert report["exit"] == 0
    assert {"__init__.py", "cli.py", "jsonio.py", "tori.py"} <= compiled
    assert compiled & _not_compiled(command, op) == set()


def test_the_forwarded_names_are_the_functions_of_groups():
    from tropabel import groups, lattices, linalg

    assert linalg.snf is groups.snf
    assert lattices.quotient is groups.quotient
    assert lattices.enumerate_subgroups is groups.enumerate_subgroups
    for module in (linalg, lattices):
        with pytest.raises(AttributeError, match="has no attribute 'FiniteAbelianGroup'"):
            module.FiniteAbelianGroup


def test_lattices_and_linalg_run_without_compiling_groups(sources_only):
    script = HOOK + (
        "import tropabel.lattices as lattices, tropabel.linalg as linalg\n"
        "lattices.Sublattice.full(2).intersect(lattices.Sublattice([[2, 0], [0, 1]]))\n"
        "linalg.hnf([[2, 1], [0, 3]])\n"
        "print(json.dumps(sorted(compiled)))\n"
    )
    out = subprocess.run(
        [sys.executable, "-B", "-c", script],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": str(sources_only)},
    )
    compiled = set(json.loads(out.stdout))
    assert {"lattices.py", "linalg.py"} <= compiled
    assert "groups.py" not in compiled


def test_the_hermite_form_has_one_home():
    # the join, its reducer and column_hnf are defined once, in linalg, and no
    # second Hermite path, such as a row form, grows back in another module
    package = Path(tropabel.__file__).resolve().parent
    defined: dict[str, list[str]] = {}
    for source in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(source.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.setdefault(node.name, []).append(source.name)
    for name in ("_hermite_add", "_hermite_rows", "column_hnf"):
        assert defined.get(name) == ["linalg.py"], (name, defined.get(name))
    assert "row_hnf" not in defined


def test_run_as_a_module_warns_of_nothing():
    # runpy warns when the package has already put tropabel.cli in sys.modules
    argv = ["ns-analyze", "--scenario", str(ROOT / "scenarios" / "reference_example.json")]
    out = subprocess.run(
        [sys.executable, "-W", "error", "-m", "tropabel.cli", *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": SRC},
    )
    assert (out.returncode, out.stderr) == (0, "")


def test_readme_session_runs_and_its_comments_hold():
    text = README.read_text(encoding="utf-8")
    block = re.search(r"### A small session\n\n```python\n(.*?)```", text, re.S).group(1)
    namespace = {}
    exec(block, namespace)
    ns = namespace["ns"]
    half = ValuedMonomial.minus_one()
    assert half.phase == Fraction(1, 2)
    assert ns.gm_pairing((1, 0), (0, 1)) == ValuedMonomial.one()
    assert ns.gm_pairing((0, 1), (1, 0)) == half
    assert ns.torsion_pairing((1, 0), (0, 1)) == half
    assert ns.symmetry.basis == ((2, 0), (0, 2))
    assert ns.defect_group.invariant_factors == (2, 2)
    assert [lat.basis for lat in ns.admissible_lattices()] == [
        ((1, 0), (0, 2)),
        ((1, 0), (1, 2)),
        ((2, 0), (0, 1)),
    ]
    assert ns.class_rank() == 2
