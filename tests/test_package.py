"""The package surface, the sources each CLI command compiles, and the
documented session of README.md."""

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
