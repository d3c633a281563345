"""The package surface, the exported functions that the CLI runs, the sources
each CLI command compiles, and the documented session of README.md."""

import ast
import importlib
import inspect
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
from tropabel.errors import TropabelError

from test_acceptance import CLI_MATRIX

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
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

# the profiler of the SURFACE audit: records in ``entered`` the code of each Python
# function entered, except a module's ``__getattr__`` asked for a dunder name: the
# import system probes a module for ``__path__`` on ``from .module import name``,
# which asks a forward for nothing that it serves
PROFILER = """
entered = set()

def record(frame, event, arg):
    code = frame.f_code
    if event != "call":
        return
    if code.co_name == "__getattr__" and code.co_argcount == 1:
        name = frame.f_locals[code.co_varnames[0]]
        if name.startswith("__") and name.endswith("__"):
            return
    entered.add(code)
"""

# runs the CLI calls of the digest file named by its first argument in one
# interpreter, under PROFILER started before the package is imported; prints whether
# each exit code was the recorded one, every function body of the package (each
# module-level function, method, property and cached_property, a nested function
# counting as part of the body that encloses it) as "module:qualname", those that
# no call entered, and the bodies that the benchmark's tracer (bench/tracer.py, in
# the folder of the second argument) binds by name in SPANS, TIMED_COUNTS and COUNTS
SURFACE = PROFILER + """
import contextlib, functools, importlib, io, json, sys, types
from pathlib import Path

with open(sys.argv[1], encoding="utf-8") as fh:
    records = json.load(fh)
sys.setprofile(record)
try:
    import tropabel
    from tropabel import cli
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        exits = [cli.main(r["argv"]) for r in records]
finally:
    sys.setprofile(None)

def functions(member):
    if isinstance(member, (staticmethod, classmethod)):
        member = member.__func__
    if isinstance(member, property):
        return [f for f in (member.fget, member.fset, member.fdel) if f is not None]
    if isinstance(member, functools.cached_property):
        member = member.func
    member = getattr(member, "__wrapped__", member)  # an lru_cache
    return [member] if isinstance(member, types.FunctionType) else []

def body(f):
    # a function defined in a function (``<locals>``) is part of the body around it
    name = f.__module__.rpartition(".")[2]
    return None if "<locals>" in f.__qualname__ else f"{name}:{f.__qualname__}"

def codes(code):
    yield code
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            yield from codes(const)

modules = {"tropabel": tropabel}
for path in Path(tropabel.__file__).parent.glob("*.py"):
    if path.stem != "__init__":
        modules[path.stem] = importlib.import_module(f"tropabel.{path.stem}")
bodies = {}
for module in modules.values():
    members = list(vars(module).values())
    for cls in [m for m in members if isinstance(m, type) and m.__module__ == module.__name__]:
        members += vars(cls).values()
    for f in (f for m in members for f in functions(m) if f.__module__ == module.__name__):
        name = body(f)
        if name:
            bodies[name] = f.__code__

sys.path.insert(0, sys.argv[2])
from tracer import COUNTS, SPANS, TIMED_COUNTS
bound = set()
for module_name, attr, *_ in SPANS + TIMED_COUNTS + COUNTS:
    module = modules[module_name]
    first, _, rest = attr.partition(".")
    if first not in vars(module):  # served by the module's __getattr__
        bound.add(body(module.__getattr__))
    target = getattr(module, first)
    member = vars(target)[rest] if rest else target
    bound.update(body(f) for f in functions(member) if body(f))
print(json.dumps({
    "runs": len(records),
    "exits_recorded": exits == [r["exit"] for r in records],
    "bodies": sorted(bodies),
    "never_entered": sorted(
        k for k, code in bodies.items() if not any(c in entered for c in codes(code))
    ),
    "tracer_bound": sorted(bound),
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
    """The names that head the items of README.md's section on the library API that
    no command runs: functions, and methods as ``Class.method``."""
    text = README.read_text(encoding="utf-8")
    section = re.search(r"### Library API that no command runs\n(.*?)\n#", text, re.S).group(1)
    heads = re.findall(r"^- ((?:`[\w.]+`(?:, )?)+):", section, re.M)
    return [name for head in heads for name in re.findall(r"`([\w.]+)`", head)]


def surface_report() -> dict:
    """The SURFACE report of the 19 recorded CLI calls, in a fresh interpreter, so
    that no cache filled by another test spares a call."""
    out = subprocess.run(
        [sys.executable, "-c", SURFACE, str(BENCH / "cli_digests.json"), str(BENCH)],
        capture_output=True,
        text=True,
        check=True,
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": SRC},
    )
    return json.loads(out.stdout)


def unentered_by_kind(report: dict, listed: list[str]) -> dict[str, list[str]]:
    """Each body that no recorded call enters, by the kind that accounts for it:
    bound by the benchmark's tracer, a public-constructor check (``__post_init__``,
    ``_checked``) or the machinery of the package and of ``Frozen``, or listed in
    README.md by its qualified name; what none accounts for is "unaccounted"."""
    kinds: dict[str, list[str]] = {
        "tracer-bound": [], "checks and machinery": [], "listed": [], "unaccounted": []
    }
    for name in report["never_entered"]:
        module, qualname = name.split(":")
        if name in report["tracer_bound"]:
            kind = "tracer-bound"
        elif module in ("tropabel", "_frozen") or qualname.endswith((".__post_init__", "._checked")):
            kind = "checks and machinery"
        elif qualname in listed:
            kind = "listed"
        else:
            kind = "unaccounted"
        kinds[kind].append(name)
    return kinds


def test_every_exported_function_is_run_by_the_cli_or_listed_in_the_readme():
    # every function body, exported or not, method or module-level: entered by a
    # recorded CLI call, tracer-bound, a constructor check or machinery, or listed
    report = surface_report()
    assert report["runs"] == 19 and report["exits_recorded"]
    listed = _listed_as_library_api()
    assert len(listed) == len(set(listed)), listed
    kinds = unentered_by_kind(report, listed)
    assert kinds["unaccounted"] == [], "run by no CLI call, and not tracer-bound, a check or listed"
    qualnames = [name.split(":")[1] for name in report["bodies"]]
    assert [n for n in listed if qualnames.count(n) != 1] == [], "listed, but not one body"
    listed_bodies = {name for name in report["bodies"] if name.split(":")[1] in listed}
    assert listed_bodies - set(kinds["listed"]) == set(), "listed, but entered, tracer-bound or a check"
    # the tracer binds names that exist, and the audit sees them
    assert report["tracer_bound"] and set(report["tracer_bound"]) <= set(report["bodies"])


def _required_positional(f) -> int:
    """The number of required positional parameters of f."""
    kinds = (inspect.Parameter.POSITIONAL_ONLY, inspect.Parameter.POSITIONAL_OR_KEYWORD)
    params = inspect.signature(f).parameters.values()
    return sum(p.kind in kinds and p.default is inspect.Parameter.empty for p in params)


EXPORTED_FUNCTIONS = [n for n in tropabel.__all__ if inspect.isfunction(getattr(tropabel, n))]


@pytest.mark.parametrize("junk", [5, None, "ab"], ids=["5", "None", "ab"])
@pytest.mark.parametrize("name", EXPORTED_FUNCTIONS)
def test_an_exported_function_given_junk_raises_only_library_errors(name, junk):
    # the junk value in every required positional argument: a library error, or
    # a result where the value is valid input (identity(5) is GL_5's unit)
    f = getattr(tropabel, name)
    try:
        f(*[junk] * _required_positional(f))
    except TropabelError:
        pass


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


def test_the_audit_does_not_count_a_dunder_probe_of_a_module_getattr():
    # importing bundles runs ``from .linalg import ...`` and ``from .lattices import
    # ...``, and the import system asks both modules for __path__ through their
    # __getattr__; the profiler sees those calls but does not count them, and it
    # counts the forward once a forwarded name is asked for
    script = PROFILER + (
        "import json, sys\n"
        "probes = []\n"
        "def profile(frame, event, arg):\n"
        "    if event == 'call' and frame.f_code.co_name == '__getattr__':\n"
        "        probes.append((frame.f_globals['__name__'], frame.f_locals['name']))\n"
        "    record(frame, event, arg)\n"
        "sys.setprofile(profile)\n"
        "from tropabel import bundles, lattices, linalg\n"
        "bundles.equivalent\n"
        "probed = [m.__getattr__.__code__ in entered for m in (linalg, lattices)]\n"
        "linalg.snf\n"
        "sys.setprofile(None)\n"
        "served = linalg.__getattr__.__code__ in entered\n"
        "print(json.dumps({'probes': probes, 'probed': probed, 'served': served}))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": SRC},
    )
    report = json.loads(out.stdout)
    probes = {tuple(p) for p in report["probes"]}
    assert {("tropabel.linalg", "__path__"), ("tropabel.lattices", "__path__")} <= probes
    assert report["probed"] == [False, False]
    assert report["served"] is True


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
