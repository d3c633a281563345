"""The package surface and the documented session of README.md."""

import importlib
import re
from fractions import Fraction
from pathlib import Path
from types import ModuleType

import tropabel
from tropabel import ValuedMonomial

README = Path(__file__).resolve().parent.parent / "README.md"


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
