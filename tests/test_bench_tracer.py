"""The benchmark tracer installs, and its targets still exist.

``bench/tracer.py`` wraps the package's entry points by module and attribute
name, looked up in ``sys.modules`` after the imports of ``bench/run.py`` (in
process) or of ``bench/child.py`` (one CLI call).  A rename, or a module those
imports no longer put in ``sys.modules``, would otherwise show only in a
traced benchmark run.  The check runs in a fresh interpreter, so that
``sys.modules`` holds what those imports load and nothing this test session
imported; the tracer is installed before anything else reads a module, so it
also meets the submodules that the package has not run yet.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import tropabel

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = """
import json, sys
import tracer
tracer_ = tracer.Tracer()
tracer_.install()
during = sys.modules["tropabel.bundles"].tensor
tracer_.uninstall()
wrapped = during is not sys.modules["tropabel.bundles"].tensor

def resolves(module, attr):
    mod = sys.modules.get("tropabel." + module)
    if mod is None:
        return False
    if "." in attr:
        cls_name, meth = attr.split(".")
        cls = getattr(mod, cls_name, None)
        return isinstance(cls, type) and meth in vars(cls)
    return hasattr(mod, attr)

targets = [(m, a) for m, a, *_ in tracer.SPANS + tracer.TIMED_COUNTS + tracer.COUNTS]
jsonio = vars(sys.modules["tropabel.jsonio"])
suffixes = [s for s in tracer.JSONIO_SPANS if not any(k.endswith(s) for k in jsonio)]
print(json.dumps({
    "wrapped": wrapped,
    "targets": targets,
    "unresolved": [t for t in targets if not resolves(*t)],
    "suffixes_unmatched": suffixes,
}))
"""


def _assert_installs_and_resolves(imports: str) -> None:
    """The script, after the given imports of tropabel modules, finds every
    traced name and installs the tracer."""
    src = str(Path(tropabel.__file__).resolve().parent.parent)
    out = subprocess.run(
        [sys.executable, "-c", imports + "\n" + SCRIPT],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join([src, str(ROOT / "bench")])},
    )
    report = json.loads(out.stdout)
    assert report["wrapped"]
    targets = {tuple(t) for t in report["targets"]}
    assert {
        ("linalg", "hnf"),
        ("linalg", "column_hnf"),
        ("lattices", "Sublattice.intersect"),
    } <= targets
    assert report["unresolved"] == []
    assert report["suffixes_unmatched"] == []


def test_every_traced_name_resolves_after_the_benchmark_imports():
    # the imports of bench/run.py
    _assert_installs_and_resolves("import tropabel.cli, tropabel.jsonio, tropabel.tropchar")


def test_every_traced_name_resolves_after_the_child_import():
    # the import of bench/child.py, which leaves bundles, tropchar and naside unrun
    _assert_installs_and_resolves("import tropabel.cli")
