"""The benchmark tracer's targets still exist.

``bench/tracer.py`` wraps the package's entry points by module and attribute
name, looked up in ``sys.modules`` after the imports ``bench/run.py`` makes.
A rename, or a module those imports no longer load, would otherwise show only
in a traced benchmark run.  The check runs in a fresh interpreter, so that
``sys.modules`` holds what those imports load and nothing this test session
imported.
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
import tropabel.cli, tropabel.jsonio, tropabel.tropchar
import tracer

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
    "targets": targets,
    "unresolved": [t for t in targets if not resolves(*t)],
    "suffixes_unmatched": suffixes,
}))
"""


def test_every_traced_name_resolves_after_the_benchmark_imports():
    src = str(Path(tropabel.__file__).resolve().parent.parent)
    out = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join([src, str(ROOT / "bench")])},
    )
    report = json.loads(out.stdout)
    targets = {tuple(t) for t in report["targets"]}
    assert {
        ("linalg", "hnf"),
        ("linalg", "column_hnf"),
        ("lattices", "Sublattice.intersect"),
    } <= targets
    assert report["unresolved"] == []
    assert report["suffixes_unmatched"] == []
