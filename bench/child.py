"""Run one ``tropabel`` CLI invocation in a fresh interpreter, timing the
import and optionally tracing the run.

    python3 bench/child.py --import-only
    python3 bench/child.py --trace-out FILE -- <tropabel CLI arguments>

The first form prints ``{"import_s": ...}``.  The second runs
``tropabel.cli.main`` under the tracer, leaves stdout, stderr and the exit
code exactly as the CLI produces them, and writes the import time, the trace
summary and the spans to FILE.  ``tropabel`` must be importable (the benchmark
sets ``PYTHONPATH`` to the checkout's ``src``).
"""

import sys
from time import perf_counter


def main(argv: list[str]) -> int:
    t0 = perf_counter()
    import tropabel.cli as cli

    import_s = perf_counter() - t0
    import json

    if argv == ["--import-only"]:
        print(json.dumps({"import_s": import_s}))
        return 0
    if len(argv) < 3 or argv[0] != "--trace-out" or argv[2] != "--":
        print("usage: child.py --import-only | --trace-out FILE -- ARGS...", file=sys.stderr)
        return 2
    from tracer import Tracer

    out_path, cli_argv = argv[1], argv[3:]
    tracer = Tracer()
    tracer.install()
    try:
        code = cli.main(cli_argv)
    finally:
        tracer.uninstall()
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump({"import_s": import_s, "summary": tracer.summary(), "spans": tracer.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
