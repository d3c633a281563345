"""The tropabel benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
``src`` directory, never from an installed copy.  One process with one thread
drives the workload in-process (``cli-scenarios`` runs one CLI child at a
time).  The run sets up (import plus seeded input generation, repeated and
reported as a median), then makes whole passes over the workload's cases, a
closed loop with one caller, until S seconds, two passes and 100 executions
have run, checking every execution against its oracle.

Every time is normalised to a reference machine speed.  On a shared host the
speed of this process changes by up to 2x over seconds, so a fixed,
stdlib-only calibration routine runs between consecutive cases, and each
latency is scaled by ``CALIBRATION_REF_S / c`` with ``c`` the mean time of
the calibration just before and just after it.  A "ms" below is a
millisecond on a machine where the calibration takes ``CALIBRATION_REF_S``.
The summary also prints the raw wall-clock figures.

With ``--trace 0`` the last stdout line is the JSON result with the
end-to-end metrics.  With ``--trace 1`` traced and untraced passes alternate;
the result holds the per-layer metrics of the first traced pass and the
tracing overhead (traced minus untraced ``cases_per_s``).  Lines before it
are a readable summary: the input digest, every metric with its unit, and
``failed_frac``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import random
import resource
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".bench_out"
SETUP_REPS = 11
MIN_PASSES = 2
MIN_EXECUTIONS = 100  # so that ten samples lie beyond p90
PROBES = 5
# calibrate() takes this long at the reference speed; on the 2-vCPU Xeon of
# the baseline it takes 0.95-1.9 ms, depending on the other tenants.
CALIBRATION_REF_S = 0.001

sys.path.insert(0, str(BENCH_DIR))
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def calibrate() -> float:
    """Time a fixed piece of pure-Python work of the kind the package does
    (small rationals, tuples, dicts).  The collector is off so that the
    program's heap cannot change the figure."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        acc, seen = Fraction(0), {}
        for i in range(1, 120):
            acc += Fraction(i, i % 7 + 1) * Fraction(3, i % 5 + 2) - Fraction(i % 3, 4)
            key = tuple((i * j) % 11 for j in range(6))
            seen[key] = seen.get(key, 0) + 1
        return perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class Clock:
    """Wall-clock intervals scaled to the reference speed by the calibration
    measured on either side of them."""

    def __init__(self):
        self.last = calibrate()

    def measure(self, fn, *args):
        """Run fn(*args); return (result, raw seconds, normalised seconds)."""
        before = self.last
        t0 = perf_counter()
        try:
            result = fn(*args)
        finally:
            raw = perf_counter() - t0
            self.last = calibrate()
        return result, raw, raw * CALIBRATION_REF_S / ((before + self.last) / 2)


def import_library() -> SimpleNamespace:
    """Import ``tropabel`` afresh (its modules are dropped first)."""
    for name in [n for n in sys.modules if n == "tropabel" or n.startswith("tropabel.")]:
        del sys.modules[name]
    cli = importlib.import_module("tropabel.cli")
    return SimpleNamespace(
        cli=cli,
        jsonio=importlib.import_module("tropabel.jsonio"),
        tropchar=importlib.import_module("tropabel.tropchar"),
    )


def setup(workload, seed: int, ctx):
    def once():
        lib = import_library()
        return lib, workload.generate(random.Random(f"{workload.name}:{seed}"), ctx)

    times = []
    for _ in range(SETUP_REPS):
        (lib, cases), _raw, norm = ctx.clock.measure(once)
        times.append(norm)
    return statistics.median(times), lib, cases


def run_case(workload, case, lib, ctx, stats, tracer=None) -> None:
    """One execution: its latency is the program's work, the oracle runs after."""

    def work():
        if tracer is None:
            return workload.run(case, lib, ctx)
        entry = tracer.open("case")
        try:
            result = workload.run(case, lib, ctx)
            absorb_child(tracer, ctx)
        finally:
            tracer.close(entry)
        return result

    try:
        result, raw, norm = ctx.clock.measure(work)
        error = workload.check(case, result)
        stats.bytes_out += len(result[0])
    except Exception as exc:  # any exception fails the case; the run goes on
        raw = norm = None
        error = f"{type(exc).__name__}: {exc}"
    stats.executions += 1
    if raw is not None:
        stats.raw.append(raw)
        stats.norm.append(norm)
    if error is not None:
        stats.failed += 1
        stats.errors.append(error)


def absorb_child(tracer, ctx) -> None:
    path = ctx.child_trace_path
    if path.exists():
        with open(path, encoding="utf-8") as fh:
            child = json.load(fh)
        path.unlink()
        tracer.absorb(child["spans"], child["summary"])


def new_stats():
    """Counters of a series of passes: raw and normalised latencies."""
    return SimpleNamespace(raw=[], norm=[], executions=0, failed=0, errors=[], bytes_out=0,
                           passes=0)


def one_pass(workload, cases, lib, ctx, stats, tracer=None) -> None:
    for i, case in enumerate(cases):
        if tracer is not None:
            tracer.case = i
        run_case(workload, case, lib, ctx, stats, tracer)
    stats.passes += 1


def loop(workload, cases, lib, ctx, seconds: float):
    """Whole untraced passes until S seconds, MIN_PASSES passes and
    MIN_EXECUTIONS executions have run."""
    stats = new_stats()
    t_start = perf_counter()
    while True:
        one_pass(workload, cases, lib, ctx, stats)
        stats.elapsed = perf_counter() - t_start
        if (stats.elapsed >= seconds and stats.passes >= MIN_PASSES
                and stats.executions >= MIN_EXECUTIONS):
            return stats


def traced_loop(workload, cases, lib, ctx, seconds: float):
    """Traced and untraced passes alternate until S seconds have run; the
    first traced pass gives the per-layer numbers."""
    traced, untraced = new_stats(), new_stats()
    first = None
    t_start = perf_counter()
    while first is None or perf_counter() - t_start < seconds:
        tracer = Tracer()
        ctx.tracer = tracer
        tracer.install()
        try:
            one_pass(workload, cases, lib, ctx, traced, tracer)
        finally:
            tracer.uninstall()
            ctx.tracer = None
        if first is None:
            # the pass's own speed factor, applied to its layer times
            first = SimpleNamespace(tracer=tracer, bytes_out=traced.bytes_out,
                                    scale=sum(traced.norm) / sum(traced.raw))
        one_pass(workload, cases, lib, ctx, untraced)
    return first, traced, untraced


def run_child(ctx, argv):
    return subprocess.run([ctx.python, *argv], cwd=ctx.root, env=ctx.child_env,
                          capture_output=True, timeout=60, check=True)


def spawn_probe(ctx) -> float:
    """Normalised wall time of a bare interpreter."""
    return ctx.clock.measure(run_child, ctx, ["-c", "pass"])[2]


def import_probe(ctx) -> float:
    """Time to import ``tropabel.cli`` in a fresh child, as the child measures
    it, scaled by the calibration around the child."""
    child, raw, norm = ctx.clock.measure(run_child, ctx, [str(BENCH_DIR / "child.py"),
                                                          "--import-only"])
    return json.loads(child.stdout)["import_s"] * norm / raw


def pctl(values, p: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


# name -> (unit, value from the traced-pass record t)
PER_LAYER = {
    "linalg.hnf.calls": ("count", lambda t: t.calls("linalg.hnf")),
    "linalg.hnf.self_s": ("s", lambda t: t.self_s("linalg.hnf")),
    "linalg.snf.calls": ("count", lambda t: t.calls("linalg.snf")),
    "linalg.snf.self_s": ("s", lambda t: t.self_s("linalg.snf")),
    "linalg.Mat.calls": ("count", lambda t: t.count("linalg.Mat")),
    "linalg.Mat.self_s": ("s", lambda t: t.scale * t.s["timed_s"].get("linalg.Mat", 0.0)),
    "linalg.solve.self_s": ("s", lambda t: t.self_s("linalg.solve")),
    "linalg.max_bits": ("bits", lambda t: t.s["max_bits"]),
    "rationals.rat.calls": ("count", lambda t: t.count("rationals.rat")),
    "lattices.Sublattice.calls": ("count", lambda t: t.calls("lattices.Sublattice")),
    "lattices.Sublattice.self_s": ("s", lambda t: t.self_s("lattices.Sublattice")),
    "lattices.intersect.calls": ("count", lambda t: t.calls("lattices.intersect")),
    "lattices.intersect.self_s": ("s", lambda t: t.self_s("lattices.intersect")),
    "lattices.quotient.calls": ("count", lambda t: t.calls("lattices.quotient")),
    "lattices.quotient.self_s": ("s", lambda t: t.self_s("lattices.quotient")),
    "lattices.enumerate_subgroups.self_s": ("s", lambda t: t.self_s("lattices.enumerate_subgroups")),
    "lattices.subgroups_visited": ("count", lambda t: t.count("lattices.subgroups_visited")),
    "monomials.ValuedMonomial.calls": ("count", lambda t: t.count("monomials.ValuedMonomial")),
    "monomials.eval_character.self_s": ("s", lambda t: t.self_s("monomials.eval_character")),
    "nspairings.NSClass.calls": ("count", lambda t: t.count("nspairings.NSClass")),
    "nspairings.torsion_pairing.calls": ("count", lambda t: t.count("nspairings.torsion_pairing")),
    "nspairings.symmetry.self_s": ("s", lambda t: t.self_s("nspairings.symmetry")),
    "nspairings.admissible_lattices.self_s": ("s", lambda t: t.self_s("nspairings.admissible_lattices")),
    "nspairings.admissible_yield": ("ratio", lambda t: t.ratio("nspairings.admissible_out",
                                                               "lattices.subgroups_visited")),
    "bundles.TropLineBundle.calls": ("count", lambda t: t.count("bundles.TropLineBundle")),
    "bundles.summands_out": ("count", lambda t: t.count("bundles.summands_out")),
    "bundles.tensor.self_s": ("s", lambda t: t.self_s("bundles.tensor")),
    "bundles.pullback.self_s": ("s", lambda t: t.self_s("bundles.pullback")),
    "bundles.pushforward.self_s": ("s", lambda t: t.self_s("bundles.pushforward")),
    "bundles.translate.self_s": ("s", lambda t: t.self_s("bundles.translate")),
    "bundles.equivalent.self_s": ("s", lambda t: t.self_s("bundles.equivalent")),
    "bundles.moduli_point.self_s": ("s", lambda t: t.self_s("bundles.moduli_point")),
    "tropchar.decompose_rep.self_s": ("s", lambda t: t.self_s("tropchar.decompose_rep")),
    "tropchar.rep_from_bundle.self_s": ("s", lambda t: t.self_s("tropchar.rep_from_bundle")),
    "tropchar.compose.calls": ("count", lambda t: t.count("tropchar.compose")),
    "naside.verify_commuting_square.self_s": ("s", lambda t: t.self_s("naside.verify_commuting_square")),
    "naside.tropicalize_line_bundle.self_s": ("s", lambda t: t.self_s("naside.tropicalize_line_bundle")),
    "naside.extend_r.calls": ("count", lambda t: t.count("naside.extend_r")),
    "jsonio.parse.self_s": ("s", lambda t: t.self_s("jsonio.parse")),
    "jsonio.emit.self_s": ("s", lambda t: t.self_s("jsonio.emit")),
    "jsonio.bytes_out": ("bytes", lambda t: t.bytes_out),
    "cli.spawn_s": ("s", lambda t: t.spawn_s),
    "cli.import_s": ("s", lambda t: t.import_s),
    "cli.run_s": ("s", lambda t: t.scale * t.s["total_s"].get("cli.run", 0.0)),
    "trace.cases_per_s": ("1/s", lambda t: t.traced_rate),
    "trace.overhead_cases_per_s": ("1/s", lambda t: t.untraced_rate - t.traced_rate),
    "trace.overhead_frac": ("ratio", lambda t: 1 - t.traced_rate / t.untraced_rate),
}


class TraceRecord(SimpleNamespace):
    """The traced pass: summary ``s``, and ``scale`` from raw to normalised
    seconds."""

    def calls(self, name):
        return self.s["calls"].get(name, 0)

    def self_s(self, name):
        return self.scale * self.s["self_s"].get(name, 0.0)

    def count(self, name):
        return self.s["counts"].get(name, 0)

    def ratio(self, num, den):
        d = self.count(den)
        return self.count(num) / d if d else 0.0


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "tropabel" / "__init__.py").is_file() or not (ROOT / "scenarios").is_dir():
        print(f"error: no tropabel source tree (src/tropabel, scenarios) under {ROOT}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    OUT_DIR.mkdir(exist_ok=True)
    # One CPU for the run and its children, so that the calibration measures
    # the core the work runs on: the two vCPUs of a shared host are contended
    # independently.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    env = dict(os.environ, PYTHONPATH=str(src))
    ctx = SimpleNamespace(root=ROOT, bench_dir=BENCH_DIR, python=sys.executable, child_env=env,
                          child_trace_path=OUT_DIR / "child-trace.json", tracer=None,
                          clock=Clock())
    workload = WORKLOADS[args.workload]

    setup_s, lib, cases = setup(workload, args.seed, ctx)
    inputs_sha256 = hashlib.sha256(json.dumps(cases, sort_keys=True).encode()).hexdigest()
    print(f"workload={workload.name} seed={args.seed} trace={args.trace} "
          f"cases_per_pass={len(cases)} inputs_sha256={inputs_sha256}")

    if args.trace == 0:
        stats = loop(workload, cases, lib, ctx, args.seconds)
        usage = resource.RUSAGE_CHILDREN if workload.name == "cli-scenarios" else resource.RUSAGE_SELF
        lat = stats.norm
        metrics = {
            "cases_per_s": (len(lat) / sum(lat), "1/s"),
            "case_p50_ms": (1000 * statistics.median(lat), "ms"),
            "case_p90_ms": (1000 * pctl(lat, 90), "ms"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mib": (resource.getrusage(usage).ru_maxrss / 1024, "MiB"),
        }
        raw = stats.raw
        print(f"passes={stats.passes} latency_samples={len(lat)} elapsed_s={stats.elapsed:.3f}")
        print(f"raw wall clock: {len(raw) / sum(raw):.6g} cases/s, p50 "
              f"{1000 * statistics.median(raw):.6g} ms, p90 {1000 * pctl(raw, 90):.6g} ms; "
              f"speed factor {sum(lat) / sum(raw):.4f}")
        runs = [stats]
    else:
        first, traced, untraced = traced_loop(workload, cases, lib, ctx, args.seconds)
        spans_path = OUT_DIR / f"spans-{workload.name}-seed{args.seed}.jsonl"
        first.tracer.write_spans(spans_path)
        record = TraceRecord(
            s=first.tracer.summary(),
            scale=first.scale,
            bytes_out=first.bytes_out,
            spawn_s=statistics.median(spawn_probe(ctx) for _ in range(PROBES)),
            import_s=statistics.median(import_probe(ctx) for _ in range(PROBES)),
            traced_rate=len(traced.norm) / sum(traced.norm),
            untraced_rate=len(untraced.norm) / sum(untraced.norm),
        )
        metrics = {name: (get(record), unit) for name, (unit, get) in PER_LAYER.items()}
        print(f"traced_passes={traced.passes} untraced_passes={untraced.passes} "
              f"spans_of_first_traced_pass={len(first.tracer.spans)} "
              f"spans_file={spans_path.relative_to(ROOT)}")
        runs = [traced, untraced]
    attempted = sum(r.executions for r in runs)
    failed = sum(r.failed for r in runs)
    errors = [e for r in runs for e in r.errors]

    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:>16.6g} {unit}")
    print(f"  {'failed_frac':40s} {failed / attempted:>16.6g} ratio ({failed} of {attempted})")
    for error in errors[:5]:
        print(f"FAILED: {error}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
