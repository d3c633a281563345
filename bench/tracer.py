"""Per-layer tracing of ``tropabel`` from outside the package.

The tracer wraps each layer's public entry points after import.  Modules bind
names with ``from .linalg import hnf``, so a wrapper is rebound in every
``tropabel`` module namespace that holds the original, not only in the
defining one; methods are replaced on their class, and ``cached_property``
members through their ``.func``.  ``uninstall`` puts every original back.

Three kinds of wrapper:

- a span records (id, parent id, case, name, start, end) in memory; a call
  made while a span of the same name is innermost (``hnf`` calling
  ``column_hnf``, ``inv`` calling ``solve_mat``) belongs to that span;
- a timed count (``Mat.__init__``) adds its duration to a total and to the
  enclosing span's covered time, without a span record;
- a count (``rat``, ``compose``, constructors) only increments a counter.

A span's self time is its duration minus the time its child spans and timed
counts cover.
"""

from __future__ import annotations

import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

# (module, attribute, span name, result observer); attribute "Cls.meth" is a
# method, and a cached_property when the class holds one under that name.
SPANS = [
    ("linalg", "hnf", "linalg.hnf", "bits"),
    ("linalg", "column_hnf", "linalg.hnf", "bits"),
    ("linalg", "snf", "linalg.snf", "bits"),
    ("linalg", "Mat.det", "linalg.solve", None),
    ("linalg", "Mat.solve_mat", "linalg.solve", None),
    ("linalg", "Mat.inv", "linalg.solve", None),
    ("lattices", "Sublattice.__init__", "lattices.Sublattice", None),
    ("lattices", "Sublattice.intersect", "lattices.intersect", None),
    ("lattices", "quotient", "lattices.quotient", None),
    ("lattices", "enumerate_subgroups", "lattices.enumerate_subgroups", "subgroups"),
    ("monomials", "eval_character", "monomials.eval_character", None),
    ("nspairings", "NSClass.symmetry", "nspairings.symmetry", None),
    ("nspairings", "NSClass.admissible_lattices", "nspairings.admissible_lattices", "admissible"),
    ("bundles", "tensor", "bundles.tensor", "summands"),
    ("bundles", "pullback", "bundles.pullback", "summands"),
    ("bundles", "pushforward", "bundles.pushforward", "summands"),
    ("bundles", "translate", "bundles.translate", "summands"),
    ("bundles", "equivalent", "bundles.equivalent", None),
    ("bundles", "moduli_point", "bundles.moduli_point", None),
    ("tropchar", "decompose_rep", "tropchar.decompose_rep", None),
    ("tropchar", "rep_from_bundle", "tropchar.rep_from_bundle", None),
    ("naside", "verify_commuting_square", "naside.verify_commuting_square", None),
    ("naside", "tropicalize_line_bundle", "naside.tropicalize_line_bundle", None),
    ("cli", "Scenario.__init__", "cli.run", None),
    ("cli", "cmd_ns_analyze", "cli.run", None),
    ("cli", "cmd_bundle", "cli.run", None),
    ("cli", "cmd_rep", "cli.run", None),
    ("cli", "cmd_na", "cli.run", None),
    ("cli", "main", "cli.run", None),
]
# every jsonio decoder is "parse", every encoder "emit"
JSONIO_SPANS = {"_from_json": "jsonio.parse", "_to_json": "jsonio.emit"}
TIMED_COUNTS = [("linalg", "Mat.__init__", "linalg.Mat")]
COUNTS = [
    ("rationals", "rat", "rationals.rat"),
    ("monomials", "ValuedMonomial.__post_init__", "monomials.ValuedMonomial"),
    ("nspairings", "NSClass.__post_init__", "nspairings.NSClass"),
    ("nspairings", "NSClass.torsion_pairing", "nspairings.torsion_pairing"),
    ("bundles", "TropLineBundle.__post_init__", "bundles.TropLineBundle"),
    ("tropchar", "compose", "tropchar.compose"),
    ("naside", "extend_r", "naside.extend_r"),
]


def _max_bits(value) -> int:
    """Largest integer bit-length in nested lists/tuples of ints."""
    if isinstance(value, int):
        return abs(value).bit_length()
    return max((_max_bits(v) for v in value), default=0)


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (id, parent, case, name, start, end, covered)
        self.stack: list[list] = []  # [id, name, covered time of timed counts]
        self.next_id = 0
        self.case = None
        self.counts: Counter = Counter()
        self.timed: defaultdict = defaultdict(float)
        self.max_bits = 0
        self._undo: list = []

    # -- spans ----------------------------------------------------------------

    def open(self, name: str):
        sid = self.next_id
        self.next_id += 1
        entry = [sid, name, 0.0, self.stack[-1][0] if self.stack else None, perf_counter()]
        self.stack.append(entry)
        return entry

    def close(self, entry) -> None:
        end = perf_counter()
        self.stack.pop()
        sid, name, covered, parent, start = entry
        self.spans.append((sid, parent, self.case, name, start, end, covered))

    def _observe(self, kind, result) -> None:
        if kind == "bits":
            self.max_bits = max(self.max_bits, _max_bits(result))
        elif kind == "subgroups":
            self.counts["lattices.subgroups_visited"] += len(result)
        elif kind == "admissible":
            self.counts["nspairings.admissible_out"] += len(result)
        elif kind == "summands":
            self.counts["bundles.summands_out"] += len(result.summands)

    def _span(self, fn, name, observe):
        stack = self.stack

        def wrapper(*args, **kwargs):
            if stack and stack[-1][1] == name:
                return fn(*args, **kwargs)
            entry = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(entry)
            if observe is not None:
                # bookkeeping time is covered, so it counts for no layer
                t0 = perf_counter()
                self._observe(observe, result)
                if stack:
                    stack[-1][2] += perf_counter() - t0
            return result

        return wrapper

    def _timed_count(self, fn, name):
        stack, counts, timed = self.stack, self.counts, self.timed

        def wrapper(*args, **kwargs):
            counts[name] += 1
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                timed[name] += dt
                if stack:
                    stack[-1][2] += dt

        return wrapper

    def _count(self, fn, name):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        """Wrap every entry point of the imported ``tropabel`` modules."""
        mods = {
            name: mod for name, mod in sys.modules.items()
            if mod is not None and (name == "tropabel" or name.startswith("tropabel."))
        }
        targets = [(m, a, self._span, n, o) for m, a, n, o in SPANS]
        jsonio = mods["tropabel.jsonio"]
        for attr, fn in vars(jsonio).items():
            for suffix, name in JSONIO_SPANS.items():
                if attr.endswith(suffix) and callable(fn):
                    targets.append(("jsonio", attr, self._span, name, None))
        targets += [(m, a, self._timed_count, n, None) for m, a, n in TIMED_COUNTS]
        targets += [(m, a, self._count, n, None) for m, a, n in COUNTS]
        for module, attr, make, name, observe in targets:
            mod = mods[f"tropabel.{module}"]
            args = (name, observe) if make == self._span else (name,)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                member = cls.__dict__[meth]
                if hasattr(member, "func") and hasattr(member, "attrname"):
                    original = member.func
                    member.func = make(original, *args)
                    self._undo.append((member, "func", original))
                else:
                    setattr(cls, meth, make(member, *args))
                    self._undo.append((cls, meth, member))
                continue
            original = getattr(mod, attr)
            wrapper = make(original, *args)
            for m in mods.values():
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapper)
                        self._undo.append((m, key, original))

    def uninstall(self) -> None:
        for obj, key, original in reversed(self._undo):
            setattr(obj, key, original)
        self._undo.clear()

    # -- results --------------------------------------------------------------

    def summary(self) -> dict:
        """Calls, total and self seconds per span name, plus the counters."""
        child_time: defaultdict = defaultdict(float)
        for sid, parent, _case, _name, start, end, _cov in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        calls: Counter = Counter()
        total: defaultdict = defaultdict(float)
        self_s: defaultdict = defaultdict(float)
        for sid, _parent, _case, name, start, end, covered in self.spans:
            calls[name] += 1
            total[name] += end - start
            self_s[name] += end - start - child_time[sid] - covered
        return {
            "calls": dict(calls),
            "total_s": dict(total),
            "self_s": dict(self_s),
            "counts": dict(self.counts),
            "timed_s": dict(self.timed),
            "max_bits": self.max_bits,
        }

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, case, name, start, end, _cov in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "case": case, "name": name,
                                     "start": start, "end": end}) + "\n")

    def absorb(self, spans: list, summary: dict) -> None:
        """Adopt the spans and counters a child process recorded; its root
        spans become children of the innermost open span."""
        base = self.next_id
        root = self.stack[-1][0] if self.stack else None
        for sid, parent, _case, name, start, end, covered in spans:
            self.spans.append((base + sid, root if parent is None else base + parent,
                               self.case, name, start, end, covered))
            self.next_id = max(self.next_id, base + sid + 1)
        self.counts.update(summary["counts"])
        for name, t in summary["timed_s"].items():
            self.timed[name] += t
        self.max_bits = max(self.max_bits, summary["max_bits"])
