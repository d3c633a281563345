"""The four benchmark workloads: seeded input generation, one case, oracles.

Generation is pure Python and never imports ``tropabel``: the program only
ever sees the plain scenario dicts built here (in the ``scenarios/*.json``
schema) or, for ``cli-scenarios``, the shipped scenario files.  Every oracle
below is computed from the generated inputs with this file's own exact
arithmetic, never by the code under test.

A workload is an object with

- ``generate(rng, ctx)``: the list of cases of one pass, each a JSON-able dict;
- ``run(case, lib, ctx)``: one case through the user's path, returning the
  canonical JSON bytes (and whatever the oracle needs);
- ``check(case, result)``: ``None`` when the result is correct, else a message.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import subprocess
from fractions import Fraction

F = Fraction


def canonical_bytes(report) -> bytes:
    """The CLI's stdout encoding: sorted, indented JSON plus a newline."""
    return (json.dumps(report, sort_keys=True, indent=2) + "\n").encode("utf-8")


# ---------------------------------------------------------------------------
# Exact helpers (independent of the package)
# ---------------------------------------------------------------------------


def q(x: Fraction) -> str:
    return str(F(x))


def mono(mag=1, phase=0, texp=0) -> dict:
    return {"mag": q(mag), "phase": q(phase), "texp": q(texp)}


def det(rows) -> Fraction:
    """Determinant by Gaussian elimination over Q."""
    a = [[F(x) for x in row] for row in rows]
    n = len(a)
    out = F(1)
    for c in range(n):
        piv = next((i for i in range(c, n) if a[i][c] != 0), None)
        if piv is None:
            return F(0)
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            out = -out
        out *= a[c][c]
        for i in range(c + 1, n):
            f = a[i][c] / a[c][c]
            a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    return out


def index_of(basis) -> int:
    """[Z^g : L] for a lattice given by basis rows in the scenario schema."""
    return abs(int(det(basis)))


def rand_q(rng: random.Random, lo: int, hi: int, dens) -> Fraction:
    return F(rng.randint(lo, hi), rng.choice(dens))


def factorisation(rng: random.Random, n: int, g: int) -> list[int]:
    """A random ordered factorisation of n into g positive factors."""
    out = [1] * g
    m = n
    p = 2
    primes = []
    while m > 1:
        while m % p == 0:
            primes.append(p)
            m //= p
        p += 1
    for p in primes:
        out[rng.randrange(g)] *= p
    return out


def hermite_lattice(rng: random.Random, index: int, g: int) -> list[list[int]]:
    """A random lattice of the given index, already in the package's
    canonical column Hermite form: lower-triangular, positive diagonal, row
    entries left of the diagonal reduced into [0, diagonal)."""
    diag = factorisation(rng, index, g)
    return [
        [diag[i] if j == i else (rng.randrange(diag[i]) if j < i else 0) for j in range(g)]
        for i in range(g)
    ]


def generators(basis) -> list[tuple[int, ...]]:
    g = len(basis)
    return [tuple(basis[i][j] for i in range(g)) for j in range(g)]


def identity_strings(g: int) -> list[list[str]]:
    return [["1" if i == j else "0" for j in range(g)] for i in range(g)]


# ---------------------------------------------------------------------------
# defect-scan
# ---------------------------------------------------------------------------

# (Z/n)^2 for n up to this cap: (Z/16)^2 costs about 5 s per case at the seed,
# which would leave too few passes in a run.
DEFECT_N_CAP = 12
# Random tori have defect group (Z/n)^2 with n <= 8, i.e. order <= 64.  The
# (n, g) of each follows a fixed schedule, so every seed pays the same mix of
# sizes and only the presentation (phases, symmetric part) is random.
DEFECT_RANDOM_TORI = 50
DEFECT_RANDOM_N = [2, 3, 4, 5, 6, 7, 8]


def sigma(n: int) -> int:
    return sum(d for d in range(1, n + 1) if n % d == 0)


def lagrangian_count(p: int, k: int) -> int:
    """Lagrangian subgroups of (Z/p)^(2k) under a symplectic form."""
    return math.prod(p**i + 1 for i in range(1, k + 1))


def unit_torus(g: int, phases: dict) -> dict:
    """Generators with valuation matrix I; ``phases[(j, i)]`` is the phase of
    coordinate i of generator j."""
    gens = [
        [mono(phase=phases.get((j, i), 0), texp=1 if i == j else 0) for i in range(g)]
        for j in range(g)
    ]
    return {"torus": {"g": g, "generators": gens}, "ns_class": identity_strings(g)}


def generated_order(g: int, alt: list[list[Fraction]]) -> int:
    """Order of the subgroup of (Q/Z)^g spanned by the columns of ``alt``,
    by brute-force closure."""
    den = math.lcm(*(x.denominator for row in alt for x in row))
    cols = [tuple(int(alt[i][j] * den) % den for i in range(g)) for j in range(g)]
    span = {tuple([0] * g)}
    for c in cols:
        new = set(span)
        frontier = list(span)
        while frontier:
            x = frontier.pop()
            y = tuple((a + b) % den for a, b in zip(x, c))
            if y not in new:
                new.add(y)
                frontier.append(y)
        span = new
    return len(span)


class DefectScan:
    name = "defect-scan"

    def generate(self, rng: random.Random, ctx) -> list[dict]:
        cases = []
        for n in range(2, DEFECT_N_CAP + 1):
            data = {
                "torus": {
                    "g": 2,
                    "generators": [
                        [mono(texp=1), mono(phase=F(1, n))],
                        [mono(), mono(texp=1)],
                    ],
                },
                "ns_class": identity_strings(2),
            }
            cases.append({"label": f"(Z/{n})^2", "data": data,
                          "expect": {"invariants": [n, n], "admissible": sigma(n), "rank": n}})
        for label, g, p, k in (("(Z/2)^4 g=4", 4, 2, 2), ("(Z/3)^2 g=3", 3, 3, 1),
                               ("(Z/3)^4 g=4", 4, 3, 2)):
            phases = {(0, 1): F(1, p)}
            if k == 2:
                phases[(2, 3)] = F(1, p)
            cases.append({"label": label, "data": unit_torus(g, phases),
                          "expect": {"invariants": [p] * (2 * k),
                                     "admissible": lagrangian_count(p, k), "rank": p**k}})
        for i in range(DEFECT_RANDOM_TORI):
            n = DEFECT_RANDOM_N[i % len(DEFECT_RANDOM_N)]
            g = 2 + (i // len(DEFECT_RANDOM_N)) % 2
            cases.append(self._random_torus(rng, n, g, i))
        rng.shuffle(cases)
        return cases

    @staticmethod
    def _random_torus(rng: random.Random, n: int, g: int, i: int) -> dict:
        """A unit torus whose torsion pairing has defect group (Z/n)^2."""
        while True:
            # alternating part: a_ij / n above the diagonal, gcd with n is 1
            a = {(r, c): rng.randrange(n) for r in range(g) for c in range(r + 1, g)}
            if math.gcd(n, *a.values()) != 1:
                continue
            phases = {}
            for r in range(g):
                phases[(r, r)] = rand_q(rng, 0, 5, (1, 2, 3, 4, 6))
                for c in range(r + 1, g):
                    sym = rand_q(rng, 0, 5, (1, 2, 3, 4, 6))
                    phases[(c, r)] = sym
                    phases[(r, c)] = sym + F(a[(r, c)], n)
            # the torsion pairing of e_x and e_y has phase phases[x, y] - phases[y, x]
            alt = [[phases[(x, y)] - phases[(y, x)] for y in range(g)] for x in range(g)]
            if generated_order(g, alt) != n * n:
                continue
            return {"label": f"random (Z/{n})^2 g={g} #{i}", "data": unit_torus(g, phases),
                    "expect": {"invariants": [n, n], "admissible": sigma(n), "rank": n}}

    def run(self, case, lib, ctx):
        cli = lib.cli
        report = cli.cmd_ns_analyze(cli.Scenario(case["data"]), cli.SUBGROUP_ENUMERATION_BOUND)
        return canonical_bytes(report), report

    def check(self, case, result):
        _, report = result
        exp = case["expect"]
        got = (report["defect_invariants"], len(report["admissible_lattices"]),
               report["class_rank"])
        want = (exp["invariants"], exp["admissible"], exp["rank"])
        if got != want:
            return f"{case['label']}: (invariants, #admissible, class_rank) {got} != {want}"
        return None


# ---------------------------------------------------------------------------
# bundle-calculus
# ---------------------------------------------------------------------------

# cover index caps: <= 16 for g = 2 and <= 8 for g = 3
BUNDLE_INDEX = {2: [1, 2, 3, 4, 6, 8, 9, 12, 16], 3: [1, 2, 3, 4, 6, 8]}
BUNDLE_CASES = 100


def rand_symmetric_int(rng: random.Random, g: int) -> list[list[int]]:
    h = [[0] * g for _ in range(g)]
    for i in range(g):
        for j in range(i, g):
            h[i][j] = h[j][i] = rng.randint(-2, 2)
    return h


def rand_summand(rng: random.Random, g: int, index: int) -> dict:
    return {
        "lattice": hermite_lattice(rng, index, g),
        "H": [[q(x) for x in row] for row in rand_symmetric_int(rng, g)],
        "l": [q(rand_q(rng, -3, 3, (1, 2, 3, 4, 5, 6))) for _ in range(g)],
    }


def bundle_rank(bundle: dict) -> int:
    return sum(index_of(s["lattice"]) for s in bundle["summands"])


def bundle_slope(bundle: dict) -> list[list[Fraction]]:
    """Rank-weighted mean of the summand classes."""
    g = len(bundle["summands"][0]["H"])
    total = [[F(0)] * g for _ in range(g)]
    for s in bundle["summands"]:
        k = index_of(s["lattice"])
        for i in range(g):
            for j in range(g):
                total[i][j] += k * F(s["H"][i][j])
    rank = bundle_rank(bundle)
    return [[x / rank for x in row] for row in total]


class BundleCalculus:
    name = "bundle-calculus"

    def generate(self, rng: random.Random, ctx) -> list[dict]:
        cases = []
        for k in range(BUNDLE_CASES):
            g = 2 if k % 3 else 3
            idx = BUNDLE_INDEX[g]
            e1 = {"summands": [rand_summand(rng, g, rng.choice(idx)) for _ in range(2)]}
            e2 = {"summands": [rand_summand(rng, g, rng.choice(idx)) for _ in range(2)]}
            sub = hermite_lattice(rng, rng.choice([2, 3, 4]), g)
            x = [q(rand_q(rng, -3, 3, (1, 2, 3, 5, 7))) for _ in range(g)]
            s = e1["summands"][0]
            equivalent = k % 2 == 0
            if equivalent:
                # shift l by the integral character m: same bundle class
                m = [rng.randint(-2, 2) for _ in range(g)]
                shift = [sum(b[i] * m[i] for i in range(g)) for b in generators(s["lattice"])]
            else:
                # a non-integral shift leaves the lattice of twists
                shift = [F(1, 2)] + [0] * (g - 1)
            shifted = dict(s, l=[q(F(v) + d) for v, d in zip(s["l"], shift)])
            cases.append({
                "g": g, "torus": {"g": g, "v": identity_strings(g)},
                "E1": e1, "E2": e2, "sub": sub, "x": x,
                "A": {"summands": [s]}, "B": {"summands": [shifted]},
                "equivalent": equivalent,
            })
        return cases

    def run(self, case, lib, ctx):
        cli = lib.cli
        torus = case["torus"]

        def op(name, bundles, **params):
            params["operands"] = sorted(bundles)
            data = {"torus": torus, "bundles": bundles, "parameters": params}
            return cli.cmd_bundle(cli.Scenario(data), name)

        out = {}
        out["tensor"] = op("tensor", {"E1": case["E1"], "E2": case["E2"]})
        out["pullback"] = op("pullback", {"E1": case["E1"]}, sub=case["sub"])
        pulled = {"summands": out["pullback"]["summands"]}
        out["push_pull"] = op("pushforward", {"P": pulled}, sub=case["sub"])
        out["translate"] = op("translate", {"E1": case["E1"]}, x=case["x"])
        out["equiv"] = op("equiv", {"A": case["A"], "B": case["B"]})
        out["moduli_a"] = op("moduli-point", {"A": case["A"]})
        out["moduli_b"] = op("moduli-point", {"B": case["B"]})
        return canonical_bytes(out), out

    def check(self, case, result):
        _, out = result
        r1, r2 = bundle_rank(case["E1"]), bundle_rank(case["E2"])
        s1, s2 = bundle_slope(case["E1"]), bundle_slope(case["E2"])
        sub_index = index_of(case["sub"])
        tens = out["tensor"]
        if bundle_rank(tens) != r1 * r2:
            return f"rank(E1 (x) E2) = {bundle_rank(tens)} != {r1} * {r2}"
        if bundle_slope(tens) != [[a + b for a, b in zip(x, y)] for x, y in zip(s1, s2)]:
            return "slope is not additive under tensor"
        if bundle_rank(out["pullback"]) != r1:
            return "pullback changed the rank"
        if bundle_rank(out["push_pull"]) != r1 * sub_index:
            return "pushforward of pullback has the wrong rank"
        if bundle_slope(out["push_pull"]) != s1:
            return "pushforward of pullback changed the slope"
        trans = out["translate"]
        if bundle_rank(trans) != r1 or bundle_slope(trans) != s1:
            return "translation changed rank or slope"
        if out["equiv"]["equivalent"] is not case["equivalent"]:
            return f"equiv returned {out['equiv']['equivalent']}, expected {case['equivalent']}"
        same_point = out["moduli_a"]["coords"] == out["moduli_b"]["coords"]
        if same_point is not case["equivalent"]:
            return "moduli coordinates disagree with equivalence"
        return None


# ---------------------------------------------------------------------------
# rep-square
# ---------------------------------------------------------------------------

REP_CASES = 100
# representation sizes; the (kind, size, g) of case k cycles with period 24.
# verify-square runs in g = 2, where r = 32 costs 80 ms; in g = 3 it costs
# 200 ms, which would leave too few passes in a run.
REP_SIZES = [8, 12, 16, 20, 24, 32]
REP_DENS = (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12)


def rand_valuation_matrix(rng: random.Random, g: int) -> list[list[Fraction]]:
    """A nonsingular rational matrix, never the identity."""
    while True:
        v = [[rand_q(rng, -3, 3, (1, 2, 3, 4, 5, 7)) for _ in range(g)] for _ in range(g)]
        for i in range(g):
            v[i][i] += 3
        if det(v) != 0 and v != [[int(i == j) for j in range(g)] for i in range(g)]:
            return v


def split_rank(rng: random.Random, r: int) -> list[int]:
    """Two cover indices summing to r."""
    first = rng.randint(1, r - 1)
    return [first, r - first]


class RepSquare:
    name = "rep-square"

    def generate(self, rng: random.Random, ctx) -> list[dict]:
        cases = []
        for k in range(REP_CASES):
            r = REP_SIZES[(k // 2) % len(REP_SIZES)]
            if k % 2 == 0:
                cases.append(self._rep_chain(rng, r, 2 + (k // (2 * len(REP_SIZES))) % 2))
            else:
                cases.append(self._verify_square(rng, r, 2))
        return cases

    @staticmethod
    def _rep_chain(rng, r, g):
        v = rand_valuation_matrix(rng, g)
        summands = []
        for index in split_rank(rng, r):
            summands.append({
                "lattice": hermite_lattice(rng, index, g),
                "H": [["0"] * g for _ in range(g)],
                "l": [q(rand_q(rng, -5, 5, REP_DENS)) for _ in range(g)],
            })
        perm = list(range(r))
        rng.shuffle(perm)
        conj = {"perm": [p + 1 for p in perm],
                "d": [q(rand_q(rng, -5, 5, REP_DENS)) for _ in range(r)]}
        return {
            "kind": "rep-chain", "r": r,
            "data": {"torus": {"g": g, "v": [[q(x) for x in row] for row in v]},
                     "bundles": {"E": {"summands": summands}},
                     "parameters": {"conj": conj}},
        }

    @staticmethod
    def _verify_square(rng, r, g):
        v = rand_valuation_matrix(rng, g)

        def rand_mono():
            return mono(rand_q(rng, 1, 6, (1, 2, 3, 4, 5)), rand_q(rng, 0, 11, REP_DENS),
                        rand_q(rng, -6, 6, REP_DENS))

        gens = [[mono(rand_q(rng, 1, 4, (1, 2, 3)), rand_q(rng, 0, 5, REP_DENS), v[i][j])
                 for i in range(g)] for j in range(g)]
        chars = [[rand_mono() for _ in range(g)] for _ in range(r)]
        return {
            "kind": "verify-square", "r": r,
            "data": {"torus": {"g": g, "generators": gens},
                     "na_reps": {"R": {"characters": chars}}},
        }

    def run(self, case, lib, ctx):
        cli, jsonio, tropchar = lib.cli, lib.jsonio, lib.tropchar
        data = case["data"]
        if case["kind"] == "verify-square":
            report = cli.cmd_na(cli.Scenario(data), "verify-square", 0,
                                cli.SUBGROUP_ENUMERATION_BOUND)
            return canonical_bytes(report), report
        # rep_from_bundle and conjugate are library-only operations
        scenario = cli.Scenario(data)
        bundle = jsonio.bundle_from_json(data["bundles"]["E"], scenario.trop_torus)
        rep = tropchar.rep_from_bundle(bundle)
        a = jsonio.gl_element_from_json(data["parameters"]["conj"])
        conj = tropchar.conjugate(rep, a)

        def rep_op(name, r):
            scen = {"torus": data["torus"], "representations": {"R": jsonio.rep_to_json(r)}}
            return cli.cmd_rep(cli.Scenario(scen), name)

        report = {
            "canonical": rep_op("canonical", rep),
            "canonical_conj": rep_op("canonical", conj),
            "eta": rep_op("eta", conj),
        }
        return canonical_bytes(report), report

    def check(self, case, result):
        _, report = result
        r = case["r"]
        if case["kind"] == "verify-square":
            if report["all_equal"] is not True:
                return f"commuting square fails (r={r})"
            (c,) = report["cases"]
            if len(c["via_na"]) != r or len(c["via_trop"]) != r:
                return "commuting square lost points"
            return None
        if report["canonical"] != report["canonical_conj"]:
            return f"canonical form changed under conjugation (r={r})"
        eta = report["eta"]
        if bundle_rank(eta) != r:
            return f"bundle of the representation has rank {bundle_rank(eta)} != {r}"
        want = sorted(s["lattice"] for s in case["data"]["bundles"]["E"]["summands"])
        if sorted(s["lattice"] for s in eta["summands"]) != want:
            return "bundle of the representation has other cover lattices"
        return None


# ---------------------------------------------------------------------------
# cli-scenarios
# ---------------------------------------------------------------------------

# The shipped (command, op, scenario) pairs every release must keep
# byte-identical, plus one case that exceeds --bound.
CLI_MATRIX = [
    ("ns-analyze", None, "reference_example.json"),
    ("bundle", "sum", "bundle_ops.json"),
    ("bundle", "tensor", "bundle_ops.json"),
    ("bundle", "pullback", "bundle_ops.json"),
    ("bundle", "pushforward", "pushforward_demo.json"),
    ("bundle", "translate", "bundle_ops.json"),
    ("bundle", "slope", "bundle_ops.json"),
    ("bundle", "equiv", "bundle_ops.json"),
    ("bundle", "moduli-point", "bundle_ops.json"),
    ("rep", "decompose", "rep_demo.json"),
    ("rep", "canonical", "rep_demo.json"),
    ("rep", "eta", "rep_demo.json"),
    ("rep", "stratum", "rep_demo.json"),
    ("na", "trop-line", "reference_example.json"),
    ("na", "trop-simple", "reference_example.json"),
    ("na", "trop-rep", "na_square.json"),
    ("na", "verify-square", "na_square.json"),
    ("na", "verify-square", "na_random.json"),
]
BOUND_CASE = ("ns-analyze", None, "reference_example.json", ["--bound", "1"])


def cli_argv(command, op, scenario, extra=()) -> list[str]:
    return [command] + ([op] if op else []) + ["--scenario", f"scenarios/{scenario}", *extra]


class CliScenarios:
    name = "cli-scenarios"

    def generate(self, rng: random.Random, ctx) -> list[dict]:
        with open(ctx.bench_dir / "cli_digests.json", encoding="utf-8") as fh:
            digests = {tuple(d["argv"]): d for d in json.load(fh)}
        argvs = [cli_argv(*row) for row in CLI_MATRIX] + [cli_argv(*BOUND_CASE)]
        cases = []
        for argv in argvs:
            rec = digests[tuple(argv)]
            cases.append({"argv": argv, "exit": rec["exit"], "stdout_sha256": rec["stdout_sha256"],
                          "stderr_kind": rec.get("stderr_kind")})
        rng.shuffle(cases)
        return cases

    def run(self, case, lib, ctx):
        if ctx.tracer is None:
            cmd = [ctx.python, "-m", "tropabel.cli", *case["argv"]]
        else:
            cmd = [ctx.python, str(ctx.bench_dir / "child.py"), "--trace-out",
                   str(ctx.child_trace_path), "--", *case["argv"]]
        proc = subprocess.run(cmd, cwd=ctx.root, env=ctx.child_env, capture_output=True,
                              timeout=60, check=False)
        return proc.stdout, proc

    def check(self, case, result):
        out, proc = result
        if proc.returncode != case["exit"]:
            return f"{case['argv']}: exit {proc.returncode} != {case['exit']}: {proc.stderr[-300:]!r}"
        if hashlib.sha256(out).hexdigest() != case["stdout_sha256"]:
            return f"{case['argv']}: stdout differs from the recorded digest"
        if case["stderr_kind"] is not None:
            try:
                kind = json.loads(proc.stderr)["kind"]
            except (ValueError, KeyError, TypeError):
                return f"{case['argv']}: stderr is not a JSON error record"
            if kind != case["stderr_kind"]:
                return f"{case['argv']}: error kind {kind} != {case['stderr_kind']}"
        return None


WORKLOADS = {w.name: w for w in (DefectScan(), BundleCalculus(), RepSquare(), CliScenarios())}
