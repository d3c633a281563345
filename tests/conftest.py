"""Shared builders for the test suite.

Random data is always drawn from an explicitly seeded random.Random so every
run is reproducible; anything frozen as an expected value was computed by an
independent oracle (brute force, enumeration, or a library implementation)
before being written down.
"""

import math
import random
from fractions import Fraction
from typing import Sequence

import pytest
from hypothesis import strategies as st

from tropabel import (
    Mat, MultiplicativePoint, NATorus, QLattice, Sublattice, TropTorus, ValuedMonomial,
)
from tropabel.errors import (
    DimensionMismatch,
    NotContained,
    RankDeficient,
    SingularLattice,
    SizeMismatch,
)
from tropabel.groups import _smith_adapted
from tropabel.jsonio import ScenarioError, rational_from_json
from tropabel.linalg import column_hnf
from tropabel.naside import NACharacter
from tropabel.rationals import rat
from tropabel.tori import extended_character_lattice
from tropabel.tropchar import TropGLElement

F = Fraction


def mono(mag=1, phase=0, texp=0) -> ValuedMonomial:
    return ValuedMonomial(F(mag), F(phase), F(texp))


ONE = mono()
T_UNIF = mono(texp=1)
MINUS_ONE = mono(phase=F(1, 2))


@pytest.fixture
def reference_torus() -> NATorus:
    """Generators (t, 1) and (-1, t); the running example torus."""
    l1 = MultiplicativePoint((T_UNIF, ONE))
    l2 = MultiplicativePoint((MINUS_ONE, T_UNIF))
    return NATorus((l1, l2))


def rand_fraction(rng: random.Random, lo=-4, hi=4, max_den=3) -> Fraction:
    return F(rng.randint(lo, hi), rng.randint(1, max_den))


def rand_unit_mono(rng: random.Random) -> ValuedMonomial:
    """Magnitude-one monomial: a root of unity times a rational power of t."""
    phase = F(rng.randint(0, 5), rng.choice([1, 2, 3, 4, 6]))
    texp = rand_fraction(rng)
    return ValuedMonomial(F(1), phase, texp)


def rand_mono(rng: random.Random) -> ValuedMonomial:
    mag = F(rng.randint(1, 5), rng.randint(1, 5))
    return ValuedMonomial(mag, F(rng.randint(0, 5), rng.randint(1, 6)), rand_fraction(rng))


def rand_unit_torus(rng: random.Random, g: int) -> NATorus:
    """A multiplicative torus with magnitude-one generator coordinates and
    nonsingular valuation matrix."""
    while True:
        gens = tuple(
            MultiplicativePoint(tuple(rand_unit_mono(rng) for _ in range(g)))
            for _ in range(g)
        )
        v = Mat([[gens[j].coords[i].valuation() for j in range(g)] for i in range(g)])
        if v.det() != 0:
            return NATorus(gens)


def rand_matrix(rng: random.Random, g: int, lo=-3, hi=3, max_den=1) -> Mat:
    return Mat(
        [[rand_fraction(rng, lo, hi, max_den) for _ in range(g)] for _ in range(g)]
    )


def rand_r_symmetric(rng: random.Random, v: Mat, max_den=2) -> Mat:
    """A random rational class matrix with v^T h symmetric."""
    g = v.n
    s = [[F(0)] * g for _ in range(g)]
    for i in range(g):
        for j in range(i, g):
            s[i][j] = s[j][i] = rand_fraction(rng, -3, 3, max_den)
    return v.T.inv() @ Mat(s)


def rand_integral_symmetric(rng: random.Random, v: Mat) -> Mat:
    """Like rand_r_symmetric but scaled to have integer entries."""
    h = rand_r_symmetric(rng, v, max_den=2)
    d = h.den
    return h.scale(d)


def rand_sublattice(rng: random.Random, g: int, max_diag=3) -> Sublattice:
    rows = [[0] * g for _ in range(g)]
    for i in range(g):
        rows[i][i] = rng.randint(1, max_diag)
        for j in range(i):
            rows[i][j] = rng.randint(0, rows[i][i] - 1)
    return Sublattice(rows)


def sublattices_of_index_at_most(g: int, max_index: int) -> list[Sublattice]:
    """All finite-index sublattices of Z^g with index <= max_index (via HNF)."""
    assert g == 2, "only the planar case is enumerated"
    out = []
    for a in range(1, max_index + 1):
        for c in range(1, max_index // a + 1):
            for b in range(c):
                out.append(Sublattice([[a, 0], [b, c]]))
    return out


def reduce_mod_lattice(
    v: Sequence[int | str | Fraction], basis: Mat
) -> tuple[Fraction, ...]:
    """The representative of v modulo the column lattice of ``basis`` whose
    coordinate vector in that basis lies in [0,1)^g, by the general rational
    solver.  The reduction oracle of ``reduce_all`` and ``_reduce_num``."""
    if basis.n != basis.m or basis.det() == 0:
        raise SingularLattice("lattice basis must be square and nonsingular")
    w = tuple(rat(x) for x in v)
    coords = ref_solve(basis, w)
    k = [math.floor(c) for c in coords]
    shift = ref_mul_vec(basis, k)
    return tuple(a - b for a, b in zip(w, shift))


# ---------------------------------------------------------------------------
# Matrix, lattice, group and pairing operations that no command runs, kept as
# the references the tests read
# ---------------------------------------------------------------------------


def ref_entries(m: Mat) -> tuple[tuple[Fraction, ...], ...]:
    """The entries of m as Fraction rows."""
    return tuple(tuple(Fraction(x, m.den) for x in row) for row in m.num)


def ref_mul_vec(m: Mat, v: Sequence[int | Fraction]) -> tuple[Fraction, ...]:
    """m @ v as Fractions."""
    return tuple(Fraction(x, m.den) for x in m.num_image(v))


def ref_solve(m: Mat, v: Sequence[int | str | Fraction]) -> tuple[Fraction, ...]:
    """The solution x of m @ x = v by the Fraction path: v as a public Mat column,
    ``solve_mat``, and the column read back as Fractions."""
    x = m.solve_mat(Mat([[c] for c in v]))
    return tuple(Fraction(row[0], x.den) for row in x.num)


def ref_l_value(s, x: Sequence[int | Fraction]) -> Fraction:
    """The covector of a summand, extended Q-linearly, at the point x of Z^g
    (its lattice coordinates dotted with the covector, in Fractions)."""
    return sum((a * b for a, b in zip(s.l, s.lattice.coordinates(x))), Fraction(0))


def ref_iso_pushforward(s1, s2) -> bool:
    """Whether the pushforwards of two summands on one cover are isomorphic: the
    classes agree and the covector difference lies in the lattice of covectors
    induced by integral characters plus class images of full-lattice
    translations, by ``QLattice.contains``.  The reference of ``equivalent``,
    applied to the two summands restricted to the common cover."""
    assert s1.torus == s2.torus and s1.lattice == s2.lattice
    if s1.ns != s2.ns:
        return False
    diff = tuple(a - b for a, b in zip(s1.l, s2.l))
    basis = s1.lattice.mat.T @ s1.torus.v.T @ extended_character_lattice(s1.ns).basis
    return QLattice(basis).contains(diff)


def ref_real_pairing(ns, a: Sequence[int | Fraction], b: Sequence[int | Fraction]) -> Fraction:
    """The real pairing a^T V^T H b of a class, in Fractions."""
    return sum((x * y for x, y in zip(a, ref_mul_vec(ns.gram, b))), Fraction(0))


def ref_scaled(lat: Sublattice, c: int) -> Sublattice:
    """The lattice c * lat."""
    return Sublattice.from_generators([tuple(c * x for x in v) for v in lat.generators()])


def ref_torsion_order(x: ValuedMonomial) -> int | None:
    """The multiplicative order of x, or None when x is not torsion."""
    if x.magnitude != 1 or x.t_exponent != 0:
        return None
    return x.phase.denominator


def ref_character_product(c1, c2):
    """The character whose values are the products of c1's and c2's."""
    return NACharacter(tuple(a * b for a, b in zip(c1.values, c2.values)))


def ref_project(ambient: Sublattice, sub: Sublattice, v: Sequence[int]) -> tuple[int, ...]:
    """The class of v in ambient / sub, one coordinate per invariant factor of
    ``quotient(ambient, sub)``: U times v's coordinates in ambient, for the Smith
    form U C W = diag(d) of sub's coordinates C in ambient's basis."""
    x = ambient.coordinates(v)
    if any(type(c) is not int for c in x):
        raise NotContained("vector is not in the numerator lattice")
    u, d, _ = _smith_adapted(ambient, sub)
    return tuple(sum(a * c for a, c in zip(row, x)) % m for row, m in zip(u, d) if m > 1)


def ref_lift(group, e: Sequence[int], g: int) -> tuple[int, ...]:
    """A representative in Z^g of the group element with coordinates e."""
    if len(e) != len(group.generator_lifts):
        raise DimensionMismatch(f"expected an element of length {len(group.generator_lifts)}")
    return tuple(sum(c * v[i] for c, v in zip(e, group.generator_lifts)) for i in range(g))


# ---------------------------------------------------------------------------
# The earlier wire decoders and elimination, kept as differential oracles of
# the one-pass versions in jsonio, lattices, tori and linalg
# ---------------------------------------------------------------------------


def ref_rational_pair(s) -> tuple[int, int]:
    """(p, q), q > 0, in lowest terms, of a wire rational read by ``rational_from_json``."""
    if type(s) is int:
        return s, 1
    x = rational_from_json(s)
    return x.numerator, x.denominator


def ref_matrix_from_json(data) -> Mat:
    """The integer rows over the lcm of the wire denominators; ``Mat._from_int``
    cancels their common factor, which leaves the least denominator."""
    if not isinstance(data, list):
        raise ScenarioError(f"expected a list of matrix rows, got {data!r}")
    rows = []
    for row in data:
        if not isinstance(row, list):
            raise ScenarioError(f"expected a list of rationals, got {row!r}")
        rows.append([ref_rational_pair(x) for x in row])
    if any(len(row) != len(rows[0]) for row in rows):
        raise DimensionMismatch("ragged rows")
    den = math.lcm(*(q for row in rows for _, q in row))
    return Mat._from_int([[p * (den // q) for p, q in row] for row in rows], den)


def ref_is_hermite(rows: Sequence[Sequence[int]]) -> bool:
    """Whether a nonempty square integer basis is already in canonical Hermite form."""
    return bool(rows) and all(
        row[i] > 0 and all(0 <= x < row[i] for x in row[:i]) and not any(row[i + 1 :])
        for i, row in enumerate(rows)
    )


def ref_lattice_from_json(data) -> Sublattice:
    """The decoded lattice: the basis itself when canonical, else the first g
    columns of its column Hermite form, made tuple rows afterwards."""
    if (
        not isinstance(data, list)
        or not data
        or not all(
            isinstance(r, list) and len(r) == len(data) and all(type(x) is int for x in r)
            for r in data
        )
    ):
        raise ScenarioError(f"expected a square integer lattice basis, got {data!r}")
    g = len(data)
    basis = data
    if not ref_is_hermite(data):
        h = column_hnf(data)
        if not all(h[i][i] for i in range(g)):
            raise RankDeficient("the columns do not span a full-rank lattice")
        basis = [row[:g] for row in h]
    return Sublattice._from_valid(tuple(map(tuple, basis)))


def ref_is_r_symmetric(h: Mat, v: Mat) -> bool:
    """Whether V^T @ H is symmetric, from the transposed numerators."""
    if v.n != h.n:
        raise DimensionMismatch(f"cannot multiply {v.m}x{v.n} by {h.n}x{h.m}")
    if v.m != h.m:
        return False
    vc, hc = list(zip(*v.num)), list(zip(*h.num))
    return all(
        sum(a * b for a, b in zip(vc[i], hc[j])) == sum(a * b for a, b in zip(vc[j], hc[i]))
        for i in range(v.m)
        for j in range(i)
    )


def ref_congruence_lattice(rows, modulus, basis=None):
    """The Hermite basis of {B x : A x = 0 (mod modulus)} as the lower-right block
    of the column Hermite form of [[A, modulus I], [B, 0]], for every A: the
    oracle of ``linalg.congruence_lattice``."""
    n, m = len(rows), len(rows[0]) if rows else 0
    if not m or any(len(row) != m for row in rows):
        raise DimensionMismatch("rows must be nonempty and of one length")
    eye = [[int(i == j) for j in range(m)] for i in range(m)]
    top = [list(row) + [modulus * (i == j) for j in range(n)] for i, row in enumerate(rows)]
    h = column_hnf(top + [list(row) + [0] * n for row in basis or eye])
    if not all(h[n + i][n + i] for i in range(m)):
        raise RankDeficient("congruence solution lattice is rank deficient")
    return [row[n:] for row in h[n:]]


def ref_eliminate(num: Sequence[Sequence[int]], rhs: Sequence[Sequence[int]]):
    """(det(num), Y) with num @ Y = det(num) * rhs, by Bareiss elimination that
    updates every row at every step."""
    n = len(num)
    a = [list(row) + list(r) for row, r in zip(num, rhs)]
    sign, prev = 1, 1
    for k in range(n):
        piv = next((i for i in range(k, n) if a[i][k]), None)
        if piv is None:
            return 0, []
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        pivot_row = a[k]
        p = pivot_row[k]
        for i in range(n):
            if i != k:
                f = a[i][k]
                a[i] = [(p * x - f * y) // prev for x, y in zip(a[i], pivot_row)]
        prev = p
    return sign * prev, [[sign * x for x in row[n:]] for row in a]


def typed(x):
    """x with the type of every part beside it, all the way down, so that two
    results compare equal only when their types agree too: ``Fraction(1) == 1``."""
    if isinstance(x, (tuple, list)):
        return type(x), [typed(y) for y in x]
    fields = getattr(type(x), "__match_args__", None)
    if fields is not None:
        return type(x), [typed(getattr(x, f)) for f in fields]
    return type(x), x


def outcome(decode, *args):
    """The typed value of decode(*args), or the class and message of its error."""
    try:
        return "value", typed(decode(*args))
    except Exception as exc:  # compared, class and message, with the oracle's
        return "error", type(exc), str(exc)


def act(a: TropGLElement, x: Sequence[Fraction]) -> tuple[Fraction, ...]:
    """(Ax)_i = d_i + x at sigma^-1(i): the action that ``compose`` must follow."""
    if len(x) != a.r:
        raise SizeMismatch("vector length differs from element size")
    inv = a.inv_perm
    return tuple(a.d[i] + rat(x[inv[i]]) for i in range(a.r))


def to_matrix(a: TropGLElement) -> list[list[Fraction | None]]:
    """The min-plus matrix of a, with None as the infinite element: the finite
    entry of row i sits at column sigma^-1(i) and equals d_i."""
    rows: list[list[Fraction | None]] = [[None] * a.r for _ in range(a.r)]
    inv = a.inv_perm
    for i in range(a.r):
        rows[i][inv[i]] = a.d[i]
    return rows


def minplus_product(a, b):
    """Direct min-plus matrix multiplication on matrices over Q + infinity,
    with None as the infinite element.  Used as the multiplication oracle."""
    r = len(a)
    out = [[None] * r for _ in range(r)]
    for i in range(r):
        for j in range(r):
            best = None
            for k in range(r):
                if a[i][k] is None or b[k][j] is None:
                    continue
                val = a[i][k] + b[k][j]
                if best is None or val < best:
                    best = val
            out[i][j] = best
    return out


@st.composite
def hermite_bases(draw):
    """A lower-triangular basis in canonical Hermite form of rank g <= 5, with
    diagonal entries small or past 2**64."""
    g = draw(st.integers(1, 5))
    diag = [draw(st.integers(1, 9) | st.integers(2**64, 2**70)) for _ in range(g)]
    return [
        [draw(st.integers(0, diag[i] - 1)) if j < i else diag[i] * (i == j) for j in range(g)]
        for i in range(g)
    ]


def ref_canonical_order(summands):
    """The canonical order of a vector bundle's summands as one stable sort by
    (basis, class, covector), comparing the covectors as Fractions: the oracle
    of ``bundles._canonical_order``."""
    return tuple(sorted(summands, key=lambda s: (s.lattice.basis, s.ns, s.l)))
