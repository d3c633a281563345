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

from tropabel import Mat, MultiplicativePoint, NATorus, Sublattice, TropTorus, ValuedMonomial
from tropabel.errors import SingularLattice, SizeMismatch
from tropabel.rationals import rat
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
    d = math.lcm(*(x.denominator for row in h.entries for x in row))
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
    solver.  The reduction oracle of ``Sublattice.reduce`` and ``_reduce_num``."""
    if basis.n != basis.m or basis.det() == 0:
        raise SingularLattice("lattice basis must be square and nonsingular")
    w = tuple(rat(x) for x in v)
    coords = basis.solve(w)
    k = [math.floor(c) for c in coords]
    shift = basis.mul_vec(k)
    return tuple(a - b for a, b in zip(w, shift))


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
