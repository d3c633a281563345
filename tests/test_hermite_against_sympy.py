"""The integer Hermite pass against sympy's ``hermite_normal_form``.

sympy's form is upper-triangular and ours lower-triangular, so the matrices
are compared as lattices: each form is canonical for the lattice its columns
span, so two generator sets span one lattice exactly when sympy reduces them
to the same matrix.  The inputs are derandomized (fixed seeds).
"""

import itertools
import random

import pytest
import sympy
from sympy.matrices.normalforms import hermite_normal_form

from tropabel.errors import RankDeficient
from tropabel.lattices import Sublattice, _sum_and_intersection
from tropabel.linalg import _hermite_add, _hermite_rows, column_hnf, congruence_lattice, hnf


def sympy_form(rows):
    return hermite_normal_form(sympy.Matrix(rows))


def same_lattice(rows_a, rows_b) -> bool:
    return sympy_form(rows_a) == sympy_form(rows_b)


def contains(big, small) -> bool:
    """Whether the column lattice of ``small`` lies in that of ``big``."""
    return same_lattice([list(a) + list(b) for a, b in zip(big, small)], big)


def nonzero_columns(h):
    return [j for j in range(len(h[0])) if any(row[j] for row in h)]


def assert_column_echelon(h):
    """Nonzero columns first, pivot rows strictly increasing, each pivot
    positive and the entries left of it in its row reduced into [0, pivot)."""
    cols = nonzero_columns(h)
    assert cols == list(range(len(cols)))
    pivots = [next(i for i, row in enumerate(h) if row[j]) for j in cols]
    assert pivots == sorted(set(pivots))
    for j, p in zip(cols, pivots):
        assert h[p][j] > 0
        assert all(0 <= h[p][k] < h[p][j] for k in range(j))


def assert_column_hnf_against_sympy(a):
    """column_hnf(a) keeps a's shape, is in column echelon form, and its nonzero
    columns span a's column lattice; the form is unique, so this pins it."""
    h = column_hnf(a)
    assert len(h) == len(a) and all(len(row) == len(a[0]) for row in h)
    assert_column_echelon(h)
    cols = nonzero_columns(h)
    assert len(cols) == sympy.Matrix(a).rank()
    if cols:
        assert same_lattice([[row[j] for j in cols] for row in h], a)


def rand_square(rng, n):
    a = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)]
    if n > 1 and rng.random() < 0.25:
        # a dependent column, so that the rank-deficient path is exercised
        i, j = rng.sample(range(n), 2)
        c = rng.randint(-2, 2)
        for row in a:
            row[j] = c * row[i]
    return a


def test_hnf_matches_sympy_on_square_matrices():
    rng = random.Random(701)
    singular = 0
    for _ in range(150):
        n = rng.randint(1, 4)
        a = rand_square(rng, n)
        if sympy.Matrix(a).det() == 0:
            singular += 1
            with pytest.raises(RankDeficient):
                hnf(a)
            continue
        h, u = hnf(a)
        assert same_lattice(h, a)
        assert_column_echelon(h)
        assert [[sum(x * y for x, y in zip(row, col)) for col in zip(*u)] for row in a] == h
        assert abs(sympy.Matrix(u).det()) == 1
    assert singular >= 10


def test_column_hnf_matches_sympy_on_square_matrices():
    rng = random.Random(709)
    for _ in range(150):
        n = rng.randint(1, 4)
        assert_column_hnf_against_sympy(rand_square(rng, n))


def rand_low_rank(rng, n, m, rank, lo=-4, hi=4):
    """An n x m integer matrix of rank at most ``rank``, the product of an
    n x rank and a rank x m factor."""
    b = [[rng.randint(lo, hi) for _ in range(rank)] for _ in range(n)]
    c = [[rng.randint(lo, hi) for _ in range(m)] for _ in range(rank)]
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*c)] for row in b]


def test_column_hnf_matches_sympy_on_wide_generator_sets():
    # g x n with n > g: the generators of from_generators and of a sum
    rng = random.Random(733)
    for _ in range(80):
        g = rng.randint(1, 4)
        n = rng.randint(g + 1, 2 * g + 2)
        assert_column_hnf_against_sympy([[rng.randint(-6, 6) for _ in range(n)] for _ in range(g)])


def test_column_hnf_matches_sympy_on_a_stacked_identity():
    # [A; I], the shape that hnf reads its transform from; A of any shape and rank
    rng = random.Random(739)
    for _ in range(80):
        n, m = rng.randint(1, 4), rng.randint(1, 4)
        a = rand_low_rank(rng, n, m, rng.randint(1, min(n, m)))
        assert_column_hnf_against_sympy(a + [[int(i == j) for j in range(m)] for i in range(m)])


def test_column_hnf_matches_sympy_on_rank_deficient_non_square_matrices():
    rng = random.Random(743)
    deficient = 0
    for _ in range(120):
        n, m = rng.sample(range(1, 6), 2)
        a = rand_low_rank(rng, n, m, rng.randint(1, min(n, m)))
        deficient += sympy.Matrix(a).rank() < min(n, m)
        assert_column_hnf_against_sympy(a)
    assert deficient >= 30


def test_column_hnf_matches_sympy_on_hundred_digit_entries():
    rng = random.Random(751)
    big = 10**100
    for _ in range(30):
        n, m = rng.randint(1, 3), rng.randint(1, 5)
        a = [[rng.choice((-1, 1)) * rng.randint(big, 10 * big) for _ in range(m)] for _ in range(n)]
        if n > 1 and rng.random() < 0.3:
            # a dependent row, so that the rank-deficient path runs on big entries
            a[-1] = [rng.choice((-2, -1, 1, 2)) * x for x in a[0]]
        assert all(len(str(abs(x))) >= 100 for row in a for x in row)
        assert_column_hnf_against_sympy(a)


def test_join_and_reduce_give_the_basis_of_from_generators():
    # the cover walk's path (join onto a Hermite basis, reduce once) and the
    # column_hnf path of from_generators build one basis from one generator set
    rng = random.Random(757)
    for _ in range(120):
        g = rng.randint(1, 4)
        lat = rand_lattice(rng, g, max_index=rng.choice([8, 64, 10**6]))
        extra = [[rng.randint(-30, 30) for _ in range(g)] for _ in range(rng.randint(0, 3))]
        cols = list(zip(*lat.basis))
        for v in extra:
            cols = _hermite_add(cols, v)
        expected = Sublattice.from_generators(lat.generators() + [tuple(v) for v in extra])
        assert tuple(map(tuple, _hermite_rows(cols))) == expected.basis


def rand_lattice(rng, g, max_index=64):
    """A sublattice of Z^g of index at most max_index, built from a Hermite
    basis moved by a random unimodular column operation."""
    rows = [[0] * g for _ in range(g)]
    left = max_index
    for i in rng.sample(range(g), g):
        rows[i][i] = rng.randint(1, left)
        left //= rows[i][i]
    for i in range(g):
        for j in range(i):
            rows[i][j] = rng.randrange(rows[i][i])
    if g > 1:
        i, j = rng.sample(range(g), 2)
        c = rng.randint(-3, 3)
        for row in rows:
            row[i] += c * row[j]
    return Sublattice(rows)


@pytest.mark.parametrize("g", [1, 2, 3, 4])
def test_sum_and_intersection_against_sympy(g):
    rng = random.Random(719 + g)
    for _ in range(40):
        l1, l2 = rand_lattice(rng, g), rand_lattice(rng, g)
        a, b = [list(r) for r in l1.basis], [list(r) for r in l2.basis]
        total, inter = _sum_and_intersection(l1, l2)
        assert (total, inter) == (l1 + l2, l1 & l2)
        # the sum is the lattice of the joint generators
        assert same_lattice(total.basis, [x + y for x, y in zip(a, b)])
        # the intersection lies in both, and [L1 : L1 ∩ L2] = [L1 + L2 : L2]
        # leaves it no room: any sublattice of L1 ∩ L2 of that index is all of it
        assert contains(a, inter.basis) and contains(b, inter.basis)
        assert abs(sympy.Matrix(inter.basis).det()) == inter.index
        assert inter.index % l1.index == 0 and l2.index % total.index == 0
        assert inter.index // l1.index == l2.index // total.index


def test_congruence_lattice_brute_force_on_wide_systems():
    # {x : A x = 0 mod d} contains d Z^m, so membership is periodic mod d and the
    # residue box [0, d)^m decides it completely
    rng = random.Random(727)
    for _ in range(60):
        n, m = rng.randint(1, 3), rng.randint(1, 3)
        d = rng.randint(1, 12 if m < 3 else 6)
        a = [[rng.randint(-7, 7) for _ in range(m)] for _ in range(n)]
        basis = congruence_lattice(a, d)
        lat = Sublattice(basis)
        assert lat.basis == tuple(map(tuple, basis))
        solutions = 0
        for v in itertools.product(range(d), repeat=m):
            satisfies = all(sum(x * y for x, y in zip(row, v)) % d == 0 for row in a)
            assert lat.contains(v) == satisfies
            solutions += satisfies
        assert solutions * lat.index == d**m
