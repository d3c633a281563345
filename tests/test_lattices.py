import itertools
import math
import operator
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tropabel.errors import (
    DimensionMismatch,
    MalformedScalar,
    NotContained,
    NotExact,
    RankDeficient,
    SingularLattice,
    TooLarge,
)
from tropabel.groups import FiniteAbelianGroup, enumerate_subgroups, quotient
from tropabel.lattices import SUBGROUP_ENUMERATION_BOUND, QLattice, Sublattice
from tropabel import groups, lattices
from tropabel.linalg import Mat, column_hnf, hnf

from conftest import (
    hermite_bases,
    rand_sublattice,
    reduce_mod_lattice,
    sublattices_of_index_at_most,
)

F = Fraction


# ---------------------------------------------------------------------------
# Sublattice construction and canonical bases
# ---------------------------------------------------------------------------


def test_sublattice_canonical_basis():
    # different generator sets for the same lattice yield equal objects
    a = Sublattice.from_generators([(2, 0), (1, 1)])
    b = Sublattice.from_generators([(1, 1), (0, 2)])
    c = Sublattice([[2, 1], [0, 1]])
    assert a == b == c
    assert a.basis == ((1, 0), (1, 2))
    assert a.index == 2


def _near_hermite(rng, rows):
    """A copy of a Hermite basis broken in one way the canonical check must catch."""
    g = len(rows)
    rows = [list(row) for row in rows]
    kind = rng.choice(
        ["diagonal", "negative-below", "above", "negative-diagonal"] if g > 1
        else ["negative-diagonal"]
    )
    if kind in ("diagonal", "negative-below"):
        i = rng.randrange(1, g)
        rows[i][rng.randrange(i)] = rows[i][i] if kind == "diagonal" else -rng.randint(1, 3)
    elif kind == "above":
        i = rng.randrange(g - 1)
        rows[i][rng.randrange(i + 1, g)] = rng.choice([-2, -1, 1, 2])
    else:
        i = rng.randrange(g)
        rows[i][i] = -rows[i][i]
    return kind, rows


@pytest.mark.parametrize("g", [1, 2, 3, 4])
def test_sublattice_recognises_hermite_bases(g, monkeypatch):
    # a canonical basis is kept as is and anything else goes through one
    # column_hnf; both give the one Hermite form of the lattice
    calls = []

    def counting_column_hnf(rows):
        calls.append(rows)
        return column_hnf(rows)

    monkeypatch.setattr(lattices, "column_hnf", counting_column_hnf)
    rng = random.Random(331 + g)
    kinds = set()
    for _ in range(60):
        canonical = [list(row) for row in rand_sublattice(rng, g, max_diag=4).basis]
        calls.clear()
        assert Sublattice(canonical) == Sublattice._from_hermite(hnf(canonical)[0])
        assert Sublattice(canonical).basis == tuple(map(tuple, canonical))
        assert not calls
        kind, near = _near_hermite(rng, canonical)
        kinds.add(kind)
        try:
            expected = Sublattice._from_hermite(hnf(near)[0])
        except RankDeficient:
            with pytest.raises(RankDeficient):
                Sublattice(near)
            continue
        calls.clear()
        assert Sublattice(near) == expected
        assert calls == [near]
    assert len(kinds) == (4 if g > 1 else 1)
    for bad in ([[0] * g for _ in range(g)], []):
        with pytest.raises(RankDeficient):
            Sublattice(bad)


def test_sublattice_rejects_degenerate():
    with pytest.raises(RankDeficient):
        Sublattice([[1, 2], [2, 4]])
    with pytest.raises(DimensionMismatch):
        Sublattice([[1], [0]])
    with pytest.raises(SingularLattice):
        Sublattice.from_generators([(1, 0)])


@pytest.mark.parametrize(
    "gens", [[], [()], [(1, 0), (0, 1, 7)], [(1, 0, 5), (0, 1)], [(1, 0), (0,)]]
)
def test_generators_must_be_nonempty_and_of_one_length(gens):
    # [(1, 0), (0, 1, 7)] used to drop the 7 and return Z^2
    with pytest.raises(DimensionMismatch):
        Sublattice.from_generators(gens)
    with pytest.raises(DimensionMismatch):
        QLattice.from_generators([tuple(F(x, 2) for x in v) for v in gens])


@pytest.mark.parametrize(
    "call",
    [
        # each used to drop the extra entry: True, (1, 2), (1, 1), True
        lambda: Sublattice([[2, 0], [0, 2]]).contains((2, 2, 1)),
        lambda: Sublattice([[2, 0], [0, 2]]).coordinates((2, 4, 7)),
        lambda: Sublattice([[2, 0], [0, 2]]).reduce((3, 5, 9)),
        lambda: QLattice.standard(2).contains((1, 1, 5)),
        lambda: QLattice.standard(2).reduce((F(1, 2), 0, 0)),
        # used to escape as IndexError
        lambda: Sublattice.full(2).contains((1,)),
        lambda: Sublattice.full(2).reduce_all([(1, 0), (1,)]),
        # used to answer True and the trivial group
        lambda: Sublattice.full(1).contains_lattice(Sublattice([[2, 0], [0, 2]])),
        lambda: quotient(Sublattice.full(1), Sublattice.full(2)),
        lambda: quotient(Sublattice.full(2), Sublattice([[2, 0], [0, 2]])).project((1, 0, 1)),
        # used to answer Sublattice([[2]]), and to escape as IndexError
        lambda: Sublattice.full(1) & Sublattice([[2, 0], [0, 2]]),
        lambda: Sublattice([[2, 0], [0, 2]]) & Sublattice.full(1),
        # used to truncate to (1, 1), and to answer 1
        lambda: quotient(Sublattice.full(2), Sublattice([[2, 0], [0, 2]])).lift((1, 1, 1)),
        lambda: quotient(Sublattice.full(2), Sublattice([[2, 0], [0, 2]])).lift((1,)),
        lambda: QLattice.standard(1).index_over(QLattice.standard(2)),
        lambda: QLattice.standard(2).index_over(QLattice.standard(1)),
    ],
    ids=[
        "contains-longer",
        "coordinates-longer",
        "reduce-longer",
        "qlattice-contains-longer",
        "qlattice-reduce-longer",
        "contains-shorter",
        "reduce_all-shorter",
        "contains_lattice-higher-rank",
        "quotient-higher-rank",
        "project-longer",
        "intersect-higher-rank",
        "intersect-lower-rank",
        "lift-longer",
        "lift-shorter",
        "index_over-higher-rank",
        "index_over-lower-rank",
    ],
)
def test_vectors_and_lattices_of_another_rank_are_rejected(call):
    with pytest.raises(DimensionMismatch):
        call()


@pytest.mark.parametrize("bad", [Fraction(5, 2), 2.5, "3", True])
def test_lattice_entries_must_be_integers(bad):
    with pytest.raises(NotContained):
        Sublattice([[bad, 0], [0, 1]])
    with pytest.raises(NotContained):
        Sublattice.from_generators([(bad, 0), (0, 1)])


def test_integral_fraction_entries_are_integers():
    two = Fraction(4, 2)
    assert Sublattice([[two, 0], [1, 3]]) == Sublattice([[2, 0], [1, 3]])
    assert Sublattice([[two, 0], [1, 3]]).basis == ((2, 0), (1, 3))
    assert type(Sublattice([[two, 0], [0, 1]]).basis[0][0]) is int
    assert Sublattice.from_generators([(two, 1), (0, 3)]) == Sublattice.from_generators(
        [(2, 1), (0, 3)]
    )


def test_membership_and_coordinates():
    lat = Sublattice([[2, 0], [1, 3]])
    for gen in lat.generators():
        assert lat.contains(gen)
        assert all(c.denominator == 1 for c in lat.coordinates(gen))
    assert not lat.contains((1, 0))
    # coordinates are exact rationals even off the lattice
    assert lat.coordinates((1, 0)) == (F(1, 2), F(-1, 6))


def test_index_equals_covolume():
    rng = random.Random(3)
    for _ in range(30):
        g = rng.randint(1, 3)
        lat = rand_sublattice(rng, g, max_diag=4)
        assert lat.index == abs(lat.mat.det())


# ---------------------------------------------------------------------------
# Intersection and sum
# ---------------------------------------------------------------------------


def brute_force_members(lat, box):
    return {
        (x, y)
        for x in box
        for y in box
        if lat.contains((x, y))
    }


def test_intersection_brute_force_oracle():
    rng = random.Random(9)
    box = range(-6, 7)
    for _ in range(25):
        l1 = rand_sublattice(rng, 2, max_diag=3)
        l2 = rand_sublattice(rng, 2, max_diag=3)
        inter = l1 & l2
        assert brute_force_members(inter, box) == (
            brute_force_members(l1, box) & brute_force_members(l2, box)
        )


def test_sum_is_smallest_common_overlattice():
    rng = random.Random(15)
    for _ in range(25):
        l1 = rand_sublattice(rng, 2, max_diag=3)
        l2 = rand_sublattice(rng, 2, max_diag=3)
        s = l1 + l2
        assert s.contains_lattice(l1) and s.contains_lattice(l2)
        # any vector of either lattice is in the sum; index identity below
        # pins the size, so s cannot be too large either
        assert l1.index % s.index == 0 and l2.index % s.index == 0


def test_index_product_identity():
    # [Z^g : L1 ∩ L2] * [Z^g : L1 + L2] == [Z^g : L1] * [Z^g : L2]
    rng = random.Random(21)
    for _ in range(30):
        g = rng.randint(1, 3)
        l1 = rand_sublattice(rng, g, max_diag=3)
        l2 = rand_sublattice(rng, g, max_diag=3)
        assert (l1 & l2).index * (l1 + l2).index == l1.index * l2.index


def test_scaled():
    lat = Sublattice([[1, 0], [1, 2]])
    assert lat.scaled(3).index == 9 * lat.index
    assert lat.scaled(1) == lat


# ---------------------------------------------------------------------------
# Quotients
# ---------------------------------------------------------------------------


def test_quotient_order_and_projection():
    rng = random.Random(27)
    for _ in range(25):
        g = rng.randint(1, 3)
        sub = rand_sublattice(rng, g, max_diag=3)
        q = quotient(Sublattice.full(g), sub)
        assert q.order == sub.index
        zero = tuple(0 for _ in q.invariant_factors)
        for gen in sub.generators():
            assert q.project(gen) == zero
        for e in q.elements():
            assert q.project(q.lift(e)) == e


def test_quotient_invariant_factors():
    q = quotient(Sublattice.full(2), Sublattice([[2, 0], [0, 4]]))
    assert q.invariant_factors == (2, 4)
    q2 = quotient(Sublattice.full(2), Sublattice([[1, 0], [0, 6]]))
    assert q2.invariant_factors == (6,)


def test_quotient_requires_containment():
    with pytest.raises(NotContained):
        quotient(Sublattice([[2, 0], [0, 2]]), Sublattice.full(2))


def test_quotient_of_nonfull_ambient():
    amb = Sublattice([[2, 0], [0, 1]])
    sub = Sublattice([[4, 0], [0, 3]])
    q = quotient(amb, sub)
    assert q.order == 6
    # projection of an ambient vector succeeds, of a non-member fails
    assert q.project((2, 0)) is not None
    with pytest.raises(NotContained):
        q.project((1, 0))


# ---------------------------------------------------------------------------
# Subgroup enumeration
# ---------------------------------------------------------------------------


def count_subgroups(sub_basis):
    q = quotient(Sublattice.full(len(sub_basis)), Sublattice(sub_basis))
    return sum(len(enumerate_subgroups(q, d)) for d in range(1, q.order + 1) if q.order % d == 0)


def test_subgroup_counts():
    # (Z/p)^2 has p + 3 subgroups: trivial, p+1 lines, everything
    assert count_subgroups([[2, 0], [0, 2]]) == 5
    assert count_subgroups([[3, 0], [0, 3]]) == 6
    assert count_subgroups([[5, 0], [0, 5]]) == 8
    # Z/4 has subgroups 0 < 2Z/4 < Z/4
    assert count_subgroups([[4, 0], [0, 1]]) == 3
    # trivial group
    assert count_subgroups([[1, 0], [0, 1]]) == 1


def test_subgroup_bases_contain_diagonal():
    q = quotient(Sublattice.full(2), Sublattice([[2, 0], [0, 4]]))
    d = q.invariant_factors
    k = len(d)
    diagonal = Sublattice([[d[i] if i == j else 0 for j in range(k)] for i in range(k)])
    for order in (1, 2, 4, 8):
        bases = enumerate_subgroups(q, order)
        assert bases and len(set(bases)) == len(bases)
        for basis in bases:
            lat = Sublattice(basis)
            assert lat.basis == basis
            assert lat.contains_lattice(diagonal)
            assert q.order // lat.index == order


@pytest.mark.parametrize("order", [0, -1, -4])
def test_no_subgroup_has_order_below_one(order):
    # order 0 used to escape as ZeroDivisionError
    q = quotient(Sublattice.full(2), Sublattice([[2, 0], [0, 2]]))
    assert enumerate_subgroups(q, order) == []


def test_quotient_lifts_and_trivial_columns_span_the_ambient():
    rng = random.Random(41)
    for _ in range(20):
        g = rng.randint(1, 4)
        sub = rand_sublattice(rng, g, 3)
        amb = sub + rand_sublattice(rng, g, 2)
        q = quotient(amb, sub)
        assert len(q._trivial) + len(q.generator_lifts) == g
        assert Sublattice.from_generators(list(q._trivial) + list(q.generator_lifts)) == amb
        assert all(sub.contains(v) for v in q._trivial)
        # the adapted basis A, read from Smith's W, satisfies A U = ambient's
        # basis, and each d_j A_j lies in sub
        u, d, adapted = groups._smith_adapted(amb, sub)
        assert [
            tuple(sum(a[i] * u[j][k] for j, a in enumerate(adapted)) for k in range(g))
            for i in range(g)
        ] == list(amb.basis)
        assert all(sub.contains(tuple(x * v for v in a)) for x, a in zip(d, adapted))


def _join(d: tuple[int, ...], s: frozenset, x: tuple[int, ...]) -> frozenset:
    """The subgroup generated by the subgroup s and x in the sum of the Z/d_i:
    the union of the cosets s + m x until m x falls back into s."""
    joined, y = set(s), x
    while y not in s:
        joined.update(tuple((a + b) % n for a, b, n in zip(z, y, d)) for z in s)
        y = tuple((a + b) % n for a, b, n in zip(y, x, d))
    return frozenset(joined)


def _closure_subgroups(d: tuple[int, ...]) -> set[frozenset]:
    """Every subgroup of the sum of the Z/d_i as a set of elements, by closure:
    from the trivial subgroup, join one element at a time until nothing new
    appears (each subgroup is reached, joining its generators one by one)."""
    elements = list(itertools.product(*(range(n) for n in d)))
    seen = {frozenset([tuple(0 for _ in d)])}
    frontier = list(seen)
    while frontier:
        new = []
        for s in frontier:
            done = set(s)  # <s, x> depends only on the coset x + s
            for x in elements:
                if x in done:
                    continue
                done.update(tuple((a + b) % n for a, b, n in zip(x, z, d)) for z in s)
                joined = _join(d, s, x)
                if joined not in seen:
                    seen.add(joined)
                    new.append(joined)
        frontier = new
    return seen


def _invariant_factor_tuples(max_order: int, max_rank: int) -> list[tuple[int, ...]]:
    """Every (d_1, ..., d_k), 1 < d_1 | d_2 | ..., k <= max_rank, of product <= max_order."""
    out, stack = [], [()]
    while stack:
        d = stack.pop()
        out.append(d)
        if len(d) < max_rank:
            order = math.prod(d)
            step = d[-1] if d else 2
            stack += [d + (n,) for n in range(step, max_order // order + 1, step) if n > 1]
    return sorted(out)


def _diagonal_group(d: tuple[int, ...]) -> FiniteAbelianGroup:
    """Z^k / diag(d) Z^k, whose invariant factors are d (Z / Z when d is empty)."""
    diag = list(d) or [1]
    k = len(diag)
    sub = Sublattice([[diag[i] * (i == j) for j in range(k)] for i in range(k)])
    return quotient(Sublattice.full(k), sub)


def test_enumerate_subgroups_matches_closure_oracle():
    # every group of order <= 64 with at most four invariant factors, every order
    groups = _invariant_factor_tuples(64, 4)
    assert (2, 2, 2, 8) in groups and (2, 2, 4, 4) in groups and (64,) in groups
    for d in groups:
        q = _diagonal_group(d)
        assert q.invariant_factors == d
        subgroups = _closure_subgroups(d)
        if len(d) == 1:
            assert len(subgroups) == len([n for n in range(1, d[0] + 1) if d[0] % n == 0])
        assert len(subgroups) == {(3, 3): 6, (2, 2, 2, 2): 67}.get(d, len(subgroups))
        by_order: dict[int, set[frozenset]] = {}
        for sub in subgroups:
            by_order.setdefault(len(sub), set()).add(sub)
        for order in range(1, q.order + 1):
            if q.order % order:
                continue
            walked = []
            for basis in enumerate_subgroups(q, order, bound=10**6):
                sub = frozenset([tuple(0 for _ in d)])
                for col in zip(*basis):
                    sub = _join(d, sub, tuple(c % n for c, n in zip(col, d)))
                walked.append(sub)
            assert len(set(walked)) == len(walked)
            assert set(walked) == by_order[order], (d, order)


def test_isotropic_walk_matches_filtering_afterwards():
    # the pruned walk under a form keeps exactly the isotropic subgroups of the
    # unfiltered walk, at every order
    rng = random.Random(43)
    outcomes = set()
    for _ in range(40):
        k = rng.randint(1, 4)
        d = tuple(sorted(rng.choice((2, 3, 4, 6)) for _ in range(k)))
        d = tuple(math.lcm(*d[: i + 1]) for i in range(k))  # d_1 | d_2 | ...
        if math.prod(d) > 600:
            continue
        q = _diagonal_group(d)
        den = rng.choice((2, 3, 4, 6, 12))
        form = [[0] * k for _ in range(k)]
        for i in range(k):
            for j in range(i + 1, k):
                form[i][j] = rng.randrange(den)
                form[j][i] = -form[i][j] % den
        for order in range(1, q.order + 1):
            if q.order % order:
                continue
            expected = [
                basis
                for basis in enumerate_subgroups(q, order, bound=10**6)
                if all(
                    sum(u[a] * form[a][b] * v[b] for a in range(k) for b in range(k)) % den == 0
                    for u in zip(*basis)
                    for v in zip(*basis)
                )
            ]
            got = enumerate_subgroups(q, order, bound=10**6, form=(form, den))
            assert got == expected
            outcomes.add(len(got) < len(enumerate_subgroups(q, order, bound=10**6)))
    assert outcomes == {True, False}


@pytest.mark.parametrize(
    "form, error",
    [
        # each used to be read through a truncating zip and answer
        (([[0, 1]], 2), DimensionMismatch),
        (([[0, 1], [1, 0], [1, 1]], 2), DimensionMismatch),
        (([[0, 1], [1]], 2), DimensionMismatch),
        # used to escape as ZeroDivisionError
        (([[0, 1], [1, 0]], 0), MalformedScalar),
        (([[0, 1], [1, 0]], -2), MalformedScalar),
    ],
    ids=["1x2", "3x2", "ragged", "den-0", "den-negative"],
)
def test_enumerate_subgroups_checks_the_form(form, error):
    q = _diagonal_group((2, 2))
    with pytest.raises(error):
        enumerate_subgroups(q, 2, form=form)
    assert len(enumerate_subgroups(q, 2, form=([[0, 1], [1, 0]], 2))) == 3


@pytest.mark.parametrize("value", [2.0, True, "2"], ids=["float", "bool", "str"])
@pytest.mark.parametrize("argument", ["order", "bound"])
def test_enumerate_subgroups_reads_integers(argument, value):
    # a float order used to count as 2, and a string one escaped as TypeError
    q = _diagonal_group((2, 2))
    kwargs = {"order": 2, "bound": 100, argument: value}
    with pytest.raises(NotExact):
        enumerate_subgroups(q, **kwargs)
    assert len(enumerate_subgroups(q, order=2, bound=100)) == 3


def test_enumerate_subgroups_too_large():
    q = quotient(Sublattice.full(2), Sublattice([[100, 0], [0, 100]]))
    with pytest.raises(TooLarge):
        enumerate_subgroups(q, 100, bound=64)


def test_enumerate_subgroups_bounds_candidates():
    # (Z/10)^4 has order 10,000, but the walk over its subgroups of order 100
    # tries more columns than the default budget of steps pays for
    q = quotient(Sublattice.full(4), Sublattice([[10 * (i == j) for j in range(4)] for i in range(4)]))
    assert q.order <= SUBGROUP_ENUMERATION_BOUND
    with pytest.raises(TooLarge, match="exceeds its bound of 10000 steps"):
        enumerate_subgroups(q, 100)


def test_enumerate_subgroups_counts_its_steps():
    # (Z/100)^2, order 100: listing divisors costs isqrt(100) = 10 steps per
    # factor; the last column tries one candidate per divisor c of 100 (9), and
    # the first column, of diagonal 100 / c, c candidates each (sigma(100) = 217)
    q = _diagonal_group((100, 100))
    assert len(enumerate_subgroups(q, 100, bound=20 + 9 + 217)) == 217
    with pytest.raises(TooLarge):
        enumerate_subgroups(q, 100, bound=20 + 9 + 217 - 1)
    # the trivial group costs nothing, and a negative budget is spent already
    trivial = _diagonal_group(())
    assert enumerate_subgroups(trivial, 1, bound=0) == [()]
    with pytest.raises(TooLarge):
        enumerate_subgroups(trivial, 1, bound=-1)


@pytest.mark.parametrize(
    "d, order",
    [((720720,) * 8, 720720**4), ((2,) * 13, 2**6)],
    ids=["720720^8", "2^13"],
)
def test_enumerate_subgroups_refuses_large_walks_at_the_default_bound(d, order):
    # 720720 has 240 divisors, so 240^8 Hermite diagonals: the budget must stop the walk early
    with pytest.raises(TooLarge):
        enumerate_subgroups(_diagonal_group(d), order)


# ---------------------------------------------------------------------------
# Box reduction and rational lattices
# ---------------------------------------------------------------------------


def test_reduce_mod_lattice_examples():
    eye = Mat.identity(2)
    assert reduce_mod_lattice((F(5, 2), F(-1, 3)), eye) == (F(1, 2), F(2, 3))
    two = Mat([[2, 0], [0, 2]])
    assert reduce_mod_lattice((3, -1), two) == (F(1), F(1))


def test_reduce_mod_lattice_properties():
    rng = random.Random(33)
    for g in range(1, 5):
        for _ in range(30):
            lat = rand_sublattice(rng, g, max_diag=3)
            v = tuple(F(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(g))
            r = reduce_mod_lattice(v, lat.mat)
            # representative has basis coordinates in [0, 1)
            coords = lat.mat.solve(r)
            assert all(0 <= c < 1 for c in coords)
            # idempotent and coset-invariant
            assert reduce_mod_lattice(r, lat.mat) == r
            shift = lat.mat.mul_vec(tuple(F(rng.randint(-3, 3)) for _ in range(g)))
            shifted = tuple(a + b for a, b in zip(v, shift))
            assert reduce_mod_lattice(shifted, lat.mat) == r
            # the Hermite forward substitution agrees with the general solver
            w = tuple(rng.randint(-9, 9) for _ in range(g))
            for x in (v, shifted, w):
                assert lat.reduce(x) == reduce_mod_lattice(x, lat.mat)
                assert lat.coordinates(x) == lat.mat.solve(x)
            assert lat.contains(w) == all(c.denominator == 1 for c in lat.mat.solve(w))


def test_sublattice_reduce_matches_reduction_reference():
    # the adjugate floor of reduce_all against the general rational solver
    rng = random.Random(347)
    negative_fractional = 0
    for g in range(1, 5):
        for _ in range(25):
            lat = rand_sublattice(rng, g, max_diag=4)
            ints = [tuple(rng.randint(-12, 12) for _ in range(g)) for _ in range(4)]
            rats = [tuple(F(rng.randint(-12, 12), rng.randint(1, 5)) for _ in range(g))
                    for _ in range(4)]
            reduced = lat.reduce_all(ints + rats)
            for v, r in zip(ints + rats, reduced):
                assert r == reduce_mod_lattice(v, lat.mat) == lat.reduce(v)
                coords = lat.coordinates(v)
                negative_fractional += any(c < 0 and c.denominator != 1 for c in coords)
            assert all(type(x) is int for r in reduced[:4] for x in r)
    assert negative_fractional >= 50


@settings(derandomize=True, deadline=None, max_examples=200, database=None)
@given(hermite_bases(), st.data())
@example([[2**64 + 1, 0], [2**64, 2**65 + 3]], None)
def test_cached_adjugate_matches_bareiss(rows, data):
    # the forward-substitution adjugate against the fraction-free elimination
    # of the basis matrix, and the lattice vector the reducer hands back
    lat = Sublattice(rows)
    assert lat.basis == tuple(map(tuple, rows))
    g = len(rows)
    det, adj = lat.mat._eliminate([[int(i == j) for j in range(g)] for i in range(g)])
    assert lat._adjugate == (det, adj)
    assert lat._adjugate is lat._adjugate
    if data is None:
        assert max(x for row in adj for x in row) > 2**64
        return
    m = data.draw(st.integers(1, 12))
    w = data.draw(st.lists(st.integers(-(2**72), 2**72), min_size=g, max_size=g))
    [(r, m_out, k)] = lat._reduce_num([(w, m)])
    assert m_out == m
    assert [x - y for x, y in zip(w, r)] == [m * sum(map(operator.mul, row, k)) for row in rows]
    assert all(0 <= c < 1 for c in lat.coordinates([F(x, m) for x in r]))


@settings(derandomize=True, deadline=None, max_examples=200, database=None)
@given(hermite_bases(), st.data())
@example([[2**64 + 1, 0], [2**64, 2**65 + 3]], None)
def test_coordinates_and_membership_match_the_rational_solver(rows, data):
    # the adjugate solver against Bareiss, on integer and rational vectors and
    # on lattice vectors, whose coordinates come back as ints and only there
    lat = Sublattice(rows)
    g = len(rows)
    big = st.integers(-(2**72), 2**72)
    if data is None:
        w, m, k = [2**70 + 1] * g, 2**66 + 1, [2**65 - 1, -(2**64)]
    else:
        w = data.draw(st.lists(big, min_size=g, max_size=g))
        m = data.draw(st.integers(2, 12) | st.integers(2**64, 2**66))
        k = data.draw(st.lists(big, min_size=g, max_size=g))
    point = tuple(sum(map(operator.mul, row, k)) for row in rows)
    for v in (tuple(w), tuple(F(x, m) for x in w), point):
        coords, exact = lat.coordinates(v), lat.mat.solve(v)
        assert coords == exact
        assert [type(c) for c in coords] == [int if c.denominator == 1 else F for c in exact]
        assert lat.contains(v) == all(c.denominator == 1 for c in exact)
    assert lat.coordinates(point) == tuple(k) and lat.contains(point)
    for v in (point, tuple(w)):
        wider = Sublattice.from_generators([v, *lat.generators()])
        assert lat.contains_lattice(wider) == lat.contains(v)


@pytest.mark.parametrize("bad", [1.5, True, "1/2"], ids=["float", "bool", "string"])
@pytest.mark.parametrize(
    "call",
    [
        lambda x: Sublattice([[2, 0], [1, 3]]).coordinates((x, 0)),
        lambda x: Sublattice([[2, 0], [1, 3]]).contains((x, 0)),
        lambda x: Sublattice([[2, 0], [1, 3]]).reduce((x, 0)),
        lambda x: Sublattice([[2, 0], [1, 3]]).reduce_all([(1, 0), (x, 0)]),
        lambda x: QLattice.standard(2).contains((x, F(1, 2))),
        lambda x: QLattice.standard(2).reduce((x, F(1, 2))),
        lambda x: QLattice.standard(2).reduce_all([(F(1, 2), 0), (x, F(1, 2))]),
    ],
    ids=[
        "coordinates",
        "contains",
        "reduce",
        "reduce_all",
        "qlattice-contains",
        "qlattice-reduce",
        "qlattice-reduce_all",
    ],
)
def test_lattice_entry_points_reject_inexact_entries(call, bad):
    # a float used to come back as float coordinates ((0.75, -0.25) for 1.5)
    # and to escape contains and reduce as AttributeError; a bool was read as
    # an int
    with pytest.raises(NotExact):
        call(bad)


def test_qlattice_basics():
    half = QLattice(Mat([[F(1, 2), 0], [0, F(1, 2)]]))
    assert half.covolume == F(1, 4)
    assert half.contains((F(3, 2), F(-1, 2)))
    assert not half.contains((F(1, 3), F(0)))
    std = QLattice.standard(2)
    assert half.index_over(std) == 4
    assert half.reduce((F(3, 4), F(0))) == (F(1, 4), F(0))


def test_qlattice_from_non_hermite_basis():
    basis = Mat([[F(1, 2), F(1, 2)], [F(1, 3), F(-1, 3)]])
    lat = QLattice(basis)
    # canonical: the Hermite basis of 6 * lat, divided by 6
    assert lat.den == 6
    assert lat.basis == Mat([[F(1, 2), 0], [F(1, 3), F(2, 3)]])
    assert lat == QLattice.from_generators([(F(1, 2), F(-1, 3)), (F(1, 2), F(1, 3))])
    assert lat.covolume == abs(basis.det()) == F(1, 3)
    assert lat.contains((F(1), F(0))) and lat.contains((F(1, 2), F(-1, 3)))
    assert not lat.contains((F(1, 2), F(0)))
    rng = random.Random(5)
    for _ in range(20):
        v = (F(rng.randint(-9, 9), rng.randint(1, 5)), F(rng.randint(-9, 9), rng.randint(1, 5)))
        r = lat.reduce(v)
        assert r == reduce_mod_lattice(v, lat.basis)
        # the same coset as the representative in the original basis' box
        assert lat.contains(tuple(a - b for a, b in zip(r, reduce_mod_lattice(v, basis))))


def test_qlattice_den_is_lcm_of_basis_denominators():
    rng = random.Random(13)
    for _ in range(40):
        g = rng.randint(1, 3)
        rows = [[F(rng.randint(-6, 6), rng.randint(1, 6)) for _ in range(g)] for _ in range(g)]
        basis = Mat(rows)
        if basis.det() == 0:
            continue
        lat = QLattice(basis)
        assert lat.den == math.lcm(*(x.denominator for r in rows for x in r))
        assert lat.basis.den == lat.den
        assert lat == QLattice(lat.basis)


def test_qlattice_from_generators():
    lat = QLattice.from_generators(
        [(F(1, 2), F(0)), (F(0), F(1, 3)), (F(1, 6), F(1, 6))]
    )
    for gen in [(F(1, 2), F(0)), (F(0), F(1, 3)), (F(1, 6), F(1, 6))]:
        assert lat.contains(gen)
    # covolume divides that of any single pair of generators
    assert lat.covolume == F(1, 36)


def test_sublattices_of_index_helper():
    # the helper used across the suite enumerates each planar lattice once
    lats = sublattices_of_index_at_most(2, 3)
    assert len(lats) == len(set(lats))
    # index n planar sublattice count is sigma(n): 1, 3, 4 for n = 1, 2, 3
    assert sum(1 for l in lats if l.index == 1) == 1
    assert sum(1 for l in lats if l.index == 2) == 3
    assert sum(1 for l in lats if l.index == 3) == 4


@pytest.mark.parametrize("g", [1, 2, 3, 4])
def test_from_generators_is_already_canonical(g):
    # from_generators keeps its column Hermite form without a second pass
    rng = random.Random(263 + g)
    built = 0
    for _ in range(40):
        gens = [tuple(rng.randint(-6, 6) for _ in range(g)) for _ in range(rng.randint(g, g + 3))]
        try:
            lat = Sublattice.from_generators(gens)
        except SingularLattice:
            continue
        built += 1
        assert lat.basis == Sublattice([list(row) for row in lat.basis]).basis
        assert all(lat.contains(v) for v in gens)
    assert built >= 30
    assert Sublattice.full(g).basis == Sublattice([[int(i == j) for j in range(g)] for i in range(g)]).basis
