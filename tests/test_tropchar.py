import itertools
import random
from fractions import Fraction

import tropabel.tropchar as tropchar

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from tropabel.bundles import as_bundle, is_homogeneous, line_bundle
from tropabel.errors import NotCommuting, NotExact, NotInvertible, SizeMismatch, TropabelError
from tropabel import lattices, linalg
from tropabel.lattices import Sublattice
from tropabel.linalg import Mat
from tropabel.tori import TropTorus
from tropabel.tropchar import (
    TropGLElement,
    TropRepresentation,
    bundle_from_rep,
    canonical_form,
    check_commuting,
    compose,
    conjugate,
    decompose_rep,
    from_matrix,
    identity,
    inverse,
    power,
    rep_from_bundle,
    stratum,
    to_matrix,
)

from conftest import minplus_product, rand_fraction

F = Fraction


def rand_element(rng, r):
    perm = list(range(r))
    rng.shuffle(perm)
    return TropGLElement(tuple(perm), tuple(rand_fraction(rng) for _ in range(r)))


def rand_commuting_rep(rng, r, g):
    """Commuting images built as powers of one element times diagonal shifts
    constant on its orbits (the generic commuting family)."""
    base = rand_element(rng, r)
    images = []
    for _ in range(g):
        el = power(base, rng.randint(0, 3))
        # add an orbit-constant diagonal translation, which commutes with base
        orbit_of = {}
        for start in range(r):
            if start in orbit_of:
                continue
            members, q = [], start
            while q not in members:
                members.append(q)
                q = base.perm[q]
            c = rand_fraction(rng)
            for m in members:
                orbit_of[m] = c
        shift = TropGLElement(tuple(range(r)), tuple(orbit_of[i] for i in range(r)))
        images.append(compose(el, shift))
    rep = TropRepresentation(tuple(images))
    assert check_commuting(rep)
    return rep


def rand_hermite(rng, index, g):
    """A random Hermite basis of the given index: its prime factors spread
    over the diagonal, entries left of it reduced into [0, diagonal)."""
    diag = [1] * g
    n, p = index, 2
    while n > 1:
        while n % p == 0:
            diag[rng.randrange(g)] *= p
            n //= p
        p += 1
    rows = [[rng.randrange(diag[i]) if j < i else 0 for j in range(g)] for i in range(g)]
    for i in range(g):
        rows[i][i] = diag[i]
    return Sublattice(rows)


def rand_bundle_rep(rng, r, g):
    """rep_from_bundle of a random homogeneous bundle of rank r (one to three
    summands), conjugated by a random element: a generic commuting rep."""
    torus = TropTorus(Mat.identity(g))
    cuts = sorted(rng.sample(range(1, r), min(r - 1, rng.randint(0, 2))))
    parts = [b - a for a, b in zip([0] + cuts, cuts + [r])]
    summands = [
        line_bundle(
            torus,
            rand_hermite(rng, k, g),
            Mat.zeros(g, g),
            tuple(rand_fraction(rng, max_den=6) for _ in range(g)),
        )
        for k in parts
    ]
    return conjugate(rep_from_bundle(as_bundle(summands)), rand_element(rng, r))


# ---------------------------------------------------------------------------
# Group structure of invertible tropical matrices
# ---------------------------------------------------------------------------


def test_element_validation():
    with pytest.raises(NotInvertible):
        TropGLElement((0, 0), (F(0), F(0)))
    with pytest.raises(SizeMismatch):
        TropGLElement((0, 1), (F(0),))
    # integral Fractions are read as the ints they are
    assert [type(i) for i in TropGLElement([F(1), 0], (0, 0)).perm] == [int, int]


@pytest.mark.parametrize(
    "perm", [(0.0, 1.0), (True, False), ("1", "0")], ids=["float", "bool", "str"]
)
def test_perm_entries_must_be_ints(perm):
    with pytest.raises(NotExact):
        TropGLElement(perm, (F(0), F(0)))


@pytest.mark.parametrize("n", [1.5, F(2), "2", True, None])
def test_power_needs_an_int_exponent(n):
    with pytest.raises(TropabelError):
        power(TropGLElement((1, 0), (F(3), F(5))), n)


def test_power_of_a_huge_exponent_squares():
    # a transposition squares to the identity, and each of its squares adds
    # x + y to both translations: n = 10**18 takes about 120 compositions
    x, y = F(1, 3), F(-5, 7)
    a = TropGLElement((1, 0), (x, y))
    n = 10**18
    assert power(a, n) == TropGLElement((0, 1), (n // 2 * (x + y),) * 2)
    assert power(a, n + 1) == compose(power(a, n), a)
    assert power(a, -n) == inverse(power(a, n))


def test_action_example():
    a = TropGLElement((1, 0), (F(3), F(5)))
    # (Ax)_i = d_i + x_(sigma^-1(i)): row 0 reads slot 1, row 1 reads slot 0
    assert a.act((F(10), F(20))) == (F(23), F(15))


def test_compose_square_example():
    a = TropGLElement((1, 0), (F(3), F(5)))
    sq = compose(a, a)
    assert sq.perm == (0, 1)
    assert sq.d == (F(8), F(8))


def test_matrix_form_example():
    a = from_matrix([[None, 3], [5, None]])
    assert a.perm == (1, 0)
    assert a.d == (F(3), F(5))
    assert to_matrix(a) == [[None, F(3)], [F(5), None]]


def test_from_matrix_rejects_non_invertible():
    with pytest.raises(NotInvertible):
        from_matrix([[0, 0], [None, 1]])
    with pytest.raises(NotInvertible):
        from_matrix([[0, None], [1, None]])


def test_group_laws_random():
    rng = random.Random(139)
    for _ in range(30):
        r = rng.randint(1, 5)
        a, b, c = (rand_element(rng, r) for _ in range(3))
        assert compose(compose(a, b), c) == compose(a, compose(b, c))
        assert compose(a, inverse(a)) == identity(r)
        assert compose(inverse(a), a) == identity(r)
        assert power(a, 3) == compose(a, compose(a, a))
        assert power(a, -2) == inverse(compose(a, a))
        # action composes contravariantly with the matrix product
        x = tuple(rand_fraction(rng) for _ in range(r))
        assert compose(a, b).act(x) == a.act(b.act(x))


def test_compose_matches_minplus_matrix_product():
    rng = random.Random(149)
    for _ in range(30):
        r = rng.randint(1, 6)
        a, b = rand_element(rng, r), rand_element(rng, r)
        assert to_matrix(compose(a, b)) == minplus_product(to_matrix(a), to_matrix(b))


# ---------------------------------------------------------------------------
# Representations
# ---------------------------------------------------------------------------


def test_check_commuting():
    swap01 = TropGLElement((1, 0, 2), (F(0),) * 3)
    swap02 = TropGLElement((2, 1, 0), (F(0),) * 3)
    assert not check_commuting(TropRepresentation((swap01, swap02)))
    assert check_commuting(TropRepresentation((swap01, swap01)))
    with pytest.raises(NotCommuting):
        decompose_rep(TropRepresentation((swap01, swap02)))


def test_value_is_multiplicative():
    rng = random.Random(151)
    for _ in range(15):
        rep = rand_commuting_rep(rng, rng.randint(1, 4), rng.randint(1, 3))
        a = [rng.randint(-2, 2) for _ in range(rep.g)]
        b = [rng.randint(-2, 2) for _ in range(rep.g)]
        ab = [x + y for x, y in zip(a, b)]
        assert rep.value(ab) == compose(rep.value(a), rep.value(b))


def test_decompose_induced_example():
    # swap with translations (1/3, 5/6) alongside a diagonal (1/4, 1/4)
    a1 = TropGLElement((1, 0), (F(1, 3), F(5, 6)))
    a2 = TropGLElement((0, 1), (F(1, 4), F(1, 4)))
    pieces = decompose_rep(TropRepresentation((a1, a2)))
    assert len(pieces) == 1
    piece = pieces[0]
    assert piece.orbit == (0, 1)
    assert piece.lattice == Sublattice([[2, 0], [0, 1]])
    assert piece.l == (F(7, 6), F(1, 4))


def test_decompose_diagonal_rep():
    # no permutation action: every slot is its own orbit on the full lattice
    a1 = TropGLElement((0, 1), (F(1, 2), F(2)))
    a2 = TropGLElement((0, 1), (F(0), F(1, 3)))
    pieces = decompose_rep(TropRepresentation((a1, a2)))
    assert len(pieces) == 2
    assert [p.lattice for p in pieces] == [Sublattice.full(2)] * 2
    assert pieces[0].l == (F(1, 2), F(0))
    assert pieces[1].l == (F(2), F(1, 3))


def test_decompose_three_cycle():
    # a 3-cycle in one generator: stabilizer 3Z, covector the full cycle sum
    cyc = TropGLElement((1, 2, 0), (F(1), F(2), F(4)))
    pieces = decompose_rep(TropRepresentation((cyc,)))
    assert len(pieces) == 1
    assert pieces[0].lattice == Sublattice([[3]])
    assert pieces[0].l == (F(7),)


def test_covector_additive_on_stabilizer():
    rng = random.Random(157)
    for _ in range(15):
        rep = rand_commuting_rep(rng, rng.randint(2, 4), 2)
        for piece in decompose_rep(rep):
            p = piece.orbit[0]
            gens = piece.lattice.generators()
            for b1 in gens:
                for b2 in gens:
                    s = tuple(x + y for x, y in zip(b1, b2))
                    val = rep.value(s)
                    assert val.perm[p] == p
                    lin = sum(
                        (
                            li * ci
                            for li, ci in zip(piece.l, piece.lattice.coordinates(s))
                        ),
                        F(0),
                    )
                    assert val.d[p] == lin


def test_canonical_form_conjugation_invariant():
    rng = random.Random(163)
    for _ in range(20):
        r = rng.randint(1, 4)
        rep = rand_commuting_rep(rng, r, 2)
        conj = conjugate(rep, rand_element(rng, r))
        assert conj == TropRepresentation(conj.images)
        assert check_commuting(conj)
        assert canonical_form(conj) == canonical_form(rep)
        assert stratum(conj) == stratum(rep)


def rand_element_over(rng, r, max_den):
    perm = list(range(r))
    rng.shuffle(perm)
    d = tuple(rand_fraction(rng, -30, 30, max_den) for _ in range(r))
    return TropGLElement(tuple(perm), d)


def test_conjugate_matches_compose_and_inverse():
    # the one-pass integer conjugation against its definition a img a^-1,
    # on images that mostly do not commute, with negative translations and
    # denominators up to 12
    rng = random.Random(257)
    commuting = 0
    for _ in range(600):
        r, g = rng.randint(1, 12), rng.randint(1, 3)
        rep = TropRepresentation(tuple(rand_element_over(rng, r, 12) for _ in range(g)))
        a = rand_element_over(rng, r, 12)
        a_inv = inverse(a)
        expected = tuple(compose(compose(a, img), a_inv) for img in rep.images)
        images = conjugate(rep, a).images
        assert images == expected
        assert all(type(x) is Fraction for img in images for x in img.d)
        commuting += check_commuting(rep)
    assert commuting < 300


def test_conjugate_by_an_element_of_another_size():
    rep = TropRepresentation((identity(2), TropGLElement((1, 0), (F(1, 2), F(-3)))))
    for a in (identity(1), identity(3)):
        with pytest.raises(SizeMismatch, match="^cannot compose elements of different sizes$"):
            conjugate(rep, a)


def test_conjugate_composes_nothing(monkeypatch):
    calls = 0
    real = tropchar.compose

    def counting(a, b):
        nonlocal calls
        calls += 1
        return real(a, b)

    rng = random.Random(263)
    rep = rand_bundle_rep(rng, 12, 3)
    a = rand_element(rng, 12)
    monkeypatch.setattr(tropchar, "compose", counting)
    conj = conjugate(rep, a)
    monkeypatch.undo()
    assert calls == 0
    assert conj.images == tuple(compose(compose(a, img), inverse(a)) for img in rep.images)


def test_stratum_sorted():
    a1 = TropGLElement((1, 0, 2), (F(0), F(0), F(1)))
    rep = TropRepresentation((a1,))
    assert stratum(rep) == (Sublattice.full(1), Sublattice([[2]]))
    assert stratum(rep)[0].basis <= stratum(rep)[1].basis


# ---------------------------------------------------------------------------
# Between representations and bundles
# ---------------------------------------------------------------------------


def test_bundle_from_rep_is_homogeneous():
    torus = TropTorus(Mat([[1, 0], [1, 2]]))
    a1 = TropGLElement((1, 0), (F(1, 3), F(5, 6)))
    a2 = TropGLElement((0, 1), (F(1, 4), F(1, 4)))
    e = bundle_from_rep(TropRepresentation((a1, a2)), torus)
    assert is_homogeneous(e)
    assert e.rank == 2
    assert e.summands[0].lattice == Sublattice([[2, 0], [0, 1]])
    assert e.summands[0].l == (F(7, 6), F(1, 4))
    with pytest.raises(SizeMismatch):
        bundle_from_rep(TropRepresentation((a1, a2)), TropTorus(Mat([[1]])))


def test_rep_from_bundle_round_trip():
    # decompose(induce(lattice, l)) recovers exactly (lattice, l)
    torus = TropTorus(Mat.identity(2))
    rng = random.Random(167)
    for _ in range(20):
        lat = Sublattice(
            [[rng.randint(1, 3), 0], [rng.randint(0, 2), rng.randint(1, 3)]]
        )
        l = (rand_fraction(rng), rand_fraction(rng))
        e = as_bundle(line_bundle(torus, lat, Mat.zeros(2, 2), l))
        rep = rep_from_bundle(e)
        assert rep == TropRepresentation([TropGLElement(a.perm, a.d) for a in rep.images])
        assert check_commuting(rep)
        assert rep.r == lat.index
        assert canonical_form(rep) == ((lat, l),)


def test_rep_from_bundle_multiple_summands():
    torus = TropTorus(Mat.identity(2))
    s1 = line_bundle(torus, Sublattice([[2, 0], [0, 1]]), Mat.zeros(2, 2), (F(1, 2), 0))
    s2 = line_bundle(torus, Sublattice.full(2), Mat.zeros(2, 2), (F(1, 5), F(2, 5)))
    e = as_bundle([s1, s2])
    rep = rep_from_bundle(e)
    assert rep.r == 3
    assert canonical_form(rep) == (
        (Sublattice.full(2), (F(1, 5), F(2, 5))),
        (Sublattice([[2, 0], [0, 1]]), (F(1, 2), F(0))),
    )
    assert bundle_from_rep(rep, torus) == e


def ref_rep_from_bundle(e):
    """The images of rep_from_bundle as (perm, d) pairs, computed as it was
    before the reducer handed back lattice coordinates: coset representatives
    and their shifts through reduce_all, each translation through l_value on
    the lattice vector that closes the shift."""
    g, total = e.torus.g, e.rank
    perms = [[0] * total for _ in range(g)]
    ds = [[F(0)] * total for _ in range(g)]
    off = 0
    for s in e.summands:
        box = itertools.product(*(range(row[i]) for i, row in enumerate(s.lattice.basis)))
        reps = sorted(s.lattice.reduce_all(box))
        lookup = {c: k for k, c in enumerate(reps)}
        shifted = [c[:j] + (c[j] + 1,) + c[j + 1 :] for j in range(g) for c in reps]
        for n, (v, target) in enumerate(zip(shifted, s.lattice.reduce_all(shifted))):
            j, k = divmod(n, len(reps))
            k2 = off + lookup[target]
            perms[j][off + k] = k2
            ds[j][k2] = s.l_value(tuple(a - b for a, b in zip(v, target)))
        off += len(reps)
    return [(tuple(p), tuple(d)) for p, d in zip(perms, ds)]


RATIONALS = st.builds(F, st.integers(-7, 7), st.integers(1, 12))


@st.composite
def homogeneous_bundles(draw):
    """One to three zero-class summands of index <= 32 on a rank-g torus,
    g <= 4, with a rational valuation matrix other than the identity and
    covectors with denominators up to 12."""
    g = draw(st.integers(1, 4))
    v = Mat(draw(st.lists(st.lists(RATIONALS, min_size=g, max_size=g), min_size=g, max_size=g)))
    assume(v != Mat.identity(g) and v.det() != 0)
    torus = TropTorus(v)
    summands = []
    for _ in range(draw(st.integers(1, 3))):
        left, diag = 32, []
        for _ in range(g):
            diag.append(draw(st.integers(1, left)))
            left //= diag[-1]
        rows = [
            [draw(st.integers(0, diag[i] - 1)) if j < i else diag[i] * (i == j) for j in range(g)]
            for i in range(g)
        ]
        l = tuple(draw(RATIONALS) for _ in range(g))
        summands.append(line_bundle(torus, Sublattice(rows), Mat.zeros(g, g), l))
    return as_bundle(summands)


INDEX_32 = as_bundle(
    line_bundle(
        TropTorus(Mat([[F(1, 2), 3], [F(-2, 3), F(5, 7)]])),
        Sublattice([[4, 0], [3, 8]]),
        Mat.zeros(2, 2),
        (F(5, 12), F(-7, 11)),
    )
)


@settings(derandomize=True, deadline=None, max_examples=150, database=None)
@given(homogeneous_bundles())
@example(INDEX_32)
def test_rep_from_bundle_matches_the_reduce_and_solve_reference(e):
    # the translations from the reducer's lattice coordinates equal l_value on
    # the closing lattice vectors, entry by entry and as Fractions
    rep = rep_from_bundle(e)
    assert [(a.perm, a.d) for a in rep.images] == ref_rep_from_bundle(e)
    assert all(type(x) is F for a in rep.images for x in a.d)


# ---------------------------------------------------------------------------
# The base-point walk of decompose_rep against the multiplied-out images
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("g", [2, 3])
def test_decompose_walk_matches_value(g):
    rng = random.Random(229 + g)
    for _ in range(12):
        r = rng.randint(1, 16)
        rep = rand_bundle_rep(rng, r, g)
        pieces = decompose_rep(rep)
        assert sum(len(s.orbit) for s in pieces) == r
        for piece in pieces:
            p = piece.orbit[0]
            for b, l in zip(piece.lattice.generators(), piece.l):
                image = rep.value(b)
                assert image.perm[p] == p
                assert l == image.d[p]


def test_decompose_composes_only_for_the_commuting_check(monkeypatch):
    # the stabilizer characters must not multiply out images: at r = 32 that
    # costs |b|_1 compositions per Hermite generator b
    calls = 0
    real = tropchar.compose

    def counting(a, b):
        nonlocal calls
        calls += 1
        return real(a, b)

    rng = random.Random(233)
    for g in (2, 3):
        rep = rand_bundle_rep(rng, 32, g)
        calls = 0
        monkeypatch.setattr(tropchar, "compose", counting)
        pieces = decompose_rep(rep)
        monkeypatch.undo()
        assert sum(len(s.orbit) for s in pieces) == 32
        assert calls <= g * (g - 1)


# ---------------------------------------------------------------------------
# Orbit stabilizers in Hermite form against Schreier generators
# ---------------------------------------------------------------------------


def schreier_stabilizers(rep):
    """(orbit, stabilizer) per orbit, in base-point order: the Schreier vectors
    v_q + e_i - v_(sigma_i q) of a breadth-first spanning tree, put in Hermite
    form by from_generators."""
    perms = [a.perm for a in rep.images]
    seen, out = set(), []
    for p in range(rep.r):
        if p in seen:
            continue
        paths, queue = {p: (0,) * rep.g}, [p]
        for q in queue:
            for i, perm in enumerate(perms):
                if perm[q] not in paths:
                    paths[perm[q]] = tuple(x + (k == i) for k, x in enumerate(paths[q]))
                    queue.append(perm[q])
        gens = [
            tuple(x + (k == i) - y for k, (x, y) in enumerate(zip(paths[q], paths[perm[q]])))
            for q in paths
            for i, perm in enumerate(perms)
        ]
        seen.update(paths)
        out.append((tuple(sorted(paths)), Sublattice.from_generators(gens)))
    return out


@pytest.mark.parametrize("g", [1, 2, 3, 4])
def test_stabilizers_match_schreier_reference(g):
    rng = random.Random(241 + g)
    multi = 0
    for _ in range(40):
        r = rng.randint(1, 12)
        if rng.random() < 0.5:
            rep = rand_bundle_rep(rng, r, g)
        else:
            rep = conjugate(rand_commuting_rep(rng, r, g), rand_element(rng, r))
        pieces = decompose_rep(rep)
        assert [(s.orbit, s.lattice) for s in pieces] == schreier_stabilizers(rep)
        multi += len(pieces) > 1
    assert multi >= 10


def test_decompose_runs_no_hermite_reduction(monkeypatch):
    # the stabilizer basis is built in Hermite form, never reduced into it
    def forbidden(*args, **kwargs):
        raise AssertionError("decompose_rep reduced a basis")

    rng = random.Random(251)
    reps = [rand_bundle_rep(rng, rng.randint(1, 16), g) for g in (1, 2, 3, 4) for _ in range(5)]
    expected = [decompose_rep(rep) for rep in reps]
    monkeypatch.setattr(Sublattice, "from_generators", forbidden)
    monkeypatch.setattr(Sublattice, "__init__", forbidden)
    for module in (lattices, linalg):
        for name in ("hnf", "column_hnf", "row_hnf"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, forbidden)
    assert [decompose_rep(rep) for rep in reps] == expected


def test_internal_elements_equal_public_construction():
    rng = random.Random(239)
    for _ in range(10):
        r = rng.randint(1, 6)
        a, b = rand_element(rng, r), rand_element(rng, r)
        rep = rand_bundle_rep(rng, r, 2)
        for x in (identity(r), compose(a, b), inverse(a), *rep.images):
            rebuilt = TropGLElement(tuple(x.perm), tuple(x.d))
            assert x == rebuilt and hash(x) == hash(rebuilt)
            assert type(x.perm) is tuple and type(x.d) is tuple
            assert all(type(v) is Fraction for v in x.d)
    with pytest.raises(NotInvertible):
        TropGLElement((1, 1, 0), (0, 0, 0))
    with pytest.raises(SizeMismatch):
        TropGLElement((1, 0), (0, 0, 0))


# ragged, empty, zero-rank, boolean, float and string inputs, nested to two
# levels, with valid elements mixed in
JUNK_LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-2, 3),
    st.floats(allow_nan=False, width=16),
    st.text(alphabet="01/-x", max_size=3),
    st.sampled_from([identity(0), identity(1), identity(2)]),
)
JUNK = st.recursive(
    JUNK_LEAVES, lambda inner: st.lists(inner, max_size=3) | st.tuples(inner, inner), max_leaves=6
)
CONSTRUCTOR_CALLS = st.one_of(
    st.tuples(st.just(TropGLElement), st.tuples(JUNK, JUNK)),
    st.tuples(st.just(TropRepresentation), st.tuples(JUNK)),
    st.tuples(st.just(from_matrix), st.tuples(JUNK)),
)


@settings(derandomize=True, deadline=None, max_examples=200, database=None)
@given(CONSTRUCTOR_CALLS)
# each of these raised a built-in TypeError or AttributeError before
@example((TropGLElement, (5, ())))
@example((TropGLElement, ((0, 1), 7)))
@example((TropRepresentation, (5,)))
@example((from_matrix, (5,)))
@example((TropRepresentation, ((1, 2),)))
def test_exported_constructors_raise_only_library_errors(call):
    constructor, args = call
    try:
        value = constructor(*args)
    except TropabelError:
        return
    expected = TropRepresentation if constructor is TropRepresentation else TropGLElement
    assert type(value) is expected
