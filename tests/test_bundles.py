import functools
import itertools
import operator
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tropabel.bundles import (
    ModuliPoint,
    TropLineBundle,
    TropVectorBundle,
    as_bundle,
    cover_torus,
    direct_sum,
    equivalent,
    is_homogeneous,
    is_semi_homogeneous,
    iso_pushforward,
    line_bundle,
    moduli_point,
    moduli_points,
    pullback,
    pushforward,
    restrict_line_bundle,
    slope,
    sym_point,
    tensor,
    translate,
)
from tropabel.errors import (
    AmbientMismatch,
    DimensionMismatch,
    EmptyBundle,
    InvalidClass,
    LatticeMismatch,
    MixedClasses,
    NotCompatible,
    NotContained,
    NotExact,
    SlopeMismatch,
)
from tropabel.lattices import QLattice, Sublattice
from tropabel.linalg import Mat
from tropabel.tori import TropTorus, extended_character_lattice, integrality_lattice
from tropabel.tropchar import TropRepresentation, bundle_from_rep, identity

from conftest import (
    hermite_bases,
    rand_fraction,
    rand_integral_symmetric,
    rand_matrix,
    rand_r_symmetric,
    rand_sublattice,
    reduce_mod_lattice,
    typed,
)

F = Fraction

EYE2 = TropTorus(Mat.identity(2))
LINE = TropTorus(Mat([[1]]))


def rand_torus(rng, g):
    while True:
        v = Mat([[rng.randint(-2, 2) for _ in range(g)] for _ in range(g)])
        if v.det() != 0:
            return TropTorus(v)


def rand_line_bundle(rng, torus, lattice=None):
    g = torus.g
    if lattice is None:
        lattice = rand_sublattice(rng, g)
    ns = rand_integral_symmetric(rng, torus.v)
    l = [rand_fraction(rng) for _ in range(g)]
    return line_bundle(torus, lattice, ns, l)


# ---------------------------------------------------------------------------
# Validation and canonical form
# ---------------------------------------------------------------------------


def test_summand_validation():
    with pytest.raises(InvalidClass):
        line_bundle(EYE2, Sublattice.full(2), Mat([[0, 1], [0, 0]]), (0, 0))
    with pytest.raises(InvalidClass):
        # half-integral class is not integral on the full lattice
        line_bundle(EYE2, Sublattice.full(2), Mat([[F(1, 2), 0], [0, 1]]), (0, 0))
    # but it is integral on the right cover
    ok = line_bundle(
        EYE2, Sublattice([[2, 0], [0, 1]]), Mat([[F(1, 2), 0], [0, 1]]), (0, 0)
    )
    assert ok.rank == 2
    with pytest.raises(AmbientMismatch):
        line_bundle(EYE2, Sublattice.full(2), Mat.identity(2), (0,))
    with pytest.raises(AmbientMismatch):
        line_bundle(EYE2, Sublattice.full(1), Mat.identity(2), (0, 0))


def test_summand_covector_reads_n_and_p_over_q_only():
    ok = line_bundle(LINE, Sublattice.full(1), Mat([[0]]), ["-6/4"])
    assert ok.l == (F(-3, 2),)
    for text in ("1.5", "1e3", " 1/2 ", "1_000"):
        with pytest.raises(ValueError):
            line_bundle(LINE, Sublattice.full(1), Mat([[0]]), [text])
    for value in (True, 0.5):
        with pytest.raises(TypeError):
            line_bundle(LINE, Sublattice.full(1), Mat([[0]]), [value])


def test_bundle_canonical_order():
    s1 = line_bundle(EYE2, Sublattice.full(2), Mat.identity(2), (1, 0))
    s2 = line_bundle(EYE2, Sublattice.full(2), Mat.identity(2), (0, 1))
    assert as_bundle([s1, s2]) == as_bundle([s2, s1])
    assert as_bundle([s1, s2]).rank == 2
    with pytest.raises(EmptyBundle):
        as_bundle([])


def test_direct_sum():
    s1 = line_bundle(EYE2, Sublattice.full(2), Mat.identity(2), (1, 0))
    s2 = line_bundle(EYE2, Sublattice([[2, 0], [0, 1]]), Mat.zeros(2, 2), (0, 0))
    e = direct_sum(as_bundle(s1), as_bundle(s2))
    assert e.rank == 3
    other = TropTorus(Mat([[1, 0], [1, 2]]))
    s3 = line_bundle(other, Sublattice.full(2), Mat.zeros(2, 2), (0, 0))
    with pytest.raises(AmbientMismatch):
        direct_sum(as_bundle(s1), as_bundle(s3))


def test_l_value_is_linear_extension():
    s = line_bundle(EYE2, Sublattice([[2, 0], [0, 2]]), Mat.identity(2), (1, F(1, 3)))
    # basis vectors (2,0), (0,2) carry the stored values
    assert s.l_value((2, 0)) == 1
    assert s.l_value((0, 2)) == F(1, 3)
    assert s.l_value((1, 1)) == F(1, 2) + F(1, 6)
    assert s.l_value((0, 0)) == 0


# ---------------------------------------------------------------------------
# Tensor
# ---------------------------------------------------------------------------


def test_tensor_full_lattices():
    s1 = line_bundle(EYE2, Sublattice.full(2), Mat.identity(2), (F(1, 2), F(1, 3)))
    s2 = line_bundle(EYE2, Sublattice.full(2), Mat.identity(2), (0, F(1, 4)))
    e = tensor(as_bundle(s1), as_bundle(s2))
    assert len(e.summands) == 1
    out = e.summands[0]
    assert out.ns == Mat.identity(2).scale(2)
    assert out.l == (F(1, 2), F(7, 12))
    assert out.lattice == Sublattice.full(2)


def test_tensor_coset_components():
    two = Sublattice([[2, 0], [0, 2]])
    s1 = line_bundle(EYE2, two, Mat.identity(2), (1, 0))
    s2 = line_bundle(EYE2, two, Mat.identity(2), (0, 1))
    e = tensor(as_bundle(s1), as_bundle(s2))
    # components over the four cosets of 2Z^2, all on 2Z^2 with class 2I
    assert len(e.summands) == 4
    assert e.rank == 16
    assert {s.lattice for s in e.summands} == {two}
    assert {s.ns for s in e.summands} == {Mat.identity(2).scale(2)}
    assert sorted(s.l for s in e.summands) == [
        (F(-1), F(-1)),
        (F(-1), F(1)),
        (F(1), F(-1)),
        (F(1), F(1)),
    ]


def test_tensor_rank_and_slope_laws():
    rng = random.Random(103)
    for _ in range(12):
        g = rng.randint(1, 2)
        torus = rand_torus(rng, g)
        e1 = as_bundle([rand_line_bundle(rng, torus) for _ in range(rng.randint(1, 2))])
        e2 = as_bundle([rand_line_bundle(rng, torus) for _ in range(rng.randint(1, 2))])
        t = tensor(e1, e2)
        assert t.rank == e1.rank * e2.rank
        assert slope(t) == slope(e1) + slope(e2)


def test_tensor_same_class_commutes():
    two = Sublattice([[2, 0], [0, 1]])
    s1 = line_bundle(EYE2, two, Mat.identity(2), (F(1, 3), 0))
    s2 = line_bundle(EYE2, Sublattice.full(2), Mat.identity(2), (0, F(1, 5)))
    assert tensor(as_bundle(s1), as_bundle(s2)) == tensor(as_bundle(s2), as_bundle(s1))


# ---------------------------------------------------------------------------
# Pullback and pushforward
# ---------------------------------------------------------------------------


def test_pullback_trivial_cover():
    rng = random.Random(107)
    torus = rand_torus(rng, 2)
    e = as_bundle([rand_line_bundle(rng, torus) for _ in range(2)])
    assert pullback(e, Sublattice.full(2)) == e


def test_pullback_splits_pushed_summand():
    # a summand on 2Z x Z pulled back along the same cover splits into two
    # full-lattice components
    sub = Sublattice([[2, 0], [0, 1]])
    s = line_bundle(EYE2, sub, Mat.zeros(2, 2), (F(1, 2), F(1, 3)))
    e = pullback(as_bundle(s), sub)
    assert e.torus == cover_torus(EYE2, sub)
    assert len(e.summands) == 2
    assert all(x.lattice == Sublattice.full(2) for x in e.summands)
    assert e.rank == 2


def test_pullback_preserves_rank():
    rng = random.Random(109)
    for _ in range(15):
        g = rng.randint(1, 2)
        torus = rand_torus(rng, g)
        e = as_bundle([rand_line_bundle(rng, torus) for _ in range(rng.randint(1, 2))])
        sub = rand_sublattice(rng, g)
        assert pullback(e, sub).rank == e.rank
        # built unchecked, the cover torus equals the checked one
        assert cover_torus(torus, sub) == TropTorus(torus.v @ sub.mat)


def test_pushforward_rank_and_round_trip():
    sub = Sublattice([[2, 0], [0, 1]])
    cov = cover_torus(EYE2, sub)
    s = line_bundle(cov, Sublattice.full(2), Mat.zeros(2, 2), (F(1, 5), F(2, 5)))
    e = pushforward(as_bundle(s), sub, EYE2)
    assert e.torus == EYE2
    assert e.rank == 2 * as_bundle(s).rank
    assert e.summands[0].lattice == sub
    # pulling straight back recovers the sum of coset translates; here the
    # class is zero so both components coincide with the original summand
    back = pullback(e, sub)
    assert back.rank == 2
    assert all(x.l == s.l for x in back.summands)


def test_pushforward_wrong_cover_rejected():
    sub = Sublattice([[2, 0], [0, 1]])
    s = line_bundle(EYE2, Sublattice.full(2), Mat.zeros(2, 2), (0, 0))
    with pytest.raises(AmbientMismatch):
        pushforward(as_bundle(s), sub, EYE2)


def test_pull_push_identity_small():
    # f^* f_* L = direct sum of coset translates of L, exactly
    rng = random.Random(113)
    sub = Sublattice([[1, 0], [1, 2]])
    cov = cover_torus(EYE2, sub)
    lb = line_bundle(cov, Sublattice.full(2), rand_integral_symmetric(rng, cov.v), (F(1, 3), F(1, 7)))
    e = as_bundle(lb)
    round_trip = pullback(pushforward(e, sub, EYE2), sub)
    expected = []
    for delta in [(0, 0), (0, 1)]:
        shift = EYE2.v.mul_vec((F(delta[0]), F(delta[1])))
        expected.extend(translate(e, shift).summands)
    assert round_trip == as_bundle(expected)


# ---------------------------------------------------------------------------
# Translation
# ---------------------------------------------------------------------------


def test_translate_examples():
    s = line_bundle(LINE, Sublattice.full(1), Mat([[2]]), (F(1, 2),))
    out = translate(as_bundle(s), (F(1, 3),))
    assert out.summands[0].l == (F(-1, 6),)
    # zero vector and zero class act trivially
    assert translate(as_bundle(s), (0,)) == as_bundle(s)
    flat = line_bundle(LINE, Sublattice.full(1), Mat([[0]]), (F(1, 2),))
    assert translate(as_bundle(flat), (F(5, 7),)) == as_bundle(flat)


def test_translate_is_additive():
    rng = random.Random(127)
    for _ in range(10):
        g = rng.randint(1, 2)
        torus = rand_torus(rng, g)
        e = as_bundle([rand_line_bundle(rng, torus)])
        x = [rand_fraction(rng) for _ in range(g)]
        y = [rand_fraction(rng) for _ in range(g)]
        both = translate(translate(e, x), y)
        assert both == translate(e, [a + b for a, b in zip(x, y)])
        assert slope(both) == slope(e)


def test_translate_by_period_is_equivalent():
    rng = random.Random(131)
    for _ in range(10):
        torus = rand_torus(rng, 2)
        s = rand_line_bundle(rng, torus, lattice=Sublattice.full(2))
        lam = [rng.randint(-2, 2), rng.randint(-2, 2)]
        shift = torus.v.mul_vec((F(lam[0]), F(lam[1])))
        moved = translate(as_bundle(s), shift).summands[0]
        assert iso_pushforward(s, moved)
        gamma = Sublattice([[2, 0], [0, 2]])
        assert moduli_point(s, gamma, s.ns) == moduli_point(moved, gamma, s.ns)


# ---------------------------------------------------------------------------
# Slope and homogeneity
# ---------------------------------------------------------------------------


def test_slope_weighted_average():
    a = Mat.identity(2)
    b = Mat([[2, 0], [0, 4]])
    s1 = line_bundle(EYE2, Sublattice.full(2), a, (0, 0))
    s2 = line_bundle(EYE2, Sublattice([[2, 0], [0, 1]]), b, (0, 0))
    e = direct_sum(as_bundle(s1), as_bundle(s2))
    assert slope(e) == (a + b.scale(2)).scale(F(1, 3))
    with pytest.raises(EmptyBundle):
        slope(TropVectorBundle(EYE2, ()))


def test_homogeneity_predicates():
    zero = Mat.zeros(2, 2)
    h1 = line_bundle(EYE2, Sublattice.full(2), zero, (F(1, 2), 0))
    h2 = line_bundle(EYE2, Sublattice([[2, 0], [0, 1]]), zero, (0, 0))
    e_flat = as_bundle([h1, h2])
    assert is_homogeneous(e_flat) and is_semi_homogeneous(e_flat)
    k1 = line_bundle(EYE2, Sublattice.full(2), Mat.identity(2), (0, 0))
    k2 = line_bundle(EYE2, Sublattice.full(2), Mat.identity(2), (1, 1))
    e_same = as_bundle([k1, k2])
    assert not is_homogeneous(e_same) and is_semi_homogeneous(e_same)
    e_mixed = as_bundle([h1, k1])
    assert not is_homogeneous(e_mixed) and not is_semi_homogeneous(e_mixed)


# ---------------------------------------------------------------------------
# Equivalence, restriction and moduli coordinates
# ---------------------------------------------------------------------------


def test_restrict_line_bundle():
    s = line_bundle(EYE2, Sublattice.full(2), Mat.identity(2), (F(1, 2), F(1, 3)))
    fine = Sublattice([[2, 0], [0, 3]])
    r = restrict_line_bundle(s, fine)
    assert r.lattice == fine
    assert r.l == (1, 1)
    with pytest.raises(NotContained):
        restrict_line_bundle(r, Sublattice.full(2))


def test_iso_pushforward_one_dimensional():
    two = Sublattice([[2]])
    base = line_bundle(LINE, two, Mat([[0]]), (0,))
    off_by_one = line_bundle(LINE, two, Mat([[0]]), (1,))
    off_by_two = line_bundle(LINE, two, Mat([[0]]), (2,))
    # the twist lattice on 2Z (trivial class) is 2Z
    assert not iso_pushforward(base, off_by_one)
    assert iso_pushforward(base, off_by_two)
    assert iso_pushforward(base, base)


def test_iso_pushforward_errors():
    s1 = line_bundle(LINE, Sublattice([[2]]), Mat([[0]]), (0,))
    s2 = line_bundle(LINE, Sublattice.full(1), Mat([[0]]), (0,))
    with pytest.raises(LatticeMismatch):
        iso_pushforward(s1, s2)
    s3 = line_bundle(LINE, Sublattice([[2]]), Mat([[1]]), (0,))
    assert not iso_pushforward(s1, s3)


def test_equivalent_uses_common_cover():
    # summands on different covers with the same slope: equivalence goes
    # through the intersection cover
    a = line_bundle(EYE2, Sublattice([[2, 0], [0, 1]]), Mat.zeros(2, 2), (1, 0))
    b = line_bundle(EYE2, Sublattice([[1, 0], [0, 2]]), Mat.zeros(2, 2), (0, 0))
    inter = Sublattice([[2, 0], [0, 2]])
    assert equivalent(a, b) == equivalent(a, b, cover=inter)
    # reflexive and symmetric
    assert equivalent(a, a)
    assert equivalent(a, b) == equivalent(b, a)


@pytest.mark.parametrize(
    "cover", [Sublattice([[1, 0], [0, 1]]), Sublattice([[2, 0], [0, 1]])]
)
def test_restriction_to_a_cover_of_another_rank_is_rejected(cover):
    s = line_bundle(LINE, Sublattice.full(1), Mat([[1]]), (0,))
    with pytest.raises(AmbientMismatch):
        restrict_line_bundle(s, cover)
    t = line_bundle(EYE2, Sublattice.full(2), Mat.zeros(2, 2), (0, 0))
    with pytest.raises(AmbientMismatch):
        restrict_line_bundle(t, Sublattice([[1]]))


def test_moduli_point_one_dimensional():
    s = line_bundle(LINE, Sublattice.full(1), Mat([[0]]), (F(3, 2),))
    p = moduli_point(s, Sublattice.full(1), Mat([[0]]))
    assert p.coords == (F(1, 2),)


def test_moduli_point_matches_equivalence():
    rng = random.Random(137)
    gamma = Sublattice([[2, 0], [0, 2]])
    ns = Mat.identity(2)
    pool = [
        line_bundle(EYE2, Sublattice.full(2), ns, (a, b))
        for a in (0, F(1, 2), 1)
        for b in (0, F(1, 3))
    ]
    for s1 in pool:
        for s2 in pool:
            same = moduli_point(s1, gamma, ns) == moduli_point(s2, gamma, ns)
            assert same == equivalent(s1, s2, cover=gamma)


def test_moduli_point_errors():
    s = line_bundle(EYE2, Sublattice.full(2), Mat.identity(2), (0, 0))
    with pytest.raises(SlopeMismatch):
        moduli_point(s, Sublattice.full(2), Mat.zeros(2, 2))
    finer = line_bundle(EYE2, Sublattice([[2, 0], [0, 2]]), Mat.identity(2), (0, 0))
    with pytest.raises(NotCompatible):
        moduli_point(finer, Sublattice.full(2), Mat.identity(2))


def test_moduli_points_match_reduction_reference():
    # every point of a batch is the box representative, in the Hermite basis
    # of the twist lattice, of the covector restricted to gamma
    rng = random.Random(457)
    negative_fractional = 0
    for _ in range(40):
        g = rng.randint(1, 4)
        while True:
            v = rand_matrix(rng, g, max_den=3)
            ns = rand_r_symmetric(rng, v, max_den=2) if v.det() != 0 else Mat.zeros(g, g)
            if ns != Mat.zeros(g, g):
                break
        torus = TropTorus(v)
        covers = {integrality_lattice(ns) & rand_sublattice(rng, g, 2) for _ in range(3)}
        gamma = functools.reduce(operator.and_, covers) & rand_sublattice(rng, g, 3)
        if gamma.is_full():
            gamma = gamma.scaled(2)
        summands = [
            line_bundle(torus, cover, ns, [F(rng.randint(-40, 40), rng.randint(1, 7))
                                           for _ in range(g)])
            for cover in covers
            for _ in range(rng.randint(1, 4))
        ]
        rng.shuffle(summands)
        twist = QLattice(gamma.mat.T @ v.T @ extended_character_lattice(ns).basis)
        points = moduli_points(summands, gamma, ns)
        assert len(points) == len(summands)
        for s, p in zip(summands, points):
            restricted = tuple(s.l_value(b) for b in gamma.generators())
            assert p == ModuliPoint(torus, gamma, ns, reduce_mod_lattice(restricted, twist.basis))
            assert p == moduli_point(s, gamma, ns)
            assert all(type(x) is Fraction for x in p.coords)
            coords = twist.basis.solve(restricted)
            negative_fractional += any(c < 0 and c.denominator != 1 for c in coords)
    # floor and truncation differ only on these
    assert negative_fractional >= 20


def test_moduli_points_errors():
    ns = Mat.identity(2)
    gamma = Sublattice([[2, 0], [0, 2]])
    good = [line_bundle(EYE2, Sublattice.full(2), ns, (F(k, 3), -k)) for k in range(3)]
    other_slope = line_bundle(EYE2, Sublattice.full(2), Mat.zeros(2, 2), (0, 0))
    too_fine = line_bundle(EYE2, Sublattice([[4, 0], [0, 1]]), ns, (0, 0))
    other_torus = line_bundle(TropTorus(Mat([[2, 0], [0, 1]])), Sublattice.full(2), ns, (0, 0))
    other_rank = line_bundle(TropTorus(Mat.identity(3)), Sublattice.full(3), Mat.identity(3),
                             (0, 0, 0))
    assert moduli_points([], gamma, ns) == []
    for bad, error in [
        (other_slope, SlopeMismatch),
        (too_fine, NotCompatible),
        (other_torus, AmbientMismatch),
        (other_rank, AmbientMismatch),
    ]:
        for k in range(len(good) + 1):
            with pytest.raises(error):
                moduli_points(good[:k] + [bad] + good[k:], gamma, ns)
    for wrong in (Sublattice([[2]]), Sublattice([[2, 0, 0], [0, 2, 0], [0, 0, 1]])):
        with pytest.raises(AmbientMismatch):
            moduli_points(good, wrong, ns)
        with pytest.raises(AmbientMismatch):
            moduli_point(good[0], wrong, ns)


def test_sym_point():
    gamma = Sublattice.full(1)
    ns = Mat([[0]])
    p1 = moduli_point(line_bundle(LINE, gamma, ns, (F(3, 4),)), gamma, ns)
    p2 = moduli_point(line_bundle(LINE, gamma, ns, (F(1, 4),)), gamma, ns)
    assert sym_point([p1, p2]) == ((F(1, 4),), (F(3, 4),))
    assert sym_point([p2, p1]) == sym_point([p1, p2])
    assert sym_point([]) == ()
    other = ModuliPoint(LINE, gamma, Mat([[1]]), (F(0),))
    with pytest.raises(MixedClasses):
        sym_point([p1, other])


def test_bundle_operations_equal_public_construction():
    # tensor, pullback, pushforward, translate and restrict_line_bundle skip
    # the checks of the public TropLineBundle constructor on summands valid by
    # construction
    rng = random.Random(419)

    def rand_summand(torus):
        # an integral class, or a rational one on a cover where it is integral
        if rng.random() < 0.5:
            return rand_line_bundle(rng, torus, rand_sublattice(rng, torus.g, 2))
        ns = rand_r_symmetric(rng, torus.v, max_den=2)
        lattice = integrality_lattice(ns) & rand_sublattice(rng, torus.g, 2)
        return line_bundle(torus, lattice, ns, [rand_fraction(rng) for _ in range(torus.g)])

    for _ in range(8):
        g = rng.randint(2, 3)
        torus = rand_torus(rng, g)
        e1 = as_bundle([rand_summand(torus) for _ in range(2)])
        e2 = as_bundle(rand_summand(torus))
        sub = rand_sublattice(rng, g, 2)
        on_cover = as_bundle(rand_summand(cover_torus(torus, sub)))
        s = e1.summands[0]
        results = [
            *tensor(e1, e2).summands,
            *pullback(e1, sub).summands,
            *pushforward(on_cover, sub, torus).summands,
            *translate(e1, [rand_fraction(rng) for _ in range(g)]).summands,
            restrict_line_bundle(s, s.lattice & sub),
        ]
        for r in results:
            assert all(type(x) is Fraction for x in r.l)
            rebuilt = TropLineBundle(r.torus, r.lattice, r.ns, r.l)
            assert r == rebuilt and hash(r) == hash(rebuilt)
        # the bundles are built sorted without the checks of TropVectorBundle
        bundles = [
            direct_sum(e1, e2),
            tensor(e1, e2),
            pullback(e1, sub),
            pushforward(on_cover, sub, torus),
            translate(e1, [rand_fraction(rng) for _ in range(g)]),
        ]
        for b in bundles:
            assert type(b.summands) is tuple
            rebuilt = TropVectorBundle(b.torus, b.summands[::-1])
            assert b == rebuilt and hash(b) == hash(rebuilt)


def test_unchecked_bundles_keep_the_torus_check(reference_torus):
    # a multiplicative torus with the same valuation matrix is not a
    # tropical torus: the bundles built unchecked refuse it as the
    # constructor did
    trop = reference_torus.trop()
    sub = Sublattice([[2, 0], [0, 1]])
    zero = Mat.zeros(2, 2)
    on_cover = as_bundle(line_bundle(cover_torus(trop, sub), Sublattice.full(2), zero, (0, 0)))
    assert pushforward(on_cover, sub, trop).torus == trop
    with pytest.raises(NotExact):
        pushforward(on_cover, sub, reference_torus)
    rep = TropRepresentation((identity(1), identity(1)))
    assert bundle_from_rep(rep, trop).torus == trop
    with pytest.raises(NotExact):
        bundle_from_rep(rep, reference_torus)


# ---------------------------------------------------------------------------
# Integer forms against the Fraction formulas they replace
# ---------------------------------------------------------------------------


def test_integrality_check_matches_rational_product():
    # the constructor tests ns.num @ basis = 0 mod ns.den; InvalidClass must
    # be raised exactly when the rational product ns @ basis is not integral
    rng = random.Random(463)
    outcomes = set()
    for _ in range(100):
        g = rng.randint(1, 4)
        torus = rand_torus(rng, g)
        ns = rand_r_symmetric(rng, torus.v, max_den=3)
        lattice = rand_sublattice(rng, g, 4)
        if rng.random() < 0.4:
            lattice = integrality_lattice(ns) & lattice
        integral = (ns @ lattice.mat).is_integral()
        outcomes.add(integral)
        l = [rand_fraction(rng) for _ in range(g)]
        if integral:
            assert line_bundle(torus, lattice, ns, l).ns == ns
        else:
            with pytest.raises(InvalidClass):
                line_bundle(torus, lattice, ns, l)
    assert outcomes == {True, False}


def ref_l_value(s, x):
    """The covector at lattice coordinates x, as a Fraction dot product."""
    return sum((a * b for a, b in zip(s.l, s.lattice.coordinates(x))), F(0))


def ref_char_value(torus, x, m):
    """<x, m>: the character m at lattice coordinates x, in Fractions."""
    return sum((a * b for a, b in zip(torus.v.mul_vec(x), m)), F(0))


def ref_coset_reps(lat):
    """The Hermite box reduced by the general rational solver."""
    box = itertools.product(*(range(row[i]) for i, row in enumerate(lat.basis)))
    return sorted(tuple(int(x) for x in reduce_mod_lattice(p, lat.mat)) for p in box)


def ref_tensor(e1, e2):
    torus, out = e1.torus, []
    for s1 in e1.summands:
        for s2 in e2.summands:
            inter = s1.lattice & s2.lattice
            basis = inter.generators()
            base = [ref_l_value(s1, b) + ref_l_value(s2, b) for b in basis]
            for delta in ref_coset_reps(s1.lattice + s2.lattice):
                m = s2.ns.mul_vec(delta)
                l = [v - ref_char_value(torus, b, m) for v, b in zip(base, basis)]
                out.append(TropLineBundle(torus, inter, s1.ns + s2.ns, l))
    return TropVectorBundle(torus, tuple(out))


def ref_pullback(e, sub):
    torus, out = e.torus, []
    target = TropTorus(torus.v @ sub.mat)
    for s in e.summands:
        inter = s.lattice & sub
        new_lat = Sublattice.from_generators([sub.coordinates(b) for b in inter.generators()])
        cols = [sub.mat.mul_vec(c) for c in new_lat.generators()]
        for delta in ref_coset_reps(s.lattice + sub):
            m = s.ns.mul_vec(delta)
            l = [ref_l_value(s, c) - ref_char_value(torus, c, m) for c in cols]
            out.append(TropLineBundle(target, new_lat, s.ns @ sub.mat, l))
    return TropVectorBundle(target, tuple(out))


def ref_pushforward(e, sub, parent):
    out = []
    for s in e.summands:
        lat = Sublattice.from_generators([sub.mat.mul_vec(c) for c in s.lattice.generators()])
        l = [ref_l_value(s, sub.mat.solve(col)) for col in lat.generators()]
        out.append(TropLineBundle(parent, lat, s.ns @ sub.mat.inv(), l))
    return TropVectorBundle(parent, tuple(out))


def ref_translate(e, x):
    torus, out = e.torus, []
    lam = torus.v.solve(x)
    for s in e.summands:
        m = s.ns.mul_vec(lam)
        l = [v - ref_char_value(torus, b, m) for v, b in zip(s.l, s.lattice.generators())]
        out.append(TropLineBundle(torus, s.lattice, s.ns, l))
    return TropVectorBundle(torus, tuple(out))


def ref_equivalent(s1, s2, cover=None):
    """Equal classes, and the covector difference on the common cover in the
    lattice of integral characters and class images, by the rational solver."""
    if cover is None:
        cover = s1.lattice & s2.lattice
    if s1.ns != s2.ns:
        return False
    diff = [ref_l_value(s1, b) - ref_l_value(s2, b) for b in cover.generators()]
    basis = cover.mat.T @ s1.torus.v.T @ extended_character_lattice(s1.ns).basis
    return not any(reduce_mod_lattice(diff, basis))


def rand_covector(rng, g):
    """Covector values over mixed denominators, some of them and some numerators large."""
    dens = (1, 2, 3, 4, 7, 12, 2**61 - 1, 10**24 + 7)
    nums = (rng.randint(-9, 9), rng.randint(-(10**30), 10**30))
    return [F(rng.choice(nums), rng.choice(dens)) for _ in range(g)]


def rand_rational_summand(rng, torus):
    """A summand with a nonzero rational class on a cover where it is integral."""
    while True:
        ns = rand_r_symmetric(rng, torus.v, max_den=3)
        if ns != Mat.zeros(torus.g, torus.g):
            break
    lattice = integrality_lattice(ns) & rand_sublattice(rng, torus.g, 2)
    return line_bundle(torus, lattice, ns, rand_covector(rng, torus.g))


def assert_exact_types(e):
    for s in e.summands:
        assert all(type(x) is Fraction for x in s.l)
        assert type(s.lattice.basis) is tuple
        basis = s.lattice.basis
        assert all(type(row) is tuple and all(type(x) is int for x in row) for row in basis)


def test_bundle_operations_match_fraction_reference():
    # random tori with rational periods, nonzero rational classes on covers
    # where they are integral, and covectors over mixed and large
    # denominators, for g = 1..4; results are compared with their types, since
    # Fraction(1) == 1, and equivalence against its rational reference
    class_dens, equivalences = set(), set()
    for seed in range(467, 495):
        rng = random.Random(seed)
        g = 1 + seed % 4
        while True:
            v = rand_matrix(rng, g, max_den=3)
            if v.det() != 0 and v != Mat.identity(g):
                break
        torus = TropTorus(v)
        e1 = as_bundle([rand_rational_summand(rng, torus) for _ in range(2)])
        e2 = as_bundle(rand_rational_summand(rng, torus))
        sub = rand_sublattice(rng, g, 2)
        on_cover = as_bundle(rand_rational_summand(rng, cover_torus(torus, sub)))
        x = rand_covector(rng, g)
        s = e1.summands[0]
        class_dens.update(t.ns.den for t in e1.summands + e2.summands + on_cover.summands)
        cover = s.lattice & rand_sublattice(rng, g, 2)
        pairs = [
            (tensor(e1, e2), ref_tensor(e1, e2)),
            (pullback(e1, sub), ref_pullback(e1, sub)),
            (pushforward(on_cover, sub, torus), ref_pushforward(on_cover, sub, torus)),
            (translate(e1, x), ref_translate(e1, x)),
        ]
        for result, expected in pairs:
            assert typed(result) == typed(expected)
            assert_exact_types(result)
        expected = [ref_l_value(s, b) for b in cover.generators()]
        restricted = restrict_line_bundle(s, cover)
        assert typed(restricted) == typed(TropLineBundle(torus, cover, s.ns, expected))
        assert_exact_types(as_bundle(restricted))
        for b in cover.generators():
            q = [F(c, rng.randint(1, 4)) for c in b]
            assert s.l_value(q) == ref_l_value(s, q)
        # s's covector extended to another cover plus an integral character or
        # a class image is equivalent to s; one value moved by 1/3 may not be
        lat = integrality_lattice(s.ns) & rand_sublattice(rng, g, 2)
        k = [rng.randint(-3, 3) for _ in range(g)]
        shift = extended_character_lattice(s.ns).basis.mul_vec(k)
        l = [ref_l_value(s, b) + ref_char_value(torus, b, shift) for b in lat.generators()]
        twin = TropLineBundle(torus, lat, s.ns, l)
        moved = TropLineBundle(torus, lat, s.ns, [l[0] + F(1, 3), *l[1:]])
        finer = s.lattice & lat & rand_sublattice(rng, g, 2)
        for t, c in ((twin, None), (moved, None), (twin, finer), (e2.summands[0], None)):
            same = ref_equivalent(s, t, c)
            assert equivalent(s, t, c) is same
            equivalences.add(same)
    assert max(class_dens) > 1 and equivalences == {True, False}


def test_bundle_operations_read_neither_l_value_nor_the_public_lattice_constructor(monkeypatch):
    # the ops read each summand's cached integer row at integer points and
    # build their lattices through from_generators: a return to the Fraction
    # evaluator or to the checked Sublattice(...) fails here
    rng = random.Random(499)
    torus = rand_torus(rng, 3)
    e1 = as_bundle([rand_rational_summand(rng, torus) for _ in range(2)])
    e2 = as_bundle(rand_rational_summand(rng, torus))
    sub = Sublattice([[2, 0, 0], [1, 2, 0], [0, 1, 1]])
    on_cover = as_bundle(rand_rational_summand(rng, cover_torus(torus, sub)))
    s = e1.summands[0]
    cover = s.lattice & sub
    calls = []
    for cls, name in ((TropLineBundle, "l_value"), (Sublattice, "__init__")):
        def spy(*args, _original=getattr(cls, name), _name=f"{cls.__name__}.{name}", **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(cls, name, spy)
    results = [
        tensor(e1, e2),
        pullback(e1, sub),
        pushforward(on_cover, sub, torus),
        translate(e1, [F(1, 2), F(-2, 3), 1]),
        as_bundle(restrict_line_bundle(s, cover)),
    ]
    assert all(r.summands for r in results)
    assert calls == []


E_FULL = as_bundle(line_bundle(EYE2, Sublattice.full(2), Mat.identity(2), (0, 0)))
S_FULL = E_FULL.summands[0]
ROWS = [[1, 0], [0, 1]]


@pytest.mark.parametrize(
    "op, args",
    [
        pytest.param(pullback, (E_FULL, ROWS), id="pullback-rows"),
        pytest.param(pullback, (E_FULL, None), id="pullback-none"),
        pytest.param(pullback, (S_FULL, Sublattice.full(2)), id="pullback-summand"),
        pytest.param(pushforward, (E_FULL, ROWS, EYE2), id="pushforward-rows"),
        pytest.param(pushforward, (ROWS, Sublattice.full(2), EYE2), id="pushforward-rows-bundle"),
        pytest.param(tensor, (E_FULL, 5), id="tensor-int"),
        pytest.param(tensor, (E_FULL, S_FULL), id="tensor-summand"),
        pytest.param(tensor, (None, E_FULL), id="tensor-none"),
        pytest.param(direct_sum, (E_FULL, S_FULL), id="sum-summand"),
        pytest.param(translate, (E_FULL, 5), id="translate-int"),
        pytest.param(translate, (S_FULL, (0, 0)), id="translate-summand"),
        pytest.param(equivalent, (S_FULL, 5), id="equivalent-int"),
        pytest.param(equivalent, (E_FULL, S_FULL), id="equivalent-bundle"),
        pytest.param(equivalent, (S_FULL, S_FULL, ROWS), id="equivalent-cover-rows"),
        pytest.param(restrict_line_bundle, (S_FULL, ROWS), id="restrict-rows"),
        pytest.param(restrict_line_bundle, (E_FULL, Sublattice.full(2)), id="restrict-bundle"),
        pytest.param(iso_pushforward, (S_FULL, 5), id="iso-pushforward-int"),
    ],
)
def test_bundle_operations_reject_arguments_of_the_wrong_type(op, args):
    # each used to escape as AttributeError or TypeError
    with pytest.raises(NotExact):
        op(*args)


@settings(derandomize=True, deadline=None, max_examples=150, database=None)
@given(hermite_bases(), st.data())
def test_l_value_matches_the_reference_on_hermite_bases(rows, data):
    # the covector's cached extension l adj(B) / (m det B) against the
    # Fraction dot product with the coordinates, at rational points, integer
    # points and lattice points, and against Bareiss's coordinates
    lat = Sublattice(rows)
    g = len(rows)
    big = st.integers(-(2**72), 2**72)
    fractions = st.builds(F, big, st.integers(1, 12) | st.integers(2**64, 2**66))

    def vector(entries):
        return tuple(data.draw(st.lists(entries, min_size=g, max_size=g)))

    s = TropLineBundle(TropTorus(Mat.identity(g)), lat, Mat.zeros(g, g), vector(fractions))
    k = vector(big)
    points = [vector(fractions), vector(big), tuple(sum(map(operator.mul, r, k)) for r in rows)]
    for x in points:
        value = s.l_value(x)
        assert value == ref_l_value(s, x)
        assert value == sum((a * c for a, c in zip(s.l, lat.mat.solve(x))), F(0))
    for wrong in (points[0] + (1,), points[0][:-1]):
        with pytest.raises(DimensionMismatch):
            s.l_value(wrong)


@pytest.mark.parametrize("bad", [2.0, True, "1/2"], ids=["float", "bool", "string"])
def test_l_value_rejects_inexact_entries(bad):
    # a float used to escape as a bare TypeError, and a bool was read as an int
    s = line_bundle(EYE2, Sublattice([[2, 0], [1, 3]]), Mat.zeros(2, 2), (F(1, 2), F(1, 3)))
    with pytest.raises(NotExact):
        s.l_value((bad, 1))


@pytest.mark.parametrize("sub", [Sublattice([[2]]), Sublattice([[1, 0, 0], [0, 2, 0], [0, 0, 1]])])
def test_cover_of_another_rank_is_rejected(sub):
    with pytest.raises(AmbientMismatch):
        cover_torus(EYE2, sub)
    e = as_bundle(line_bundle(EYE2, Sublattice.full(2), Mat.identity(2), (0, 0)))
    with pytest.raises(AmbientMismatch):
        pullback(e, sub)
    with pytest.raises(AmbientMismatch):
        pushforward(e, sub, EYE2)
