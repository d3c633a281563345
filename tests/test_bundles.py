import functools
import itertools
import operator
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tropabel.bundles import (
    _canonical_order,
    ModuliPoint,
    TropLineBundle,
    TropVectorBundle,
    cover_torus,
    direct_sum,
    equivalent,
    is_homogeneous,
    is_semi_homogeneous,
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
    MixedClasses,
    NotCompatible,
    NotContained,
    NotExact,
    SlopeMismatch,
)
from tropabel.lattices import QLattice, Sublattice
from tropabel.linalg import Mat
from tropabel.rationals import rat
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
    ref_canonical_order,
    ref_iso_pushforward,
    ref_l_value,
    ref_mul_vec,
    ref_scaled,
    ref_solve,
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
    return TropLineBundle(torus, lattice, ns, l)


# ---------------------------------------------------------------------------
# Validation and canonical form
# ---------------------------------------------------------------------------


def test_summand_validation():
    with pytest.raises(InvalidClass):
        TropLineBundle(EYE2, Sublattice.full(2), Mat([[0, 1], [0, 0]]), (0, 0))
    with pytest.raises(InvalidClass):
        # half-integral class is not integral on the full lattice
        TropLineBundle(EYE2, Sublattice.full(2), Mat([[F(1, 2), 0], [0, 1]]), (0, 0))
    # but it is integral on the right cover
    ok = TropLineBundle(
        EYE2, Sublattice([[2, 0], [0, 1]]), Mat([[F(1, 2), 0], [0, 1]]), (0, 0)
    )
    assert ok.rank == 2
    with pytest.raises(AmbientMismatch):
        TropLineBundle(EYE2, Sublattice.full(2), Mat.identity(2), (0,))
    with pytest.raises(AmbientMismatch):
        TropLineBundle(EYE2, Sublattice.full(1), Mat.identity(2), (0, 0))


def test_summand_covector_reads_n_and_p_over_q_only():
    ok = TropLineBundle(LINE, Sublattice.full(1), Mat([[0]]), ["-6/4"])
    assert ok.l == (F(-3, 2),)
    for text in ("1.5", "1e3", " 1/2 ", "1_000"):
        with pytest.raises(ValueError):
            TropLineBundle(LINE, Sublattice.full(1), Mat([[0]]), [text])
    for value in (True, 0.5):
        with pytest.raises(TypeError):
            TropLineBundle(LINE, Sublattice.full(1), Mat([[0]]), [value])


def test_bundle_canonical_order():
    s1 = TropLineBundle(EYE2, Sublattice.full(2), Mat.identity(2), (1, 0))
    s2 = TropLineBundle(EYE2, Sublattice.full(2), Mat.identity(2), (0, 1))
    assert TropVectorBundle(EYE2, [s1, s2]) == TropVectorBundle(EYE2, [s2, s1])
    assert TropVectorBundle(EYE2, [s1, s2]).rank == 2


def test_direct_sum():
    s1 = TropLineBundle(EYE2, Sublattice.full(2), Mat.identity(2), (1, 0))
    s2 = TropLineBundle(EYE2, Sublattice([[2, 0], [0, 1]]), Mat.zeros(2, 2), (0, 0))
    e = direct_sum(TropVectorBundle(EYE2, (s1,)), TropVectorBundle(EYE2, (s2,)))
    assert e.rank == 3
    other = TropTorus(Mat([[1, 0], [1, 2]]))
    s3 = TropLineBundle(other, Sublattice.full(2), Mat.zeros(2, 2), (0, 0))
    with pytest.raises(AmbientMismatch):
        direct_sum(TropVectorBundle(EYE2, (s1,)), TropVectorBundle(other, (s3,)))


def extension_value(s, x):
    """The summand's cached Q-linear extension of its covector, the integer row
    ``_l_ext`` over its denominator, at the point x."""
    ext, den = s._l_ext
    return F(sum(map(operator.mul, ext, x))) / den


def test_l_value_is_linear_extension():
    s = TropLineBundle(EYE2, Sublattice([[2, 0], [0, 2]]), Mat.identity(2), (1, F(1, 3)))
    # basis vectors (2,0), (0,2) carry the stored values
    assert extension_value(s, (2, 0)) == 1
    assert extension_value(s, (0, 2)) == F(1, 3)
    assert extension_value(s, (1, 1)) == F(1, 2) + F(1, 6)
    assert extension_value(s, (0, 0)) == 0


# ---------------------------------------------------------------------------
# Tensor
# ---------------------------------------------------------------------------


def test_tensor_full_lattices():
    s1 = TropLineBundle(EYE2, Sublattice.full(2), Mat.identity(2), (F(1, 2), F(1, 3)))
    s2 = TropLineBundle(EYE2, Sublattice.full(2), Mat.identity(2), (0, F(1, 4)))
    e = tensor(TropVectorBundle(EYE2, (s1,)), TropVectorBundle(EYE2, (s2,)))
    assert len(e.summands) == 1
    out = e.summands[0]
    assert out.ns == Mat.identity(2).scale(2)
    assert out.l == (F(1, 2), F(7, 12))
    assert out.lattice == Sublattice.full(2)


def test_tensor_coset_components():
    two = Sublattice([[2, 0], [0, 2]])
    s1 = TropLineBundle(EYE2, two, Mat.identity(2), (1, 0))
    s2 = TropLineBundle(EYE2, two, Mat.identity(2), (0, 1))
    e = tensor(TropVectorBundle(EYE2, (s1,)), TropVectorBundle(EYE2, (s2,)))
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
        e1, e2 = (
            TropVectorBundle(torus, [rand_line_bundle(rng, torus) for _ in range(rng.randint(1, 2))])
            for _ in range(2)
        )
        t = tensor(e1, e2)
        assert t.rank == e1.rank * e2.rank
        assert slope(t) == slope(e1) + slope(e2)


def test_tensor_same_class_commutes():
    two = Sublattice([[2, 0], [0, 1]])
    s1 = TropLineBundle(EYE2, two, Mat.identity(2), (F(1, 3), 0))
    s2 = TropLineBundle(EYE2, Sublattice.full(2), Mat.identity(2), (0, F(1, 5)))
    e1, e2 = TropVectorBundle(EYE2, (s1,)), TropVectorBundle(EYE2, (s2,))
    assert tensor(e1, e2) == tensor(e2, e1)


# ---------------------------------------------------------------------------
# Pullback and pushforward
# ---------------------------------------------------------------------------


def test_pullback_trivial_cover():
    rng = random.Random(107)
    torus = rand_torus(rng, 2)
    e = TropVectorBundle(torus, [rand_line_bundle(rng, torus) for _ in range(2)])
    assert pullback(e, Sublattice.full(2)) == e


def test_pullback_splits_pushed_summand():
    # a summand on 2Z x Z pulled back along the same cover splits into two
    # full-lattice components
    sub = Sublattice([[2, 0], [0, 1]])
    s = TropLineBundle(EYE2, sub, Mat.zeros(2, 2), (F(1, 2), F(1, 3)))
    e = pullback(TropVectorBundle(EYE2, (s,)), sub)
    assert e.torus == cover_torus(EYE2, sub)
    assert len(e.summands) == 2
    assert all(x.lattice == Sublattice.full(2) for x in e.summands)
    assert e.rank == 2


def test_pullback_preserves_rank():
    rng = random.Random(109)
    for _ in range(15):
        g = rng.randint(1, 2)
        torus = rand_torus(rng, g)
        summands = [rand_line_bundle(rng, torus) for _ in range(rng.randint(1, 2))]
        e = TropVectorBundle(torus, summands)
        sub = rand_sublattice(rng, g)
        assert pullback(e, sub).rank == e.rank
        # built unchecked, the cover torus equals the checked one
        assert cover_torus(torus, sub) == TropTorus(torus.v @ sub.mat)


def test_pushforward_rank_and_round_trip():
    sub = Sublattice([[2, 0], [0, 1]])
    cov = cover_torus(EYE2, sub)
    s = TropLineBundle(cov, Sublattice.full(2), Mat.zeros(2, 2), (F(1, 5), F(2, 5)))
    e = pushforward(TropVectorBundle(cov, (s,)), sub, EYE2)
    assert e.torus == EYE2
    assert e.rank == 2 * TropVectorBundle(cov, (s,)).rank
    assert e.summands[0].lattice == sub
    # pulling straight back recovers the sum of coset translates; here the
    # class is zero so both components coincide with the original summand
    back = pullback(e, sub)
    assert back.rank == 2
    assert all(x.l == s.l for x in back.summands)


def test_pushforward_wrong_cover_rejected():
    sub = Sublattice([[2, 0], [0, 1]])
    s = TropLineBundle(EYE2, Sublattice.full(2), Mat.zeros(2, 2), (0, 0))
    with pytest.raises(AmbientMismatch):
        pushforward(TropVectorBundle(EYE2, (s,)), sub, EYE2)


def test_pull_push_identity_small():
    # f^* f_* L = direct sum of coset translates of L, exactly
    rng = random.Random(113)
    sub = Sublattice([[1, 0], [1, 2]])
    cov = cover_torus(EYE2, sub)
    ns = rand_integral_symmetric(rng, cov.v)
    lb = TropLineBundle(cov, Sublattice.full(2), ns, (F(1, 3), F(1, 7)))
    e = TropVectorBundle(cov, (lb,))
    round_trip = pullback(pushforward(e, sub, EYE2), sub)
    expected = []
    for delta in [(0, 0), (0, 1)]:
        shift = ref_mul_vec(EYE2.v, (F(delta[0]), F(delta[1])))
        expected.extend(translate(e, shift).summands)
    assert round_trip == TropVectorBundle(cov, expected)


# ---------------------------------------------------------------------------
# Translation
# ---------------------------------------------------------------------------


def test_translate_examples():
    s = TropLineBundle(LINE, Sublattice.full(1), Mat([[2]]), (F(1, 2),))
    out = translate(TropVectorBundle(LINE, (s,)), (F(1, 3),))
    assert out.summands[0].l == (F(-1, 6),)
    # zero vector and zero class act trivially
    assert translate(TropVectorBundle(LINE, (s,)), (0,)) == TropVectorBundle(LINE, (s,))
    flat = TropLineBundle(LINE, Sublattice.full(1), Mat([[0]]), (F(1, 2),))
    assert translate(TropVectorBundle(LINE, (flat,)), (F(5, 7),)) == TropVectorBundle(LINE, (flat,))


def test_translate_is_additive():
    rng = random.Random(127)
    for _ in range(10):
        g = rng.randint(1, 2)
        torus = rand_torus(rng, g)
        e = TropVectorBundle(torus, [rand_line_bundle(rng, torus)])
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
        shift = ref_mul_vec(torus.v, (F(lam[0]), F(lam[1])))
        moved = translate(TropVectorBundle(torus, (s,)), shift).summands[0]
        assert equivalent(s, moved, s.lattice)
        gamma = Sublattice([[2, 0], [0, 2]])
        assert moduli_point(s, gamma, s.ns) == moduli_point(moved, gamma, s.ns)


# ---------------------------------------------------------------------------
# Slope and homogeneity
# ---------------------------------------------------------------------------


def test_slope_weighted_average():
    a = Mat.identity(2)
    b = Mat([[2, 0], [0, 4]])
    s1 = TropLineBundle(EYE2, Sublattice.full(2), a, (0, 0))
    s2 = TropLineBundle(EYE2, Sublattice([[2, 0], [0, 1]]), b, (0, 0))
    e = direct_sum(TropVectorBundle(EYE2, (s1,)), TropVectorBundle(EYE2, (s2,)))
    assert slope(e) == (a + b.scale(2)).scale(F(1, 3))
    with pytest.raises(EmptyBundle):
        slope(TropVectorBundle(EYE2, ()))


def test_homogeneity_predicates():
    zero = Mat.zeros(2, 2)
    h1 = TropLineBundle(EYE2, Sublattice.full(2), zero, (F(1, 2), 0))
    h2 = TropLineBundle(EYE2, Sublattice([[2, 0], [0, 1]]), zero, (0, 0))
    e_flat = TropVectorBundle(EYE2, [h1, h2])
    assert is_homogeneous(e_flat) and is_semi_homogeneous(e_flat)
    k1 = TropLineBundle(EYE2, Sublattice.full(2), Mat.identity(2), (0, 0))
    k2 = TropLineBundle(EYE2, Sublattice.full(2), Mat.identity(2), (1, 1))
    e_same = TropVectorBundle(EYE2, [k1, k2])
    assert not is_homogeneous(e_same) and is_semi_homogeneous(e_same)
    e_mixed = TropVectorBundle(EYE2, [h1, k1])
    assert not is_homogeneous(e_mixed) and not is_semi_homogeneous(e_mixed)


# ---------------------------------------------------------------------------
# Equivalence, restriction and moduli coordinates
# ---------------------------------------------------------------------------


def test_restrict_line_bundle():
    s = TropLineBundle(EYE2, Sublattice.full(2), Mat.identity(2), (F(1, 2), F(1, 3)))
    fine = Sublattice([[2, 0], [0, 3]])
    r = restrict_line_bundle(s, fine)
    assert r.lattice == fine
    assert r.l == (1, 1)
    with pytest.raises(NotContained):
        restrict_line_bundle(r, Sublattice.full(2))


def test_equivalent_on_one_cover_one_dimensional():
    two = Sublattice([[2]])
    base = TropLineBundle(LINE, two, Mat([[0]]), (0,))
    off_by_one = TropLineBundle(LINE, two, Mat([[0]]), (1,))
    off_by_two = TropLineBundle(LINE, two, Mat([[0]]), (2,))
    # the twist lattice on 2Z (trivial class) is 2Z
    assert not equivalent(base, off_by_one, two)
    assert equivalent(base, off_by_two, two)
    assert equivalent(base, base, two)
    # summands of different classes are not equivalent
    assert not equivalent(base, TropLineBundle(LINE, two, Mat([[1]]), (0,)), two)


def test_equivalent_uses_common_cover():
    # summands on different covers with the same slope: equivalence goes
    # through the intersection cover
    a = TropLineBundle(EYE2, Sublattice([[2, 0], [0, 1]]), Mat.zeros(2, 2), (1, 0))
    b = TropLineBundle(EYE2, Sublattice([[1, 0], [0, 2]]), Mat.zeros(2, 2), (0, 0))
    inter = Sublattice([[2, 0], [0, 2]])
    assert equivalent(a, b) == equivalent(a, b, cover=inter)
    # reflexive and symmetric
    assert equivalent(a, a)
    assert equivalent(a, b) == equivalent(b, a)


@pytest.mark.parametrize(
    "cover", [Sublattice([[1, 0], [0, 1]]), Sublattice([[2, 0], [0, 1]])]
)
def test_restriction_to_a_cover_of_another_rank_is_rejected(cover):
    s = TropLineBundle(LINE, Sublattice.full(1), Mat([[1]]), (0,))
    with pytest.raises(AmbientMismatch):
        restrict_line_bundle(s, cover)
    t = TropLineBundle(EYE2, Sublattice.full(2), Mat.zeros(2, 2), (0, 0))
    with pytest.raises(AmbientMismatch):
        restrict_line_bundle(t, Sublattice([[1]]))


def test_moduli_point_one_dimensional():
    s = TropLineBundle(LINE, Sublattice.full(1), Mat([[0]]), (F(3, 2),))
    p = moduli_point(s, Sublattice.full(1), Mat([[0]]))
    assert p.coords == (F(1, 2),)


def test_moduli_point_matches_equivalence():
    rng = random.Random(137)
    gamma = Sublattice([[2, 0], [0, 2]])
    ns = Mat.identity(2)
    pool = [
        TropLineBundle(EYE2, Sublattice.full(2), ns, (a, b))
        for a in (0, F(1, 2), 1)
        for b in (0, F(1, 3))
    ]
    for s1 in pool:
        for s2 in pool:
            same = moduli_point(s1, gamma, ns) == moduli_point(s2, gamma, ns)
            assert same == equivalent(s1, s2, cover=gamma)


def test_moduli_point_errors():
    s = TropLineBundle(EYE2, Sublattice.full(2), Mat.identity(2), (0, 0))
    with pytest.raises(SlopeMismatch):
        moduli_point(s, Sublattice.full(2), Mat.zeros(2, 2))
    finer = TropLineBundle(EYE2, Sublattice([[2, 0], [0, 2]]), Mat.identity(2), (0, 0))
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
        if gamma.index == 1:
            gamma = ref_scaled(gamma, 2)
        summands = [
            TropLineBundle(torus, cover, ns, [F(rng.randint(-40, 40), rng.randint(1, 7))
                                           for _ in range(g)])
            for cover in covers
            for _ in range(rng.randint(1, 4))
        ]
        rng.shuffle(summands)
        twist = QLattice(gamma.mat.T @ v.T @ extended_character_lattice(ns).basis)
        points = moduli_points(summands, gamma, ns)
        assert len(points) == len(summands)
        for s, p in zip(summands, points):
            restricted = tuple(ref_l_value(s, b) for b in gamma.generators())
            assert p == ModuliPoint(torus, gamma, ns, reduce_mod_lattice(restricted, twist.basis))
            assert p == moduli_point(s, gamma, ns)
            assert all(type(x) is Fraction for x in p.coords)
            coords = ref_solve(twist.basis, restricted)
            negative_fractional += any(c < 0 and c.denominator != 1 for c in coords)
    # floor and truncation differ only on these
    assert negative_fractional >= 20


def test_moduli_points_errors():
    ns = Mat.identity(2)
    gamma = Sublattice([[2, 0], [0, 2]])
    good = [TropLineBundle(EYE2, Sublattice.full(2), ns, (F(k, 3), -k)) for k in range(3)]
    other_slope = TropLineBundle(EYE2, Sublattice.full(2), Mat.zeros(2, 2), (0, 0))
    too_fine = TropLineBundle(EYE2, Sublattice([[4, 0], [0, 1]]), ns, (0, 0))
    other_torus = TropLineBundle(TropTorus(Mat([[2, 0], [0, 1]])), Sublattice.full(2), ns, (0, 0))
    other_rank = TropLineBundle(TropTorus(Mat.identity(3)), Sublattice.full(3), Mat.identity(3),
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
    p1 = moduli_point(TropLineBundle(LINE, gamma, ns, (F(3, 4),)), gamma, ns)
    p2 = moduli_point(TropLineBundle(LINE, gamma, ns, (F(1, 4),)), gamma, ns)
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
        return TropLineBundle(torus, lattice, ns, [rand_fraction(rng) for _ in range(torus.g)])

    for _ in range(8):
        g = rng.randint(2, 3)
        torus = rand_torus(rng, g)
        e1 = TropVectorBundle(torus, [rand_summand(torus) for _ in range(2)])
        e2 = TropVectorBundle(torus, (rand_summand(torus),))
        sub = rand_sublattice(rng, g, 2)
        cov = cover_torus(torus, sub)
        on_cover = TropVectorBundle(cov, (rand_summand(cov),))
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
    cov = cover_torus(trop, sub)
    on_cover = TropVectorBundle(cov, (TropLineBundle(cov, Sublattice.full(2), zero, (0, 0)),))
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
        integral = (ns @ lattice.mat).den == 1
        outcomes.add(integral)
        l = [rand_fraction(rng) for _ in range(g)]
        if integral:
            assert TropLineBundle(torus, lattice, ns, l).ns == ns
        else:
            with pytest.raises(InvalidClass):
                TropLineBundle(torus, lattice, ns, l)
    assert outcomes == {True, False}


def ref_char_value(torus, x, m):
    """<x, m>: the character m at lattice coordinates x, in Fractions."""
    return sum((a * b for a, b in zip(ref_mul_vec(torus.v, x), m)), F(0))


def ref_coset_reps(lat):
    """The Hermite box reduced by the general rational solver."""
    box = itertools.product(*(range(row[i]) for i, row in enumerate(lat.basis)))
    return sorted(tuple(int(x) for x in reduce_mod_lattice(p, lat.mat)) for p in box)


def ref_sum(a, b):
    """The lattice a + b, spanned by the generators of both."""
    return Sublattice.from_generators(a.generators() + b.generators())


def ref_tensor(e1, e2):
    torus, out = e1.torus, []
    for s1 in e1.summands:
        for s2 in e2.summands:
            inter = s1.lattice & s2.lattice
            basis = inter.generators()
            base = [ref_l_value(s1, b) + ref_l_value(s2, b) for b in basis]
            for delta in ref_coset_reps(ref_sum(s1.lattice, s2.lattice)):
                m = ref_mul_vec(s2.ns, delta)
                l = [v - ref_char_value(torus, b, m) for v, b in zip(base, basis)]
                out.append(TropLineBundle(torus, inter, s1.ns + s2.ns, l))
    return TropVectorBundle(torus, tuple(out))


def ref_pullback(e, sub):
    torus, out = e.torus, []
    target = TropTorus(torus.v @ sub.mat)
    for s in e.summands:
        inter = s.lattice & sub
        new_lat = Sublattice.from_generators([sub.coordinates(b) for b in inter.generators()])
        cols = [ref_mul_vec(sub.mat, c) for c in new_lat.generators()]
        for delta in ref_coset_reps(ref_sum(s.lattice, sub)):
            m = ref_mul_vec(s.ns, delta)
            l = [ref_l_value(s, c) - ref_char_value(torus, c, m) for c in cols]
            out.append(TropLineBundle(target, new_lat, s.ns @ sub.mat, l))
    return TropVectorBundle(target, tuple(out))


def ref_pushforward(e, sub, parent):
    out = []
    for s in e.summands:
        lat = Sublattice.from_generators([ref_mul_vec(sub.mat, c) for c in s.lattice.generators()])
        l = [ref_l_value(s, ref_solve(sub.mat, col)) for col in lat.generators()]
        out.append(TropLineBundle(parent, lat, s.ns @ sub.mat.inv(), l))
    return TropVectorBundle(parent, tuple(out))


def ref_translate(e, x):
    torus, out = e.torus, []
    lam = ref_solve(torus.v, x)
    for s in e.summands:
        m = ref_mul_vec(s.ns, lam)
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
    return TropLineBundle(torus, lattice, ns, rand_covector(rng, torus.g))


def rand_rational_torus(rng, g):
    """A torus whose period matrix has rational entries, of either sign of determinant."""
    while True:
        v = Mat([[F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(g)] for _ in range(g)])
        if v.det() != 0:
            return TropTorus(v)


def rand_point(rng, g):
    """A point whose entries are ints, Fractions and "p/q" strings."""
    kinds = (
        lambda: rng.randint(-5, 5), lambda: rand_fraction(rng), lambda: str(rand_fraction(rng))
    )
    return [rng.choice(kinds)() for _ in range(g)]


def test_translate_matches_the_solve_reference():
    # the point solved as one integer column against the Fraction path of
    # ref_solve, on rational period matrices of g = 1..5
    rng = random.Random(613)
    signs = set()
    for g in range(1, 6):
        for _ in range(8):
            torus = rand_rational_torus(rng, g)
            signs.add(torus.v.det() > 0)
            e = TropVectorBundle(torus, [rand_rational_summand(rng, torus) for _ in range(2)])
            x = rand_point(rng, g)
            assert translate(e, x) == ref_translate(e, x)
            assert translate(e, tuple(x)) == translate(e, [rat(c) for c in x])
            for wrong in (x + [1], x[:-1]):
                # the message names the point, read as rationals, and the rank
                point = ", ".join(str(rat(c)) for c in wrong)
                message = f"translation point ({point}) is not of the torus rank {g}"
                with pytest.raises(DimensionMismatch, match=f"^{re.escape(message)}$"):
                    translate(e, wrong)
            for bad in (0.5, True):
                with pytest.raises(NotExact):
                    translate(e, x[:-1] + [bad])
            with pytest.raises(NotExact):
                translate(e, "1/2" * g)
    assert signs == {True, False}


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
        e1 = TropVectorBundle(torus, [rand_rational_summand(rng, torus) for _ in range(2)])
        e2 = TropVectorBundle(torus, (rand_rational_summand(rng, torus),))
        sub = rand_sublattice(rng, g, 2)
        cov = cover_torus(torus, sub)
        on_cover = TropVectorBundle(cov, (rand_rational_summand(rng, cov),))
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
        assert_exact_types(TropVectorBundle(torus, (restricted,)))
        for b in cover.generators():
            q = [F(c, rng.randint(1, 4)) for c in b]
            assert ref_l_value(s, q) == ref_l_value(s, q)
        # s's covector extended to another cover plus an integral character or
        # a class image is equivalent to s; one value moved by 1/3 may not be
        lat = integrality_lattice(s.ns) & rand_sublattice(rng, g, 2)
        k = [rng.randint(-3, 3) for _ in range(g)]
        shift = ref_mul_vec(extended_character_lattice(s.ns).basis, k)
        l = [ref_l_value(s, b) + ref_char_value(torus, b, shift) for b in lat.generators()]
        twin = TropLineBundle(torus, lat, s.ns, l)
        moved = TropLineBundle(torus, lat, s.ns, [l[0] + F(1, 3), *l[1:]])
        finer = s.lattice & lat & rand_sublattice(rng, g, 2)
        for t, c in ((twin, None), (moved, None), (twin, finer), (e2.summands[0], None)):
            same = ref_equivalent(s, t, c)
            assert equivalent(s, t, c) is same
            equivalences.add(same)
    assert max(class_dens) > 1 and equivalences == {True, False}


def test_equivalent_matches_the_iso_pushforward_reference():
    # equivalence read as equality of moduli points, against the decision on the
    # two summands restricted to the common cover: equal classes, and the
    # covector difference in the twist lattice by QLattice.contains; for g = 1..3,
    # zero and rational V^-T S classes, twins, near misses, random covectors and
    # another class, on the default cover and on a finer explicit one
    rng = random.Random(4001)
    seen = set()
    for _ in range(450):
        g = rng.randint(1, 3)
        torus = rand_rational_torus(rng, g)
        classes = [Mat.zeros(g, g), rand_r_symmetric(rng, torus.v, max_den=2)]
        rng.shuffle(classes)
        ns, other = classes
        s = TropLineBundle(
            torus, integrality_lattice(ns) & rand_sublattice(rng, g, 2), ns,
            [rand_fraction(rng) for _ in range(g)],
        )
        lat = integrality_lattice(ns) & rand_sublattice(rng, g, 2)
        k = [rng.randint(-3, 3) for _ in range(g)]
        shift = ref_mul_vec(extended_character_lattice(ns).basis, k)
        twin = [ref_l_value(s, b) + ref_char_value(torus, b, shift) for b in lat.generators()]
        moved = list(twin)
        moved[rng.randrange(g)] += F(1, rng.randint(1, 4))
        partners = [
            TropLineBundle(torus, lat, ns, twin),
            TropLineBundle(torus, lat, ns, moved),
            TropLineBundle(torus, lat, ns, [rand_fraction(rng) for _ in range(g)]),
            TropLineBundle(torus, integrality_lattice(other) & lat, other, twin),
        ]
        for t in partners:
            common = s.lattice & t.lattice
            for cover in (None, common & rand_sublattice(rng, g, 2)):
                c = common if cover is None else cover
                same = ref_iso_pushforward(restrict_line_bundle(s, c), restrict_line_bundle(t, c))
                assert equivalent(s, t, cover) is same
                assert equivalent(t, s, cover) is same
                seen.add((same, s.ns == t.ns, cover is None, ns.den > 1))
    # each combination of outcome, class pair, cover and class kind, but an
    # equivalence across classes
    assert len(seen) == 12


def test_equivalent_restricts_no_summand_and_tests_no_membership(monkeypatch):
    # equality of the two moduli points decides: no restricted summand is built
    # and no covector difference is tested against the twist lattice
    def refuse(*args):
        raise AssertionError("called")

    monkeypatch.setattr("tropabel.bundles.restrict_line_bundle", refuse)
    monkeypatch.setattr(QLattice, "contains", refuse)
    two = Sublattice([[2]])
    base = TropLineBundle(LINE, two, Mat([[0]]), (0,))
    for l, same in ((1, True), (F(1, 2), False)):
        on_z = TropLineBundle(LINE, Sublattice.full(1), Mat([[0]]), (l,))
        assert equivalent(base, on_z) is same
        assert equivalent(base, on_z, Sublattice([[6]])) is same
    assert not equivalent(base, TropLineBundle(LINE, two, Mat([[1]]), (0,)))


def test_equivalent_rejects_a_bad_cover_before_it_compares_classes():
    # the cover's rank first, then its containment in each summand's lattice,
    # with the messages of restrict_line_bundle, whatever the classes
    a = TropLineBundle(EYE2, Sublattice([[2, 0], [0, 1]]), Mat.zeros(2, 2), (1, 0))
    for ns in (Mat.zeros(2, 2), Mat.identity(2)):
        b = TropLineBundle(EYE2, Sublattice([[1, 0], [0, 2]]), ns, (0, 0))
        for cover in (Sublattice.full(2), a.lattice, b.lattice):
            for s1, s2 in ((a, b), (b, a)):
                with pytest.raises(
                    NotContained, match="^restriction target is not contained in the cover lattice$"
                ):
                    equivalent(s1, s2, cover)
        for cover in (Sublattice([[2]]), Sublattice([[2, 0, 0], [0, 2, 0], [0, 0, 1]])):
            with pytest.raises(
                AmbientMismatch, match="^cover lattice does not match the torus rank$"
            ):
                equivalent(a, b, cover)


S_HALF = TropLineBundle(EYE2, Sublattice([[2, 0], [0, 1]]), Mat.zeros(2, 2), (1, 0))


@pytest.mark.parametrize(
    "cover, error",
    [
        pytest.param(Sublattice([[2]]), AmbientMismatch, id="rank-1"),
        pytest.param(Sublattice([[2, 0, 0], [0, 1, 0], [0, 0, 1]]), AmbientMismatch, id="rank-3"),
        pytest.param(Sublattice.full(2), NotContained, id="coarser"),
        pytest.param(Sublattice([[1, 0], [0, 2]]), NotContained, id="not-finer"),
        pytest.param([[2, 0], [0, 1]], NotExact, id="rows"),
    ],
)
def test_restriction_and_equivalence_reject_a_bad_cover_alike(cover, error):
    # restrict_line_bundle and equivalent run one cover check: the same class and
    # the same message from both
    with pytest.raises(error) as restricted:
        restrict_line_bundle(S_HALF, cover)
    with pytest.raises(error, match=f"^{re.escape(str(restricted.value))}$"):
        equivalent(S_HALF, S_HALF, cover)


def test_equivalence_across_tori_is_rejected_before_the_cover_is_read():
    other = TropLineBundle(
        TropTorus(Mat([[2, 0], [0, 1]])), S_HALF.lattice, S_HALF.ns, S_HALF.l
    )
    for cover in (None, S_HALF.lattice, Sublattice([[2]])):
        with pytest.raises(AmbientMismatch, match="^operands live on different tori$"):
            equivalent(S_HALF, other, cover)


def test_bundle_operations_read_neither_l_value_nor_the_public_lattice_constructor(monkeypatch):
    # the ops read each summand's cached integer row at integer points, build
    # their lattices through from_generators and their matrices from integers
    # (translate solves its point as one integer column): a return to the
    # public Mat(...) or to the checked Sublattice(...) fails here
    rng = random.Random(499)
    torus = rand_torus(rng, 3)
    e1 = TropVectorBundle(torus, [rand_rational_summand(rng, torus) for _ in range(2)])
    e2 = TropVectorBundle(torus, (rand_rational_summand(rng, torus),))
    sub = Sublattice([[2, 0, 0], [1, 2, 0], [0, 1, 1]])
    cov = cover_torus(torus, sub)
    on_cover = TropVectorBundle(cov, (rand_rational_summand(rng, cov),))
    s = e1.summands[0]
    cover = s.lattice & sub
    calls = []
    for cls, name in ((Mat, "__init__"), (Sublattice, "__init__")):
        def spy(*args, _original=getattr(cls, name), _name=f"{cls.__name__}.{name}", **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(cls, name, spy)
    results = [
        tensor(e1, e2),
        pullback(e1, sub),
        pushforward(on_cover, sub, torus),
        translate(e1, [F(1, 2), F(-2, 3), 1]),
        TropVectorBundle(torus, (restrict_line_bundle(s, cover),)),
    ]
    assert all(r.summands for r in results)
    assert calls == []


S_FULL = TropLineBundle(EYE2, Sublattice.full(2), Mat.identity(2), (0, 0))
E_FULL = TropVectorBundle(EYE2, (S_FULL,))
FULL = Sublattice.full(2)
ID2 = Mat.identity(2)
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
        pytest.param(translate, (E_FULL, "12"), id="translate-string"),
        pytest.param(translate, (E_FULL, b"12"), id="translate-bytes"),
        pytest.param(moduli_points, ([5], FULL, ID2), id="moduli-points-int"),
        pytest.param(moduli_points, ([S_FULL], ROWS, ID2), id="moduli-points-gamma-rows"),
        pytest.param(moduli_points, ([S_FULL], FULL, ROWS), id="moduli-points-class-rows"),
        pytest.param(moduli_points, ([], ROWS, ID2), id="moduli-points-empty-gamma-rows"),
        pytest.param(moduli_points, (S_FULL, FULL, ID2), id="moduli-points-summand"),
        pytest.param(moduli_point, (S_FULL, ROWS, ID2), id="moduli-point-gamma-rows"),
        pytest.param(moduli_point, (E_FULL, FULL, ID2), id="moduli-point-bundle"),
        pytest.param(slope, (5,), id="slope-int"),
        pytest.param(slope, (S_FULL,), id="slope-summand"),
        pytest.param(is_homogeneous, (S_FULL,), id="homogeneous-summand"),
        pytest.param(is_semi_homogeneous, (5,), id="semi-homogeneous-int"),
        pytest.param(sym_point, ([5],), id="sym-point-int"),
        pytest.param(sym_point, (5,), id="sym-point-not-a-sequence"),
    ],
)
def test_bundle_operations_reject_arguments_of_the_wrong_type(op, args):
    # each used to escape as AttributeError or TypeError, and a string point
    # used to be read as its characters
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
        value = extension_value(s, x)
        assert value == ref_l_value(s, x)
        assert value == sum((a * c for a, c in zip(s.l, ref_solve(lat.mat, x))), F(0))


@pytest.mark.parametrize("sub", [Sublattice([[2]]), Sublattice([[1, 0, 0], [0, 2, 0], [0, 0, 1]])])
def test_cover_of_another_rank_is_rejected(sub):
    with pytest.raises(AmbientMismatch):
        cover_torus(EYE2, sub)
    e = TropVectorBundle(EYE2, (TropLineBundle(EYE2, Sublattice.full(2), Mat.identity(2), (0, 0)),))
    with pytest.raises(AmbientMismatch):
        pullback(e, sub)
    with pytest.raises(AmbientMismatch):
        pushforward(e, sub, EYE2)


# ---------------------------------------------------------------------------
# The canonical order against one Fraction sort
# ---------------------------------------------------------------------------

# lattices and classes by position: two objects for one lattice and for one
# class, so that runs mix shared objects with equal but distinct ones
ORDER_LATTICES = [
    Sublattice([[2, 0], [1, 1]]),
    Sublattice([[2, 0], [1, 1]]),
    Sublattice.full(2),
    Sublattice([[1, 0], [0, 3]]),
]
ORDER_CLASSES = [Mat.zeros(2, 2), Mat.zeros(2, 2), Mat([[2, 0], [0, 2]]), Mat([[6, 3], [3, 6]])]
ORDER_VALUES = st.sampled_from([F(0), F(1), F(-1), F(1, 2), F(-3, 4), F(2, 4)]) | st.builds(
    F, st.integers(-(2**70), 2**70), st.integers(1, 12) | st.integers(2**64, 2**66)
)


@st.composite
def summand_lists(draw):
    """Up to 12 summands on EYE2 over a few lattice and class objects, with
    covectors drawn from a few repeated values, mixed and large denominators
    and negative entries, some repeated whole."""
    summands = []
    for _ in range(draw(st.integers(0, 12))):
        lat = draw(st.sampled_from(ORDER_LATTICES))
        ns = draw(st.sampled_from(ORDER_CLASSES))
        if summands and draw(st.booleans()):
            l = draw(st.sampled_from(summands)).l
        else:
            l = (draw(ORDER_VALUES), draw(ORDER_VALUES))
        summands.append(TropLineBundle(EYE2, lat, ns, l))
    return summands


@settings(derandomize=True, deadline=None, max_examples=300, database=None)
@given(summand_lists())
def test_canonical_order_matches_the_fraction_sort(summands):
    # the same sequence, object by object: ties of the whole key keep their
    # input order in both
    got = _canonical_order(summands)
    expected = ref_canonical_order(summands)
    assert len(got) == len(expected)
    assert all(a is b for a, b in zip(got, expected))
