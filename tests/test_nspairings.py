import math
import random
from collections import Counter
from fractions import Fraction

import pytest

from tropabel import lattices, linalg, nspairings
from tropabel.errors import (
    DimensionMismatch,
    InternalInconsistency,
    InvalidClass,
    NotExact,
    NotInLargeLattice,
    NotInSmallLattice,
    TooLarge,
)
from tropabel.groups import _smith_adapted, enumerate_subgroups, quotient
from tropabel.lattices import QLattice, Sublattice
from tropabel.linalg import Mat
from tropabel.monomials import MultiplicativePoint, ValuedMonomial, eval_character
from tropabel.nspairings import NSClass
from tropabel.tori import (
    NATorus,
    TropTorus,
    dual_integrality_lattice,
    extended_character_lattice,
    integrality_lattice,
    is_r_symmetric,
)

from conftest import (
    MINUS_ONE,
    ONE,
    T_UNIF,
    mono,
    rand_fraction,
    rand_integral_symmetric,
    rand_matrix,
    rand_r_symmetric,
    rand_sublattice,
    rand_unit_torus,
    ref_lift,
    ref_mul_vec,
    ref_real_pairing,
    ref_torsion_order,
    typed,
)

F = Fraction


# ---------------------------------------------------------------------------
# Tori
# ---------------------------------------------------------------------------


def test_trop_torus_position():
    t = TropTorus(Mat([[2, 1], [0, 3]]))
    assert t.g == 2
    # the position of a lattice point is V times its coordinates
    assert ref_mul_vec(t.v, (1, 1)) == (F(3), F(3))
    assert ref_mul_vec(t.v, (F(1, 2), 0)) == (F(1), F(0))


def test_na_torus_valuation_matrix(reference_torus):
    assert reference_torus.v == Mat.identity(2)
    assert reference_torus.trop().v == Mat.identity(2)


def test_na_torus_embed(reference_torus):
    p = reference_torus.embed((1, 1))
    assert p.coords == (mono(1, F(1, 2), 1), mono(1, 0, 1))
    assert reference_torus.embed((0, 0)).coords == (ONE, ONE)
    # embedding is a homomorphism
    q = reference_torus.embed((2, -1))
    prod = MultiplicativePoint(tuple(a * b for a, b in zip(p.coords, q.coords)))
    assert prod.coords == reference_torus.embed((3, 0)).coords
    for point in (p, q, prod):
        assert point == MultiplicativePoint(point.coords)


def test_na_torus_rejects_degenerate_periods():
    from tropabel.errors import SingularLattice

    bad = (
        MultiplicativePoint((T_UNIF, ONE)),
        MultiplicativePoint((T_UNIF, MINUS_ONE)),
    )
    with pytest.raises(SingularLattice):
        NATorus(bad)


# ---------------------------------------------------------------------------
# Integrality lattices of a class matrix
# ---------------------------------------------------------------------------


def test_integrality_lattice_examples():
    h = Mat([[F(1, 2), 0], [0, 1]])
    assert integrality_lattice(h) == Sublattice([[2, 0], [0, 1]])
    h2 = Mat([[F(1, 2), F(1, 2)], [F(1, 2), F(1, 2)]])
    assert integrality_lattice(h2) == Sublattice.from_generators([(1, 1), (0, 2)])
    assert integrality_lattice(Mat([[3, 1], [1, 2]])) == Sublattice.full(2)


@pytest.mark.parametrize("rows", [[], [[]]])
def test_integrality_lattice_of_an_empty_matrix_is_refused(rows):
    # Mat([]) used to escape as IndexError
    with pytest.raises(DimensionMismatch):
        integrality_lattice(Mat(rows))
    with pytest.raises(DimensionMismatch):
        dual_integrality_lattice(Mat(rows))


def test_integrality_lattice_brute_force():
    rng = random.Random(61)
    box = [(x, y) for x in range(-6, 7) for y in range(-6, 7)]
    for _ in range(20):
        h = Mat([[rand_fraction(rng, -3, 3, 4) for _ in range(2)] for _ in range(2)])
        lat = integrality_lattice(h)
        for v in box:
            img = ref_mul_vec(h, (F(v[0]), F(v[1])))
            integral = all(x.denominator == 1 for x in img)
            assert integral == lat.contains(v)


def test_dual_integrality_lattice():
    h = Mat([[F(1, 2), 0], [0, 1]])
    assert dual_integrality_lattice(h) == Sublattice([[2, 0], [0, 1]])
    h2 = Mat([[0, F(1, 3)], [0, 0]])
    # h2^T x = (0, x1/3): integral iff x1 in 3Z
    assert dual_integrality_lattice(h2) == Sublattice([[3, 0], [0, 1]])
    rng = random.Random(67)
    for _ in range(20):
        g = rng.randint(1, 3)
        s = [[F(0)] * g for _ in range(g)]
        for i in range(g):
            for j in range(i, g):
                s[i][j] = s[j][i] = rand_fraction(rng, -3, 3, 3)
        hs = Mat(s)
        assert dual_integrality_lattice(hs) == integrality_lattice(hs)


def test_extended_character_lattice_examples():
    h = Mat([[F(1, 2), 0], [0, 1]])
    big = extended_character_lattice(h)
    assert big.contains((F(1, 2), F(0)))
    assert not big.contains((F(0), F(1, 2)))
    assert big.index_over(QLattice.standard(2)) == 2
    assert extended_character_lattice(Mat([[2, 1], [1, 1]])) == QLattice.standard(2)


def test_extended_vs_dual_index_identity():
    # the extension of the character lattice and the dual integrality lattice
    # have the same index (one above, one below the standard lattice)
    rng = random.Random(71)
    for _ in range(40):
        g = rng.randint(1, 3)
        h = Mat([[rand_fraction(rng, -4, 4, 4) for _ in range(g)] for _ in range(g)])
        assert (
            extended_character_lattice(h).index_over(QLattice.standard(g))
            == dual_integrality_lattice(h).index
        )


def test_extended_character_lattice_of_an_integral_class_is_the_span_of_i_and_h():
    # [I | H] holds I, so an integral class extends nothing: Z^g, as the span
    # of the columns of [I | H] that QLattice reduces
    rng = random.Random(3801)
    for _ in range(60):
        g = rng.randint(1, 4)
        h = [[rng.randint(-6, 6) for _ in range(g)] for _ in range(g)]
        span = QLattice(Mat([[int(i == j) for j in range(g)] + row for i, row in enumerate(h)]))
        assert extended_character_lattice(Mat(h)) == span == QLattice.standard(g)


def test_an_integral_class_takes_no_hermite_form(monkeypatch):
    # the integrality, dual integrality and extended character lattices of an
    # integral class are all Z^g, read without one column Hermite form
    calls, column_hnf = [], linalg.column_hnf

    def spy(rows):
        calls.append(rows)
        return column_hnf(rows)

    monkeypatch.setattr(linalg, "column_hnf", spy)
    monkeypatch.setattr(lattices, "column_hnf", spy)
    rng = random.Random(3802)
    for g in range(1, 5):
        for h in (Mat.identity(g), Mat.zeros(g, g), rand_matrix(rng, g)):
            assert integrality_lattice(h) == Sublattice.full(g)
            assert dual_integrality_lattice(h) == Sublattice.full(g)
            assert extended_character_lattice(h) == QLattice.standard(g)
    assert calls == []
    # a rational class still takes the block form
    integrality_lattice(Mat([[F(1, 2), 0], [0, 1]]))
    assert calls


def test_valuation_matrix_matches_the_public_mat():
    # the valuations read as integers over their lcm, against Mat's own coercion,
    # on tori with mixed and large denominators and negative valuations
    rng = random.Random(3803)
    dens = (1, 2, 3, 4, 6, 7, 2**65)
    seen = set()
    for _ in range(80):
        g = rng.randint(1, 4)
        coords = [
            [mono(texp=F(rng.randint(-9, 9), rng.choice(dens))) for _ in range(g)]
            for _ in range(g)
        ]
        v = Mat([[coords[j][i].valuation() for j in range(g)] for i in range(g)])
        if v.det() == 0:
            continue
        torus = NATorus(tuple(MultiplicativePoint(tuple(c)) for c in coords))
        assert typed(torus.v) == typed(v)
        seen.add((v.den > 1, any(x < 0 for row in v.num for x in row)))
    assert seen == {(False, False), (False, True), (True, False), (True, True)}, seen


EYE2 = Mat.identity(2)


@pytest.mark.parametrize(
    "op, args",
    [
        pytest.param(integrality_lattice, (5,), id="integrality-int"),
        pytest.param(integrality_lattice, ([[1, 0], [0, 1]],), id="integrality-rows"),
        pytest.param(dual_integrality_lattice, ([[1, 0], [0, 1]],), id="dual-rows"),
        pytest.param(dual_integrality_lattice, (None,), id="dual-none"),
        pytest.param(extended_character_lattice, (5,), id="extended-int"),
        pytest.param(extended_character_lattice, (Sublattice.full(2),), id="extended-lattice"),
        pytest.param(is_r_symmetric, ([[1, 0], [0, 1]], EYE2), id="r-symmetric-rows"),
        pytest.param(is_r_symmetric, (EYE2, TropTorus(EYE2)), id="r-symmetric-torus"),
        pytest.param(quotient, (Sublattice.full(2), [[2, 0], [0, 2]]), id="quotient-rows"),
        pytest.param(quotient, (EYE2, Sublattice.full(2)), id="quotient-mat"),
    ],
)
def test_lattice_functions_reject_arguments_of_the_wrong_type(op, args):
    # each used to escape as AttributeError
    with pytest.raises(NotExact):
        op(*args)


# ---------------------------------------------------------------------------
# Class validation and the real pairing
# ---------------------------------------------------------------------------


def test_r_symmetry_check():
    v = Mat([[1, 0], [1, 2]])
    h = v.T.inv() @ Mat([[2, 1], [1, 0]])
    assert is_r_symmetric(h, v)
    assert not is_r_symmetric(Mat([[0, 1], [0, 0]]), Mat.identity(2))


def test_r_symmetry_matches_rational_product():
    rng = random.Random(2312)

    def rand_mat(g):
        return Mat([[Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(g)]
                    for _ in range(g)])

    seen = set()
    for g in range(1, 5):
        for k in range(40):
            v, h = rand_mat(g), rand_mat(g)
            if k % 2 and v.det() != 0:
                # H = V^-T S with S symmetric makes V^T H = S symmetric
                s = rand_mat(g)
                h = v.T.inv() @ (s + s.T)
            gram = v.T @ h
            expected = gram == gram.T
            assert is_r_symmetric(h, v) == expected
            seen.add((g > 1, expected))
    assert seen == {(False, True), (True, True), (True, False)}
    with pytest.raises(DimensionMismatch):
        is_r_symmetric(Mat.identity(2), Mat.identity(3))


def test_class_requires_r_symmetry(reference_torus):
    with pytest.raises(InvalidClass):
        NSClass(reference_torus, Mat([[0, 1], [0, 0]]))
    with pytest.raises(DimensionMismatch):
        NSClass(reference_torus, Mat([[1]]))


def test_class_rejects_nonsymmetrizable_magnitudes():
    # generator matrix has a magnitude-2 off-diagonal entry: the asymmetry of
    # the multiplicative pairing survives every integer multiple of H
    t = NATorus(
        (
            MultiplicativePoint((T_UNIF, mono(2))),
            MultiplicativePoint((ONE, T_UNIF)),
        )
    )
    with pytest.raises(InvalidClass):
        NSClass(t, Mat.identity(2))


def _rand_small_magnitude_torus(rng, g: int) -> NATorus:
    """Integer valuations v and magnitudes q^v for one small rational q, which
    every r-symmetric class symmetrizes; then, half the time, one coordinate's
    magnitude multiplied by 2 or 3/2, which may break that."""
    q = F(rng.randint(1, 3), rng.randint(1, 3))
    while True:
        vals = [[rng.randint(-2, 2) for _ in range(g)] for _ in range(g)]
        if Mat(vals).det() != 0:
            break
    mags = [[q ** vals[j][i] for i in range(g)] for j in range(g)]
    if rng.random() < 0.5:
        mags[rng.randrange(g)][rng.randrange(g)] *= rng.choice([F(2), F(3, 2)])
    return NATorus(
        tuple(
            MultiplicativePoint(
                tuple(mono(mags[j][i], rand_fraction(rng, 0, 5, 6), vals[j][i]) for i in range(g))
            )
            for j in range(g)
        )
    )


def test_class_check_matches_monomial_reference():
    # NSClass compares magnitude products; the reference is the torsion
    # pairing of den * H on each pair of basis vectors, built from monomials
    rng = random.Random(409)
    outcomes = set()
    for _ in range(40):
        g = rng.randint(2, 4)
        t = _rand_small_magnitude_torus(rng, g)
        h = rand_r_symmetric(rng, t.v, max_den=2)
        num = h.scale(h.den)
        units = Mat.identity(g).num
        cols = [list(col) for col in zip(*num.num)]
        valid = all(
            ref_torsion_order(
                eval_character(t.embed(units[i]), cols[j])
                / eval_character(t.embed(units[j]), cols[i])
            )
            is not None
            for i in range(g)
            for j in range(i + 1, g)
        )
        outcomes.add(valid)
        if valid:
            NSClass(t, h)
        else:
            with pytest.raises(InvalidClass):
                NSClass(t, h)
    assert outcomes == {True, False}


def test_real_pairing_is_symmetric_bilinear():
    rng = random.Random(73)
    for _ in range(20):
        g = rng.randint(1, 3)
        t = rand_unit_torus(rng, g)
        ns = NSClass(t, rand_r_symmetric(rng, t.v))
        a = [rand_fraction(rng) for _ in range(g)]
        b = [rand_fraction(rng) for _ in range(g)]
        c = [rand_fraction(rng) for _ in range(g)]
        assert ref_real_pairing(ns, a, b) == ref_real_pairing(ns, b, a)
        ab = [x + y for x, y in zip(a, b)]
        total = ref_real_pairing(ns, a, c) + ref_real_pairing(ns, b, c)
        assert ref_real_pairing(ns, ab, c) == total
        assert ns.gram == t.v.T @ ns.matrix


def test_gm_pairing_valuation_is_real_pairing():
    # the valuation of the multiplicative pairing recovers the real pairing
    rng = random.Random(79)
    for _ in range(20):
        g = rng.randint(1, 3)
        t = rand_unit_torus(rng, g)
        ns = NSClass(t, rand_integral_symmetric(rng, t.v))
        a = [rng.randint(-3, 3) for _ in range(g)]
        b = [rng.randint(-3, 3) for _ in range(g)]
        assert ns.gm_pairing(a, b).valuation() == ref_real_pairing(ns, a, b)


def test_gm_pairing_requires_integral_image(reference_torus):
    ns = NSClass(reference_torus, Mat([[F(1, 2), 0], [0, 1]]))
    with pytest.raises(NotInLargeLattice):
        ns.gm_pairing((1, 0), (1, 0))
    # but pairing against the integrality lattice works
    assert ns.gm_pairing((1, 0), (2, 0)) == T_UNIF


# ---------------------------------------------------------------------------
# The running example: all distinguished data of the standard class
# ---------------------------------------------------------------------------


def test_reference_example_gm_values(reference_torus):
    ns = NSClass(reference_torus, Mat.identity(2))
    assert ns.gm_pairing((1, 0), (1, 0)) == T_UNIF
    assert ns.gm_pairing((1, 0), (0, 1)) == ONE
    assert ns.gm_pairing((0, 1), (1, 0)) == MINUS_ONE
    assert ns.gm_pairing((0, 1), (0, 1)) == T_UNIF
    assert ns.torsion_pairing((1, 0), (0, 1)) == MINUS_ONE


def test_reference_example_lattices(reference_torus):
    ns = NSClass(reference_torus, Mat.identity(2))
    assert ns.integrality == Sublattice.full(2)
    assert ns.symmetry == Sublattice([[2, 0], [0, 2]])
    assert ns.defect_group.invariant_factors == (2, 2)
    assert ns.admissible_lattices() == [
        Sublattice([[1, 0], [0, 2]]),
        Sublattice([[1, 0], [1, 2]]),
        Sublattice([[2, 0], [0, 1]]),
    ]
    assert ns.class_rank() == 2


def test_reference_example_admissible_properties(reference_torus):
    ns = NSClass(reference_torus, Mat.identity(2))
    for lat in ns.admissible_lattices():
        assert ns.integrality.contains_lattice(lat)
        assert lat.contains_lattice(ns.symmetry)
        assert ns.is_gm_symmetric_on(lat)
    assert not ns.is_gm_symmetric_on(ns.integrality)


# ---------------------------------------------------------------------------
# Torsion pairing and the symmetry lattice in general
# ---------------------------------------------------------------------------


def test_torsion_pairing_alternating_random():
    rng = random.Random(83)
    for _ in range(20):
        g = rng.randint(1, 3)
        t = rand_unit_torus(rng, g)
        ns = NSClass(t, rand_integral_symmetric(rng, t.v))
        a = [rng.randint(-3, 3) for _ in range(g)]
        b = [rng.randint(-3, 3) for _ in range(g)]
        assert ns.torsion_pairing(a, a) == ONE
        prod = ns.torsion_pairing(a, b) * ns.torsion_pairing(b, a)
        assert prod == ONE
        assert ref_torsion_order(ns.torsion_pairing(a, b)) is not None


def test_symmetry_lattice_brute_force():
    rng = random.Random(89)
    box = [(x, y) for x in range(-4, 5) for y in range(-4, 5)]
    for _ in range(12):
        t = rand_unit_torus(rng, 2)
        ns = NSClass(t, rand_integral_symmetric(rng, t.v))
        gamma = ns.symmetry
        gens = ns.integrality.generators()
        for v in box:
            if not ns.integrality.contains(v):
                continue
            symmetric = all(ns.torsion_pairing(v, b) == ONE for b in gens)
            assert symmetric == gamma.contains(v)


# ---------------------------------------------------------------------------
# The phase matrix Omega = PH - (PH)^T against the reference torsion_pairing
# ---------------------------------------------------------------------------


def _magnitude_torus(off_mag) -> NATorus:
    """The running-example torus with magnitude off_mag on both off-diagonal
    coordinates: generators (t, m) and (-m, t)."""
    return NATorus(
        (
            MultiplicativePoint((T_UNIF, mono(off_mag))),
            MultiplicativePoint((mono(off_mag, F(1, 2)), T_UNIF)),
        )
    )


def _rand_magnitude_torus(rng, g: int) -> NATorus:
    """Integer valuations v, magnitudes 2^(k v) and random phases: the
    magnitude exponents are k V^T, so every r-symmetric H symmetrizes them."""
    k = rng.randint(1, 2)
    while True:
        vals = [[rng.randint(-2, 2) for _ in range(g)] for _ in range(g)]
        if Mat(vals).det() != 0:
            break
    return NATorus(
        tuple(
            MultiplicativePoint(
                tuple(
                    mono(F(2) ** (k * vals[j][i]), rand_fraction(rng, 0, 5, 6), vals[j][i])
                    for i in range(g)
                )
            )
            for j in range(g)
        )
    )


def _omega_classes() -> list[NSClass]:
    """Classes with non-unit magnitudes and rational H, fixed and random."""
    mag2 = _magnitude_torus(2)
    plain = _magnitude_torus(1)
    out = [
        NSClass(mag2, Mat.identity(2)),
        NSClass(mag2, Mat([[F(1, 2), 0], [0, F(1, 2)]])),
        NSClass(mag2, Mat([[F(1, 2), F(1, 3)], [F(1, 3), F(1, 2)]])),
        NSClass(mag2, Mat([[2, -1], [-1, 2]])),
        NSClass(plain, Mat([[F(1, 2), 0], [0, 1]])),
        NSClass(plain, Mat([[F(1, 3), F(1, 2)], [F(1, 2), F(2, 5)]])),
    ]
    rng = random.Random(257)
    for _ in range(12):
        g = rng.randint(2, 4)
        t = rand_unit_torus(rng, g) if rng.random() < 0.5 else _rand_magnitude_torus(rng, g)
        out.append(NSClass(t, rand_r_symmetric(rng, t.v, max_den=3)))
    return out


def _rand_integrality_vector(rng, ns: NSClass) -> tuple[int, ...]:
    coords = [rng.randint(-3, 3) for _ in range(ns.torus.g)]
    return tuple(int(x) for x in ref_mul_vec(ns.integrality.mat, coords))


def test_omega_matches_torsion_pairing_on_random_pairs():
    rng = random.Random(263)
    nonunit = 0
    for ns in _omega_classes():
        omega, den = ns._omega
        g = ns.torus.g
        assert all(omega[i][j] == -omega[j][i] for i in range(g) for j in range(g))
        nonunit += any(c.magnitude != 1 for p in ns.torus.generators for c in p.coords)
        for _ in range(15):
            a = _rand_integrality_vector(rng, ns)
            b = _rand_integrality_vector(rng, ns)
            value = ns.torsion_pairing(a, b)
            assert ref_torsion_order(value) is not None
            phase = sum(x * w * y for x, row in zip(a, omega) for w, y in zip(row, b))
            assert value.phase == F(phase % den, den)
    assert nonunit >= 4


def test_phase_form_matches_torsion_pairing_on_random_generators():
    rng = random.Random(269)
    for ns in _omega_classes():
        gens = [_rand_integrality_vector(rng, ns) for _ in range(rng.randint(1, 5))]
        form, den = ns._phase_form(gens)
        assert form == [
            [ns.torsion_pairing(a, b).phase * den for b in gens] for a in gens
        ]


def test_is_gm_symmetric_on_matches_reference_loop():
    rng = random.Random(271)
    outcomes = set()
    for ns in _omega_classes():
        lam = ns.integrality
        g = ns.torus.g
        subs = [lam, ns.symmetry]
        if ns.defect_group.order <= 256:
            subs += ns.admissible_lattices()[:2]
        for _ in range(6):
            subs.append(Sublattice((lam.mat @ rand_sublattice(rng, g, 4).mat).num))
        for sub in subs:
            gens = sub.generators()
            expected = all(
                ns.torsion_pairing(gens[i], gens[j]) == ONE
                for i in range(len(gens))
                for j in range(i + 1, len(gens))
            )
            assert ns.is_gm_symmetric_on(sub) == expected
            outcomes.add(expected)
        outside = [v for v in Sublattice.full(g).generators() if not lam.contains(v)]
        if outside:
            with pytest.raises(NotInLargeLattice):
                ns.is_gm_symmetric_on(Sublattice.from_generators(lam.generators() + outside))
    assert outcomes == {True, False}
    half = NSClass(_magnitude_torus(1), Mat([[F(1, 2), 0], [0, 1]]))
    with pytest.raises(NotInLargeLattice):
        half.is_gm_symmetric_on(Sublattice.full(2))


def test_omega_self_check_catches_a_disagreeing_reference(monkeypatch):
    # the Omega side: every entry of the phase table off by 1/den
    real = nspairings._form_mod
    monkeypatch.setattr(
        nspairings,
        "_form_mod",
        lambda omega, den, gens: [[(x + 1) % den for x in r] for r in real(omega, den, gens)],
    )
    with pytest.raises(InternalInconsistency, match="disagrees with its phase matrix"):
        NSClass(_magnitude_torus(2), Mat.identity(2)).symmetry
    monkeypatch.undo()
    # classes the constructor would refuse, let past it: magnitudes that do
    # not cancel (4 against 2), then valuations that do not (V^T H asymmetric)
    monkeypatch.setattr(NSClass, "__post_init__", lambda self: None)
    for torus, h in (
        (_magnitude_torus(2), Mat([[1, 0], [0, 2]])),
        (_magnitude_torus(1), Mat([[1, 1], [0, 1]])),
    ):
        with pytest.raises(InternalInconsistency, match="left the torsion subgroup"):
            NSClass(torus, h).symmetry


def _fraction_magnitudes_symmetric(t: NATorus, h: Mat) -> bool:
    """The constructor's magnitude table in Fractions: prod_k mag_ik^num[k][j]
    symmetric in (i, j) for num = den * H."""
    num, g = h.num, t.g
    mag = [[math.prod(c.magnitude ** row[j] for c, row in zip(p.coords, num))
            for j in range(g)] for p in t.generators]
    return all(mag[i][j] == mag[j][i] for i in range(g) for j in range(i))


def _fraction_omega_check(ns: NSClass) -> bool:
    """Whether _omega's self-check passes, by its formulas in Fractions: on each
    pair (a, b) of integrality generators, with the net exponents
    e_rk = a_r (Hb)_k - b_r (Ha)_k, prod mag_rk^e_rk = 1, sum e_rk texp_rk = 0,
    and sum e_rk phase_rk equal to the phase table's entry mod 1."""
    t, g = ns.torus, ns.torus.g
    ph = Mat([[c.phase for c in gen.coords] for gen in t.generators]) @ ns.matrix
    omega = [[ph.num[i][j] - ph.num[j][i] for j in range(g)] for i in range(g)]
    gens = ns.integrality.generators()
    form = nspairings._form_mod(omega, ph.den, gens)
    images = [nspairings._h_image(ns.matrix, b) for b in gens]
    coords = [c for gen in t.generators for c in gen.coords]
    for i, (a, ha) in enumerate(zip(gens, images)):
        for j in range(i + 1, len(gens)):
            b, hb = gens[j], images[j]
            exps = [a[r] * hb[k] - b[r] * ha[k] for r in range(g) for k in range(g)]
            terms = [(e, c) for e, c in zip(exps, coords) if e]
            magnitude = math.prod(c.magnitude**e for e, c in terms if c.magnitude != 1)
            if magnitude != 1 or sum(e * c.t_exponent for e, c in terms):
                return False
            phase = sum(e * c.phase for e, c in terms) - F(form[i][j], ph.den)
            if phase.denominator != 1:
                return False
    return True


def test_integer_self_checks_match_the_fraction_reference():
    # the constructor's magnitude table, then _omega's check on the class let
    # past the constructor, half the time with a class whose V^T H is not
    # symmetric; magnitudes q^v with v in [-2, 2] and q = a / b bring both
    # denominators and negative exponents
    rng = random.Random(433)
    outcomes = Counter()
    for _ in range(80):
        g = rng.randint(2, 3)
        make = _rand_small_magnitude_torus if rng.random() < 0.6 else _rand_magnitude_torus
        t = make(rng, g)
        outcomes["fractional magnitude"] += any(
            c.magnitude.denominator > 1 for p in t.generators for c in p.coords
        )
        h = rand_r_symmetric(rng, t.v, max_den=3)
        valid = _fraction_magnitudes_symmetric(t, h)
        outcomes["class", valid] += 1
        if valid:
            NSClass(t, h)
        else:
            with pytest.raises(InvalidClass, match="no integer multiple of H"):
                NSClass(t, h)
        if rng.random() < 0.5:
            s = [[rand_fraction(rng, -3, 3, 3) for _ in range(g)] for _ in range(g)]
            h = t.v.T.inv() @ Mat(s)
        ns = NSClass._from_valid(t, h)
        passes = _fraction_omega_check(ns)
        outcomes["symmetry", passes] += 1
        if passes:
            ns.symmetry
        else:
            with pytest.raises(InternalInconsistency, match="left the torsion subgroup"):
                ns.symmetry
    assert all(outcomes[key] for key in (("class", True), ("class", False)))
    assert all(outcomes[key] for key in (("symmetry", True), ("symmetry", False)))
    assert outcomes["fractional magnitude"]


def test_admissible_trivial_cases(reference_torus):
    zero = NSClass(reference_torus, Mat.zeros(2, 2))
    assert zero.admissible_lattices() == [Sublattice.full(2)]
    assert zero.class_rank() == 1
    # a torus whose pairing has no phases at all: everything is symmetric
    plain = NATorus(
        (
            MultiplicativePoint((T_UNIF, ONE)),
            MultiplicativePoint((ONE, T_UNIF)),
        )
    )
    ns = NSClass(plain, Mat.identity(2))
    assert ns.symmetry == Sublattice.full(2)
    assert ns.admissible_lattices() == [Sublattice.full(2)]
    assert ns.class_rank() == 1


def test_admissible_bound_enforced(reference_torus):
    ns = NSClass(reference_torus, Mat.identity(2))
    with pytest.raises(TooLarge):
        ns.admissible_lattices(bound=2)


def test_admissible_index_identity():
    rng = random.Random(97)
    found_nontrivial = 0
    for _ in range(15):
        t = rand_unit_torus(rng, 2)
        ns = NSClass(t, rand_integral_symmetric(rng, t.v))
        if ns.defect_group.order > 64:
            continue
        lats = ns.admissible_lattices()
        n = ns.class_rank()
        assert all(lat.index == n for lat in lats)
        assert n * n == ns.defect_group.order * ns.integrality.index**2
        if ns.defect_group.order > 1:
            found_nontrivial += 1
    assert found_nontrivial > 0


def test_admissible_covers_match_the_generator_reference():
    # reference: each cover spanned by the symmetry generators plus the subgroup's lifts
    rng = random.Random(5)
    checked = 0
    for g in (2, 2, 3, 3, 3):
        t = rand_unit_torus(rng, g)
        ns = NSClass(t, rand_integral_symmetric(rng, t.v))
        q = ns.defect_group
        if q.order > 144:
            continue
        form, den = ns._phase_form(q.generator_lifts)
        k = len(form)
        reference = []
        for basis in enumerate_subgroups(q, ns.class_rank() // ns.integrality.index):
            cols = [[basis[i][j] for i in range(k)] for j in range(k)]
            pairs = [sum(u[a] * form[a][b] * v[b] for a in range(k) for b in range(k))
                     for u in cols for v in cols]
            if all(p % den == 0 for p in pairs):
                gens = ns.symmetry.generators() + [ref_lift(q, c, g) for c in cols]
                reference.append(Sublattice.from_generators(gens))
        assert ns.admissible_lattices() == sorted(reference, key=lambda lat: lat.basis)
        checked += 1
    assert checked >= 3


def _cyclic_square_class(n: int) -> NSClass:
    """Class I on the torus (t, zeta_n), (1, t): defect group (Z/n)^2."""
    t = NATorus(
        (
            MultiplicativePoint((T_UNIF, mono(phase=F(1, n)))),
            MultiplicativePoint((ONE, T_UNIF)),
        )
    )
    return NSClass(t, Mat.identity(2))


def _unit_class(g: int, phases: dict) -> NSClass:
    """Class I on the torus whose generator j has valuation e_j and phase
    phases[(j, i)] in coordinate i."""
    t = NATorus(
        tuple(
            MultiplicativePoint(
                tuple(
                    mono(phase=phases.get((j, i), 0), texp=1 if i == j else 0)
                    for i in range(g)
                )
            )
            for j in range(g)
        )
    )
    return NSClass(t, Mat.identity(g))


def _assert_admissible_covers(ns: NSClass, count: int) -> None:
    lats = ns.admissible_lattices()
    assert len(lats) == count
    for lat in lats:
        assert ns.symmetry <= lat <= ns.integrality
        gens = lat.generators()
        assert all(ns.torsion_pairing(a, b) == ONE for a in gens for b in gens)


def _sigma(n: int) -> int:
    return sum(d for d in range(1, n + 1) if n % d == 0)


@pytest.mark.parametrize("n", range(2, 17))
def test_admissible_counts_cyclic_square(n):
    ns = _cyclic_square_class(n)
    assert ns.defect_group.invariant_factors == (n, n)
    _assert_admissible_covers(ns, _sigma(n))


@pytest.mark.parametrize(
    "phases, invariants, count",
    [
        ({(0, 1): F(1, 2), (2, 3): F(1, 2)}, (2, 2, 2, 2), 15),
        ({(0, 1): F(1, 3), (2, 3): F(1, 3)}, (3, 3, 3, 3), 40),
        ({(0, 1): F(1, 4), (2, 3): F(1, 2)}, (2, 2, 4, 4), 39),
    ],
)
def test_admissible_counts_rank_four(phases, invariants, count):
    ns = _unit_class(4, phases)
    assert ns.defect_group.invariant_factors == invariants
    _assert_admissible_covers(ns, count)


def _paired_phases(g: int, n: int) -> dict:
    """Phase 1/n between coordinates 2i and 2i + 1: defect group (Z/n)^g."""
    return {(2 * i, 2 * i + 1): F(1, n) for i in range(g // 2)}


@pytest.mark.parametrize(
    "g, n, count",
    [
        # prod_{i=1..k} (p^i + 1) Lagrangians in (Z/p)^2k
        (6, 2, 3 * 5 * 9),
        (6, 3, 4 * 10 * 28),
        # multiplicative over primes: 15 * 40 and 15 * 156
        (4, 6, 600),
        (4, 10, 2340),
    ],
)
def test_admissible_counts_large_bound(g, n, count):
    ns = _unit_class(g, _paired_phases(g, n))
    assert ns.defect_group.invariant_factors == (n,) * g
    lats = ns.admissible_lattices(bound=10**7)
    assert len(lats) == len(set(lats)) == count
    assert all(ns.symmetry <= lat <= ns.integrality for lat in lats)


@pytest.mark.parametrize("n", range(2, 31))
def test_admissible_counts_unit_square(n):
    ns = _unit_class(2, _paired_phases(2, n))
    assert ns.defect_group.invariant_factors == (n, n)
    assert len(ns.admissible_lattices(bound=10**7)) == _sigma(n)


def test_admissible_counts_default_bound():
    ns = _cyclic_square_class(100)
    assert ns.defect_group.order == 10_000
    _assert_admissible_covers(ns, 217)


# at the default bound the walk's step budget, not the group order, decides
@pytest.mark.parametrize(
    "make, count",
    [
        (lambda: _unit_class(4, _paired_phases(4, 6)), 600),
        (lambda: _unit_class(6, _paired_phases(6, 2)), 135),
        (lambda: _cyclic_square_class(210), _sigma(210)),
    ],
    ids=["6^4", "2^6", "210^2"],
)
def test_admissible_counts_within_default_bound(make, count):
    ns = make()
    lats = ns.admissible_lattices()
    assert len(lats) == len(set(lats)) == count
    assert all(ns.symmetry <= lat <= ns.integrality for lat in lats)


@pytest.mark.parametrize(
    "make",
    [
        lambda: _unit_class(4, _paired_phases(4, 10)),
        lambda: _unit_class(6, _paired_phases(6, 3)),
        lambda: _cyclic_square_class(1_000_003),
    ],
    ids=["10^4", "3^6", "1000003^2"],
)
def test_admissible_default_bound_refuses(make):
    with pytest.raises(TooLarge):
        make().admissible_lattices()


def _covers_by_generators(ns: NSClass, bound: int) -> list[Sublattice]:
    """The admissible covers built one at a time: per Lagrangian subgroup, the
    trivial columns and the lift of each subgroup column, in one Hermite form."""
    q = ns.defect_group
    order = ns.class_rank() // ns.integrality.index
    _, d, adapted = _smith_adapted(ns.integrality, ns.symmetry)
    trivial = [a for a, x in zip(adapted, d) if x == 1]
    covers = [
        Sublattice.from_generators(trivial + [ref_lift(q, c, ns.torus.g) for c in zip(*basis)])
        for basis in enumerate_subgroups(q, order, bound, ns.defect_phases)
    ]
    return sorted(covers, key=lambda lat: lat.basis)


def _random_defect_class(rng, n: int, g: int) -> NSClass:
    """Class I on a unit torus whose torsion pairing has defect group (Z/n)^2,
    drawn like the random tori of the defect-scan benchmark: an alternating
    part a / n with a prime to n over a random symmetric part of the phases."""
    while True:
        a = {(r, c): rng.randrange(n) for r in range(g) for c in range(r + 1, g)}
        if math.gcd(n, *a.values()) != 1:
            continue
        phases = {}
        for r in range(g):
            phases[(r, r)] = F(rng.randint(0, 5), rng.choice((1, 2, 3, 4, 6)))
            for c in range(r + 1, g):
                phases[(c, r)] = F(rng.randint(0, 5), rng.choice((1, 2, 3, 4, 6)))
                phases[(r, c)] = phases[(c, r)] + F(a[(r, c)], n)
        ns = _unit_class(g, phases)
        if ns.defect_group.invariant_factors == (n, n):
            return ns


def _random_defect_classes() -> list[NSClass]:
    rng = random.Random(7919)
    return [_random_defect_class(rng, 2 + i % 7, 2 + (i // 7) % 2) for i in range(56)]


@pytest.mark.parametrize(
    "make",
    [
        lambda: [_cyclic_square_class(n) for n in range(2, 31)],
        lambda: [_unit_class(2, _paired_phases(2, n)) for n in range(2, 31)],
        lambda: [
            _unit_class(4, phases)
            for phases in (
                {(0, 1): F(1, 2), (2, 3): F(1, 2)},
                {(0, 1): F(1, 3), (2, 3): F(1, 3)},
                {(0, 1): F(1, 4), (2, 3): F(1, 2)},
            )
        ],
        lambda: [_unit_class(6, _paired_phases(6, 2))],
        lambda: [_unit_class(4, _paired_phases(4, 6))],
        lambda: [_unit_class(4, _paired_phases(4, 10))],
        _random_defect_classes,
    ],
    ids=["cyclic-square", "unit-square", "rank-four", "2^6", "6^4", "10^4", "random"],
)
def test_covers_built_in_the_walk_match_one_hermite_form_per_cover(make):
    for ns in make():
        assert ns.admissible_lattices(bound=10**7) == _covers_by_generators(ns, 10**7)


def test_admissible_lattices_lift_no_column_and_take_no_hermite_form(monkeypatch):
    # (Z/12)^2, and a g = 3 class whose covers built one at a time take a Hermite form each
    classes = [_cyclic_square_class(12), _random_defect_class(random.Random(1), 6, 3)]
    for ns in classes:
        ns.defect_phases, ns.class_rank()  # the lattices and the group, before counting
    calls = Counter()

    def spy(owner, name):
        real = getattr(owner, name)

        def counted(*args):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(owner, name, counted)

    spy(lattices, "column_hnf")
    spy(linalg, "column_hnf")
    assert [len(ns.admissible_lattices()) for ns in classes] == [_sigma(12), _sigma(6)]
    assert calls == Counter()
    # the spies see the covers built one at a time
    assert len(_covers_by_generators(classes[1], 10**4)) == _sigma(6)
    assert calls["column_hnf"]


# ---------------------------------------------------------------------------
# Extended pairing
# ---------------------------------------------------------------------------


def test_extended_pairing_decomposition_independence(reference_torus):
    ns = NSClass(reference_torus, Mat.identity(2))
    rng = random.Random(101)
    for _ in range(30):
        gamma = (2 * rng.randint(-2, 2), 2 * rng.randint(-2, 2))
        m0 = [rng.randint(-3, 3) for _ in range(2)]
        lam = [rng.randint(-3, 3) for _ in range(2)]
        mu = [rng.randint(-2, 2) for _ in range(2)]
        # replace (m0, lam) by (m0 + H(mu), lam - mu): same extended character
        m0_shift = [a + b for a, b in zip(m0, ref_mul_vec(ns.matrix, (F(mu[0]), F(mu[1]))))]
        lam_shift = [a - b for a, b in zip(lam, mu)]
        assert ns.extended_pairing(gamma, m0, lam) == ns.extended_pairing(
            gamma, [int(x) for x in m0_shift], lam_shift
        )


def test_extended_pairing_requires_symmetry_vector(reference_torus):
    ns = NSClass(reference_torus, Mat.identity(2))
    with pytest.raises(NotInSmallLattice):
        ns.extended_pairing((1, 0), (0, 0), (0, 0))


def test_extended_pairing_plain_character(reference_torus):
    # with lam = 0 the extended pairing is just the character evaluation
    ns = NSClass(reference_torus, Mat.identity(2))
    val = ns.extended_pairing((2, 0), (1, 1), (0, 0))
    assert val == eval_character(reference_torus.embed((2, 0)), (1, 1))
    assert val == mono(1, 0, 2)
