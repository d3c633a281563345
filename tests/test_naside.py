import json
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tropabel import jsonio
from tropabel.bundles import TropLineBundle, as_bundle, moduli_point, translate
from tropabel.errors import (
    AmbientMismatch,
    InvalidClass,
    NotAdmissible,
    NotContained,
    NotInLattice,
    SizeMismatch,
    TropabelError,
)
from tropabel.groups import enumerate_subgroups
from tropabel.lattices import Sublattice
from tropabel.linalg import Mat
from tropabel.monomials import MultiplicativePoint, ValuedMonomial, eval_character
from tropabel.naside import (
    NACharacter,
    NALineBundle,
    NASemisimpleRep,
    bundle_times_character,
    bundles_from_rep,
    characters_equal_mod_m,
    extend_r,
    represent_on,
    restrict_na,
    translate_na,
    trop_rep,
    tropicalize_line_bundle,
    tropicalize_simple,
    unit_character,
    verify_commuting_square,
)
from tropabel.nspairings import NSClass
from tropabel.tori import NATorus, TropTorus
from tropabel.tropchar import TropGLElement, TropRepresentation, bundle_from_rep

from test_acceptance import bounded_defect_instances
from test_nspairings import _cyclic_square_class, _unit_class
from conftest import (
    MINUS_ONE,
    ONE,
    T_UNIF,
    mono,
    rand_sublattice,
    rand_unit_mono,
    rand_unit_torus,
)

F = Fraction
SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def reference_class(reference_torus):
    return NSClass(reference_torus, Mat.identity(2))


def rand_symmetric_instance(rng, g):
    """A random unit torus with an integral class and a cover lattice on which
    the class is symmetric for the multiplicative pairing."""
    from conftest import rand_integral_symmetric

    while True:
        t = rand_unit_torus(rng, g)
        ns = NSClass(t, rand_integral_symmetric(rng, t.v))
        lat = rand_sublattice(rng, g)
        if ns.is_gm_symmetric_on(lat):
            return ns, lat


def rand_na_bundle(rng, ns, lat):
    return NALineBundle(ns, lat, tuple(rand_unit_mono(rng) for _ in range(ns.torus.g)))


# ---------------------------------------------------------------------------
# Characters
# ---------------------------------------------------------------------------


def test_character_value_is_multiplicative():
    chi = NACharacter((mono(2, 0, 1), mono(1, F(1, 2), 0)))
    assert chi.value((1, 1)) == mono(2, F(1, 2), 1)
    assert chi.value((2, 0)) == mono(4, 0, 2)
    assert chi.value((0, 0)) == ONE
    assert chi.value((-1, 1)) == chi.value((-1, 0)) * chi.value((0, 1))
    with pytest.raises(SizeMismatch):
        chi.value((1,))


@pytest.mark.parametrize("values", [(1, 2), (ONE, F(1, 2)), (ONE, "1")])
def test_character_values_must_be_monomials(values):
    with pytest.raises(TropabelError):
        NACharacter(values)


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda t, ns, b: eval_character(t.generators[0], (F(1, 2), 0)), id="eval"),
        pytest.param(lambda t, ns, b: eval_character(t.generators[0], (1.9, 0)), id="eval-float"),
        pytest.param(lambda t, ns, b: NACharacter((T_UNIF, ONE)).value((F(1, 2), 1)), id="value"),
        pytest.param(lambda t, ns, b: unit_character(t, (F(1, 2), 0)), id="unit_character"),
        pytest.param(lambda t, ns, b: t.embed((F(1, 2), 0)), id="embed"),
        pytest.param(lambda t, ns, b: ns.gm_pairing((F(1, 2), 0), (1, 0)), id="gm_pairing"),
        pytest.param(
            lambda t, ns, b: ns.extended_pairing(
                ns.symmetry.generators()[0], (F(1, 2), 0), (0, 0)
            ),
            id="extended_pairing",
        ),
        pytest.param(lambda t, ns, b: extend_r(b, (F(1, 2), 0)), id="extend_r"),
        pytest.param(
            lambda t, ns, b: TropRepresentation((TropGLElement((0,), (1,)),)).value((F(3, 2),)),
            id="TropRepresentation.value",
        ),
    ],
)
def test_non_integral_exponents_are_refused(reference_torus, call):
    # a non-integral exponent or lattice coordinate is refused, never truncated
    ns = reference_class(reference_torus)
    b = NALineBundle(ns, Sublattice([[2, 0], [0, 1]]), (ONE, ONE))
    with pytest.raises(NotInLattice):
        call(reference_torus, ns, b)


def test_integral_fraction_exponents_are_integers(reference_torus):
    p = reference_torus.generators[1]
    assert eval_character(p, (F(2), F(-1))) == eval_character(p, (2, -1))
    assert reference_torus.embed((F(4, 2), 0)) == reference_torus.embed((2, 0))


def test_unit_character(reference_torus):
    chi = unit_character(reference_torus, (1, 0))
    # <., (1,0)> picks the first coordinate of each generator
    assert chi.values == (T_UNIF, MINUS_ONE)
    lam = (2, 3)
    assert chi.value(lam) == eval_character(reference_torus.embed(lam), (1, 0))
    other = unit_character(reference_torus, (0, 1))
    for c in (chi, chi * other):
        assert c == NACharacter(c.values)


# ---------------------------------------------------------------------------
# Line-bundle data and the cocycle extension
# ---------------------------------------------------------------------------


def test_na_bundle_validation(reference_torus):
    ns = reference_class(reference_torus)
    # the class is not symmetric for the multiplicative pairing on the full
    # lattice, only on the admissible covers
    with pytest.raises(InvalidClass):
        NALineBundle(ns, Sublattice.full(2), (ONE, ONE))
    ok = NALineBundle(ns, Sublattice([[2, 0], [0, 1]]), (ONE, ONE))
    assert ok.lattice.index == 2
    half = NSClass(reference_torus, Mat([[F(1, 2), 0], [0, 1]]))
    with pytest.raises(InvalidClass):
        NALineBundle(half, Sublattice.full(2), (ONE, ONE))
    trop_side = NSClass(TropTorus(Mat.identity(2)), Mat.identity(2))
    with pytest.raises(InvalidClass):
        NALineBundle(trop_side, Sublattice.full(2), (ONE, ONE))


def test_extend_r_on_basis_and_outside(reference_torus):
    ns = reference_class(reference_torus)
    lat = Sublattice([[2, 0], [0, 1]])
    b = NALineBundle(ns, lat, (mono(1, F(1, 4), 0), mono(1, 0, F(1, 2))))
    assert extend_r(b, (2, 0)) == mono(1, F(1, 4), 0)
    assert extend_r(b, (0, 1)) == mono(1, 0, F(1, 2))
    with pytest.raises(NotInLattice):
        extend_r(b, (1, 0))


def test_cocycle_identity_random():
    # r(a + b) = r(a) r(b) <a, class(b)> on the cover lattice
    rng = random.Random(173)
    for _ in range(25):
        g = rng.randint(1, 3)
        ns, lat = rand_symmetric_instance(rng, g)
        b = rand_na_bundle(rng, ns, lat)
        x = lat.mat.mul_vec(tuple(F(rng.randint(-2, 2)) for _ in range(g)))
        y = lat.mat.mul_vec(tuple(F(rng.randint(-2, 2)) for _ in range(g)))
        x = tuple(int(c) for c in x)
        y = tuple(int(c) for c in y)
        s = tuple(a + c for a, c in zip(x, y))
        assert extend_r(b, s) == extend_r(b, x) * extend_r(b, y) * ns.gm_pairing(x, y)


def test_restrict_na_is_consistent():
    rng = random.Random(179)
    for _ in range(15):
        g = rng.randint(1, 2)
        ns, lat = rand_symmetric_instance(rng, g)
        b = rand_na_bundle(rng, ns, lat)
        sub = Sublattice((lat.mat @ rand_sublattice(rng, g).mat).num)
        r = restrict_na(b, sub)
        for _ in range(4):
            v = sub.mat.mul_vec(tuple(F(rng.randint(-2, 2)) for _ in range(g)))
            v = tuple(int(c) for c in v)
            assert extend_r(r, v) == extend_r(b, v)


def test_restrict_na_requires_containment(reference_torus):
    ns = reference_class(reference_torus)
    b = NALineBundle(ns, Sublattice([[2, 0], [0, 1]]), (ONE, ONE))
    with pytest.raises(NotContained):
        restrict_na(b, Sublattice.full(2))


# ---------------------------------------------------------------------------
# Tropicalization of a line bundle
# ---------------------------------------------------------------------------


def test_tropicalize_flat_class_is_valuation(reference_torus):
    zero = NSClass(reference_torus, Mat.zeros(2, 2))
    b = NALineBundle(zero, Sublattice.full(2), (mono(1, 0, F(2, 3)), mono(1, F(1, 2), -1)))
    s = tropicalize_line_bundle(b)
    assert s.l == (F(2, 3), F(-1))
    assert s.ns == Mat.zeros(2, 2)


def test_tropicalize_one_dimensional_example():
    # r(generator) = t^2 and self-pairing 3 gives l = 2 - 3/2 = 1/2
    t = NATorus((MultiplicativePoint((mono(1, 0, 3),)),))
    ns = NSClass(t, Mat([[1]]))
    b = NALineBundle(ns, Sublattice.full(1), (mono(1, 0, 2),))
    s = tropicalize_line_bundle(b)
    assert ns.real_pairing((1,), (1,)) == 3
    assert s.l == (F(1, 2),)


def test_tropicalize_phase_free_example():
    t = NATorus(
        (
            MultiplicativePoint((T_UNIF, ONE)),
            MultiplicativePoint((ONE, T_UNIF)),
        )
    )
    ns = NSClass(t, Mat.identity(2))
    b = NALineBundle(ns, Sublattice.full(2), (ONE, ONE))
    assert tropicalize_line_bundle(b).l == (F(-1, 2), F(-1, 2))


def test_tropicalize_commutes_with_translation():
    # translating the multiplicative data then tropicalizing equals
    # tropicalizing and translating by minus the valuation vector
    rng = random.Random(181)
    for _ in range(20):
        g = rng.randint(1, 2)
        ns, lat = rand_symmetric_instance(rng, g)
        b = rand_na_bundle(rng, ns, lat)
        x = MultiplicativePoint(tuple(rand_unit_mono(rng) for _ in range(g)))
        lhs = tropicalize_line_bundle(translate_na(b, x))
        shift = tuple(-v for v in x.valuations())
        rhs = translate(as_bundle(tropicalize_line_bundle(b)), shift).summands[0]
        assert lhs == rhs


# ---------------------------------------------------------------------------
# Simple bundles: presentation independence and moduli coordinates
# ---------------------------------------------------------------------------


def test_tropicalize_simple_requires_admissible(reference_torus):
    ns = reference_class(reference_torus)
    b = NALineBundle(ns, Sublattice([[2, 0], [0, 2]]), (ONE, ONE, ))
    with pytest.raises(NotAdmissible):
        tropicalize_simple(b)


def test_tropicalize_simple_presentation_independent(reference_torus):
    rng = random.Random(191)
    ns = reference_class(reference_torus)
    lattices = ns.admissible_lattices()
    for _ in range(10):
        base = NALineBundle(
            ns, lattices[0], (rand_unit_mono(rng), rand_unit_mono(rng))
        )
        p0 = tropicalize_simple(base)
        for other in lattices[1:]:
            moved = represent_on(base, other)
            assert moved.lattice == other
            assert tropicalize_simple(moved) == p0


def isotropic_covers(ns):
    """Every cover between the symmetry and integrality lattices on which the
    class is multiplicatively symmetric: one per isotropic defect subgroup."""
    q = ns.defect_group
    base = ns.symmetry.generators()
    k = len(q.invariant_factors)
    covers = []
    for order in (d for d in range(1, q.order + 1) if q.order % d == 0):
        for basis in enumerate_subgroups(q, order, bound=10**6):
            lifts = [q.lift([row[j] for row in basis]) for j in range(k)]
            lat = Sublattice.from_generators(base + lifts)
            if ns.is_gm_symmetric_on(lat):
                covers.append(lat)
    return covers


def admits(b):
    try:
        tropicalize_simple(b)
    except NotAdmissible:
        return False
    return True


def test_admissibility_from_the_index_matches_enumeration():
    classes = list(bounded_defect_instances()) + [
        _unit_class(4, phases)
        for phases in (
            {(0, 1): F(1, 2), (2, 3): F(1, 2)},
            {(0, 1): F(1, 3), (2, 3): F(1, 3)},
            {(0, 1): F(1, 4), (2, 3): F(1, 2)},
        )
    ]
    checked = rejected = 0
    for ns in classes:
        admissible = set(ns.admissible_lattices())
        g = ns.torus.g
        for lat in isotropic_covers(ns):
            # the finer cover 2L is isotropic too, but of the wrong index
            for cover in (lat, lat.scaled(2)):
                b = NALineBundle(ns, cover, (ONE,) * g)
                assert admits(b) == (cover in admissible)
                checked += 1
                rejected += cover not in admissible
    assert checked > 1000 and rejected > 500


def test_tropicalize_simple_needs_no_enumeration():
    # (Z/101)^2 has order 10,201, beyond any default enumeration bound
    ns = _cyclic_square_class(101)
    assert ns.class_rank() == 101
    b = NALineBundle(ns, Sublattice([[1, 0], [0, 101]]), (ONE, mono(phase=F(1, 3))))
    point = tropicalize_simple(b)
    assert point.gamma == ns.symmetry == Sublattice([[101, 0], [0, 101]])
    for other in ([[101, 0], [0, 1]], [[101, 0], [7, 1]]):
        assert tropicalize_simple(represent_on(b, Sublattice(other))) == point
    with pytest.raises(NotAdmissible):
        tropicalize_simple(NALineBundle(ns, ns.symmetry, (ONE, ONE)))


def test_represent_on_round_trip(reference_torus):
    rng = random.Random(193)
    ns = reference_class(reference_torus)
    lats = ns.admissible_lattices()
    b = NALineBundle(ns, lats[0], (rand_unit_mono(rng), rand_unit_mono(rng)))
    there = represent_on(b, lats[2])
    back = represent_on(there, lats[0])
    # same bundle: restrictions to the symmetry lattice agree
    gamma = ns.symmetry
    assert restrict_na(back, gamma).r_basis == restrict_na(b, gamma).r_basis


def test_represent_on_root_obstruction(reference_torus):
    # magnitude 3 has no exact square root in the monomial model
    ns = reference_class(reference_torus)
    b = NALineBundle(ns, Sublattice([[2, 0], [0, 1]]), (mono(3), ONE))
    with pytest.raises(ValueError):
        represent_on(b, Sublattice([[1, 0], [0, 2]]))


def test_character_twist_preserves_moduli(reference_torus):
    rng = random.Random(197)
    ns = reference_class(reference_torus)
    lat = ns.admissible_lattices()[0]
    for _ in range(10):
        b = NALineBundle(ns, lat, (rand_unit_mono(rng), rand_unit_mono(rng)))
        m = (rng.randint(-3, 3), rng.randint(-3, 3))
        chi = NACharacter(
            tuple(
                eval_character(gen, m) for gen in reference_torus.generators
            )
        )
        twisted = bundle_times_character(b, chi)
        assert tropicalize_simple(twisted) == tropicalize_simple(b)


# ---------------------------------------------------------------------------
# Semisimple representations and the commuting square
# ---------------------------------------------------------------------------


def test_semisimple_rep_canonical_order():
    c1 = NACharacter((mono(1, 0, 1), ONE))
    c2 = NACharacter((ONE, mono(1, F(1, 2), 0)))
    assert NASemisimpleRep((c1, c2)) == NASemisimpleRep((c2, c1))
    assert NASemisimpleRep((c1, c2)).r == 2
    with pytest.raises(SizeMismatch):
        NASemisimpleRep(())
    with pytest.raises(SizeMismatch):
        NASemisimpleRep((c1, NACharacter((ONE,))))


def fraction_order(chars):
    """The characters sorted by their values' Fractions: the order that the
    integer keys must give."""
    def key(c):
        return tuple((v.magnitude, v.phase, v.t_exponent) for v in c.values)

    return sorted(chars, key=key)


def rand_tied_characters(rng, r, g):
    """r characters of rank g drawn from few magnitudes, phases and (also negative)
    t-exponents, so that ties run deep, with duplicates as distinct objects."""
    def value():
        return mono(
            rng.choice([1, F(1, 2), F(3, 2), 2, F(5, 12)]),
            rng.choice([0, F(1, 2), F(1, 3), F(5, 6)]),
            F(rng.randint(-6, 6), rng.choice([1, 2, 4, 12])),
        )

    chars = [NACharacter(tuple(value() for _ in range(g))) for _ in range(r)]
    chars += [NACharacter(c.values) for c in rng.sample(chars, rng.randint(0, r))]
    rng.shuffle(chars)
    return chars


def test_character_order_matches_the_fraction_key_order():
    rng = random.Random(269)
    for _ in range(300):
        chars = rand_tied_characters(rng, rng.randint(1, 12), rng.randint(0, 3))
        expected = fraction_order(chars)
        got = NASemisimpleRep(tuple(chars)).characters
        # equal characters keep their given order: the sort is stable
        assert [id(c) for c in got] == [id(c) for c in expected]


def test_decoded_character_order_matches_the_fraction_key_order():
    rng = random.Random(271)
    for _ in range(200):
        chars = rand_tied_characters(rng, rng.randint(1, 12), rng.randint(1, 3))
        data = {"characters": [jsonio.character_to_json(c) for c in chars]}
        decoded = [jsonio.character_from_json(c) for c in data["characters"]]
        assert jsonio.na_rep_from_json(data).characters == tuple(fraction_order(decoded))


def test_trop_rep_is_diagonal_valuations():
    c1 = NACharacter((mono(2, 0, F(1, 3)), mono(1, F(1, 2), -1)))
    c2 = NACharacter((T_UNIF, ONE))
    rep = NASemisimpleRep((c1, c2))
    t = trop_rep(rep)
    assert t.r == 2 and t.g == 2
    order = rep.characters
    for j in range(2):
        img = t.images[j]
        assert img.perm == (0, 1)
        assert img.d == tuple(c.values[j].valuation() for c in order)


def test_bundles_from_rep(reference_torus):
    c1 = NACharacter((mono(1, 0, 1), ONE))
    rep = NASemisimpleRep((c1,))
    (b,) = bundles_from_rep(rep, reference_torus)
    assert b.lattice == Sublattice.full(2)
    assert b.ns.matrix == Mat.zeros(2, 2)
    assert b.r_basis == c1.values


def test_characters_equal_mod_m(reference_torus):
    base = NACharacter((mono(1, F(1, 3), 0), mono(1, 0, F(1, 2))))
    twist = unit_character(reference_torus, (1, 0))
    assert characters_equal_mod_m(base, base * twist, reference_torus)
    # a bare sign flip on the second value matches no integral character
    flipped = NACharacter((base.values[0], base.values[1] * MINUS_ONE))
    assert not characters_equal_mod_m(base, flipped, reference_torus)
    # ratio (t, -1) is the character (1, 0)
    a = NACharacter((ONE, ONE))
    b = NACharacter((T_UNIF, MINUS_ONE))
    assert characters_equal_mod_m(a, b, reference_torus)


def test_equal_mod_m_same_moduli_point(reference_torus):
    # equivalent characters present the same degree-zero bundle: equal points
    zero = Mat.zeros(2, 2)
    full = Sublattice.full(2)
    base = NACharacter((mono(1, 0, F(1, 3)), mono(1, F(1, 2), F(2, 7))))
    twist = unit_character(reference_torus, (2, -1))
    pts = []
    for chi in (base, base * twist):
        rep = NASemisimpleRep((chi,))
        (b,) = bundles_from_rep(rep, reference_torus)
        pts.append(moduli_point(tropicalize_line_bundle(b), full, zero))
    assert pts[0] == pts[1]


def test_verify_commuting_square_random():
    rng = random.Random(199)
    for _ in range(15):
        g = rng.randint(1, 3)
        torus = rand_unit_torus(rng, g)
        chars = tuple(
            NACharacter(tuple(rand_unit_mono(rng) for _ in range(g)))
            for _ in range(rng.randint(1, 3))
        )
        ok, via_na, via_trop = verify_commuting_square(NASemisimpleRep(chars), torus)
        assert ok
        assert via_na == via_trop
        assert len(via_na) == len(chars)
        assert via_na == sorted(via_na, key=lambda p: p.coords)


@settings(derandomize=True, deadline=None, max_examples=60, database=None)
@given(st.integers(1, 3), st.integers(1, 12), st.integers(0, 2**32))
def test_commuting_square_lists_are_sorted_by_coordinates(g, r, seed):
    # the integer keys over one denominator order the points as their
    # Fraction coordinates do
    rng = random.Random(seed)
    torus = rand_unit_torus(rng, g)
    chars = tuple(NACharacter(tuple(rand_unit_mono(rng) for _ in range(g))) for _ in range(r))
    ok, via_na, via_trop = verify_commuting_square(NASemisimpleRep(chars), torus)
    assert via_na == sorted(via_na, key=lambda p: p.coords)
    assert via_trop == sorted(via_trop, key=lambda p: p.coords)
    assert ok is (via_na == via_trop)


def test_commuting_square_reduces_once_per_side(monkeypatch):
    # all r points of a side share (full lattice, zero class): one batched
    # reduction per side, counted at the one integer reducer, and the diagonal
    # representation's one-point orbits need no Hermite form
    calls = {"_reduce_num": 0, "from_generators": 0}
    real_reduce_num = Sublattice._reduce_num
    real_from_generators = Sublattice.from_generators

    def counting_reduce_num(self, pairs):
        calls["_reduce_num"] += 1
        return real_reduce_num(self, pairs)

    def counting_from_generators(gens):
        calls["from_generators"] += 1
        return real_from_generators(gens)

    rng = random.Random(463)
    for g in (2, 3):
        torus = rand_unit_torus(rng, g)
        chars = tuple(
            NACharacter(tuple(rand_unit_mono(rng) for _ in range(g))) for _ in range(32)
        )
        rep = NASemisimpleRep(chars)
        monkeypatch.setattr(Sublattice, "_reduce_num", counting_reduce_num)
        monkeypatch.setattr(Sublattice, "from_generators", staticmethod(counting_from_generators))
        calls.update(_reduce_num=0)
        ok, via_na, _ = verify_commuting_square(rep, torus)
        reduced = calls["_reduce_num"]
        calls.update(from_generators=0)
        bundle = bundle_from_rep(trop_rep(rep), torus.trop())
        monkeypatch.undo()
        assert ok and len(via_na) == 32 and len(bundle.summands) == 32
        assert reduced == 2
        assert calls["from_generators"] == 0


def test_verify_commuting_square_twist_invariant(reference_torus):
    rng = random.Random(211)
    chars = tuple(
        NACharacter((rand_unit_mono(rng), rand_unit_mono(rng))) for _ in range(3)
    )
    rep = NASemisimpleRep(chars)
    ok, via_na, _ = verify_commuting_square(rep, reference_torus)
    assert ok
    twist = unit_character(reference_torus, (1, -2))
    twisted = NASemisimpleRep(tuple(c * twist for c in chars))
    ok2, via_na2, _ = verify_commuting_square(twisted, reference_torus)
    assert ok2
    assert [p.coords for p in via_na2] == [p.coords for p in via_na]


# ---------------------------------------------------------------------------
# Tropicalization against its definition; internal constructors
# ---------------------------------------------------------------------------


def reference_na_bundles():
    """The NA bundles of the shipped reference scenario."""
    data = json.loads((SCENARIOS / "reference_example.json").read_text(encoding="utf-8"))
    torus = jsonio.torus_from_json(data["torus"])
    h = jsonio.matrix_from_json(data["ns_class"])
    return [jsonio.na_bundle_from_json(b, torus, h) for b in data["na_bundles"].values()]


def test_tropicalize_line_bundle_matches_definition():
    # l = v(r) - (1/2) [v, v]-real on the basis, with r through extend_r
    rng = random.Random(241)
    bundles = reference_na_bundles()
    while len(bundles) < 30:
        g = rng.randint(1, 3)
        ns, lat = rand_symmetric_instance(rng, g)
        if not lat.is_full() and ns.matrix != Mat.zeros(g, g):
            bundles.append(rand_na_bundle(rng, ns, lat))
    for b in bundles:
        assert not b.lattice.is_full() and b.ns.matrix != Mat.zeros(b.ns.torus.g, b.ns.torus.g)
        expected = tuple(
            extend_r(b, v).valuation() - F(1, 2) * b.ns.real_pairing(v, v)
            for v in b.lattice.generators()
        )
        s = tropicalize_line_bundle(b)
        assert s.l == expected
        assert s == TropLineBundle(TropTorus(b.ns.torus.v), b.lattice, b.ns.matrix, expected)


def test_tropicalize_line_bundle_takes_no_form_of_the_zero_class(monkeypatch, reference_torus):
    # the zero class pairs every vector to 0, so no Gram image is taken for it;
    # a nonzero class still takes one per basis vector
    rng = random.Random(242)
    zero = []
    for _ in range(20):
        g = rng.randint(1, 3)
        ns = NSClass(rand_unit_torus(rng, g), Mat.zeros(g, g))
        zero.append(rand_na_bundle(rng, ns, rand_sublattice(rng, g)))
    characters = tuple(NACharacter((rand_unit_mono(rng), rand_unit_mono(rng))) for _ in range(4))
    zero += bundles_from_rep(NASemisimpleRep(characters), reference_torus)
    nonzero = reference_na_bundles()
    expected = [
        tuple(extend_r(b, v).valuation() - F(1, 2) * b.ns.real_pairing(v, v)
              for v in b.lattice.generators())
        for b in zero + nonzero
    ]
    images = []
    num_image = Mat.num_image

    def spy(self, v):
        images.append(v)
        return num_image(self, v)

    monkeypatch.setattr(Mat, "num_image", spy)
    assert [tropicalize_line_bundle(b).l for b in zero] == expected[: len(zero)]
    assert images == []
    assert [tropicalize_line_bundle(b).l for b in nonzero] == expected[len(zero) :]
    assert len(images) == sum(b.ns.torus.g for b in nonzero)


def test_internal_bundles_equal_public_construction(reference_torus):
    rng = random.Random(251)
    chars = tuple(NACharacter((rand_unit_mono(rng), rand_unit_mono(rng))) for _ in range(5))
    rep = NASemisimpleRep(chars)
    bundles = bundles_from_rep(rep, reference_torus)
    assert [b.r_basis for b in bundles] == [c.values for c in rep.characters]
    for b in bundles:
        assert b == NALineBundle(b.ns, b.lattice, b.r_basis)
    assert bundles[0].ns == NSClass(reference_torus, Mat.zeros(2, 2))
    # the one input that can be wrong: a torus that is not multiplicative
    with pytest.raises(InvalidClass, match="the class must live on a multiplicative torus"):
        bundles_from_rep(rep, reference_torus.trop())
    for img in trop_rep(rep).images:
        assert img == TropGLElement(img.perm, img.d)
    assert reference_torus.trop() is reference_torus.trop()
    assert reference_torus.trop() == TropTorus(reference_torus.v)
    # the public constructor still validates
    ns = reference_class(reference_torus)
    with pytest.raises(InvalidClass):
        NALineBundle(ns, Sublattice.full(2), (ONE, ONE))
    with pytest.raises(AmbientMismatch):
        NALineBundle(ns, Sublattice([[2, 0], [0, 1]]), (ONE,))


def test_internal_trop_bundles_equal_public_construction():
    # bundle_from_rep and tropicalize_line_bundle skip the checks of the
    # public TropLineBundle constructor on data valid by construction
    rng = random.Random(277)
    summands = []
    for _ in range(6):
        g = rng.randint(1, 3)
        ns, lat = rand_symmetric_instance(rng, g)
        b = rand_na_bundle(rng, ns, lat)
        summands.append(tropicalize_line_bundle(b))
        chars = tuple(
            NACharacter(tuple(rand_unit_mono(rng) for _ in range(g))) for _ in range(3)
        )
        trop = ns.torus.trop()
        summands.extend(bundle_from_rep(trop_rep(NASemisimpleRep(chars)), trop).summands)
    for s in summands:
        assert all(type(x) is Fraction for x in s.l)
        rebuilt = TropLineBundle(s.torus, s.lattice, s.ns, s.l)
        assert s == rebuilt and hash(s) == hash(rebuilt)
    # the public constructor still validates
    asymmetric = Mat([[0, 1], [0, 0]])
    with pytest.raises(InvalidClass):
        TropLineBundle(TropTorus(Mat.identity(2)), Sublattice.full(2), asymmetric, (0, 0))


def test_na_operations_equal_public_construction(reference_torus):
    # restrict_na, represent_on, translate_na and bundle_times_character
    # build their results without re-running the public checks
    rng = random.Random(281)
    bundles = reference_na_bundles()
    while len(bundles) < 21:
        ns, lat = rand_symmetric_instance(rng, rng.randint(1, 3))
        bundles.append(rand_na_bundle(rng, ns, lat))
    moved = 0
    for b in bundles:
        g = b.ns.torus.g
        sub = Sublattice((b.lattice.mat @ rand_sublattice(rng, g, 2).mat).num)
        x = MultiplicativePoint(tuple(rand_unit_mono(rng) for _ in range(g)))
        chi = NACharacter(tuple(rand_unit_mono(rng) for _ in range(g)))
        results = [restrict_na(b, sub), translate_na(b, x), bundle_times_character(b, chi)]
        for other in b.ns.admissible_lattices() if g == 2 else ():
            try:
                results.append(represent_on(b, other))
            except ValueError:
                continue  # no exact root in the monomial model
            moved += 1
        for r in results:
            assert r == NALineBundle(r.ns, r.lattice, r.r_basis)
    assert moved >= 3
    # the public checks still run on a new cover
    ns = reference_class(reference_torus)
    b = NALineBundle(ns, Sublattice([[2, 0], [0, 1]]), (ONE, ONE))
    with pytest.raises(InvalidClass):
        represent_on(b, Sublattice.full(2))
    for wrong in (Sublattice([[2]]), Sublattice([[2, 0, 0], [0, 1, 0], [0, 0, 1]])):
        with pytest.raises(AmbientMismatch):
            restrict_na(b, wrong)
        with pytest.raises(AmbientMismatch):
            represent_on(b, wrong)
