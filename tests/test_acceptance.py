"""End-to-end acceptance suite.

Each test exercises one headline guarantee of the package across randomized or
exhaustive families, always with exact equality.  Random data is generated
from fixed seeds; expected values are either structural identities or were
computed by independent oracles before being frozen here.
"""

import functools
import itertools
import json
import operator
import random
from fractions import Fraction
from pathlib import Path

from tropabel.bundles import (
    TropLineBundle,
    TropVectorBundle,
    cover_torus,
    equivalent,
    is_homogeneous,
    moduli_point,
    pullback,
    pushforward,
    slope,
    tensor,
    translate,
)
from tropabel.cli import main
from tropabel.groups import quotient
from tropabel.lattices import QLattice, Sublattice
from tropabel.linalg import Mat
from tropabel.monomials import MultiplicativePoint, ValuedMonomial
from tropabel.naside import (
    NACharacter,
    NALineBundle,
    NASemisimpleRep,
    extend_r,
    tropicalize_line_bundle,
    unit_character,
    verify_commuting_square,
)
from tropabel.nspairings import NSClass
from tropabel.tori import (
    NATorus,
    TropTorus,
    dual_integrality_lattice,
    extended_character_lattice,
    is_r_symmetric,
)
from tropabel.tropchar import (
    bundle_from_rep,
    canonical_form,
    conjugate,
    rep_from_bundle,
    TropGLElement,
)

from conftest import (
    MINUS_ONE,
    ONE,
    T_UNIF,
    mono,
    rand_fraction,
    rand_integral_symmetric,
    rand_mono,
    rand_sublattice,
    rand_unit_mono,
    rand_unit_torus,
    reduce_mod_lattice,
    ref_character_product,
    ref_l_value,
    ref_lift,
    ref_mul_vec,
    ref_real_pairing,
    ref_scaled,
    ref_torsion_order,
    sublattices_of_index_at_most,
)

F = Fraction
SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


# ---------------------------------------------------------------------------
# 1. The running example, end to end
# ---------------------------------------------------------------------------


def test_running_example_regression():
    torus = NATorus(
        (
            MultiplicativePoint((T_UNIF, ONE)),
            MultiplicativePoint((MINUS_ONE, T_UNIF)),
        )
    )
    h = Mat.identity(2)
    ns = NSClass(torus, h)
    assert is_r_symmetric(h, torus.v)
    assert ns.gm_pairing((1, 0), (0, 1)) == ONE
    assert ns.gm_pairing((0, 1), (1, 0)) == MINUS_ONE
    # the class itself is not symmetric for the multiplicative pairing on the
    # full lattice, but its double is
    full = Sublattice.full(2)
    assert not ns.is_gm_symmetric_on(full)
    assert NSClass(torus, h.scale(2)).is_gm_symmetric_on(full)
    # distinguished lattices
    assert ns.integrality == full
    two_lambda = Sublattice([[2, 0], [0, 2]])
    assert ns.symmetry == two_lambda
    index_two = [
        lat
        for lat in sublattices_of_index_at_most(2, 2)
        if lat.index == 2 and lat.contains_lattice(two_lambda)
    ]
    assert ns.admissible_lattices() == sorted(index_two, key=lambda l: l.basis)
    assert len(ns.admissible_lattices()) == 3
    assert ns.class_rank() == 2


# ---------------------------------------------------------------------------
# Shared randomized instances: unit tori with integral symmetric classes and
# a defect group of order at most 64
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=1)
def bounded_defect_instances():
    rng = random.Random(2024)
    out = []
    while len(out) < 50:
        g = rng.choice([1, 2, 2, 2, 3])
        torus = rand_unit_torus(rng, g)
        ns = NSClass(torus, rand_integral_symmetric(rng, torus.v))
        if ns.defect_group.order <= 64:
            out.append(ns)
    return tuple(out)


def test_symmetry_is_intersection_of_admissible_covers():
    nontrivial = 0
    for ns in bounded_defect_instances():
        lats = ns.admissible_lattices()
        meet = functools.reduce(operator.and_, lats)
        assert meet == ns.symmetry
        if len(lats) > 1:
            nontrivial += 1
    assert nontrivial >= 10


# ---------------------------------------------------------------------------
# 3. Index duality of the two auxiliary lattices of a rational class
# ---------------------------------------------------------------------------


def test_character_extension_index_duality():
    rng = random.Random(3001)
    for _ in range(100):
        g = rng.randint(1, 4)
        h = Mat([[rand_fraction(rng, -4, 4, 4) for _ in range(g)] for _ in range(g)])
        enlarged = extended_character_lattice(h).index_over(QLattice.standard(g))
        assert enlarged == dual_integrality_lattice(h).index


# ---------------------------------------------------------------------------
# 4. The alternating pairing on the defect group
# ---------------------------------------------------------------------------


def test_torsion_pairing_nondegenerate_on_defect():
    for ns in bounded_defect_instances():
        gens = ns.integrality.generators()
        for i, a in enumerate(gens):
            for b in gens[i:]:
                assert ref_torsion_order(ns.torsion_pairing(a, b)) is not None
        q = ns.defect_group
        elements = itertools.product(*map(range, q.invariant_factors))
        lifts = {e: ref_lift(q, e, ns.torus.g) for e in elements}
        zero = tuple(0 for _ in q.invariant_factors)
        for e, le in lifts.items():
            if e == zero:
                continue
            assert any(
                ns.torsion_pairing(le, lf) != ONE for lf in lifts.values()
            ), "nonzero defect element pairs trivially with everything"


# ---------------------------------------------------------------------------
# 5. Valuation of multiplicative bundle data linearizes exactly
# ---------------------------------------------------------------------------


def test_multiplicative_data_linearizes_under_valuation():
    rng = random.Random(5005)
    for _ in range(100):
        g = rng.randint(1, 3)
        torus = rand_unit_torus(rng, g)
        ns = NSClass(torus, rand_integral_symmetric(rng, torus.v))
        lat = ns.symmetry
        b = NALineBundle(ns, lat, tuple(rand_unit_mono(rng) for _ in range(g)))

        def trop_value(v):
            return extend_r(b, v).valuation() - F(1, 2) * ref_real_pairing(ns, v, v)

        x = ref_mul_vec(lat.mat, tuple(F(rng.randint(-2, 2)) for _ in range(g)))
        y = ref_mul_vec(lat.mat, tuple(F(rng.randint(-2, 2)) for _ in range(g)))
        x = tuple(int(c) for c in x)
        y = tuple(int(c) for c in y)
        s = tuple(p + q for p, q in zip(x, y))
        # cocycle identity of the multiplicative data
        assert extend_r(b, s) == extend_r(b, x) * extend_r(b, y) * ns.gm_pairing(x, y)
        # its valuation shifted by half the self-pairing is additive ...
        assert trop_value(s) == trop_value(x) + trop_value(y)
        # ... and is exactly the covector of the tropicalized bundle
        trop = tropicalize_line_bundle(b)
        assert trop.l == tuple(trop_value(v) for v in lat.generators())
        assert ref_l_value(trop, x) == trop_value(x)


# ---------------------------------------------------------------------------
# 6. Moduli coordinates classify equivalence, independently of the cover
# ---------------------------------------------------------------------------


def test_moduli_coordinates_classify_equivalence():
    torus = TropTorus(Mat.identity(2))
    gamma = Sublattice([[2, 0], [0, 2]])
    covers = [
        lat
        for lat in sublattices_of_index_at_most(2, 4)
        if lat.contains_lattice(gamma)
    ]
    assert len(covers) == 5  # the lattices between 2Z^2 and Z^2
    grid = [F(0), F(1, 2), F(1, 3)]
    classes = [Mat.zeros(2, 2), Mat.identity(2)]
    for ns in classes:
        pool = [
            TropLineBundle(torus, lat, ns, (a, b))
            for lat in covers
            for a in grid
            for b in grid
        ]
        points = [moduli_point(s, gamma, ns) for s in pool]
        for i, s1 in enumerate(pool):
            for j in range(i, len(pool)):
                s2 = pool[j]
                inter = s1.lattice & s2.lattice
                via_inter = equivalent(s1, s2)
                # equivalence does not depend on the chosen common cover
                assert via_inter == equivalent(s1, s2, cover=gamma)
                assert via_inter == equivalent(s1, s2, cover=ref_scaled(inter, 2))
                # and is decided exactly by the canonical coordinates
                assert via_inter == (points[i] == points[j])
    # different classes never mix
    flat = TropLineBundle(torus, gamma, classes[0], (0, 0))
    curved = TropLineBundle(torus, gamma, classes[1], (0, 0))
    assert not equivalent(flat, curved)


# ---------------------------------------------------------------------------
# 7. Homogeneous bundles and lattice representations determine each other
# ---------------------------------------------------------------------------


def test_homogeneous_bundles_match_representations():
    torus = TropTorus(Mat.identity(2))
    zero = Mat.zeros(2, 2)
    rng = random.Random(7007)
    grid = [F(0), F(1, 2)]
    cases = []
    for lat in sublattices_of_index_at_most(2, 3):
        for a in grid:
            for b in grid:
                cases.append(TropVectorBundle(torus, (TropLineBundle(torus, lat, zero, (a, b)),)))
    # a couple of genuinely decomposable bundles
    cases.append(
        TropVectorBundle(torus, 
            [
                TropLineBundle(torus, Sublattice([[2, 0], [0, 1]]), zero, (F(1, 2), 0)),
                TropLineBundle(torus, Sublattice.full(2), zero, (F(1, 5), F(2, 5))),
            ]
        )
    )
    cases.append(
        TropVectorBundle(torus, 
            [
                TropLineBundle(torus, Sublattice([[3, 0], [0, 1]]), zero, (F(1, 3), 0)),
                TropLineBundle(torus, Sublattice([[3, 0], [0, 1]]), zero, (F(2, 3), 0)),
            ]
        )
    )
    for e in cases:
        rep = rep_from_bundle(e)
        assert rep.r == e.rank
        assert is_homogeneous(bundle_from_rep(rep, torus))
        # the induced representation presents exactly the bundle we started from
        assert bundle_from_rep(rep, torus) == e
        base = canonical_form(rep)
        for _ in range(100):
            perm = list(range(rep.r))
            rng.shuffle(perm)
            elt = TropGLElement(
                tuple(perm), tuple(rand_fraction(rng) for _ in range(rep.r))
            )
            assert canonical_form(conjugate(rep, elt)) == base


# ---------------------------------------------------------------------------
# 8. Tropicalization commutes with building the bundle of a representation
# ---------------------------------------------------------------------------


def test_square_commutes_for_random_representations():
    rng = random.Random(8008)
    for _ in range(100):
        g = rng.randint(1, 3)
        r = rng.randint(1, 4)
        torus = rand_unit_torus(rng, g)
        rep = NASemisimpleRep(
            tuple(
                NACharacter(tuple(rand_mono(rng) for _ in range(g)))
                for _ in range(r)
            )
        )
        ok, via_na, via_trop = verify_commuting_square(rep, torus)
        assert ok and via_na == via_trop
        # twisting every character by an integral character moves nothing
        m = tuple(rng.randint(-3, 3) for _ in range(g))
        chi = unit_character(torus, m)
        twisted = NASemisimpleRep(tuple(ref_character_product(c, chi) for c in rep.characters))
        ok2, via_na2, _ = verify_commuting_square(twisted, torus)
        assert ok2
        assert [p.coords for p in via_na2] == [p.coords for p in via_na]


# ---------------------------------------------------------------------------
# 9. Tensor algebra and the cover round trip
# ---------------------------------------------------------------------------


def test_tensor_rank_slope_and_cover_identities():
    rng = random.Random(9009)

    def rand_trop_torus(g):
        while True:
            v = Mat([[rng.randint(-2, 2) for _ in range(g)] for _ in range(g)])
            if v.det() != 0:
                return TropTorus(v)

    for _ in range(20):
        g = rng.randint(1, 2)
        torus = rand_trop_torus(g)
        mk = lambda: TropLineBundle(
            torus,
            rand_sublattice(rng, g),
            rand_integral_symmetric(rng, torus.v),
            [rand_fraction(rng) for _ in range(g)],
        )
        e1 = TropVectorBundle(torus, [mk() for _ in range(rng.randint(1, 2))])
        e2 = TropVectorBundle(torus, [mk() for _ in range(rng.randint(1, 2))])
        t = tensor(e1, e2)
        assert t.rank == e1.rank * e2.rank
        s1, s2 = TropVectorBundle(torus, (mk(),)), TropVectorBundle(torus, (mk(),))
        assert slope(tensor(s1, s2)) == slope(s1) + slope(s2)

    # pulling a pushforward back along the same cover is exactly the sum of
    # the coset translates, for every cover of index up to 4
    torus = TropTorus(Mat.identity(2))
    for sub in sublattices_of_index_at_most(2, 4):
        cov = cover_torus(torus, sub)
        for _ in range(2):
            lb = TropLineBundle(
                cov,
                Sublattice.full(2),
                rand_integral_symmetric(rng, cov.v),
                [rand_fraction(rng), rand_fraction(rng)],
            )
            e = TropVectorBundle(cov, (lb,))
            round_trip = pullback(pushforward(e, sub, torus), sub)
            q = quotient(Sublattice.full(2), sub)
            pieces = []
            for elt in itertools.product(*map(range, q.invariant_factors)):
                delta = reduce_mod_lattice(ref_lift(q, elt, 2), sub.mat)
                shift = ref_mul_vec(torus.v, (delta[0], delta[1]))
                pieces.extend(translate(e, shift).summands)
            assert round_trip == TropVectorBundle(cov, pieces)


# ---------------------------------------------------------------------------
# 10. The command-line surface is deterministic and lossless
# ---------------------------------------------------------------------------

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


def test_cli_byte_determinism_and_round_trip(tmp_path):
    for k, (command, op, scenario) in enumerate(CLI_MATRIX):
        argv = [command] + ([op] if op else []) + ["--scenario", str(SCENARIOS / scenario)]
        outputs = []
        for attempt in range(2):
            target = tmp_path / f"run_{k}_{attempt}.json"
            code = main(argv + ["--out", str(target)])
            assert code == 0, (command, op, scenario)
            outputs.append(target.read_bytes())
        assert outputs[0] == outputs[1], (command, op, scenario)
        text = outputs[0].decode("utf-8")
        # the emitted report reserializes to the identical bytes
        assert json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n" == text
