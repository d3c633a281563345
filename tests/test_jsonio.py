"""The wire decoders against the public constructors.

Each decoder checks what only the wire can get wrong, runs the one semantic
check that the constructor also runs, and builds its value unchecked.  So on
the same data a decoded value equals the value the public constructors build,
and a decoder refuses exactly what they refuse, with the same exception class
and message.  The public path here reads the wire data with the constructors
alone (``Mat`` and ``rat`` coerce the "p/q" strings), not with ``jsonio``.
"""

import ast
import json
import random
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from tropabel import bundles, jsonio, lattices, tori
from tropabel.bundles import TropLineBundle, TropVectorBundle
from tropabel.errors import DimensionMismatch, SingularLattice, TropabelError
from tropabel.lattices import Sublattice
from tropabel.linalg import Mat
from tropabel.rationals import LATTICE_CACHE_SIZE, TORUS_CACHE_SIZE
from tropabel.monomials import MultiplicativePoint, ValuedMonomial
from tropabel.naside import NACharacter, NALineBundle, NASemisimpleRep
from tropabel.nspairings import NSClass
from tropabel.tori import NATorus, TropTorus, integrality_lattice
from tropabel.tropchar import TropGLElement, TropRepresentation

from conftest import (
    outcome,
    rand_r_symmetric,
    rand_sublattice,
    ref_entries,
    ref_is_hermite,
    ref_is_r_symmetric,
    ref_lattice_from_json,
    ref_matrix_from_json,
)

F = Fraction
SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


# ---------------------------------------------------------------------------
# The public path: the same wire data through the constructors
# ---------------------------------------------------------------------------


def public_summand(data, torus):
    return TropLineBundle(torus, Sublattice(data["lattice"]), Mat(data["H"]), tuple(data["l"]))


def public_bundle(data, torus):
    return TropVectorBundle(torus, [public_summand(s, torus) for s in data["summands"]])


def public_element(data):
    return TropGLElement(tuple(i - 1 for i in data["perm"]), tuple(data["d"]))


def public_rep(data):
    return TropRepresentation(tuple(public_element(a) for a in data["images"]))


def public_mono(data):
    return ValuedMonomial(data["mag"], data["phase"], data["texp"])


def public_point(data):
    return MultiplicativePoint(tuple(public_mono(c) for c in data))


def public_character(data):
    return NACharacter(tuple(public_mono(v) for v in data))


def public_na_rep(data):
    return NASemisimpleRep(tuple(public_character(c) for c in data["characters"]))


def public_na_bundle(data, torus, default_ns):
    h = Mat(data["H"]) if "H" in data else default_ns
    lattice = Sublattice(data["lattice"]) if "lattice" in data else Sublattice.full(torus.g)
    return NALineBundle(NSClass(torus, h), lattice, tuple(public_mono(v) for v in data["r"]))


def public_torus(data):
    if "generators" in data:
        return NATorus(tuple(public_point(p) for p in data["generators"]))
    return TropTorus(Mat(data["v"]))


def assert_same_refusal(decode, build):
    with pytest.raises(TropabelError) as decoded:
        decode()
    with pytest.raises(TropabelError) as built:
        build()
    assert type(decoded.value) is type(built.value)
    assert str(decoded.value) == str(built.value)


# ---------------------------------------------------------------------------
# Random valid wire data
# ---------------------------------------------------------------------------


def wire_rational(rng, den=(1, 2, 3, 4, 6)):
    """A random rational in one of its wire spellings, sometimes unreduced."""
    x = F(rng.randint(-9, 9), rng.choice(den))
    k = rng.choice([1, 1, 2])
    return rng.choice([str(x), f"{k * x.numerator}/{k * x.denominator}"])


def wire_matrix(m: Mat):
    return [[str(x) for x in row] for row in ref_entries(m)]


def rand_period_matrix(rng, g):
    while True:
        v = Mat([[F(rng.randint(-3, 3), rng.choice([1, 2])) for _ in range(g)] for _ in range(g)])
        if v.det() != 0:
            return v


def rand_lattice_rows(rng, basis, hermite):
    """The rows of a full-rank sublattice of the lattice with Hermite basis
    ``basis``: the canonical basis when hermite, else a basis mixed by a
    unimodular matrix, which the decoder must bring to Hermite form."""
    g = len(basis)
    k = [[rng.randint(1, 3) if i == j else rng.randint(-2, 2) * (i > j) for j in range(g)]
         for i in range(g)]
    u = [[1 if i == j else rng.randint(-2, 2) * (i < j) for j in range(g)] for i in range(g)]
    rows = [list(r) for r in (Mat._from_int(basis) @ Mat._from_int(k) @ Mat._from_int(u)).num]
    return [list(row) for row in Sublattice(rows).basis] if hermite else rows


def rand_summand(rng, v, hermite):
    """A valid summand on the torus of v: H = V^-T S for a symmetric S, on a
    sublattice of H's integrality lattice, with a random covector."""
    g = v.n
    s = [[None] * g for _ in range(g)]
    for i in range(g):
        for j in range(i + 1):
            s[i][j] = s[j][i] = F(rng.randint(-3, 3), rng.choice([1, 2, 3]))
    h = v.T.inv() @ Mat(s)
    rows = rand_lattice_rows(rng, integrality_lattice(h).basis, hermite)
    return {"lattice": rows, "H": wire_matrix(h), "l": [wire_rational(rng) for _ in range(g)]}


def rand_element(rng, r):
    perm = list(range(1, r + 1))
    rng.shuffle(perm)
    return {"perm": perm, "d": [wire_rational(rng) for _ in range(r)]}


def rand_wire_mono(rng):
    return {"mag": str(F(rng.randint(1, 5), rng.randint(1, 5))),
            "phase": wire_rational(rng), "texp": wire_rational(rng)}


def rand_na_torus(rng, g):
    """Wire generators whose valuation matrix is nonsingular."""
    while True:
        gens = [[rand_wire_mono(rng) for _ in range(g)] for _ in range(g)]
        v = Mat([[gens[j][i]["texp"] for j in range(g)] for i in range(g)])
        if v.det() != 0:
            return {"g": g, "generators": gens}


@pytest.mark.parametrize("g", [2, 3, 4])
def test_decoded_bundles_and_lattices_equal_the_constructed(g):
    rng = random.Random(2500 + g)
    for trial in range(12):
        v = rand_period_matrix(rng, g)
        torus_data = {"g": g, "v": wire_matrix(v)}
        torus = jsonio.torus_from_json(torus_data)
        assert torus == public_torus(torus_data)
        summands = [rand_summand(rng, v, hermite=k % 2 == 0) for k in range(3)]
        for s in summands:
            decoded = jsonio.summand_from_json(s, torus)
            assert decoded == public_summand(s, torus)
            assert jsonio.lattice_from_json(s["lattice"]) == Sublattice(s["lattice"])
        bundle = {"summands": summands}
        assert jsonio.bundle_from_json(bundle, torus) == public_bundle(bundle, torus)


@pytest.mark.parametrize("g", [2, 3, 4])
def test_decoded_representations_and_tori_equal_the_constructed(g):
    rng = random.Random(2600 + g)
    for trial in range(12):
        r = rng.randint(1, 5)
        rep = {"images": [rand_element(rng, r) for _ in range(g)]}
        assert jsonio.rep_from_json(rep) == public_rep(rep)
        for a in rep["images"]:
            assert jsonio.gl_element_from_json(a) == public_element(a)
        na_rep = {"characters": [[rand_wire_mono(rng) for _ in range(g)] for _ in range(r)]}
        assert jsonio.na_rep_from_json(na_rep) == public_na_rep(na_rep)
        na_torus = rand_na_torus(rng, g)
        decoded, built = jsonio.torus_from_json(na_torus), public_torus(na_torus)
        assert decoded == built and decoded.trop() == built.trop()
        point = na_torus["generators"][0]
        assert jsonio.point_from_json(point) == public_point(point)


# ---------------------------------------------------------------------------
# Inputs that break one check each
# ---------------------------------------------------------------------------


def _identity(g):
    return [[int(i == j) for j in range(g)] for i in range(g)]


def _summand(g, lattice=None, h=None, l=None):
    return {
        "lattice": _identity(g) if lattice is None else lattice,
        "H": [[str(x) for x in row] for row in _identity(g)] if h is None else h,
        "l": ["1/2"] * g if l is None else l,
    }


def _half_class(g):
    """The class (1/2) I: symmetric for V = I, integral only on 2 Z^g."""
    return [["1/2" if i == j else "0" for j in range(g)] for i in range(g)]


def _asymmetric_class(g):
    return [["1" if j == i + 1 else "0" for j in range(g)] for i in range(g)]


BROKEN_SUMMANDS = {
    "lattice-of-a-higher-rank": lambda g: _summand(g, lattice=_identity(g + 1)),
    "lattice-of-a-lower-rank": lambda g: _summand(g, lattice=_identity(g - 1)),
    "rank-deficient-lattice": lambda g: _summand(g, lattice=[[1] * g] * g),
    "class-of-another-rank": lambda g: _summand(g, h=_half_class(g + 1)),
    "covector-of-another-length": lambda g: _summand(g, l=["1"] * (g + 1)),
    "asymmetric-class": lambda g: _summand(g, h=_asymmetric_class(g)),
    "class-not-integral-on-the-cover": lambda g: _summand(g, h=_half_class(g)),
}


@pytest.mark.parametrize("g", [2, 3, 4])
@pytest.mark.parametrize("broken", sorted(BROKEN_SUMMANDS))
def test_broken_summands_raise_as_the_constructor(g, broken):
    torus = TropTorus(Mat.identity(g))
    data = BROKEN_SUMMANDS[broken](g)
    assert_same_refusal(
        lambda: jsonio.summand_from_json(data, torus), lambda: public_summand(data, torus)
    )
    bundle = {"summands": [_summand(g), data]}
    assert_same_refusal(
        lambda: jsonio.bundle_from_json(bundle, torus), lambda: public_bundle(bundle, torus)
    )


def test_integral_class_on_its_cover_is_accepted():
    # the half class of the broken case above is valid on 2 Z^g
    torus = TropTorus(Mat.identity(2))
    data = _summand(2, lattice=[[2, 0], [0, 2]], h=_half_class(2))
    assert jsonio.summand_from_json(data, torus) == public_summand(data, torus)


_ELEMENT = {"perm": [1, 2], "d": ["0", "1/2"]}

BROKEN_ELEMENTS = {
    "perm-with-a-repeat": {"perm": [1, 1], "d": ["0", "0"]},
    "perm-out-of-range": {"perm": [0, 1], "d": ["0", "0"]},
    "d-too-long": {"perm": [2, 1], "d": ["0", "0", "1"]},
    "d-too-short": {"perm": [2, 1, 3], "d": ["1/3"]},
}


@pytest.mark.parametrize("broken", sorted(BROKEN_ELEMENTS))
def test_broken_tropical_matrices_raise_as_the_constructor(broken):
    data = BROKEN_ELEMENTS[broken]
    assert_same_refusal(lambda: jsonio.gl_element_from_json(data), lambda: public_element(data))
    rep = {"images": [_ELEMENT, data]}
    assert_same_refusal(lambda: jsonio.rep_from_json(rep), lambda: public_rep(rep))


@pytest.mark.parametrize(
    "images",
    [[], [_ELEMENT, {"perm": [1, 2, 3], "d": ["0", "0", "0"]}]],
    ids=["no-images", "images-of-two-sizes"],
)
def test_broken_representations_raise_as_the_constructor(images):
    rep = {"images": images}
    assert_same_refusal(lambda: jsonio.rep_from_json(rep), lambda: public_rep(rep))


_M = {"mag": "2", "phase": "1/3", "texp": "-1"}


@pytest.mark.parametrize(
    "characters",
    [[], [[_M, _M], [_M]], [[_M], [_M, _M, _M]]],
    ids=["no-characters", "ranks-2-and-1", "ranks-1-and-3"],
)
def test_broken_na_representations_raise_as_the_constructor(characters):
    rep = {"characters": characters}
    assert_same_refusal(lambda: jsonio.na_rep_from_json(rep), lambda: public_na_rep(rep))


def _t(texp):
    return {"mag": "1", "phase": "0", "texp": texp}


@pytest.mark.parametrize(
    "torus",
    [
        {"generators": [[_t("1"), _t("0")], [_t("0")]]},
        {"generators": [[_t("1"), _t("2")], [_t("2"), _t("4")]]},
        {"generators": []},
        {"v": [["1", "2"], ["2", "4"]]},
        {"v": [["1", "2"]]},
    ],
    ids=["generator-of-another-length", "singular-valuations", "no-generators",
         "singular-periods", "non-square-periods"],
)
def test_broken_tori_raise_as_the_constructor(torus):
    assert_same_refusal(lambda: jsonio.torus_from_json(torus), lambda: public_torus(torus))


_B1 = {"lattice": [[2, 0], [0, 1]], "r": [_M, _M]}


@pytest.mark.parametrize(
    "data", [_B1, {"r": [_M, _M], "H": [["2", "0"], ["0", "2"]]}], ids=["shipped", "full-lattice"]
)
def test_decoded_na_line_bundles_equal_the_constructed(data, reference_torus):
    ns = Mat.identity(2)
    decoded = jsonio.na_bundle_from_json(data, reference_torus, ns)
    assert decoded == public_na_bundle(data, reference_torus, ns)


@pytest.mark.parametrize(
    "data",
    [
        dict(_B1, lattice=_identity(3)),
        dict(_B1, r=[_M]),
        dict(_B1, H=_half_class(2)),
        dict(_B1, lattice=_identity(2)),
    ],
    ids=["lattice-of-a-higher-rank", "r-too-short", "class-not-integral-on-the-cover",
         "class-not-symmetric-on-the-cover"],
)
def test_broken_na_line_bundles_raise_as_the_constructor(data, reference_torus):
    ns = Mat.identity(2)
    assert_same_refusal(
        lambda: jsonio.na_bundle_from_json(data, reference_torus, ns),
        lambda: public_na_bundle(data, reference_torus, ns),
    )


# ---------------------------------------------------------------------------
# Each check runs once
# ---------------------------------------------------------------------------


def test_decoders_run_each_check_once(monkeypatch):
    calls = Counter()

    def count(owner, name, label):
        original = getattr(owner, name)

        def counted(*args, **kwargs):
            calls[label] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    count(TropLineBundle, "__post_init__", "TropLineBundle.__post_init__")
    count(bundles, "is_r_symmetric", "is_r_symmetric")
    count(TropGLElement, "__post_init__", "TropGLElement.__post_init__")

    data = json.loads((SCENARIOS / "bundle_ops.json").read_text(encoding="utf-8"))
    torus = jsonio.torus_from_json(data["torus"])
    summands = 0
    for bundle in data["bundles"].values():
        jsonio.bundle_from_json(bundle, torus)
        summands += len(bundle["summands"])
    assert summands > 0
    assert calls == Counter({"is_r_symmetric": summands})

    calls.clear()
    data = json.loads((SCENARIOS / "rep_demo.json").read_text(encoding="utf-8"))
    for rep in data["representations"].values():
        assert jsonio.rep_from_json(rep).r > 0
    assert calls == Counter()
    # the public constructor still runs its checks
    TropGLElement((0,), (F(0),))
    assert calls == Counter({"TropGLElement.__post_init__": 1})


def test_na_line_bundle_decoder_tests_the_cover_once(monkeypatch, reference_torus):
    # integrality on the cover is tested once; the symmetry test reads the
    # phase form without testing it again
    calls = 0
    original = Sublattice.contains_lattice

    def counted(self, other):
        nonlocal calls
        calls += 1
        return original(self, other)

    monkeypatch.setattr(Sublattice, "contains_lattice", counted)
    data = json.loads((SCENARIOS / "reference_example.json").read_text(encoding="utf-8"))
    torus = jsonio.torus_from_json(data["torus"])
    ns = jsonio.matrix_from_json(data["ns_class"])
    jsonio.na_bundle_from_json(data["na_bundles"]["B1"], torus, ns)
    assert calls == 1


# ---------------------------------------------------------------------------
# The memos of decoded lattices and tori
# ---------------------------------------------------------------------------


def test_a_repeated_wire_lattice_or_period_matrix_decodes_to_the_same_value():
    basis = [[3, 0], [1, 2]]
    lat = jsonio.lattice_from_json(basis)
    assert jsonio.lattice_from_json([list(row) for row in basis]) is lat
    assert lat == Sublattice(basis)
    as_strings = {"v": [["1", "1/2"], ["0", "3"]]}
    as_ints = {"g": 2, "v": [[1, "1/2"], [0, 3]]}
    torus = jsonio.torus_from_json(as_strings)
    assert jsonio.torus_from_json(as_ints) is torus
    assert torus == TropTorus(Mat([[1, F(1, 2)], [0, 3]]))


def test_a_boolean_basis_is_refused_after_the_int_basis():
    # True == 1 and hash(True) == hash(1), so only the type check keeps a
    # boolean basis from the memo entry of the int one
    assert jsonio.lattice_from_json([[1, 0], [0, 1]]) == Sublattice.full(2)
    for basis in ([[True, 0], [0, True]], [[1, 0], [0, True]], [[1, False], [0, 1]]):
        with pytest.raises(jsonio.ScenarioError, match="expected a square integer lattice basis"):
            jsonio.lattice_from_json(basis)


def test_a_failed_decode_is_not_memoised():
    for _ in range(3):
        with pytest.raises(SingularLattice, match="period matrix must be nonsingular"):
            jsonio.torus_from_json({"v": [["1", "2"], ["2", "4"]]})
        with pytest.raises(TropabelError, match="full-rank"):
            jsonio.lattice_from_json([[1, 0], [2, 0]])


def test_a_non_canonical_basis_decodes_to_its_hermite_form():
    basis = [[2, 0], [5, 3]]
    lat = jsonio.lattice_from_json(basis)
    assert lat.basis == ((2, 0), (2, 3)) == Sublattice(basis).basis
    assert ref_is_hermite(lat.basis)
    assert jsonio.lattice_from_json(basis) is lat
    assert jsonio.lattice_from_json([[2, 0], [2, 3]]) == lat


def test_the_memos_keep_at_most_their_bound():
    for i in range(LATTICE_CACHE_SIZE + 5):
        jsonio.lattice_from_json([[i + 1, 0], [i, i + 2]])
    for i in range(TORUS_CACHE_SIZE + 5):
        jsonio.torus_from_json({"v": [[str(i + 1), "0"], ["0", "1"]]})
    assert 0 < jsonio._lattice.cache_info().currsize <= LATTICE_CACHE_SIZE
    assert 0 < jsonio._trop_torus.cache_info().currsize <= TORUS_CACHE_SIZE


def test_a_repeated_torus_runs_one_nonsingularity_check(monkeypatch):
    calls = 0
    original = Mat._eliminate

    def counted(self, rhs):
        nonlocal calls
        calls += 1
        return original(self, rhs)

    monkeypatch.setattr(Mat, "_eliminate", counted)
    jsonio._trop_torus.cache_clear()
    data = {"g": 3, "v": [["2", "0", "1/3"], ["0", "1", "0"], ["1", "0", "5"]]}
    tori = {id(jsonio.torus_from_json(json.loads(json.dumps(data)))) for _ in range(10)}
    assert len(tori) == 1 and calls == 1


# ---------------------------------------------------------------------------
# The wire rank of a torus
# ---------------------------------------------------------------------------


def _wire_torus(form, g):
    """The torus of valuation matrix I in rank g, as 'v' or as 'generators'."""
    if form == "v":
        return {"v": [["1" if i == j else "0" for j in range(g)] for i in range(g)]}
    return {"generators": [[{"texp": "1" if i == j else "0"} for i in range(g)] for j in range(g)]}


@pytest.mark.parametrize("form", ["v", "generators"])
@pytest.mark.parametrize("g", [1, 2])
def test_torus_g_is_left_out_or_the_rank(form, g):
    data = _wire_torus(form, g)
    torus = jsonio.torus_from_json(data)
    assert torus.g == g
    assert jsonio.torus_from_json(dict(data, g=g)) == torus


@pytest.mark.parametrize("form", ["v", "generators"])
@pytest.mark.parametrize(
    "g, wire_g",
    [(2, 7), (2, 1), (2, "x"), (2, "2"), (2, 2.0), (2, None), (1, True)],
)
def test_torus_g_other_than_the_rank_is_refused(form, g, wire_g):
    with pytest.raises(jsonio.ScenarioError) as info:
        jsonio.torus_from_json(dict(_wire_torus(form, g), g=wire_g))
    assert str(info.value) == f"torus.g must be the rank {g} of the torus, got {wire_g!r}"


# ---------------------------------------------------------------------------
# One validation path: each value's ``_checked()``
# ---------------------------------------------------------------------------


def test_jsonio_imports_no_private_name():
    tree = ast.parse(Path(jsonio.__file__).read_text(encoding="utf-8"))
    imported = [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.level > 0 or (node.module or "").startswith("tropabel"))
        for alias in node.names
    ]
    assert imported
    assert [name for name in imported if name.startswith("_")] == []


def _scenario(name):
    return json.loads((SCENARIOS / name).read_text(encoding="utf-8"))


def _summand_case():
    data = _scenario("bundle_ops.json")
    torus = jsonio.torus_from_json(data["torus"])
    wire = data["bundles"]["E1"]["summands"][0]
    return wire, lambda w: jsonio.summand_from_json(w, torus), lambda w: public_summand(w, torus)


def _na_bundle_case():
    data = _scenario("reference_example.json")
    torus = jsonio.torus_from_json(data["torus"])
    ns = jsonio.matrix_from_json(data["ns_class"])
    return (
        data["na_bundles"]["B1"],
        lambda w: jsonio.na_bundle_from_json(w, torus, ns),
        lambda w: public_na_bundle(w, torus, ns),
    )


ELEMENT = {"perm": [2, 1], "d": ["1/2", "-3"]}

# each value with a decoder: (wire data, decoder, public constructor), built
# before _checked is patched
VALIDATED = {
    ValuedMonomial: lambda: (
        {"mag": "2", "phase": "4/3", "texp": "-1/2"}, jsonio.mono_from_json, public_mono
    ),
    Sublattice: lambda: ([[2, 0], [3, 1]], jsonio.lattice_from_json, Sublattice),
    NATorus: lambda: (_scenario("na_square.json")["torus"], jsonio.torus_from_json, public_torus),
    TropLineBundle: _summand_case,
    TropGLElement: lambda: (ELEMENT, jsonio.gl_element_from_json, public_element),
    TropRepresentation: lambda: (
        {"images": [ELEMENT, ELEMENT]}, jsonio.rep_from_json, public_rep
    ),
    NALineBundle: _na_bundle_case,
    NASemisimpleRep: lambda: (
        _scenario("na_square.json")["na_reps"]["S"], jsonio.na_rep_from_json, public_na_rep
    ),
}


@pytest.mark.parametrize("cls", list(VALIDATED), ids=lambda cls: cls.__name__)
def test_constructor_and_decoder_both_run_checked(monkeypatch, cls):
    wire, decode, build = VALIDATED[cls]()
    checked = cls._checked
    calls = []

    def spy(self):
        calls.append(self)
        return checked(self)

    monkeypatch.setattr(cls, "_checked", spy)
    built = build(wire)
    assert calls == [built]
    assert decode(wire) == built
    assert calls == [built, built]


# ---------------------------------------------------------------------------
# The one-pass decoders against the earlier ones (conftest), value by value
# ---------------------------------------------------------------------------

# wire junk for one scalar: wrong types, strings outside the grammar or past
# the int digit limit, and spellings that the grammar reads (sign, "-0",
# unreduced, non-ASCII digits)
JUNK_SCALARS = [
    True, False, 1.5, 0.0, None, "1/0", "+3", "-0/5", " 1", "4/6", "\u0661/\u0662", "",
    "1/2/3", "abc", "9" * 5000, "1/" + "9" * 5000, "-" + "7" * 4000, 10**30, [], {}, ["1"],
]


# "0".."9" to the Arabic-Indic digits, which the grammar's \d reads as the same digits
ARABIC_INDIC_DIGITS = str.maketrans("0123456789", "".join(chr(0x660 + d) for d in range(10)))


def rand_wire_entry(rng):
    """A wire rational: a JSON integer or a string, sometimes signed with "+",
    unreduced or in non-ASCII digits."""
    x = F(rng.randint(-9, 9), rng.choice([1, 1, 2, 3, 4, 6]))
    kind = rng.randrange(5)
    if kind == 0 and x.denominator == 1:
        return int(x)
    if kind == 1:
        k = rng.randint(2, 3)
        return f"{k * x.numerator}/{k * x.denominator}"
    if kind == 2 and x >= 0:
        return "+" + str(x)
    if kind == 3:
        return str(x).translate(ARABIC_INDIC_DIGITS)
    return str(x)


def junk_placements(value, scalars, rows):
    """value (a list of lists) with junk put at every position: each scalar in
    each entry, each row replaced by a junk row, and the whole by a junk whole."""
    for i, row in enumerate(value):
        for j in range(len(row)):
            for junk in scalars:
                yield [r if k != i else r[:j] + [junk] + r[j + 1 :] for k, r in enumerate(value)]
        for junk in rows(row):
            yield value[:i] + [junk] + value[i + 1 :]
    yield from (
        [], [[]], [[], []], None, "1", 3, {}, tuple(value), value + [value[0]], value[:-1],
        [tuple(r) for r in value],
    )


def junk_rows(row):
    return [None, "1", 2, tuple(row), [], row + [row[0]], row[:-1], [row], {}]


def _same_outcome(new, old, *args):
    got, want = outcome(new, *args), outcome(old, *args)
    assert got == want, (args, got, want)
    # junk is refused with the library's own errors, never a built-in exception
    assert got[0] == "value" or issubclass(got[1], TropabelError), got
    return got[0]


def test_matrix_decoder_matches_the_earlier_decoder_on_valid_and_junk_wire():
    rng = random.Random(3401)
    kinds = Counter()
    for _ in range(40):
        n, m = rng.randint(1, 4), rng.randint(1, 4)
        value = [[rand_wire_entry(rng) for _ in range(m)] for _ in range(n)]
        assert _same_outcome(jsonio.matrix_from_json, ref_matrix_from_json, value) == "value"
        for wire in junk_placements(value, JUNK_SCALARS, junk_rows):
            kinds[_same_outcome(jsonio.matrix_from_json, ref_matrix_from_json, wire)] += 1
    assert kinds["value"] > 1000 and kinds["error"] > 1000, kinds


def _lattice_rows(rng, g):
    """A square int basis: canonical, a mixed basis of a full-rank lattice, or
    random small rows, which may be singular."""
    kind = rng.randrange(3)
    rows = [list(row) for row in rand_sublattice(rng, g, max_diag=5).basis]
    if kind == 1:
        for i in range(g):
            for j in range(g):
                rows[i][j] += rng.randint(-2, 2) * rows[i][(j + 1) % g] * (g > 1)
    elif kind == 2:
        rows = [[rng.randint(-3, 3) for _ in range(g)] for _ in range(g)]
    return rows


LATTICE_JUNK = [True, 1.0, None, "1", "1/2", 10**30, -(10**30), [1], {}]


def test_lattice_decoder_matches_the_earlier_decoder_on_valid_and_junk_wire():
    rng = random.Random(3402)
    kinds = Counter()
    for _ in range(60):
        value = _lattice_rows(rng, rng.randint(1, 4))
        kinds[_same_outcome(jsonio.lattice_from_json, ref_lattice_from_json, value)] += 1
        for wire in junk_placements(value, LATTICE_JUNK, junk_rows):
            kinds[_same_outcome(jsonio.lattice_from_json, ref_lattice_from_json, wire)] += 1
    assert kinds["value"] > 100 and kinds["error"] > 1000, kinds


def test_hermite_recognition_matches_the_earlier_test():
    rng = random.Random(3403)
    seen = Counter()
    assert lattices._is_hermite(()) is ref_is_hermite(()) is False
    for _ in range(3000):
        g = rng.randint(1, 5)
        rows = [list(row) for row in rand_sublattice(rng, g, max_diag=4).basis]
        for _ in range(rng.randrange(3)):
            i, j = rng.randrange(g), rng.randrange(g)
            rows[i][j] += rng.choice([-rows[i][i], -1, 1, rows[i][i], 10**20])
        for form in (rows, tuple(map(tuple, rows))):
            got = lattices._is_hermite(form)
            assert got is ref_is_hermite(form), rows
            seen[got] += 1
    assert seen[True] > 1000 and seen[False] > 1000, seen


def test_real_symmetry_matches_the_earlier_test():
    rng = random.Random(3404)
    seen = Counter()
    for _ in range(600):
        g = rng.randint(1, 4)
        v = rand_period_matrix(rng, g)
        h = rand_r_symmetric(rng, v) if rng.random() < 0.5 else Mat(
            [[F(rng.randint(-3, 3), rng.choice([1, 2])) for _ in range(g)] for _ in range(g)]
        )
        for other in (h, Mat.identity(g + 1), Mat([[1] * (g + 1)] * g)):
            got = outcome(tori.is_r_symmetric, other, v)
            assert got == outcome(ref_is_r_symmetric, other, v), (other, v)
            seen[got[1]] += 1
    assert seen[(bool, True)] > 100 and seen[(bool, False)] > 100, seen
    assert seen[DimensionMismatch] == 600, seen
