"""The immutable value classes: fields, construction, equality, hash, repr and
immutability as under ``@dataclass(frozen=True)``, constructors that raise only
library errors, and an import that loads neither ``dataclasses`` nor
``inspect``."""

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import tropabel
from tropabel import (
    FiniteAbelianGroup,
    Mat,
    ModuliPoint,
    MultiplicativePoint,
    NACharacter,
    NALineBundle,
    NASemisimpleRep,
    NATorus,
    NSClass,
    OrbitSummand,
    QLattice,
    Sublattice,
    TropGLElement,
    TropLineBundle,
    TropRepresentation,
    TropTorus,
    TropVectorBundle,
    ValuedMonomial,
    moduli_point,
    quotient,
)
from tropabel._frozen import Frozen
from tropabel.errors import TropabelError
from tropabel.tropchar import decompose_rep

F = Fraction


def _samples():
    """One value of each class, with its field names and its repr, both as
    dataclasses gave them."""
    one = ValuedMonomial.one()
    t = ValuedMonomial.uniformizer(1)
    m = ValuedMonomial(F(2), F(1, 3), F(-1, 2))
    trop = TropTorus(Mat([[2, 0], [0, 3]]))
    na = NATorus((MultiplicativePoint((t, one)), MultiplicativePoint((one, t))))
    zero = Mat([[0, 0], [0, 0]])
    line = TropLineBundle(trop, Sublattice([[2, 0], [0, 1]]), zero, (F(1, 2), 0))
    char = NACharacter((m, one))
    gl = TropGLElement((1, 0), (F(1, 2), 0))
    rep = TropRepresentation((gl, TropGLElement((0, 1), (0, 0))))

    m_repr = "Monomial(2, e^2pi*i*1/3, t^-1/2)"
    one_repr = "Monomial(1, e^2pi*i*0, t^0)"
    t_repr = "Monomial(1, e^2pi*i*0, t^1)"
    trop_repr = "TropTorus(v=Mat[2 0; 0 3])"
    na_repr = (
        f"NATorus(generators=(MultiplicativePoint(coords=({t_repr}, {one_repr})), "
        f"MultiplicativePoint(coords=({one_repr}, {t_repr}))))"
    )
    line_repr = (
        f"TropLineBundle(torus={trop_repr}, lattice=Sublattice([[2, 0], [0, 1]]), "
        "ns=Mat[0 0; 0 0], l=(Fraction(1, 2), Fraction(0, 1)))"
    )
    char_repr = f"NACharacter(values=({m_repr}, {one_repr}))"
    gl_repr = "TropGLElement(perm=(1, 0), d=(Fraction(1, 2), Fraction(0, 1)))"
    return [
        (m, ("magnitude", "phase", "t_exponent"), m_repr),
        (
            MultiplicativePoint((m, one)),
            ("coords",),
            f"MultiplicativePoint(coords=({m_repr}, {one_repr}))",
        ),
        (trop, ("v",), trop_repr),
        (na, ("generators",), na_repr),
        (
            NSClass(trop, Mat([[F(1, 2), 0], [0, F(1, 3)]])),
            ("torus", "matrix"),
            f"NSClass(torus={trop_repr}, matrix=Mat[1/2 0; 0 1/3])",
        ),
        (
            quotient(Sublattice.full(2), Sublattice([[2, 0], [0, 2]])),
            ("invariant_factors", "generator_lifts", "_ambient", "_u", "_moduli", "_trivial"),
            "FiniteAbelianGroup(invariant_factors=(2, 2), generator_lifts=((1, 0), (0, 1)))",
        ),
        (line, ("torus", "lattice", "ns", "l"), line_repr),
        (
            TropVectorBundle(trop, (line,)),
            ("torus", "summands"),
            f"TropVectorBundle(torus={trop_repr}, summands=({line_repr},))",
        ),
        (
            moduli_point(line, Sublattice([[2, 0], [0, 2]]), zero),
            ("torus", "gamma", "ns", "coords"),
            f"ModuliPoint(torus={trop_repr}, gamma=Sublattice([[2, 0], [0, 2]]), "
            "ns=Mat[0 0; 0 0], coords=(Fraction(1, 2), Fraction(0, 1)))",
        ),
        (char, ("values",), char_repr),
        (
            NALineBundle(NSClass(na, Mat([[1, 0], [0, 1]])), Sublattice.full(2), (m, one)),
            ("ns", "lattice", "r_basis"),
            f"NALineBundle(ns=NSClass(torus={na_repr}, matrix=Mat[1 0; 0 1]), "
            f"lattice=Sublattice([[1, 0], [0, 1]]), r_basis=({m_repr}, {one_repr}))",
        ),
        (
            NASemisimpleRep((char,)),
            ("characters",),
            f"NASemisimpleRep(characters=({char_repr},))",
        ),
        (gl, ("perm", "d"), gl_repr),
        (
            rep,
            ("images",),
            f"TropRepresentation(images=({gl_repr}, "
            "TropGLElement(perm=(0, 1), d=(Fraction(0, 1), Fraction(0, 1)))))",
        ),
        (
            decompose_rep(rep)[0],
            ("orbit", "lattice", "l"),
            "OrbitSummand(orbit=(0, 1), lattice=Sublattice([[2, 0], [0, 1]]), "
            "l=(Fraction(1, 2), Fraction(0, 1)))",
        ),
        (Sublattice([[2, 0], [7, 4]]), ("basis",), "Sublattice([[2, 0], [3, 4]])"),
        (
            QLattice(Mat([[F(1, 2), 0], [0, 3]])),
            ("den", "lattice"),
            "QLattice(Mat[1/2 0; 0 3])",
        ),
        (Mat([[F(1, 2), 0], [0, 3]]), ("num", "den"), "Mat[1/2 0; 0 3]"),
    ]


SAMPLES = _samples()
IDS = [type(x).__name__ for x, _, _ in SAMPLES]


def test_samples_cover_every_value_class():
    classes = [type(x) for x, _, _ in SAMPLES]
    assert len(set(classes)) == len(classes) and set(classes) == set(Frozen.__subclasses__())


def _rebuilt(x, fields, values):
    """x built again by its public constructor: from its fields by keyword, a
    QLattice, whose constructor takes a basis, from its basis, and a Mat, whose
    constructor takes rows, from its entries."""
    if type(x) is QLattice:
        return QLattice(x.basis)
    if type(x) is Mat:
        return Mat(x.entries)
    return type(x)(**dict(zip(fields, values)))


@pytest.mark.parametrize("x, fields, text", SAMPLES, ids=IDS)
def test_value_class_behaves_as_a_frozen_dataclass(x, fields, text):
    values = tuple(getattr(x, f) for f in fields)
    assert type(x).__match_args__ == fields
    assert hash(x) == hash(values)
    assert repr(x) == text
    # rebuilt by its public constructor, a value is equal and hashes alike
    clone = _rebuilt(x, fields, values)
    assert clone == x and hash(clone) == hash(x)
    # and by position through the unchecked constructor
    raw = type(x)._from_valid(*values)
    assert type(raw) is type(x) and raw == x and hash(raw) == hash(x)
    for name in (fields[0], "other"):
        with pytest.raises(AttributeError):
            setattr(x, name, values[0])
        with pytest.raises(AttributeError):
            delattr(x, name)
    assert getattr(x, fields[0]) is values[0]


@pytest.mark.parametrize("x, fields, text", SAMPLES, ids=IDS)
def test_constructor_rejects_missing_and_extra_arguments(x, fields, text):
    values = [getattr(x, f) for f in fields]
    cls = type(x)
    with pytest.raises(TypeError):
        # Mat(num) is a valid call: its constructor takes rows
        cls(*values[:-1]) if cls is not Mat else cls()
    with pytest.raises(TypeError):
        cls(*values, values[0])
    with pytest.raises(TypeError):
        cls(*values, other=values[0])
    with pytest.raises(TypeError):
        cls(values[0], **{fields[0]: values[0]})


def test_from_valid_runs_no_post_init(monkeypatch):
    line = SAMPLES[6][0]
    fields = (line.torus, line.lattice, line.ns, line.l)

    def refuse(self):
        raise AssertionError("__post_init__ ran")

    monkeypatch.setattr(TropLineBundle, "__post_init__", refuse)
    with pytest.raises(AssertionError):
        TropLineBundle(*fields)
    assert TropLineBundle._from_valid(*fields) == line
    # ValuedMonomial keeps its own, which reduces the phase mod 1
    assert ValuedMonomial._from_valid(F(2), F(4, 3), F(0)).phase == F(1, 3)


def test_equality_holds_only_within_a_class():
    # a point and a character with the same coordinates share a hash
    point, char = SAMPLES[1][0], SAMPLES[9][0]
    assert hash(point) == hash(char)
    assert point != char and not point == char
    for i, (a, _, _) in enumerate(SAMPLES):
        assert a.__eq__(object()) is NotImplemented
        for j, (b, _, _) in enumerate(SAMPLES):
            assert (a == b) is (i == j)


def test_sequence_fields_given_as_lists_are_kept_as_tuples():
    # a list argument is copied into a tuple: the value hashes, equals the
    # tuple-built one, and the caller's list can no longer change it
    one = ValuedMonomial.one()
    m = ValuedMonomial(F(2), F(1, 3), F(-1, 2))
    t = ValuedMonomial.uniformizer(1)
    gl = TropGLElement((1, 0), (F(1, 2), 0))
    na = NATorus([MultiplicativePoint((t, one)), MultiplicativePoint((one, t))])
    ns = NSClass(na, Mat([[1, 0], [0, 1]]))
    cases = [
        (TropRepresentation, lambda seq: (seq,), [gl, gl], "images"),
        (NALineBundle, lambda seq: (ns, Sublattice.full(2), seq), [m, one], "r_basis"),
        (NACharacter, lambda seq: (seq,), [m, one], "values"),
        (NATorus, lambda seq: (seq,), list(na.generators), "generators"),
    ]
    for cls, args, items, field in cases:
        given = list(items)
        x = cls(*args(given))
        expected = cls(*args(tuple(items)))
        assert type(getattr(x, field)) is tuple
        assert x == expected and hash(x) == hash(expected)
        given.append(items[0])
        assert getattr(x, field) == tuple(items) and x == expected
        with pytest.raises(AttributeError):
            getattr(x, field).append(items[0])


# ragged, empty, boolean, float and string inputs, nested to two levels, with
# valid matrices, lattices, summands and multiplicative values mixed in
JUNK_LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-2, 3),
    st.floats(allow_nan=False, width=16),
    st.text(alphabet="01/-x", max_size=3),
    st.sampled_from([F(1, 2), Mat([[0]]), Mat([[1, 2]]), Mat([[1, 0], [0, 1]])]),
    # a torus, a summand, a monomial and two lattices
    st.sampled_from(
        [SAMPLES[2][0], SAMPLES[6][0], ValuedMonomial.one(), Sublattice.full(1), Sublattice.full(2)]
    ),
    # a point, a multiplicative torus, a class on it and a character
    st.sampled_from([SAMPLES[1][0], SAMPLES[3][0], SAMPLES[10][0].ns, SAMPLES[9][0]]),
)
JUNK = st.recursive(
    JUNK_LEAVES, lambda inner: st.lists(inner, max_size=3) | st.tuples(inner, inner), max_leaves=6
)
ONE_ARGUMENT = [
    Mat,
    Sublattice,
    QLattice,
    TropTorus,
    NACharacter,
    NATorus,
    MultiplicativePoint,
    NASemisimpleRep,
]
CONSTRUCTOR_CALLS = st.one_of(
    st.tuples(st.sampled_from(ONE_ARGUMENT), st.tuples(JUNK)),
    st.tuples(st.sampled_from([TropVectorBundle, NSClass]), st.tuples(JUNK, JUNK)),
    st.tuples(st.sampled_from([NALineBundle, OrbitSummand]), st.tuples(JUNK, JUNK, JUNK)),
    st.tuples(st.sampled_from([TropLineBundle, ModuliPoint]), st.tuples(JUNK, JUNK, JUNK, JUNK)),
    st.tuples(st.just(FiniteAbelianGroup), st.tuples(*[JUNK] * 6)),
)


@settings(derandomize=True, deadline=None, max_examples=300, database=None)
@given(CONSTRUCTOR_CALLS)
# each of these raised a built-in TypeError or AttributeError before
@example((Mat, (5,)))
@example((Mat, ([5],)))
@example((NATorus, (5,)))
@example((MultiplicativePoint, (5,)))
@example((NASemisimpleRep, (5,)))
@example((NALineBundle, (5, 5, 5)))
@example((TropLineBundle, (5, 5, 5, 5)))
@example((NSClass, (5, 5)))
@example((Sublattice, (5,)))
@example((Sublattice, ([5],)))
@example((QLattice, (5,)))
@example((TropTorus, (5,)))
@example((TropVectorBundle, (5, 5)))
@example((TropVectorBundle, (SAMPLES[2][0], [5])))
@example((NACharacter, (5,)))
# an empty bundle on a torus that is not one was built before, and so were
# these two values of junk
@example((TropVectorBundle, (5, ())))
@example((ModuliPoint, (5, 5, 5, 5)))
@example((OrbitSummand, (5, 5, 5)))
@example((FiniteAbelianGroup, (5, 5, 5, 5, 5, 5)))
# valid calls
@example((ModuliPoint, (SAMPLES[2][0], Sublattice.full(2), Mat([[1, 0], [0, 1]]), [0, "1/2"])))
@example((OrbitSummand, ([0, 1], Sublattice.full(2), (1, F(1, 2)))))
@example(
    (FiniteAbelianGroup, ([2], [[1, 0]], Sublattice.full(2), [[1, 0], [0, 1]], [2, 1], [[0, 1]]))
)
def test_lattice_torus_bundle_and_character_constructors_raise_only_library_errors(call):
    constructor, args = call
    try:
        value = constructor(*args)
    except TropabelError:
        return
    assert type(value) is constructor
    if constructor is TropVectorBundle:
        assert type(value.torus) is TropTorus
    if constructor is ModuliPoint:
        assert type(value.torus) is TropTorus and type(value.gamma) is Sublattice
        assert type(value.ns) is Mat and type(value.coords) is tuple
        assert all(type(x) is F for x in value.coords)
    if constructor is OrbitSummand:
        assert type(value.orbit) is tuple and all(type(i) is int for i in value.orbit)
        assert type(value.lattice) is Sublattice and type(value.l) is tuple
        assert all(type(x) is F for x in value.l)
    if constructor is FiniteAbelianGroup:
        g = value._ambient.ambient_rank
        assert type(value._ambient) is Sublattice and len(value._moduli) == g
        vectors = value.generator_lifts + value._trivial + value._u
        assert all(type(v) is tuple and len(v) == g for v in vectors)
        assert all(type(x) is int for v in vectors for x in v)
        assert len(value.invariant_factors) == len(value.generator_lifts)


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    script = (
        "import sys; before = set(sys.modules); import tropabel.cli; "
        "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))"
    )
    src = str(Path(tropabel.__file__).resolve().parent.parent)
    out = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert out.stdout.strip() == "[]"
