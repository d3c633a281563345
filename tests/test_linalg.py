import math
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.matrices.normalforms import smith_normal_form

from tropabel.errors import (
    DimensionMismatch,
    MalformedScalar,
    NotExact,
    RankDeficient,
    SingularLattice,
    ZeroDenominator,
)
from tropabel.groups import snf
from tropabel.jsonio import ScenarioError, matrix_to_json, rational_from_json
from tropabel.linalg import Mat, column_hnf, congruence_lattice, hnf
from tropabel.rationals import RATIONAL, as_tuple, parse_rational, rat
from tropabel.tori import TropTorus

from conftest import ref_eliminate

F = Fraction


def rand_int_matrix(rng, n, m, lo=-5, hi=5):
    return [[rng.randint(lo, hi) for _ in range(m)] for _ in range(n)]


def rand_unimodular(rng, n, steps=8):
    """Product of elementary integer column operations: det +-1 by construction."""
    u = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(steps):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        c = rng.randint(-2, 2)
        for k in range(n):
            u[k][i] += c * u[k][j]
    return u


def mat_mul(a, b):
    n, k, m = len(a), len(b), len(b[0])
    return [
        [sum(a[i][t] * b[t][j] for t in range(k)) for j in range(m)] for i in range(n)
    ]


# ---------------------------------------------------------------------------
# Mat basics
# ---------------------------------------------------------------------------


def test_mat_shape_errors():
    a = Mat([[1, 2]])
    b = Mat([[1], [2]])
    with pytest.raises(DimensionMismatch):
        a + b
    with pytest.raises(DimensionMismatch):
        a.mul_vec((F(1),))


def to_sympy(rows):
    return sympy.Matrix(
        [[sympy.Rational(x.numerator, x.denominator) for x in row] for row in rows]
    )


def from_sympy(m):
    return Mat([[F(int(x.p), int(x.q)) for x in m.row(i)] for i in range(m.rows)])


def rand_rational_square(rng, n):
    """Rational n x n rows with denominators up to 6, singular about a third
    of the time (last row a multiple of the first)."""
    rows = rand_frac_rows(rng, n, n)
    if rng.random() < 0.35:
        c = F(rng.randint(-3, 3), rng.randint(1, 3)) if n > 1 else F(0)
        rows[-1] = [c * x for x in rows[0]]
    return rows


def test_det_inverse_random():
    rng = random.Random(11)
    for _ in range(25):
        n = rng.randint(1, 4)
        m = Mat(rand_int_matrix(rng, n, n))
        sym_det = sympy.Matrix(n, n, lambda i, j: int(m.entries[i][j])).det()
        assert m.det() == sym_det
        if m.det() != 0:
            assert m @ m.inv() == Mat.identity(n)
    singular = fractional = 0
    for _ in range(60):
        n = rng.randint(1, 5)
        rows = rand_rational_square(rng, n)
        m, sym = Mat(rows), to_sympy(rows)
        fractional += m.den != 1
        sym_det = sym.det()
        assert m.det() == F(int(sym_det.p), int(sym_det.q))
        if sym_det == 0:
            singular += 1
            with pytest.raises(SingularLattice):
                m.inv()
        else:
            assert m.inv() == from_sympy(sym.inv())
    assert 10 <= singular <= 40 and fractional >= 40


def test_solve_mat_rational():
    rng = random.Random(17)
    singular = 0
    for _ in range(60):
        n, k = rng.randint(1, 5), rng.randint(1, 3)
        rows = rand_rational_square(rng, n)
        a, rhs = Mat(rows), Mat(rand_frac_rows(rng, n, k))
        if to_sympy(rows).det() == 0:
            singular += 1
            with pytest.raises(SingularLattice):
                a.solve_mat(rhs)
            with pytest.raises(SingularLattice):
                a.solve(rhs.col(0))
        else:
            x = a.solve_mat(rhs)
            assert a @ x == rhs
            assert a.mul_vec(a.solve(rhs.col(0))) == rhs.col(0)
    assert singular >= 10


def test_solve_singular():
    m = Mat([[1, 2], [2, 4]])
    with pytest.raises(SingularLattice):
        m.solve((F(1), F(0)))


def test_from_cols_round_trip():
    m = Mat([[1, 2], [3, 4]])
    assert Mat.from_cols([m.col(0), m.col(1)]) == m


def rand_frac_rows(rng, n, m):
    return [[F(rng.randint(-6, 6), rng.randint(1, 6)) for _ in range(m)] for _ in range(n)]


def test_mat_arithmetic_matches_fraction_reference():
    """num/den arithmetic against entrywise Fraction arithmetic done here."""
    rng = random.Random(31)
    for _ in range(60):
        n, k, m = rng.randint(1, 3), rng.randint(1, 3), rng.randint(1, 3)
        a, a2, b = rand_frac_rows(rng, n, k), rand_frac_rows(rng, n, k), rand_frac_rows(rng, k, m)
        c = F(rng.randint(-4, 4), rng.randint(1, 4))
        v = [rng.randint(-5, 5) for _ in range(k)]
        ma, mb = Mat(a), Mat(b)
        prod = [[sum(a[i][t] * b[t][j] for t in range(k)) for j in range(m)] for i in range(n)]
        assert (ma @ mb).entries == tuple(map(tuple, prod))
        assert (ma + Mat(a2)).entries == tuple(
            tuple(x + y for x, y in zip(r, s)) for r, s in zip(a, a2)
        )
        assert ma.scale(c).entries == tuple(tuple(c * x for x in r) for r in a)
        assert ma.T.entries == tuple(zip(*a))
        assert ma.mul_vec(v) == tuple(sum(x * y for x, y in zip(r, v)) for r in a)
        assert ma.is_integral() == all(x.denominator == 1 for r in a for x in r)
        # the stored form is canonical: lowest terms over a positive denominator
        for res in (ma, ma @ mb, ma + Mat(a2), ma.scale(c), ma.T):
            assert res.den > 0
            assert math.gcd(res.den, *(x for r in res.num for x in r)) == 1
            assert res == Mat(res.entries)


def test_mat_canonical_form():
    assert Mat([[F(2, 4)]]) == Mat([["1/2"]])
    assert hash(Mat([[F(2, 4)]])) == hash(Mat([["1/2"]]))
    assert Mat([[F(2, 4), 1]]).num == ((1, 2),) and Mat([[F(2, 4), 1]]).den == 2
    assert Mat([[F(1, 3), 0]]).scale(0) == Mat.zeros(1, 2)
    assert Mat.zeros(2, 3).den == 1
    assert (Mat([[F(1, 2)]]) + Mat([[F(-1, 2)]])).den == 1
    with pytest.raises(TypeError):
        Mat([[0.5]])


def test_rat_reads_n_and_p_over_q():
    assert rat("3") == 3 and rat("-3") == -3 and rat("+6/4") == F(3, 2) and rat("-0/5") == 0
    assert rat(7) == 7 and rat(F(2, 4)) == F(1, 2)
    assert Mat([["+6/4", "-3"]]) == Mat([[F(3, 2), -3]])
    with pytest.raises(ZeroDivisionError):
        rat("1/0")


def test_rat_keeps_a_fraction():
    x = F(6, 4)
    assert rat(x) is x
    assert rat(F(3)) == 3 and type(rat(7)) is Fraction


@pytest.mark.parametrize("text", ["1.5", "1e3", " 1/2 ", "1_000", "0x10", "1/2.5", "1/-2", ""])
def test_rat_rejects_other_strings(text):
    with pytest.raises(ValueError):
        rat(text)
    with pytest.raises(ValueError):
        Mat([[text]])


@pytest.mark.parametrize("value", [True, False, 0.5])
def test_rat_rejects_floats_and_booleans(value):
    with pytest.raises(TypeError, match="floats and booleans are not allowed"):
        rat(value)
    with pytest.raises(TypeError):
        Mat([[value]])


@pytest.mark.parametrize("text", ["12", "", b"12"], ids=["str", "empty", "bytes"])
def test_a_string_is_not_a_sequence_of_entries(text):
    # each character of "12" used to be read as an entry, so a point "12" was (1, 2)
    with pytest.raises(NotExact, match="expected a sequence of rationals"):
        as_tuple(text, "rationals")
    with pytest.raises(NotExact):
        Mat([text])
    with pytest.raises(NotExact):
        Mat(text)
    assert as_tuple(["12"], "rationals") == ("12",) and as_tuple(iter((1, 2)), "ints") == (1, 2)


def _reference_parse(s):
    """The rational grammar read without a memo: RATIONAL.fullmatch, then Fraction."""
    match = RATIONAL.fullmatch(s)
    if match is None:
        raise MalformedScalar(f"expected an integer or a rational string 'p/q', got {s!r}")
    num, den = match.groups()
    den = int(den) if den is not None else 1
    if den == 0:
        raise ZeroDenominator(f"rational {s!r} has a zero denominator")
    return Fraction(int(num), den)


def _outcome(parse, s):
    """The value parse(s), or the type and message of what it raised."""
    try:
        return parse(s)
    except Exception as exc:
        return type(exc), str(exc)


# digits, signs, the slash, characters the grammar must refuse, and a non-ASCII
# digit (ARABIC-INDIC DIGIT ONE), which the grammar's \d and int() both accept
WIRE_ALPHABET = "0123456789+-/_.e \u0661"
WIRE_DIGITS = st.text(alphabet="0123456789\u0661", min_size=1, max_size=4)
WIRE_STRINGS = st.one_of(
    st.text(alphabet=WIRE_ALPHABET, max_size=9),
    st.text(alphabet=WIRE_ALPHABET, max_size=6).map(lambda p: p + "/0"),
    # strings in the grammar, "[+-]n" and "[+-]p/q"
    st.builds(
        lambda sign, p, q: sign + p + (q and "/" + q),
        st.sampled_from(["", "+", "-"]),
        WIRE_DIGITS,
        st.just("") | WIRE_DIGITS,
    ),
)


@settings(derandomize=True, deadline=None, max_examples=400, database=None)
@given(WIRE_STRINGS)
def test_memoised_parser_matches_the_grammar(s):
    expected = _outcome(_reference_parse, s)
    parse_rational.cache_clear()
    cold = _outcome(parse_rational, s)
    size = parse_rational.cache_info().currsize
    warm = _outcome(parse_rational, s)
    assert cold == expected and warm == expected and _outcome(rat, s) == expected
    if isinstance(expected, Fraction):
        assert size == 1 and type(cold) is Fraction and warm is cold
    else:
        # a failed parse is never cached
        assert size == 0 and parse_rational.cache_info().currsize == 0


def test_memoised_parser_keeps_no_failure_on_a_warm_cache():
    parse_rational.cache_clear()
    for s in ("1/2", "-3", "+6/4", "\u0661/2"):
        parse_rational(s)
    size = parse_rational.cache_info().currsize
    for s in ("1/0", "1.5", " 1", "", "1/-2"):
        with pytest.raises((MalformedScalar, ZeroDenominator)):
            parse_rational(s)
    assert parse_rational.cache_info().currsize == size == 4
    assert parse_rational("\u0661/2") == F(1, 2) and parse_rational("+6/4") == F(3, 2)


@pytest.mark.parametrize(
    "text", ["1" + "0" * 5000, "-" + "7" * 5000, "1/1" + "0" * 5000, "1" * 5000 + "/2"]
)
def test_rational_beyond_the_int_digit_limit_is_malformed(text):
    # Python refuses to read an int of more than about 4,300 digits from a string
    with pytest.raises(MalformedScalar, match="more digits than an int may be read from"):
        rat(text)
    with pytest.raises(ScenarioError, match="more digits than an int may be read from"):
        rational_from_json(text)


# ---------------------------------------------------------------------------
# Hermite normal form (column convention: lower triangular, positive diagonal,
# row entries left of the diagonal reduced into [0, diagonal))
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "rows, expected",
    [
        ([], []),
        ([[]], []),
        ([[], []], []),
        ([[0]], [[0]]),
        ([[0, 0, 0]], [[0, 0, 0]]),
        ([[0, 0], [0, 0], [0, 0]], [[0, 0], [0, 0], [0, 0]]),
        ([[0, 3], [0, 5]], [[3, 0], [5, 0]]),
        ([[0, 2, 0], [0, 4, 0]], [[2, 0, 0], [4, 0, 0]]),
        ([[0, 0], [1, 0]], [[0, 0], [1, 0]]),
        ([[2, 4, 6]], [[2, 0, 0]]),
        ([[2], [4], [6]], [[2], [4], [6]]),
        ([[-3]], [[3]]),
        ([[4, 6], [0, 0]], [[2, 0], [0, 0]]),
        ([[0, 6, 4], [0, 0, 0], [0, 9, 6]], [[2, 0, 0], [0, 0, 0], [3, 0, 0]]),
    ],
)
def test_column_hnf_on_degenerate_inputs(rows, expected):
    # no columns give no rows, zero matrices keep their shape, zero columns sink
    # to the right, and a pivot row may skip a row that holds no pivot
    assert column_hnf(rows) == expected


def test_hnf_fixed_example():
    # columns (2,0) and (1,1) span the same lattice as (1,1) and (0,2)
    h, u = hnf([[2, 1], [0, 1]])
    assert h == [[1, 0], [1, 2]]
    assert mat_mul([[2, 1], [0, 1]], u) == h


def test_hnf_identity_and_diagonal():
    assert hnf([[1, 0], [0, 1]])[0] == [[1, 0], [0, 1]]
    assert hnf([[3, 0], [0, 5]])[0] == [[3, 0], [0, 5]]


def test_hnf_shape():
    rng = random.Random(5)
    for _ in range(50):
        n = rng.randint(1, 4)
        a = rand_int_matrix(rng, n, n)
        while Mat(a).det() == 0:
            a = rand_int_matrix(rng, n, n)
        h, u = hnf(a)
        assert mat_mul(a, u) == h
        assert abs(Mat(u).det()) == 1
        for i in range(n):
            assert h[i][i] > 0
            for j in range(i + 1, n):
                assert h[i][j] == 0
            for j in range(i):
                assert 0 <= h[i][j] < h[i][i]


def test_hnf_column_span_invariance():
    # hnf(A) == hnf(A @ U) for unimodular U: the canonical form depends only
    # on the column span
    rng = random.Random(7)
    for _ in range(40):
        n = rng.randint(1, 4)
        a = rand_int_matrix(rng, n, n)
        if Mat(a).det() == 0:
            continue
        u = rand_unimodular(rng, n)
        assert hnf(a)[0] == hnf(mat_mul(a, u))[0]


def test_hnf_membership_oracle():
    # columns of A and columns of hnf(A) generate the same lattice
    rng = random.Random(13)
    for _ in range(30):
        n = rng.randint(1, 3)
        a = rand_int_matrix(rng, n, n)
        if Mat(a).det() == 0:
            continue
        h = Mat(hnf(a)[0])
        assert (h.inv() @ Mat(a)).is_integral()
        assert (Mat(a).inv() @ h).is_integral()


def test_hnf_rank_deficient():
    with pytest.raises(RankDeficient):
        hnf([[1, 2], [2, 4]])


# ---------------------------------------------------------------------------
# Smith normal form
# ---------------------------------------------------------------------------


def test_snf_fixed_examples():
    _, d, _ = snf([[2, 0], [0, 3]])
    assert [d[0][0], d[1][1]] == [1, 6]
    _, d, _ = snf([[2, 4], [4, 8]])
    assert [d[0][0], d[1][1]] == [2, 0]


# (A, (U, D, W)) exactly: ns-analyze reads defect_generators and
# torsion_pairing_phases off U and W, so other valid transforms change its report
SNF_PINNED = [
    # the defect coordinates of scenarios/reference_example.json: its symmetry
    # lattice in the basis of its integrality lattice
    ([[2, 0], [0, 2]], ([[1, 0], [0, 1]], [[2, 0], [0, 2]], [[1, 0], [0, 1]])),
    ([[2, 4], [6, 8]], ([[1, 0], [3, -1]], [[2, 0], [0, 4]], [[1, -2], [0, 1]])),
    ([[0, 3], [2, 0]], ([[1, 1], [2, 3]], [[1, 0], [0, 6]], [[-1, 3], [1, -2]])),
    ([[4, 0], [0, 6]], ([[1, 1], [3, 2]], [[2, 0], [0, 12]], [[-1, 3], [1, -2]])),
    ([[4, 6, 8]], ([[1]], [[2, 0, 0]], [[-1, 3, 4], [1, -2, -4], [0, 0, 1]])),
    (
        [[1, 2], [3, 4], [5, 6]],
        ([[1, 0, 0], [3, -1, 0], [1, -2, 1]], [[1, 0], [0, 2], [0, 0]], [[1, -2], [0, 1]]),
    ),
    ([[0, 0], [0, 0]], ([[1, 0], [0, 1]], [[0, 0], [0, 0]], [[1, 0], [0, 1]])),
    (
        [[-3, 5, 7], [2, -4, 6], [9, 12, -15]],
        (
            [[1, 2, 0], [29, 39, 1], [60, 81, 2]],
            [[1, 0, 0], [0, 1, 0], [0, 0, 876]],
            [[1, 3, -1285], [0, 1, -422], [0, 0, 1]],
        ),
    ),
    (
        [[12, 18, 0], [6, 0, 30], [0, 0, 0]],
        (
            [[0, 1, 0], [1, -2, 0], [0, 0, 1]],
            [[6, 0, 0], [0, 6, 0], [0, 0, 0]],
            [[1, 5, -15], [0, -3, 10], [0, -1, 3]],
        ),
    ),
]


@pytest.mark.parametrize("rows, expected", SNF_PINNED)
def test_snf_transforms_are_pinned(rows, expected):
    assert snf(rows) == expected
    u, d, w = expected
    assert mat_mul(mat_mul(u, rows), w) == d


@pytest.mark.parametrize(
    "rows, error",
    [
        ([], RankDeficient),
        ([[]], RankDeficient),
        # [[1, 2], [3]] used to escape as IndexError
        ([[1, 2], [3]], DimensionMismatch),
        ([[1], [2, 3]], DimensionMismatch),
        ([[1, 0], [0, 1, 5]], DimensionMismatch),
    ],
)
def test_hnf_rejects_empty_and_ragged_rows(rows, error):
    with pytest.raises(error):
        hnf(rows)


@pytest.mark.parametrize("rows", [[], [[]], [[1, 2], [3]], [[1], [2, 3]]])
def test_snf_rejects_empty_and_ragged_rows(rows):
    with pytest.raises(DimensionMismatch):
        snf(rows)


@pytest.mark.parametrize("entry", [0.5, 2.0, True, F(1, 2), "1", None])
@pytest.mark.parametrize("normal_form", [hnf, snf])
def test_normal_forms_reject_entries_that_are_not_integers(normal_form, entry):
    # a Fraction used to pass through as an entry, a bool as a pivot, and a
    # string escaped as a built-in TypeError
    with pytest.raises(NotExact):
        normal_form([[2, 1], [entry, 3]])


def test_normal_forms_read_an_integral_fraction_as_an_int():
    rows = [[F(2), 1], [F(-4, 2), 3]]
    ints = [[2, 1], [-2, 3]]
    assert hnf(rows) == hnf(ints)
    assert snf(rows) == snf(ints)
    assert all(type(x) is int for m in (*hnf(rows), *snf(rows)) for row in m for x in row)


def test_snf_random_against_sympy():
    rng = random.Random(17)
    for _ in range(40):
        n = rng.randint(1, 4)
        a = rand_int_matrix(rng, n, n)
        u, d, w = snf(a)
        # transformation property and unimodularity
        assert mat_mul(mat_mul(u, a), w) == d
        assert abs(Mat(u).det()) == 1
        assert abs(Mat(w).det()) == 1
        # diagonal with a divisibility chain
        diag = [d[i][i] for i in range(n)]
        assert all(d[i][j] == 0 for i in range(n) for j in range(n) if i != j)
        for i in range(n - 1):
            if diag[i + 1] != 0:
                assert diag[i] != 0 and diag[i + 1] % diag[i] == 0
        sym = smith_normal_form(sympy.Matrix(n, n, lambda i, j: a[i][j]))
        assert [abs(diag[i]) for i in range(n)] == [abs(sym[i, i]) for i in range(n)]


# ---------------------------------------------------------------------------
# Kernels and congruence lattices
# ---------------------------------------------------------------------------


def test_kernel_rank_matches_sympy():
    # the integer kernel of A is a block of one Hermite pass: the columns of U
    # under the zero columns of A U in the column form [A U; U] of A stacked on I
    rng = random.Random(29)
    for _ in range(30):
        n, m = rng.randint(1, 3), rng.randint(1, 4)
        a = rand_int_matrix(rng, n, m)
        h = column_hnf([*a, *([int(i == j) for j in range(m)] for i in range(m))])
        rank = sum(1 for j in range(m) if any(h[i][j] for i in range(n)))
        assert rank == sympy.Matrix(n, m, lambda i, j: a[i][j]).rank()
        for j in range(rank, m):
            col = [h[n + i][j] for i in range(m)]
            assert all(sum(a[i][t] * col[t] for t in range(m)) == 0 for i in range(n))


def test_congruence_lattice_brute_force():
    # {x : A x = 0 mod d} checked against enumeration of a box of points
    rng = random.Random(23)
    for _ in range(20):
        g = rng.randint(1, 2)
        d = rng.choice([2, 3, 4])
        a = rand_int_matrix(rng, g, g)
        bm = Mat(congruence_lattice(a, d))
        inv = bm.inv()
        box = range(-d, d + 1)
        pts = [(x,) for x in box] if g == 1 else [(x, y) for x in box for y in box]
        for v in pts:
            in_span = all(c.denominator == 1 for c in inv.mul_vec(tuple(map(F, v))))
            satisfies = all(
                sum(a[i][j] * v[j] for j in range(g)) % d == 0 for i in range(g)
            )
            assert satisfies == in_span


def test_congruence_lattice_below_a_basis_is_its_image():
    # [[A, d I], [B, 0]] gives the Hermite basis of B {x : A x = 0 mod d}
    rng = random.Random(31)
    for _ in range(40):
        g, n = rng.randint(1, 4), rng.randint(1, 3)
        d = rng.randint(1, 6)
        a = rand_int_matrix(rng, n, g)
        b = rand_int_matrix(rng, g, g)
        if Mat(b).det() == 0:
            continue
        assert congruence_lattice(a, d, b) == hnf(mat_mul(b, congruence_lattice(a, d)))[0]


@pytest.mark.parametrize("rows", [[], [[]], [[1, 2], [3]]])
def test_congruence_lattice_rejects_empty_and_ragged_rows(rows):
    with pytest.raises(DimensionMismatch):
        congruence_lattice(rows, 2)


def test_order_and_encoding_follow_the_fraction_entries():
    # few distinct small entries, so pairs often agree on a prefix or are equal
    rng = random.Random(467)

    def rand_mat(n, m):
        return Mat([[Fraction(rng.randint(-2, 2), rng.choice((1, 2, 3))) for _ in range(m)]
                    for _ in range(n)])

    equal = 0
    for _ in range(400):
        n, m = rng.randint(1, 3), rng.randint(1, 3)
        a = rand_mat(n, m)
        b = Mat(a.entries) if rng.random() < 0.2 else rand_mat(n, m)
        equal += a == b
        assert (a < b) == (a.entries < b.entries)
        assert (b < a) == (b.entries < a.entries)
        assert matrix_to_json(a) == [[str(x) for x in row] for row in a.entries]
    assert equal >= 60


# ---------------------------------------------------------------------------
# Bareiss elimination on sparse matrices, where rows with a zero in the pivot
# column are left as they are while the pivot stays the previous one
# ---------------------------------------------------------------------------

SPARSE_KINDS = ("permutation", "diagonal", "block-triangular", "identity-like", "sparse")


def rand_sparse_square(rng, kind, n):
    """An n x n integer matrix of one sparse kind; diagonal, block-triangular and
    sparse ones are sometimes singular."""
    if kind == "permutation":
        perm = list(range(n))
        rng.shuffle(perm)
        scale = [rng.choice([-2, -1, 1, 1, 3]) for _ in range(n)]
        return [[scale[i] * (perm[i] == j) for j in range(n)] for i in range(n)]
    if kind == "diagonal":
        return [[rng.randint(-3, 3) * (i == j) for j in range(n)] for i in range(n)]
    if kind == "block-triangular":
        k = rng.randint(1, n)
        return [
            [0 if i < k <= j else rng.randint(-3, 3) * (rng.random() < 0.6) for j in range(n)]
            for i in range(n)
        ]
    if kind == "identity-like":
        rows = [[int(i == j) for j in range(n)] for i in range(n)]
        for _ in range(rng.randint(0, 2)):
            rows[rng.randrange(n)][rng.randrange(n)] = rng.randint(-4, 4)
        return rows
    return [[rng.randint(-5, 5) * (rng.random() < 0.3) for _ in range(n)] for _ in range(n)]


@pytest.mark.parametrize("kind", SPARSE_KINDS)
def test_elimination_of_sparse_matrices_matches_the_full_update_and_sympy(kind):
    rng = random.Random(f"eliminate:{kind}")
    singular = 0
    for _ in range(150):
        n = rng.randint(1, 6)
        a = rand_sparse_square(rng, kind, n)
        mat = Mat._from_int(a)
        rhs = rand_int_matrix(rng, n, rng.randint(1, 3), -4, 4)
        det = int(sympy.Matrix(a).det())
        assert mat._eliminate([()] * n) == ref_eliminate(a, [()] * n)
        d, y = mat._eliminate(rhs)
        assert (d, y) == ref_eliminate(a, rhs)
        assert d == det and mat.det() == det
        if det:
            assert [[sum(r[t] * y[t][j] for t in range(n)) for j in range(len(rhs[0]))]
                    for r in a] == [[det * x for x in row] for row in rhs]
            assert mat.inv() @ mat == Mat.identity(n)
            TropTorus(mat)
        else:
            singular += 1
            assert y == []
            with pytest.raises(SingularLattice, match="period matrix must be nonsingular"):
                TropTorus(mat)
    if kind in ("diagonal", "block-triangular", "sparse"):
        assert singular > 10
