import math
import random
from fractions import Fraction

import pytest

from tropabel.errors import DimensionMismatch, TropabelError
from tropabel.linalg import Mat
from tropabel.monomials import (
    MultiplicativePoint,
    ValuedMonomial,
    eval_character,
)
from tropabel.rationals import frac_mod_1
from tropabel.tori import NATorus

from conftest import MINUS_ONE, ONE, T_UNIF, mono, rand_mono

F = Fraction


# ---------------------------------------------------------------------------
# Group structure
# ---------------------------------------------------------------------------


def test_named_elements():
    assert ONE.is_one()
    assert MINUS_ONE * MINUS_ONE == ONE
    assert T_UNIF.valuation() == 1
    assert T_UNIF.magnitude == 1 and T_UNIF.phase == 0


def test_multiplication_example():
    a = mono(2, 0, 1)
    b = mono(3, F(1, 2), -1)
    assert a * b == mono(6, F(1, 2), 0)


def test_phase_is_reduced_mod_one():
    assert mono(1, F(5, 4), 0) == mono(1, F(1, 4), 0)
    assert mono(1, F(-1, 3), 0).phase == F(2, 3)


@pytest.mark.parametrize(
    "x",
    [F(-7, 3), F(-1), F(-1, 10**30), F(0), F(1, 2), F(99, 100), F(1), F(3), F(7, 3)]
    + [F(10**40 + 1, 7), F(-(10**40) - 1, 7), F(10**50), F(-(10**50), 3**60)],
)
def test_frac_mod_1_is_x_minus_its_floor(x):
    y = frac_mod_1(x)
    assert type(y) is Fraction
    assert y == x - math.floor(x)
    assert 0 <= y < 1


def test_frac_mod_1_of_random_fractions():
    rng = random.Random(277)
    for _ in range(2000):
        x = F(rng.randint(-(10**6), 10**6), rng.randint(1, 10**3))
        y = frac_mod_1(x)
        assert y == x - math.floor(x) and 0 <= y < 1
        assert y is x or not 0 <= x < 1


def test_magnitude_must_be_positive():
    with pytest.raises(ValueError):
        ValuedMonomial(F(-2), F(0), F(0))
    with pytest.raises(ValueError):
        ValuedMonomial(F(0), F(0), F(0))


def test_group_laws_random():
    rng = random.Random(41)
    for _ in range(50):
        a, b, c = (rand_mono(rng) for _ in range(3))
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * a.inv() == ONE
        assert a / b == a * b.inv()
        assert a**3 == a * a * a
        assert a**-2 == (a.inv()) ** 2
        assert a**0 == ONE


def test_integer_power_required():
    with pytest.raises(TypeError):
        mono(2, 0, 0) ** F(1, 2)


# ---------------------------------------------------------------------------
# Valuation and torsion
# ---------------------------------------------------------------------------


def test_valuation_is_homomorphism():
    rng = random.Random(43)
    for _ in range(50):
        a, b = rand_mono(rng), rand_mono(rng)
        assert (a * b).valuation() == a.valuation() + b.valuation()


def test_valuation_surjective_onto_q():
    for v in (F(0), F(3), F(-7, 2), F(22, 7)):
        assert ValuedMonomial.uniformizer(v).valuation() == v


def test_is_torsion():
    assert ONE.is_torsion() == 1
    assert MINUS_ONE.is_torsion() == 2
    assert mono(1, F(1, 3), 0).is_torsion() == 3
    assert mono(2, 0, 0).is_torsion() is None
    assert mono(1, 0, F(1, 2)).is_torsion() is None


# ---------------------------------------------------------------------------
# Rational powers
# ---------------------------------------------------------------------------


def test_root_pow_success():
    x = mono(4, F(1, 2), 3)
    r = x.root_pow(F(1, 2))
    assert r == mono(2, F(1, 4), F(3, 2))
    assert r * r == x
    assert mono(F(8, 27), 0, 0).root_pow(F(2, 3)) == mono(F(4, 9), 0, 0)
    # a negative root: the phase is reduced mod 1 as the constructor would
    r = x.root_pow(F(-1, 2))
    assert r == mono(F(1, 2), F(3, 4), F(-3, 2))
    assert r == ValuedMonomial(r.magnitude, r.phase, r.t_exponent)


def test_root_pow_integer_exponent_matches_pow():
    rng = random.Random(47)
    for _ in range(30):
        a = rand_mono(rng)
        n = rng.randint(-3, 3)
        assert a.root_pow(F(n)) == a**n


def test_root_pow_irrational_magnitude():
    with pytest.raises(ValueError) as info:
        mono(2, 0, 0).root_pow(F(1, 2))
    assert isinstance(info.value, TropabelError)
    with pytest.raises(ValueError):
        mono(3, 0, 0).root_pow(F(1, 3))


@pytest.mark.parametrize(
    "call, builtin",
    [
        (lambda: ValuedMonomial(0, 0, 0), ValueError),
        (lambda: ValuedMonomial(1.5, 0, 0), TypeError),
        (lambda: Mat([[1.5]]), TypeError),
        (lambda: ValuedMonomial(1, "1/0", 0), ZeroDivisionError),
        (lambda: ValuedMonomial(1, None, 0), TypeError),
        (lambda: MultiplicativePoint((ONE, T_UNIF)) ** 1.5, TypeError),
        (lambda: T_UNIF**True, TypeError),
    ],
    ids=["zero-magnitude", "float", "float-matrix", "1/0", "none", "float-power", "bool-power"],
)
def test_scalar_errors_are_library_errors(call, builtin):
    # the library's own error, which is also the built-in raised for the same fault
    with pytest.raises(TropabelError) as info:
        call()
    assert isinstance(info.value, builtin)


def test_float_rejected():
    with pytest.raises(TypeError):
        ValuedMonomial.of(0.5)
    with pytest.raises(TypeError):
        ValuedMonomial.of(1, 0.25, 0)


# ---------------------------------------------------------------------------
# Points and characters
# ---------------------------------------------------------------------------


def test_point_componentwise_product():
    p = MultiplicativePoint((mono(2, 0, 1), mono(3, F(1, 2), 0)))
    q = MultiplicativePoint((mono(1, F(1, 2), -1), mono(3, F(1, 2), 2)))
    assert (p * q).coords == (mono(2, F(1, 2), 0), mono(9, 0, 2))
    assert (p**2).valuations() == (F(2), F(0))
    for point in (p * q, p**2, p**-3):
        assert point == MultiplicativePoint(point.coords)
    with pytest.raises(DimensionMismatch):
        p * MultiplicativePoint((ONE,))


def test_eval_character_bilinear():
    rng = random.Random(53)
    for _ in range(30):
        g = rng.randint(1, 3)
        p = MultiplicativePoint(tuple(rand_mono(rng) for _ in range(g)))
        q = MultiplicativePoint(tuple(rand_mono(rng) for _ in range(g)))
        m = [rng.randint(-3, 3) for _ in range(g)]
        m2 = [rng.randint(-3, 3) for _ in range(g)]
        # multiplicative in the point, additive in the exponent vector
        assert eval_character(p * q, m) == eval_character(p, m) * eval_character(q, m)
        msum = [x + y for x, y in zip(m, m2)]
        assert eval_character(p, msum) == eval_character(p, m) * eval_character(p, m2)


def test_eval_character_example():
    p = MultiplicativePoint((mono(2, 0, 1), mono(1, F(1, 4), F(1, 2))))
    assert eval_character(p, (1, 0)) == mono(2, 0, 1)
    assert eval_character(p, (2, -2)) == mono(4, F(1, 2), 1)
    assert eval_character(p, (0, 0)) == ONE
    with pytest.raises(DimensionMismatch):
        eval_character(p, (1, 0, 0))


@pytest.mark.parametrize("coords", [(1, 2), (ONE, F(1)), ("1", ONE), (None,)])
def test_point_coordinates_must_be_monomials(coords):
    with pytest.raises(TropabelError):
        MultiplicativePoint(coords)
    with pytest.raises(TropabelError):
        NATorus((MultiplicativePoint((T_UNIF, ONE)), MultiplicativePoint(coords)))


def test_group_operations_equal_public_construction():
    rng = random.Random(479)
    for _ in range(200):
        a, b = rand_mono(rng), rand_mono(rng)
        n = rng.randint(-4, 4)
        expected = [
            (a * b, ValuedMonomial(a.magnitude * b.magnitude, a.phase + b.phase,
                                   a.t_exponent + b.t_exponent)),
            (a.inv(), ValuedMonomial(1 / a.magnitude, -a.phase, -a.t_exponent)),
            (a**n, ValuedMonomial(a.magnitude**n, n * a.phase, n * a.t_exponent)),
            (a / b, ValuedMonomial(a.magnitude / b.magnitude, a.phase - b.phase,
                                   a.t_exponent - b.t_exponent)),
        ]
        for x, public in expected:
            assert x == public and hash(x) == hash(public)
            assert all(type(c) is Fraction for c in (x.magnitude, x.phase, x.t_exponent))
            assert 0 <= x.phase < 1
