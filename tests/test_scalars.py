from fractions import Fraction
from functools import reduce
from math import gcd
from types import SimpleNamespace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gamma_ideal.parser import parse_scalar
from gamma_ideal.scalars import (
    I,
    ONE,
    ZERO,
    GaussianRational,
    decimal_int,
    decimal_text,
    pair_text,
    scalar_factor_text,
    scalar_text,
    to_scalar,
)
from strategies import nonzero_scalars, scalars
from test_gammapoly import ref_scalar_text


def test_construction_coerces_to_fractions():
    z = GaussianRational(1, 2)
    assert z.real == Fraction(1) and z.imag == Fraction(2)
    assert GaussianRational(Fraction(1, 2)).imag == 0


def test_basic_predicates():
    assert ZERO.is_zero() and not ONE.is_zero()
    assert ONE.is_one()
    assert to_scalar(3).is_integer()
    assert not GaussianRational(Fraction(1, 2)).is_integer()
    assert not I.is_integer()


def test_i_squared():
    assert I * I == to_scalar(-1)


@given(scalars, scalars)
def test_addition_commutes(a, b):
    assert a + b == b + a


@given(scalars, scalars, scalars)
def test_distributivity(a, b, c):
    assert a * (b + c) == a * b + a * c


@given(scalars, nonzero_scalars)
def test_division_inverts_multiplication(a, b):
    assert (a / b) * b == a


@given(nonzero_scalars)
def test_inverse_through_conjugate(z):
    assert z * (ONE / z) == ONE


@given(scalars, scalars)
def test_conjugate_is_multiplicative(a, b):
    assert (a * b).conjugate() == a.conjugate() * b.conjugate()


@given(scalars)
def test_pow_matches_repeated_product(z):
    assert z**0 == ONE
    assert z**3 == z * z * z


@given(scalars, scalars)
def test_complex_embedding_is_additive(a, b):
    assert complex(a + b) == pytest.approx(complex(a) + complex(b))


def test_division_by_zero_raises():
    with pytest.raises(ZeroDivisionError):
        ONE / ZERO


def test_int_operands_mix_in():
    z = GaussianRational(Fraction(1, 2))
    assert z + 1 == GaussianRational(Fraction(3, 2))
    assert 2 * z == ONE
    assert 1 - z == z


@pytest.mark.parametrize(
    "value, text",
    [
        (ZERO, "0"),
        (ONE, "1"),
        (-ONE, "-1"),
        (I, "i"),
        (-I, "-i"),
        (GaussianRational(Fraction(1, 2)), "1/2"),
        (GaussianRational(0, Fraction(1, 2)), "(1/2)i"),
        (GaussianRational(0, 2), "2i"),
        (GaussianRational(Fraction(3, 2), 1), "3/2+i"),
        (GaussianRational(1, Fraction(-1, 3)), "1-(1/3)i"),
    ],
)
def test_canonical_text(value, text):
    assert scalar_text(value) == text


def test_factor_text_parenthesizes_mixed_values():
    assert scalar_factor_text(GaussianRational(1, 1)) == "(1+i)"
    assert scalar_factor_text(GaussianRational(Fraction(1, 2))) == "1/2"


@given(scalars)
def test_text_round_trips_through_parser(z):
    assert parse_scalar(scalar_text(z)) == z


# -- integers past the interpreter's digit limit (4300 by default)


@given(st.integers(-(10**50), 10**50))
def test_decimal_text_is_str_for_short_ints(n):
    assert decimal_text(n) == str(n)
    assert decimal_int(str(abs(n))) == abs(n)


@pytest.mark.parametrize(
    "n, text",
    [
        (10**5000, "1" + "0" * 5000),
        (10**5000 + 1, "1" + "0" * 4999 + "1"),
        (-(10**9000 - 1), "-" + "9" * 9000),
        (7 * 10**4399 + 3, "7" + "0" * 4398 + "3"),
    ],
    ids=["1e5000", "1e5000+1", "-(1e9000-1)", "7e4399+3"],
)
def test_decimal_text_and_int_past_the_limit(n, text):
    assert decimal_text(n) == text
    assert decimal_int(text.lstrip("-")) == abs(n)


def test_decimal_int_rejects_non_digits():
    with pytest.raises(ValueError):
        decimal_int("12a" * 2000)


def test_pair_text_prints_long_parts():
    big = 10**4400 + 1
    zeros = "0" * 4399
    assert pair_text(big, -2 * big, 3) == f"1{zeros}1/3-(2{zeros}2/3)i"


# -- the int triple against Fraction-pair arithmetic

wide_parts = st.builds(Fraction, st.integers(-(10**20), 10**20), st.integers(1, 10**9))
ref_pairs = st.tuples(wide_parts, wide_parts)


def ref_mul(x, y):
    return x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0]


def checked(z, expected):
    """``z`` is canonical and equals the Fraction pair ``expected``."""
    assert z.den > 0 and gcd(z.re, z.im, z.den) == 1
    assert (z.real, z.imag) == expected


@given(ref_pairs, ref_pairs, st.integers(0, 5))
def test_arithmetic_matches_fraction_pairs(x, y, e):
    a, b = GaussianRational(*x), GaussianRational(*y)
    checked(a, x)
    checked(a + b, (x[0] + y[0], x[1] + y[1]))
    checked(a - b, (x[0] - y[0], x[1] - y[1]))
    checked(a * b, ref_mul(x, y))
    checked(a**e, reduce(ref_mul, [x] * e, (1, 0)))
    checked(a.conjugate(), (x[0], -x[1]))
    checked(-a, (-x[0], -x[1]))
    checked(a + 3, (x[0] + 3, x[1]))
    checked(2 * a, (2 * x[0], 2 * x[1]))
    if any(y):
        norm = y[0] * y[0] + y[1] * y[1]
        checked(a / b, tuple(part / norm for part in ref_mul(x, (y[0], -y[1]))))


@given(ref_pairs, st.integers(-5, 5).filter(bool))
def test_both_constructors_agree(x, scale):
    z = GaussianRational(*x)
    same = GaussianRational._of(z.re * scale, z.im * scale, z.den * scale)
    checked(same, x)
    assert (same.re, same.im, same.den) == (z.re, z.im, z.den)
    assert same == z and hash(same) == hash(z)


@given(ref_pairs)
def test_text_and_complex_match_fraction_pairs(x):
    z = GaussianRational(*x)
    assert str(z) == ref_scalar_text(SimpleNamespace(real=x[0], imag=x[1]))
    value, expected = complex(z), complex(float(x[0]), float(x[1]))
    assert (value.real.hex(), value.imag.hex()) == (expected.real.hex(), expected.imag.hex())


def test_instances_hold_only_the_triple():
    z = GaussianRational(Fraction(1, 2), Fraction(-3, 4))
    assert (z.re, z.im, z.den) == (2, -3, 4) and not hasattr(z, "__dict__")
    with pytest.raises(AttributeError):
        z.re = 1
    with pytest.raises(AttributeError):
        del z.den
