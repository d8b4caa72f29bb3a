from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gamma_ideal.poly import MINUS_INFINITY, UniPoly, euclid_divide, unipoly_text
from gamma_ideal.scalars import GaussianRational, to_scalar
from strategies import nonzero_unipolys, scalars, unipolys


def upoly(*coeffs):
    """Little-endian constructor shorthand: upoly(c0, c1, ...)."""
    return UniPoly(tuple(to_scalar(c) for c in coeffs))


def test_trailing_zeros_are_stripped():
    assert upoly(1, 2, 0, 0) == upoly(1, 2)
    assert upoly(0) == UniPoly.zero()
    assert not UniPoly.zero()


def test_degree_conventions():
    assert UniPoly.zero().degree == MINUS_INFINITY
    assert UniPoly.one().degree == 0
    assert UniPoly.x().degree == 1
    assert upoly(3, 0, 5).leading_coefficient == to_scalar(5)
    with pytest.raises(ValueError):
        UniPoly.zero().leading_coefficient


def test_linear_is_s_plus_shift():
    half = Fraction(1, 2)
    p = UniPoly.linear(half)
    assert p(to_scalar(1)) == to_scalar(1) + half
    assert p.degree == 1


@given(unipolys, unipolys)
def test_addition_commutes(p, q):
    assert p + q == q + p


@given(unipolys, unipolys, unipolys)
def test_multiplication_distributes(p, q, r):
    assert p * (q + r) == p * q + p * r


@given(nonzero_unipolys, nonzero_unipolys)
def test_degree_of_product_adds(p, q):
    assert (p * q).degree == p.degree + q.degree


@given(unipolys)
def test_pow_is_repeated_product(p):
    assert p**0 == UniPoly.one()
    assert p**3 == p * p * p


@given(unipolys, scalars)
def test_exact_and_float_evaluation_agree(p, z):
    exact = complex(p(z))
    floating = p(complex(z))
    assert floating == pytest.approx(exact, abs=1e-9, rel=1e-9)


@given(unipolys, scalars, scalars)
def test_compose_shift_translates_the_argument(p, offset, point):
    assert p.compose_shift(offset)(point) == p(point + offset)


@given(unipolys)
def test_compose_shift_zero_is_identity(p):
    assert p.compose_shift(0) == p


# -- euclidean division


@pytest.mark.parametrize(
    "num, den, quotient, remainder",
    [
        (upoly(2, 3, 1), upoly(1, 1), upoly(2, 1), UniPoly.zero()),
        (upoly(1, 0, 1), UniPoly.x(), UniPoly.x(), upoly(1)),
        (upoly(2, 1), upoly(0, 0, 1), UniPoly.zero(), upoly(2, 1)),
    ],
)
def test_euclid_divide_worked_cases(num, den, quotient, remainder):
    assert euclid_divide(num, den) == (quotient, remainder)


def test_euclid_divide_rejects_zero_divisor():
    with pytest.raises(ValueError):
        euclid_divide(upoly(1), UniPoly.zero())


@given(unipolys, nonzero_unipolys)
def test_euclid_divide_round_trip(num, den):
    quotient, remainder = euclid_divide(num, den)
    assert quotient * den + remainder == num
    assert not remainder or remainder.degree < den.degree


# -- text


@pytest.mark.parametrize(
    "p, text",
    [
        (UniPoly.zero(), "0"),
        (UniPoly.one(), "1"),
        (upoly(0, 1, 1), "s^2+s"),
        (upoly(1, -1), "-s+1"),
        (upoly(Fraction(1, 2)), "1/2"),
        (upoly(GaussianRational(0, 1), 2), "2*s+i"),
        (upoly(0, 0, -3), "-3*s^2"),
    ],
)
def test_unipoly_text(p, text):
    assert unipoly_text(p) == text


# -- against a dense reference on Fraction pairs
#
# The reference is a list of (re, im) Fraction pairs in ascending powers,
# without trailing zeros, and uses nothing from the package.

def ref_trim(a):
    a = list(a)
    while a and a[-1] == (0, 0):
        a.pop()
    return a


def ref_add(a, b, sign=1):
    n = max(len(a), len(b))
    a = a + [(Fraction(0), Fraction(0))] * (n - len(a))
    b = b + [(Fraction(0), Fraction(0))] * (n - len(b))
    return ref_trim((x[0] + sign * y[0], x[1] + sign * y[1]) for x, y in zip(a, b))


def ref_scalar_mul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def ref_mul(a, b):
    if not a or not b:
        return []
    out = [(Fraction(0), Fraction(0))] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            z = ref_scalar_mul(x, y)
            out[i + j] = (out[i + j][0] + z[0], out[i + j][1] + z[1])
    return ref_trim(out)


def ref_pow(a, e):
    result = [(Fraction(1), Fraction(0))]
    for _ in range(e):
        result = ref_mul(result, a)
    return result


def ref_compose_shift(a, offset):
    linear = [offset, (Fraction(1), Fraction(0))]
    acc = []
    for c in reversed(a):
        acc = ref_add(ref_mul(acc, linear), [c])
    return acc


def ref_divmod(num, den):
    norm = den[-1][0] ** 2 + den[-1][1] ** 2
    inverse = (den[-1][0] / norm, -den[-1][1] / norm)
    quotient, remainder = [], list(num)
    while len(remainder) >= len(den):
        shift = len(remainder) - len(den)
        step = [(Fraction(0), Fraction(0))] * shift + [ref_scalar_mul(remainder[-1], inverse)]
        quotient = ref_add(quotient, step)
        remainder = ref_add(remainder, ref_mul(step, den), sign=-1)
    return quotient, remainder


ref_parts = st.builds(Fraction, st.integers(-40, 40), st.integers(1, 12))
ref_scalars = st.tuples(ref_parts, ref_parts)
ref_polys = st.lists(ref_scalars, max_size=6).map(ref_trim)
nonzero_ref_polys = ref_polys.filter(bool)


def from_ref(a):
    return UniPoly(tuple(GaussianRational(re, im) for re, im in a))


def to_ref(p):
    return [(c.real, c.imag) for c in p.coeffs]


def assert_canonical(p):
    """Positive denominator, no trailing zero, primitive storage."""
    assert p._den > 0
    assert not p._num or p._num[-1] != (0, 0)
    assert gcd(p._den, *(part for pair in p._num for part in pair)) == 1
    if not p._num:
        assert p._den == 1


def checked(p, expected):
    assert_canonical(p)
    assert to_ref(p) == expected
    return p


@given(ref_polys, ref_polys)
def test_ring_operations_match_the_reference(a, b):
    p, q = from_ref(a), from_ref(b)
    checked(p, a)
    checked(p + q, ref_add(a, b))
    checked(p - q, ref_add(a, b, sign=-1))
    checked(-p, ref_add([], a, sign=-1))
    checked(p * q, ref_mul(a, b))


@given(ref_polys, st.integers(0, 5))
def test_power_matches_the_reference(a, e):
    checked(from_ref(a) ** e, ref_pow(a, e))


@given(ref_polys, ref_scalars)
def test_compose_shift_matches_the_reference(a, offset):
    checked(from_ref(a).compose_shift(GaussianRational(*offset)), ref_compose_shift(a, offset))


@given(ref_polys, nonzero_ref_polys)
def test_euclid_divide_matches_the_reference(a, b):
    quotient, remainder = euclid_divide(from_ref(a), from_ref(b))
    expected_quotient, expected_remainder = ref_divmod(a, b)
    checked(quotient, expected_quotient)
    checked(remainder, expected_remainder)


@given(ref_polys, ref_polys, ref_polys)
def test_equal_polynomials_are_equal_objects(a, b, c):
    # (a + b) + c and a + (b + c) reach the same value by different
    # intermediate denominators; canonical storage makes them identical.
    left = (from_ref(a) + from_ref(b)) + from_ref(c)
    right = from_ref(a) + (from_ref(b) + from_ref(c))
    assert left == right
    assert hash(left) == hash(right)
    assert (left._num, left._den) == (right._num, right._den)
    product = from_ref(a) * from_ref(b)
    assert product == from_ref(ref_mul(a, b))
    assert hash(product) == hash(from_ref(ref_mul(a, b)))


def test_cancellation_leaves_the_canonical_zero():
    p = from_ref([(Fraction(1, 3), Fraction(2, 5)), (Fraction(7, 6), Fraction(0))])
    zero = p - p
    assert_canonical(zero)
    assert zero == UniPoly.zero() and hash(zero) == hash(UniPoly.zero())
    assert (zero._num, zero._den) == ((), 1)


def test_complex_evaluation_converts_reduced_coefficients():
    # Each coefficient converts as its reduced fraction would, so the float
    # evaluation is the same Horner sum over complex(Fraction) values.
    p = from_ref([(Fraction(1, 3), Fraction(-2, 7)), (Fraction(5, 6), Fraction(1, 9)), (Fraction(-4, 21), Fraction(0))])
    point = complex(0.3, -1.7)
    acc = 0j
    for c in reversed(p.coeffs):
        acc = acc * point + complex(float(c.real), float(c.imag))
    assert p(point) == acc
