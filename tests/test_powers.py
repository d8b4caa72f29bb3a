"""``x ** e`` multiplies no more than repeated squaring needs.

Squaring once per bit below the top one and multiplying once per further
set bit gives at most floor(log2 e) + popcount(e) - 1 products; in
particular nothing is squared after the top bit.
"""

from fractions import Fraction

import pytest

from gamma_ideal.poly import GammaPoly, UniPoly
from gamma_ideal.scalars import ONE, GaussianRational

EXPONENTS = [0, 1, 2, 3, 4, 5, 6, 7, 8, 12, 13, 16, 31, 33]


def product_bound(exponent: int) -> int:
    if exponent == 0:
        return 0
    return exponent.bit_length() - 1 + bin(exponent).count("1") - 1


def naive_power(base, exponent: int, one):
    result = one
    for _ in range(exponent):
        result = result * base
    return result


def count_products(monkeypatch, cls) -> list:
    calls = []
    original = cls.__mul__

    def counting(self, other):
        calls.append(1)
        return original(self, other)

    monkeypatch.setattr(cls, "__mul__", counting)
    return calls


CASES = {
    "GaussianRational": (lambda: GaussianRational(Fraction(2, 3), Fraction(-1, 2)), lambda: ONE),
    "UniPoly": (lambda: UniPoly((Fraction(1, 2), GaussianRational(0, 1), 3)), UniPoly.one),
    "GammaPoly": (
        lambda: GammaPoly.variable(2, 0) + GammaPoly.constant(2, UniPoly.x()) * GammaPoly.variable(2, 1),
        lambda: GammaPoly.constant(2, ONE),
    ),
}


@pytest.mark.parametrize("kind", sorted(CASES))
@pytest.mark.parametrize("exponent", EXPONENTS)
def test_power_makes_at_most_the_squaring_products(monkeypatch, kind, exponent):
    make, one = CASES[kind]
    base = make()
    expected = naive_power(base, exponent, one())
    cls = type(base)
    calls = count_products(monkeypatch, cls)
    assert base**exponent == expected
    assert len(calls) <= product_bound(exponent)


def test_negative_and_non_integer_exponents_are_rejected():
    for base in (ONE, UniPoly.x(), GammaPoly.variable(1, 0)):
        with pytest.raises(ValueError):
            base ** -1
        with pytest.raises(ValueError):
            base ** 1.5
