"""Lowering folds each product into one term.

A flat sum of monomials ``c*s^k*G(0)^e0*...`` lowers without multiplying
polynomials: every factor of a product folds into one running scalar,
``s`` degree and exponent list, and the term is built once, without the
public checked constructor.  Only a parenthesised sum is multiplied in as a
polynomial.
"""

import random

import pytest

from gamma_ideal.parser import lower_to_poly, parse_poly
from gamma_ideal.poly import GammaPoly, UniPoly
from test_output_cost import counter

ARITY = 4


def flat_sum(terms: int, seed: int) -> str:
    """A sum of ``terms`` monomials over 4 shifts, as the printer writes
    them: coefficients like ``-9`` or ``5/2``, powers of ``s`` and of the
    ``G(k)``."""
    rng = random.Random(seed)
    pieces = []
    for k in range(terms):
        factors = []
        coefficient = rng.randint(1, 9)
        if coefficient != 1 or rng.random() < 0.2:
            factors.append(str(coefficient) + rng.choice(["", "", "/2"]))
        power = rng.randint(0, 3)
        if power:
            factors.append("s" if power == 1 else f"s^{power}")
        for index in range(ARITY):
            exponent = rng.choice([0, 0, 1, 2, 6])
            if exponent:
                factors.append(f"G({index})" if exponent == 1 else f"G({index})^{exponent}")
        sign = rng.choice("+-") if k else rng.choice(["", "-"])
        pieces.append(sign + "*".join(factors or ["1"]))
    return "".join(pieces)


COUNTED = [
    (GammaPoly, "__init__"),
    (GammaPoly, "__mul__"),
    (GammaPoly, "__rmul__"),
    (GammaPoly, "__pow__"),
    (UniPoly, "__mul__"),
    (UniPoly, "__rmul__"),
    (UniPoly, "__pow__"),
]


@pytest.mark.parametrize("terms", [400, 800])
def test_flat_sum_lowers_without_polynomial_products(monkeypatch, terms):
    ast = parse_poly(flat_sum(terms, seed=terms), ARITY)
    calls = {f"{cls.__name__}.{name}": counter(monkeypatch, cls, name) for cls, name in COUNTED}
    p = lower_to_poly(ast, ARITY)
    assert {name: len(made) for name, made in calls.items()} == dict.fromkeys(calls, 0)
    monkeypatch.undo()
    assert 0 < len(p.terms) <= terms


@pytest.mark.parametrize(
    "text, products",
    [
        # by (G(0)+1), (G(2)-s) and (s+1); the other factors fold
        ("-5/2*s*(G(0)+1)*G(1)^2*(G(2)-s)*i*(s+1)/3^2", 3),
        # a factor that folds to 1 is not multiplied in
        ("2/2*(G(0)+s)*(G(1)-s)", 1),
        # two squarings, and nothing more
        ("(G(0)+G(1)+G(2))^4", 2),
    ],
)
def test_only_parenthesised_sums_are_multiplied(monkeypatch, text, products):
    ast = parse_poly(text, ARITY)
    calls = counter(monkeypatch, GammaPoly, "__mul__")
    lower_to_poly(ast, ARITY)
    assert len(calls) == products
