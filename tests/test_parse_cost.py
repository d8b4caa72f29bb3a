"""A flat sum parses into a shallow tree and lowers into one term map.

The tree of a sum is one node of its terms, and of a product one node of
its factors, so its depth does not grow with the length of the text.  A
flat sum of monomials ``c*s^k*G(0)^e0*...`` lowers without multiplying
polynomials: every factor of a product folds into one running scalar,
``s`` degree and exponent list, each product's term goes straight into the
sum's term map, and the polynomial is built once, at the end, without the
public checked constructor.  Only a parenthesised factor is multiplied in as
a polynomial.
"""

import pytest

from gamma_ideal import poly
from gamma_ideal._record import Record
from gamma_ideal.parser import lower_to_poly, parse_poly
from gamma_ideal.poly import GammaPoly, UniPoly
from strategies import flat_sum
from test_output_cost import counter

ARITY = 4


def depth(node: Record) -> int:
    """Edges on the longest path down from ``node``; iterative."""
    deepest, stack = 0, [(node, 0)]
    while stack:
        node, below = stack.pop()
        deepest = max(deepest, below)
        for name in node._fields:
            value = getattr(node, name)
            for child in value if isinstance(value, tuple) else (value,):
                if isinstance(child, Record):
                    stack.append((child, below + 1))
    return deepest


@pytest.mark.parametrize("terms", [10, 5000])
def test_flat_sum_tree_is_shallow(terms):
    # the sum, a product, a power and its base
    assert depth(parse_poly(flat_sum(terms, seed=terms), ARITY)) <= 3


@pytest.mark.parametrize("terms", [10, 800])
def test_flat_sum_builds_one_polynomial(monkeypatch, terms):
    ast = parse_poly(flat_sum(terms, seed=terms), ARITY)
    built = counter(monkeypatch, GammaPoly, "_build")
    lower_to_poly(ast, ARITY)
    assert len(built) == 1


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


def test_negated_parenthesised_terms_are_not_multiplied_by_minus_one(monkeypatch):
    # a term's sign folds into its running scalar; a scalar of -1 before a
    # parenthesised factor negates it, as a scalar of 1 copies it
    ast = parse_poly("-(G(0)+1)+(G(1)-s)^2-(G(2)+s)^2", ARITY)
    calls = counter(monkeypatch, GammaPoly, "__mul__")
    lower_to_poly(ast, ARITY)
    assert len(calls) == 2  # the two squarings


def test_constant_coefficient_powers_multiply_scalars_not_polynomials(monkeypatch):
    # Lowering (G(0)+...+G(7))^4 squares twice.  Every coefficient of A and
    # of A^2 is a constant, so the products multiply scalars.  Convolving
    # each pair of coefficients, as for any other product, would run 784
    # times: once per pair of A^2's 28 coefficients 2 (a factor 1 is left
    # out).
    arity = 8
    text = "(" + "+".join(f"G({k})" for k in range(arity)) + ")^4"
    ast = parse_poly(text, arity)
    convolved = []
    convolve_into = poly._convolve_into

    def counting(*args):
        convolved.append(args)
        return convolve_into(*args)

    monkeypatch.setattr(poly, "_convolve_into", counting)
    p = lower_to_poly(ast, arity)
    assert len(convolved) == 0
    monkeypatch.undo()
    assert len(p.terms) == 330 and sum(c._re[0] for c in p.terms.values()) == arity**4
