"""The multivariate layer: term order, highest term, height, arithmetic.

Exponent tuples compare lexicographically scanning from index 0, the first
differing exponent deciding — so among the placeholders themselves G(0) is
the largest.  The worked identity G(0)G(2) - G(1)^2 - G(0)G(1) threads
through as a golden value.
"""

from fractions import Fraction

import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from gamma_ideal.poly import (
    GammaPoly,
    TermSums,
    UniPoly,
    gamma_poly_text,
    height,
    highest_term,
    lex_compare,
    monomial_degree,
    signed_sum,
    unipoly_text,
)
from gamma_ideal.scalars import ONE, GaussianRational, power_by_squaring, scalar_text
from strategies import gamma_polys, monomials, nonzero_gamma_polys, nonzero_unipolys, unipolys
from test_output_cost import counter


def monomial_mul(m1, m2):
    return tuple(a + b for a, b in zip(m1, m2))


def G(index, arity=3):
    return GammaPoly.variable(arity, index)


def example_identity():
    """G(0)*G(2) - G(1)^2 - G(0)*G(1), the member identity at shifts 0,1,2."""
    y, z, w = G(0), G(1), G(2)
    return y * w - z * z - y * z


# -- order


@pytest.mark.parametrize(
    "m1, m2, expected",
    [
        ((1, 5), (2, 1), -1),
        ((3, 2, 7), (3, 2, 7), 0),
        ((2, 1, 0), (2, 0, 9), 1),
    ],
)
def test_lex_compare_cases(m1, m2, expected):
    assert lex_compare(m1, m2) == expected


def test_lex_compare_rejects_mixed_arity():
    with pytest.raises(ValueError):
        lex_compare((1, 0), (1, 0, 0))


@given(monomials(3), monomials(3))
def test_lex_compare_is_antisymmetric(m1, m2):
    assert lex_compare(m1, m2) == -lex_compare(m2, m1)
    assert (lex_compare(m1, m2) == 0) == (m1 == m2)


@given(monomials(3), monomials(3), monomials(3))
def test_lex_compare_is_transitive(m1, m2, m3):
    ordered = sorted([m1, m2, m3])
    assert lex_compare(ordered[0], ordered[1]) <= 0
    assert lex_compare(ordered[1], ordered[2]) <= 0
    assert lex_compare(ordered[0], ordered[2]) <= 0


def test_monomial_degree():
    assert monomial_degree(()) == 0
    assert monomial_degree((0, 0, 0)) == 0
    assert monomial_degree((1, 2)) == 3
    assert monomial_degree((1, 0, 1)) == 2


# -- construction and canonical form


def test_zero_coefficients_are_dropped():
    p = GammaPoly(2, {(1, 0): UniPoly.zero(), (0, 1): UniPoly.one()})
    assert list(p.terms) == [(0, 1)]


def test_duplicate_monomials_merge():
    p = GammaPoly(1, [((1,), UniPoly.one()), ((1,), UniPoly.one())])
    assert p.coefficient((1,)) == UniPoly.constant(2)


def test_arity_validation():
    with pytest.raises(ValueError):
        GammaPoly(2, {(1,): UniPoly.one()})
    with pytest.raises(ValueError):
        GammaPoly(2, {(1, -1): UniPoly.one()})


def test_immutability():
    p = G(0)
    with pytest.raises(AttributeError):
        p.arity = 5


@given(gamma_polys(2), gamma_polys(2))
def test_structural_equality_and_hash(p, q):
    if p == q:
        assert hash(p) == hash(q)


# -- highest term and height


def test_highest_term_of_the_worked_identity():
    mono, coeff = highest_term(example_identity())
    assert mono == (1, 1, 0)
    assert coeff == UniPoly.constant(-1)


def test_highest_term_single_term():
    p = GammaPoly.constant(2, UniPoly.x() ** 2) * G(0, 2)
    assert highest_term(p) == ((1, 0), UniPoly.x() ** 2)


def test_highest_term_prefers_the_earlier_index():
    # G(0) beats G(1): the first exponent slot decides.
    p = G(0, 2) + G(1, 2)
    assert highest_term(p) == ((1, 0), UniPoly.one())


def test_highest_term_of_zero_raises():
    with pytest.raises(ValueError):
        highest_term(GammaPoly.zero(3))
    with pytest.raises(ValueError):
        height(GammaPoly.zero(3))


@given(nonzero_gamma_polys(3), nonzero_gamma_polys(3))
def test_order_is_multiplicative(p, q):
    assert highest_term(p * q)[0] == monomial_mul(
        highest_term(p)[0], highest_term(q)[0]
    )
    assert height(p * q) == height(p) + height(q)


def test_height_worked_values():
    assert height(example_identity()) == 2
    assert height(GammaPoly.constant(3, 5)) == 0
    assert height(GammaPoly.constant(3, UniPoly.x() ** 3) * G(0) ** 2 * G(1)) == 3


# -- ring arithmetic


@given(gamma_polys(3))
def test_additive_inverse(p):
    assert (p + (-p)).is_zero()


def test_variable_products():
    assert G(0) * G(1) == GammaPoly(3, {(1, 1, 0): UniPoly.one()})


def test_pairwise_cofactors_rebuild_the_identity():
    y, z, w = G(0), G(1), G(2)
    s = GammaPoly.constant(3, UniPoly.x())
    rebuilt = y * (w - (s + 1) * z) + z * (s * y - z)
    assert rebuilt == example_identity()


@given(gamma_polys(2), gamma_polys(2), gamma_polys(2))
def test_multiplication_distributes(p, q, r):
    assert p * (q + r) == p * q + p * r


@given(gamma_polys(2), unipolys)
def test_unipoly_coefficients_scale_in(p, c):
    assert p * c == GammaPoly.constant(2, c) * p


def test_mixed_arity_is_rejected():
    with pytest.raises(ValueError):
        G(0, 2) + G(0, 3)


@given(gamma_polys(2))
def test_pow_matches_repeated_product(p):
    assert p**2 == p * p


def storage(p: GammaPoly):
    return [(mono, coeff._re, coeff._im, coeff._den) for mono, coeff in p.terms.items()]


def added_one_by_one(terms) -> list:
    """The storage of adding ``(monomial, coefficient)`` pairs in turn: a
    monomial whose sum cancels leaves, one that comes back is appended."""
    merged = {}
    for mono, coeff in terms:
        total = merged.get(mono, UniPoly.zero()) + coeff
        if total:
            merged[mono] = total
        else:
            merged.pop(mono, None)
    return [(mono, coeff._re, coeff._im, coeff._den) for mono, coeff in merged.items()]


# The numeric oracle sums an input's terms in stored order, so the parser's
# sums and products fix the ``--verify`` bytes through it.


@given(gamma_polys(2, max_terms=6), gamma_polys(2, max_terms=6))
def test_product_keeps_the_term_order_of_adding_term_by_term(p, q):
    assert storage(p * q) == added_one_by_one(
        (monomial_mul(m1, m2), c1 * c2)
        for m1, c1 in p.terms.items()
        for m2, c2 in q.terms.items()
    )


@given(st.lists(st.tuples(st.sampled_from((1, -1)), gamma_polys(2, max_terms=4)), max_size=4))
def test_signed_sum_keeps_the_term_order_of_adding_term_by_term(parts):
    assert storage(signed_sum(2, parts)) == added_one_by_one(
        (mono, coeff if sign > 0 else -coeff)
        for sign, poly in parts
        for mono, coeff in poly.terms.items()
    )


# Few monomials and some coefficients that cancel, so pairs repeat a
# monomial and a monomial's sum can cancel and come back.
repeated_pairs = st.lists(
    st.tuples(
        monomials(2, max_exponent=1),
        st.one_of(nonzero_unipolys, st.sampled_from([UniPoly.one(), -UniPoly.one(), UniPoly.x(), -UniPoly.x()])),
    ),
    max_size=10,
)


# The example cancels G(0) and brings it back after G(1): it must come last.
@given(repeated_pairs)
@example([((1, 0), UniPoly.one()), ((0, 1), UniPoly.x()), ((1, 0), -UniPoly.one()), ((1, 0), UniPoly.one())])
def test_constructor_keeps_the_term_order_of_adding_term_by_term(pairs):
    assert storage(GammaPoly(2, pairs)) == added_one_by_one(pairs)


# -- exact running sums


def test_term_sums_over_mixed_denominators_are_canonical():
    third, half = Fraction(1, 3), Fraction(1, 2)
    a = UniPoly([third, GaussianRational(0, half)])
    b = UniPoly([Fraction(1, 6), Fraction(5, 4)])
    c, d = UniPoly([Fraction(2, 5)]), UniPoly([1, Fraction(1, 7)])
    sums = TermSums()
    sums.add("k", a)
    sums.add("k", b)
    sums.add_product("k", c, d)
    sums.add_product("k", d, UniPoly([-1, half]))
    (total,) = sums.terms().values()
    expected = a + b + c * d + d * UniPoly([-1, half])
    assert (total._re, total._im, total._den) == (expected._re, expected._im, expected._den)
    reference = UniPoly(expected.coeffs)
    assert (total._re, total._im, total._den) == (reference._re, reference._im, reference._den)


def test_term_sums_keep_a_single_addend_by_reference():
    a, b = UniPoly([1, 2]), UniPoly([Fraction(1, 3)])
    sums = TermSums()
    sums.add("a", a)
    sums.add_product("b", b, UniPoly.one())
    terms = sums.terms()
    assert terms["a"] is a and terms["b"] is b


def test_a_cancelled_key_leaves_and_comes_back_last():
    a, b = UniPoly([1, Fraction(1, 2)]), UniPoly([3])
    sums = TermSums()
    sums.add("first", a)
    sums.add("second", b)
    sums.add_product("first", a, UniPoly([-1]))
    assert list(sums.terms()) == ["second"]
    sums.add("first", a)
    sums.add("second", -b)
    assert list(sums.terms()) == ["first"]
    assert sums.terms()["first"] == a


# A product's operands: complex, of length 1 to 6, over mixed denominators,
# or the unit factor.
mixed_parts = st.builds(Fraction, st.integers(-9, 9), st.sampled_from((1, 2, 3, 4, 6)))
short_unipolys = (
    st.lists(st.builds(GaussianRational, mixed_parts, mixed_parts), min_size=1, max_size=6)
    .map(UniPoly)
    .filter(bool)
)
operands = st.one_of(st.just(UniPoly.one()), short_unipolys)


@given(
    operands,
    operands,
    st.sampled_from(["absent", "single", "rescaled", "cancelled"]),
    short_unipolys,
)
def test_add_product_does_not_depend_on_the_operand_order(a, b, state, single):
    # "rescaled" holds an open int list over denominator 5, which the
    # addend's denominator does not divide, so both sides are rescaled to
    # their lcm; "cancelled" holds -(a*b).
    held = {
        "absent": UniPoly.zero(),
        "single": single,
        "rescaled": UniPoly([Fraction(4, 5), Fraction(2, 5)]),
        "cancelled": -(a * b),
    }[state]
    if state == "rescaled":
        assume(a._den * b._den > 1)

    def storage_after(x, y):
        sums = TermSums()
        if state == "rescaled":
            sums.add("k", UniPoly([Fraction(1, 5), Fraction(2, 5)]))
            sums.add("k", UniPoly([Fraction(3, 5)]))
        elif held:
            sums.add("k", held)
        sums.add_product("k", x, y)
        return {key: (coeff._re, coeff._im, coeff._den) for key, coeff in sums.terms().items()}

    expected = held + a * b
    assert storage_after(a, b) == storage_after(b, a) == (
        {"k": (expected._re, expected._im, expected._den)} if expected else {}
    )


# Products of polynomials whose coefficients are all constants multiply the
# coefficients as scalars (``TermSums.add_scalar``); any other product
# convolves them (``TermSums.add_product``).  Both must give the same value
# and term order.


def pair_by_pair(p: GammaPoly, q: GammaPoly) -> GammaPoly:
    """p * q with every pair of terms added through ``add_product``."""
    sums = TermSums()
    for m1, c1 in p.terms.items():
        for m2, c2 in q.terms.items():
            sums.add_product(monomial_mul(m1, m2), c1, c2)
    return GammaPoly._build(p.arity, sums.terms())


class PairByPair:
    """A polynomial whose products are ``pair_by_pair``, so that
    ``power_by_squaring`` raises it in the order ``GammaPoly.__pow__`` does."""

    def __init__(self, poly: GammaPoly):
        self.poly = poly

    def __mul__(self, other: "PairByPair") -> "PairByPair":
        return PairByPair(pair_by_pair(self.poly, other.poly))


# Constants over mixed denominators, with imaginary parts, on few monomials,
# so that products repeat a monomial and its sum can cancel and come back.
constant_scalars = st.one_of(
    st.sampled_from([ONE, -ONE, GaussianRational(0, 1), GaussianRational(Fraction(1, 2))]),
    st.builds(GaussianRational, mixed_parts, mixed_parts),
).filter(lambda z: not z.is_zero())
constant_gamma_polys = st.lists(
    st.tuples(monomials(2, max_exponent=1), constant_scalars), max_size=5
).map(lambda pairs: GammaPoly(2, pairs))
# One coefficient 1/2 + s or more at G(1) sends a product down the generic path.
with_an_s_coefficient = constant_gamma_polys.map(
    lambda p: p + GammaPoly(2, {(0, 1): UniPoly([Fraction(1, 2), 1])})
)

# G(0)/2 + i*G(1) + 1 times 2/3*G(1) + i/3*G(0) - 3/4*G(0)*G(1): the first
# two products onto G(0)*G(1), 1/3 and -1/3 over the denominators 6 and 3,
# cancel, and the last brings the monomial back after five others.
CANCELLING = (
    GammaPoly(2, {(1, 0): Fraction(1, 2), (0, 1): GaussianRational(0, 1), (0, 0): 1}),
    GammaPoly(
        2,
        {(0, 1): Fraction(2, 3), (1, 0): GaussianRational(0, Fraction(1, 3)), (1, 1): Fraction(-3, 4)},
    ),
)


@given(constant_gamma_polys, st.one_of(constant_gamma_polys, with_an_s_coefficient), st.integers(1, 5))
@example(*CANCELLING, 3)
def test_constant_products_equal_the_pairwise_convolutions(p, q, exponent):
    assert storage(p * q) == storage(pair_by_pair(p, q))
    assert storage(q * p) == storage(pair_by_pair(q, p))
    for base in (p, q):
        assert storage(base**exponent) == storage(power_by_squaring(PairByPair(base), exponent, None).poly)


def test_the_coefficients_pick_the_product_path(monkeypatch):
    p, q = CANCELLING
    with_s = q + GammaPoly(2, {(0, 1): UniPoly.x()})
    scalar = counter(monkeypatch, TermSums, "add_scalar")
    generic = counter(monkeypatch, TermSums, "add_product")
    product = p * q
    assert (len(scalar), len(generic)) == (9, 0)
    assert list(product.terms)[-1] == (1, 1)
    assert product.coefficient((1, 1)) == UniPoly([Fraction(-3, 4)])
    p * with_s
    assert (len(scalar), len(generic)) == (9, 9)


# Products of two polynomials of two terms or more key their pairs by packed
# ints, with as many bytes per exponent as the largest exponent sum needs;
# a product with a one-term or empty operand multiplies term by term.


def lifted(p: GammaPoly, offset) -> GammaPoly:
    """p times the monomial ``offset``."""
    return GammaPoly(p.arity, {monomial_mul(m, offset): c for m, c in p.terms.items()})


PACKED_CASES = {
    "sum-255+1": (
        GammaPoly(2, {(255, 0): 1, (0, 1): UniPoly.x(), (0, 0): -1}),
        GammaPoly(2, {(1, 0): 2, (0, 255): Fraction(-1, 3), (0, 0): 1}),
    ),
    "sum-65535+1": (
        GammaPoly(2, {(65535, 1): 1, (0, 0): UniPoly([1, 1])}),
        GammaPoly(2, {(1, 65535): GaussianRational(0, 1), (1, 0): -1}),
    ),
    "arity-0": (GammaPoly(0, {(): 3}), GammaPoly(0, {(): UniPoly.x()})),
    "arity-1": (G(0, 1) + 1, G(0, 1) - 1),
    "arity-9": (
        sum((G(k, 9) for k in range(9)), GammaPoly.zero(9)),
        sum((G(k, 9) * (k - 4) for k in range(9)), GammaPoly.constant(9, 1)),
    ),
    "empty-left": (GammaPoly.zero(2), CANCELLING[1]),
    "empty-right": (CANCELLING[0], GammaPoly.zero(2)),
    "one-term-left": (GammaPoly(2, {(3, 1): UniPoly([1, 2])}), CANCELLING[1]),
    "one-term-right": (CANCELLING[0], GammaPoly(2, {(0, 7): GaussianRational(0, Fraction(1, 2))})),
    "cancelling-two-bytes": (lifted(CANCELLING[0], (300, 0)), lifted(CANCELLING[1], (0, 300))),
}


@pytest.mark.parametrize("case", PACKED_CASES)
def test_packed_products_keep_the_value_and_term_order(case):
    p, q = PACKED_CASES[case]
    for left, right in ((p, q), (q, p)):
        pairs = [
            (monomial_mul(m1, m2), c1 * c2)
            for m1, c1 in left.terms.items()
            for m2, c2 in right.terms.items()
        ]
        assert storage(left * right) == added_one_by_one(pairs) == storage(pair_by_pair(left, right))


def test_a_one_term_operand_builds_no_term_sums(monkeypatch):
    p, q = CANCELLING
    one_term, zero = GammaPoly(2, {(1, 2): UniPoly([1, 2])}), GammaPoly.zero(2)
    built = counter(monkeypatch, TermSums, "__init__")
    p * one_term
    one_term * q
    zero * p
    assert built == []
    p * q
    assert len(built) == 1


SCALAR_OPERANDS = {
    "int": 3,
    "scalar": GaussianRational(Fraction(1, 2), -1),
    "unipoly": UniPoly([1, 2]),
    "zero": 0,
}


@pytest.mark.parametrize("name", SCALAR_OPERANDS)
def test_a_scalar_operand_is_coerced_as_in_sum_and_difference(monkeypatch, name):
    """``p * c`` and ``c * p`` coerce ``c`` to a constant, as ``+`` and ``-``
    do, and equal the one-term product in value and term order."""
    factor, p = SCALAR_OPERANDS[name], CANCELLING[1]
    one_term = storage(p * GammaPoly.constant(2, factor))
    assert one_term == added_one_by_one((m, c * factor) for m, c in p.terms.items())
    coerced = counter(monkeypatch, GammaPoly, "_coerce")
    assert storage(p * factor) == storage(factor * p) == one_term
    assert [args[1] for args in coerced] == [factor, factor]


# -- text


@pytest.mark.parametrize(
    "build, text",
    [
        (lambda: GammaPoly.zero(3), "0"),
        (lambda: example_identity(), "-G(0)*G(1)+G(0)*G(2)-G(1)^2"),
        (
            lambda: GammaPoly.constant(1, UniPoly.x()) * G(0, 1) ** 2,
            "s*G(0)^2",
        ),
        (
            lambda: G(1, 2) - GammaPoly.constant(2, UniPoly.x()) * G(0, 2),
            "-s*G(0)+G(1)",
        ),
        (
            lambda: GammaPoly.constant(1, UniPoly.x() ** 2 + UniPoly.x()) * G(0, 1),
            "(s^2+s)*G(0)",
        ),
    ],
)
def test_gamma_poly_text(build, text):
    assert gamma_poly_text(build()) == text


def test_terms_are_printed_highest_first():
    p = example_identity()
    rendered = gamma_poly_text(p)
    assert rendered.startswith("-G(0)*G(1)")


# -- text against the Fraction-based reference
#
# The renderer as it was when every coefficient went through a
# ``GaussianRational``: the reference the int-pair renderer must match byte
# for byte.


def ref_display_negative(value):
    if value.real:
        return value.real < 0
    return value.imag < 0


def ref_fraction_text(value):
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def ref_imag_magnitude_text(magnitude):
    if magnitude == 1:
        return "i"
    if magnitude.denominator == 1:
        return f"{magnitude.numerator}i"
    return f"({ref_fraction_text(magnitude)})i"


def ref_scalar_text(value):
    re, im = value.real, value.imag
    if not re and not im:
        return "0"
    if not im:
        return ref_fraction_text(re)
    imag = ref_imag_magnitude_text(abs(im))
    if not re:
        return imag if im > 0 else f"-{imag}"
    joiner = "+" if im > 0 else "-"
    return f"{ref_fraction_text(re)}{joiner}{imag}"


def ref_scalar_factor_text(value):
    if value.real and value.imag:
        return f"({ref_scalar_text(value)})"
    return ref_scalar_text(value)


def ref_unipoly_text(p):
    if not p:
        return "0"
    pieces = []
    coeffs = p.coeffs
    for power in range(len(coeffs) - 1, -1, -1):
        coeff = coeffs[power]
        if coeff.is_zero():
            continue
        negative = ref_display_negative(coeff)
        magnitude = -coeff if negative else coeff
        factors = []
        if power == 0 or magnitude != ONE:
            factors.append(ref_scalar_factor_text(magnitude))
        if power == 1:
            factors.append("s")
        elif power > 1:
            factors.append(f"s^{power}")
        text = "*".join(factors)
        if not pieces:
            pieces.append(f"-{text}" if negative else text)
        else:
            pieces.append(f"-{text}" if negative else f"+{text}")
    return "".join(pieces)


def ref_term_text(mono, coeff):
    gamma_factors = [f"G({k})" if e == 1 else f"G({k})^{e}" for k, e in enumerate(mono) if e]
    nonzero = [d for d, c in enumerate(coeff.coeffs) if not c.is_zero()]
    if len(nonzero) != 1:
        lead = coeff.leading_coefficient
        negative = ref_display_negative(lead)
        body = ref_unipoly_text(-coeff if negative else coeff)
        return negative, "*".join([f"({body})"] + gamma_factors)
    power = nonzero[0]
    scalar = coeff.coefficient(power)
    negative = ref_display_negative(scalar)
    magnitude = -scalar if negative else scalar
    factors = []
    if magnitude != ONE:
        factors.append(ref_scalar_factor_text(magnitude))
    if power == 1:
        factors.append("s")
    elif power > 1:
        factors.append(f"s^{power}")
    factors.extend(gamma_factors)
    if not factors:
        factors.append("1")
    return negative, "*".join(factors)


def ref_gamma_poly_text(p):
    if not p:
        return "0"
    pieces = []
    for mono, coeff in p.sorted_terms():
        negative, text = ref_term_text(mono, coeff)
        if not pieces:
            pieces.append(f"-{text}" if negative else text)
        else:
            pieces.append(f"-{text}" if negative else f"+{text}")
    return "".join(pieces)


# 0, +-1, small fractions, 30-digit numerators over 20-digit denominators;
# a part pair gives +-i and mixed a+bi.
text_parts = st.one_of(
    st.sampled_from([Fraction(0), Fraction(1), Fraction(-1)]),
    st.builds(Fraction, st.integers(-12, 12), st.integers(1, 12)),
    st.builds(Fraction, st.integers(-(10**30), 10**30), st.integers(1, 10**20)),
)
text_scalars = st.one_of(
    st.builds(GaussianRational, text_parts),
    st.builds(GaussianRational, text_parts, text_parts),
)
text_unipolys = st.lists(text_scalars, max_size=5).map(UniPoly)
text_gamma_polys = st.integers(0, 3).flatmap(
    lambda arity: st.dictionaries(monomials(arity), text_unipolys, max_size=5).map(
        lambda terms: GammaPoly(arity, terms)
    )
)


@given(text_scalars)
def test_scalar_text_matches_the_reference(z):
    assert scalar_text(z) == ref_scalar_text(z)


@given(text_unipolys)
def test_unipoly_text_matches_the_reference(p):
    assert unipoly_text(p) == ref_unipoly_text(p)


@given(text_gamma_polys)
def test_gamma_poly_text_matches_the_reference(p):
    assert gamma_poly_text(p) == ref_gamma_poly_text(p)
