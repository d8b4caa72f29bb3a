from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_parser
from gamma_ideal.parser import (
    MAX_NESTING,
    GammaRef,
    Lit,
    ParseError,
    Pow,
    Product,
    Sum,
    SVar,
    lower_to_poly,
    parse_complex,
    parse_gamma_poly,
    parse_poly,
    parse_scalar,
    parse_shifts,
)
from gamma_ideal.poly import GammaPoly, UniPoly, gamma_poly_text, signed_sum
from gamma_ideal.scalars import I, ONE, GaussianRational, decimal_text, to_scalar
from strategies import gamma_polys, scalars


def s_var(arity: int) -> GammaPoly:
    """The argument variable s embedded as a polynomial."""
    return GammaPoly.constant(arity, UniPoly.x())


def test_worked_identity_parses():
    p = parse_gamma_poly("G(0)*G(2) - G(1)^2 - G(0)*G(1)", 3)
    y, z, w = (GammaPoly.variable(3, k) for k in range(3))
    assert p == y * w - z * z - y * z


def test_recurrence_generator_parses():
    p = parse_gamma_poly("G(1) - s*G(0)", 2)
    expected = GammaPoly.variable(2, 1) - s_var(2) * GammaPoly.variable(2, 0)
    assert p == expected


def lit(value) -> Lit:
    return Lit(to_scalar(value))


def test_ast_shape_for_a_small_expression():
    ast = parse_poly("-s^2 + 2*G(0)", 1)
    assert ast == Sum((Pow(SVar(), 2), Product((lit(2), GammaRef(0)))), (-1, 1))


@pytest.mark.parametrize(
    "text, ast",
    [
        ("+s", SVar()),
        ("-s", Sum((SVar(),), (-1,))),
        ("((s))", SVar()),
        ("G(0)/2*s", Product((GammaRef(0), lit(2), SVar()), (1,))),
        ("2i^3", Pow(Product((lit(2), Lit(I))), 3)),
        ("(1+i)i*G(0)", Product((Product((Sum((lit(1), Lit(I)), (1, 1)), Lit(I))), GammaRef(0)))),
        ("(s-1)*(G(0))", Product((Sum((SVar(), lit(1)), (1, -1)), GammaRef(0)))),
    ],
)
def test_lone_terms_and_factors_stand_for_themselves(text, ast):
    assert parse_poly(text, 1) == ast


def test_gamma_index_out_of_range():
    with pytest.raises(ParseError) as err:
        parse_poly("G(3)", 2)
    assert err.value.position == 2
    assert "out of range" in str(err.value)


@pytest.mark.parametrize(
    "text, message, position",
    [
        # a syntax error anywhere wins over an unbound index
        ("G(9)+(", "expected a value, found 'end of input'", 6),
        ("G(9)+G(0))", "unexpected trailing input ')'", 9),
        ("G(9)+$", "unexpected character '$'", 5),
        # otherwise the first unbound index in text order
        ("G(1)+G(9)+G(8)", "gamma index 9 out of range for 2 declared shifts", 7),
        ("(G(0)*(G(7)+s))^2-G(3)", "gamma index 7 out of range for 2 declared shifts", 9),
        # binding comes before lowering, so before the division check
        ("G(5)/s", "gamma index 5 out of range for 2 declared shifts", 2),
        ("1/s+G(5)", "gamma index 5 out of range for 2 declared shifts", 6),
    ],
)
def test_parse_error_precedence(text, message, position):
    with pytest.raises(ParseError) as err:
        parse_gamma_poly(text, 2)
    assert (err.value.message, err.value.position) == (message, position)


@pytest.mark.parametrize(
    "text, value",
    [
        ("1/2", GaussianRational(Fraction(1, 2))),
        ("2i", GaussianRational(0, 2)),
        ("(1/2)i", GaussianRational(0, Fraction(1, 2))),
        ("3/2+i", GaussianRational(Fraction(3, 2), 1)),
        ("-i", -I),
        ("i", I),
        ("(1+2i)/3", GaussianRational(Fraction(1, 3), Fraction(2, 3))),
        ("0", to_scalar(0)),
    ],
)
def test_scalar_literals(text, value):
    assert parse_scalar(text) == value


def test_scalar_rejects_polynomials():
    with pytest.raises(ParseError):
        parse_scalar("s+1")
    with pytest.raises(ParseError):
        parse_scalar("1/2+s")


@pytest.mark.parametrize(
    "text",
    ["", "   ", "G(", "s +", "2 2", "x", "s$", "G(0)^", "()", "G(1,2)"],
)
def test_syntax_errors(text):
    with pytest.raises(ParseError):
        parse_poly(text, 3)


def test_error_positions_point_at_the_problem():
    with pytest.raises(ParseError) as err:
        parse_poly("G(0) + $", 1)
    assert err.value.position == 7


def test_precedence():
    assert parse_gamma_poly("1+2*3^2", 0) == GammaPoly.constant(0, 19)
    assert parse_gamma_poly("-s^2", 0) == GammaPoly.constant(0, -(UniPoly.x() ** 2))
    assert parse_gamma_poly("(1+s)^2", 0) == GammaPoly.constant(
        0, (UniPoly.one() + UniPoly.x()) ** 2
    )


def test_division_by_constants():
    assert parse_gamma_poly("G(0)/2", 1) == GammaPoly.constant(
        1, Fraction(1, 2)
    ) * GammaPoly.variable(1, 0)
    assert parse_scalar("3/4/3") == GaussianRational(Fraction(1, 4))


@pytest.mark.parametrize("text", ["1/s", "G(0)/G(0)", "1/0", "s/(1-1)"])
def test_division_by_non_constants_is_rejected(text):
    with pytest.raises(ParseError):
        parse_gamma_poly(text, 1)


def test_unary_signs():
    assert parse_gamma_poly("-G(0)+G(0)", 1).is_zero()
    assert parse_gamma_poly("+s", 0) == s_var(0)
    # sign binds the whole leading term
    assert parse_gamma_poly("-2*G(0)", 1) == GammaPoly.constant(1, -2) * GammaPoly.variable(1, 0)


def test_whitespace_is_insignificant():
    a = parse_gamma_poly("G(0)*G(1)  -  1", 2)
    b = parse_gamma_poly("G(0)*G(1)-1", 2)
    assert a == b


def test_ast_equality_ignores_positions():
    assert parse_poly("G(1)", 2) == GammaRef(1, pos=99)


# -- shifts


def test_parse_shifts_mixed_forms():
    shifts = parse_shifts("0, 1/2, (1+i)/2, i")
    assert shifts == (
        to_scalar(0),
        GaussianRational(Fraction(1, 2)),
        GaussianRational(Fraction(1, 2), Fraction(1, 2)),
        I,
    )


@pytest.mark.parametrize("text", ["", "0,,1", ","])
def test_parse_shifts_rejects_gaps(text):
    with pytest.raises(ParseError):
        parse_shifts(text)


@pytest.mark.parametrize(
    "text, position",
    [
        ("0,\u0663", 2),
        ("0, 1/", 5),
        ("1/2, (1+i)/2, s", 13),
        ("0, 1, G(0)", 8),
        (",1", 0),
        ("0,,1", 2),
        ("0, 1,  ", 5),
        ("0,", 2),
    ],
)
def test_parse_shifts_positions_count_from_the_list_start(text, position):
    with pytest.raises(ParseError) as err:
        parse_shifts(text)
    assert err.value.position == position
    assert str(err.value).endswith(f"(at position {position})")


# -- complex points for the oracle


@pytest.mark.parametrize(
    "text, value",
    [
        ("2.5+1.5i", complex(2.5, 1.5)),
        ("1/2", complex(0.5)),
        ("-2", complex(-2)),
        ("i", complex(0, 1)),
        ("(1+i)/2", complex(0.5, 0.5)),
    ],
)
def test_parse_complex(text, value):
    assert parse_complex(text) == pytest.approx(value)


def test_parse_complex_rejects_junk():
    with pytest.raises(ParseError):
        parse_complex("one half")


@pytest.mark.parametrize(
    "text, position",
    [("s^\u00b2", 2), ("G(\u0663)", 2), ("1\u0663", 1), ("\uff12*s", 0), ("G(0)^1\u00b9", 6)],
)
def test_only_ascii_digits_are_digits(text, position):
    # superscript two, Arabic-Indic three, fullwidth two: str.isdigit takes
    # all of them, and int() reads some as their values
    with pytest.raises(ParseError) as err:
        parse_poly(text, 4)
    assert err.value.position == position


@pytest.mark.parametrize("text", ["\u0663", "2.5+\u0661i", "\u00b2"])
def test_parse_complex_takes_only_ascii_digits(text):
    with pytest.raises(ParseError):
        parse_complex(text)


# -- round trips


@given(gamma_polys(3))
def test_print_parse_round_trip(p):
    assert parse_gamma_poly(gamma_poly_text(p), 3) == p


@given(scalars)
def test_lowering_matches_scalar_semantics(z):
    ast = parse_poly(str(z), 0)
    assert lower_to_poly(ast, 0) == GammaPoly.constant(0, z)


def test_five_thousand_term_round_trip():
    # The printer writes a normal form as one flat sum; parsing it back must
    # not recurse once per term.
    terms = {
        (k % 10, k // 10 % 10, k // 100, 1): UniPoly.linear(k % 7 - 3) * (k % 5 + 1)
        for k in range(5000)
    }
    p = GammaPoly(4, terms)
    text = gamma_poly_text(p)
    assert text.count("G(3)") == 5000
    assert parse_gamma_poly(text, 4) == p


def test_long_flat_product_lowers():
    assert parse_gamma_poly("*".join(["G(0)"] * 3000), 1) == GammaPoly.variable(1, 0) ** 3000


def test_nesting_up_to_the_limit_parses():
    depth = MAX_NESTING
    assert parse_gamma_poly("(" * depth + "s" + ")" * depth, 0) == s_var(0)


@pytest.mark.parametrize("depth", [MAX_NESTING + 1, 5000])
def test_nesting_past_the_limit_is_a_parse_error(depth):
    with pytest.raises(ParseError) as info:
        parse_gamma_poly("(" * depth + "s" + ")" * depth, 0)
    assert info.value.position == MAX_NESTING


@pytest.mark.parametrize(
    "text",
    [
        "0",
        "s*G(0)^2",
        "-G(0)*G(1)+G(0)*G(2)-G(1)^2",
        "(s^2+s)*G(1)",
        "(1/2)i*G(0)",
        "(3/2+i)*s*G(1)^3",
        "-s+1",
    ],
)
def test_canonical_corpus_round_trips(text):
    p = parse_gamma_poly(text, 3)
    assert parse_gamma_poly(gamma_poly_text(p), 3) == p


# -- the parent's parser as a reference
#
# ``reference_parser`` is the parser before sums and products became n-ary
# nodes: its tokenizer, recursive descent and lowering, verbatim.  Every text
# must have the same outcome under both: the same term storage and term
# order, or the same error message and position.


def storage(p: GammaPoly):
    """Terms in stored order, each coefficient as its real and imaginary
    int parts and denominator."""
    return [(mono, coeff._re, coeff._im, coeff._den) for mono, coeff in p.terms.items()]


def outcome(parse, lower, text: str, arity: int):
    try:
        return storage(lower(parse(text, arity), arity))
    except ParseError as exc:
        return ("ParseError", exc.message, exc.position)
    except ValueError as exc:
        return ("ValueError", str(exc))


def assert_same_outcome(text: str, arity: int = 3):
    expected = outcome(reference_parser.parse_poly, reference_parser.lower_to_poly, text, arity)
    assert outcome(parse_poly, lower_to_poly, text, arity) == expected


ARITY = 3

_ATOMS = st.sampled_from(
    ["0", "1", "2", "7", "12", "123456789012345678901", "i", "2i", "(1/2)i", "(3-2i)"]
    + ["s", "G(0)", "G(1)", "G(2)"] * 4
    + ["G(3)"]  # unbound at arity 3
)
# Constants (among them zero ones), and non-constants, to divide by.
_DIVISORS = st.sampled_from(
    ["2", "3", "i", "2i", "(1/2)i", "(1+i)", "(3-2i)^2", "(s-s+2)", "(G(0)-G(0)+5)",
     "0^0", "G(1)^0", "(1/3)", "0", "(1-1)", "0^2", "s", "G(0)", "(s+1)", "(G(1)+1)"]
)


def _joined(first: str, rest) -> str:
    return first + "".join(op + text for op, text in rest)


def _expressions(inner):
    primary = st.one_of(
        _ATOMS, _ATOMS, inner.map(lambda t: f"({t})"), inner.map(lambda t: f"({t})i")
    )
    factor = st.one_of(
        primary, st.tuples(primary, st.integers(0, 3)).map(lambda p: f"{p[0]}^{p[1]}")
    )
    step = st.one_of(
        st.tuples(st.just("*"), factor),
        st.tuples(st.just("*"), factor),
        st.tuples(st.just("*"), factor),
        st.tuples(st.just("/"), st.one_of(_DIVISORS, _DIVISORS, factor)),
    )
    term = st.builds(_joined, factor, st.lists(step, max_size=4))
    return st.builds(
        lambda sign, first, rest: sign + _joined(first, rest),
        st.sampled_from(["", "", "-", "+"]),
        term,
        st.lists(st.tuples(st.sampled_from("+-"), term), min_size=1, max_size=4),
    )


expression_texts = st.recursive(_ATOMS, _expressions, max_leaves=10)


@settings(max_examples=200, deadline=None)
@given(expression_texts)
def test_lowering_matches_the_reference(text):
    assert_same_outcome(text)
    expected = outcome(parse_poly, factorwise_lower, text, ARITY)
    assert outcome(parse_poly, lower_to_poly, text, ARITY) == expected


# ``factorwise_lower`` multiplies a product one factor at a time, each factor
# its own polynomial; the folded lowering must give the same term storage,
# term order and division errors.


def factorwise_lower(node, arity: int) -> GammaPoly:
    if isinstance(node, Sum):
        parts = [(sign, factorwise_lower(term, arity)) for term, sign in zip(node.terms, node.signs)]
        return signed_sum(arity, parts)
    if isinstance(node, Product):
        product = factorwise_lower(node.factors[0], arity)
        for k, factor in enumerate(node.factors[1:], 1):
            factor = factorwise_lower(factor, arity)
            if k not in node.divides:
                product = product * factor
                continue
            scalar = _constant(factor)
            if scalar is None or scalar.is_zero():
                raise ParseError(
                    "division is only defined by a nonzero constant", node.pos[node.divides.index(k)]
                )
            product = product * UniPoly.constant(ONE / scalar)
        return product
    if isinstance(node, Lit):
        return GammaPoly.constant(arity, UniPoly.constant(node.value))
    if isinstance(node, SVar):
        return s_var(arity)
    if isinstance(node, GammaRef):
        return GammaPoly.variable(arity, node.index)
    return factorwise_lower(node.base, arity) ** node.exponent


def _constant(p: GammaPoly):
    if p.is_zero():
        return to_scalar(0)
    items = list(p.terms.items())
    if len(items) != 1:
        return None
    mono, coeff = items[0]
    if any(mono) or coeff.degree > 0:
        return None
    return coeff.coefficient(0)


@settings(max_examples=100, deadline=None)
@given(st.lists(expression_texts, min_size=1, max_size=4), st.sampled_from("+-"))
def test_flat_sums_of_products_match_the_reference(texts, op):
    assert_same_outcome(op.join(f"({t})*G(0)^2*s" if k % 2 else t for k, t in enumerate(texts)))


@settings(deadline=None)
@given(gamma_polys(ARITY, max_terms=6))
def test_printed_polynomials_lower_like_the_reference(p):
    text = gamma_poly_text(p)
    printed = [(mono, coeff._re, coeff._im, coeff._den) for mono, coeff in p.sorted_terms()]
    assert outcome(parse_poly, lower_to_poly, text, ARITY) == printed
    assert_same_outcome(text)


@st.composite
def mutated_texts(draw):
    """An expression with whitespace put before some tokens, one character
    replaced by junk, or one token dropped or doubled."""
    text = draw(expression_texts)
    spans = [(pos, pos + len(value)) for _, value, pos in reference_parser._tokenize(text)[:-1]]
    how = draw(st.sampled_from(["space", "junk", "drop", "double"]))
    if how == "space":
        for start, _ in sorted(draw(st.lists(st.sampled_from(spans), min_size=1, max_size=4)), reverse=True):
            text = text[:start] + draw(st.text(" \t\x1c", min_size=1, max_size=2)) + text[start:]
        return text
    if how == "junk":
        k = draw(st.integers(0, len(text) - 1))
        return text[:k] + draw(st.sampled_from("$._\u0663\u00b2\u00e9")) + text[k + 1 :]
    start, end = draw(st.sampled_from(spans))
    if how == "drop":
        return text[:start] + text[end:]
    return text[:end] + text[start:end] + text[end:]


@settings(max_examples=300, deadline=None)
@given(mutated_texts())
def test_mutated_texts_match_the_reference(text):
    assert_same_outcome(text)


@pytest.mark.parametrize(
    "text",
    [
        "i", "2i", "(1/2)i", "(3-2i)", "0", "0^0", "0*G(0)", "G(0)*0^3", "i^3*s",
        "2i^3", "(1/2)i^2*G(1)", "(3-2i)^2*s^2*G(2)^3", "s^0*G(0)^0", "7/2*s/(1+i)",
        "G(0)/2/3i/(1/2)i", "5/2*s^3*G(0)^6*G(1)*G(2)", "s*(G(0)+G(1))*G(2)*(G(0)-s)",
        "(G(0)+1)*(G(0)-1)*(s+2)", "(s+1)*G(0)", "(G(0)-G(0))*G(1)", "-(2*s)*G(1)",
        "1*(G(0)+G(1))*(G(1)-s)", "(G(0)+G(1)+G(2))^2-((1+s+s*(s+1))*G(0))^2",
        "G(1)*(s/2)", "s*2i*G(0)", "(2*G(0))^3*s", "(G(0)+G(1))^2*(G(0)-G(1))^2",
        "1/s", "G(0)/G(0)", "1/0", "s/(1-1)", "s/(s+1)", "(1/s)*(1/G(0))",
        "s*(1/G(1))/0", "G(0)/(2*s/s)", "G(0)/0^2", "(s+1)/(G(0)+1)",
        # a postfix i follows only a literal or a parenthesis, and only once
        "G(0)i", "s i", "i i", "2i i", "(s)i i", "G(1)^2i", "2^2i",
    ],
)
def test_corpus_lowers_like_the_reference(text):
    assert_same_outcome(text)


def reference_tree(node):
    """The parent's tree for ``node``: left-deep chains of binary nodes."""
    ref = reference_parser
    if isinstance(node, Sum):
        first, *rest = zip(node.signs, map(reference_tree, node.terms))
        tree = first[1] if first[0] > 0 else ref.Neg(first[1])
        for sign, term in rest:
            tree = ref.Add(tree, term) if sign > 0 else ref.Sub(tree, term)
        return tree
    if isinstance(node, Product):
        tree = reference_tree(node.factors[0])
        for k, factor in enumerate(map(reference_tree, node.factors[1:]), 1):
            if k in node.divides:
                tree = ref.Div(tree, factor, pos=node.pos[node.divides.index(k)])
            else:
                tree = ref.Mul(tree, factor)
        return tree
    if isinstance(node, Pow):
        return ref.Pow(reference_tree(node.base), node.exponent, pos=node.pos)
    if isinstance(node, GammaRef):
        return ref.GammaRef(node.index, pos=node.pos)
    return ref.Lit(node.value) if isinstance(node, Lit) else ref.SVar()


@pytest.mark.parametrize(
    "node",
    [
        GammaRef(5),
        Pow(GammaRef(5), 0),
        Product((SVar(), SVar(), GammaRef(5)), (1,), (1,)),
        Product((GammaRef(5), Product((SVar(), SVar()), (1,), (1,)))),
        Pow(SVar(), -1),
        Pow(Sum((SVar(), Lit(ONE)), (1, 1)), -2),
    ],
)
def test_hand_built_trees_fail_like_the_reference(node):
    # lower_to_poly takes trees that parse_poly never makes
    expected = outcome(lambda n, _: reference_tree(n), reference_parser.lower_to_poly, node, 2)
    assert expected[0] in ("ParseError", "ValueError")
    assert outcome(lambda n, _: n, lower_to_poly, node, 2) == expected


@pytest.mark.parametrize("value", [None, "G(0)", 3])
def test_non_nodes_are_rejected(value):
    with pytest.raises(TypeError, match="not an expression node"):
        lower_to_poly(value, 1)


def test_long_literals_round_trip():
    big = 7 * 10**4399 + 3
    p = GammaPoly(2, {(1, 0): UniPoly([Fraction(big, 10**4500 + 1), GaussianRational(0, big)])})
    text = gamma_poly_text(p)
    assert str(big % 10**100) in text
    assert parse_gamma_poly(text, 2) == p
    literal = f"{decimal_text(big)}/{decimal_text(big + 1)}"
    assert parse_scalar(literal) == GaussianRational(Fraction(big, big + 1))
