from fractions import Fraction

import pytest
from hypothesis import given

from gamma_ideal.parser import (
    MAX_NESTING,
    Add,
    GammaRef,
    Lit,
    Mul,
    Neg,
    ParseError,
    Pow,
    SVar,
    Sub,
    lower_to_poly,
    parse_complex,
    parse_gamma_poly,
    parse_poly,
    parse_scalar,
    parse_shifts,
)
from gamma_ideal.poly import GammaPoly, UniPoly, gamma_poly_text
from gamma_ideal.scalars import I, GaussianRational, to_scalar
from strategies import gamma_polys, scalars


def test_worked_identity_parses():
    p = parse_gamma_poly("G(0)*G(2) - G(1)^2 - G(0)*G(1)", 3)
    y, z, w = (GammaPoly.variable(3, k) for k in range(3))
    assert p == y * w - z * z - y * z


def test_recurrence_generator_parses():
    p = parse_gamma_poly("G(1) - s*G(0)", 2)
    expected = GammaPoly.variable(2, 1) - GammaPoly.s_var(2) * GammaPoly.variable(2, 0)
    assert p == expected


def test_ast_shape_for_a_small_expression():
    ast = parse_poly("-s^2 + 2*G(0)", 1)
    assert ast == Add(Neg(Pow(SVar(), 2)), Mul(Lit(to_scalar(2)), GammaRef(0)))


def test_gamma_index_out_of_range():
    with pytest.raises(ParseError) as err:
        parse_poly("G(3)", 2)
    assert err.value.position == 2
    assert "out of range" in str(err.value)


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
    assert parse_gamma_poly("+s", 0) == GammaPoly.s_var(0)
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
    assert parse_gamma_poly("(" * depth + "s" + ")" * depth, 0) == GammaPoly.s_var(0)


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
