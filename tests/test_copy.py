"""The value types survive ``pickle`` and ``copy.deepcopy`` unchanged, and
the record types keep the equality, hashing, ``repr`` and immutability of
frozen dataclasses.  The tree of a sum of any length, and of text nested
``MAX_NESTING`` deep, does all of that without a ``RecursionError``."""

import copy
import pickle
from fractions import Fraction

import pytest

import gamma_ideal.parser as parser
from gamma_ideal.ideal import decide_membership, normal_form
from gamma_ideal.numeric import verify_verdict
from gamma_ideal.parser import (
    MAX_NESTING, GammaRef, Lit, Pow, Product, Sum, SVar, parse_gamma_poly, parse_poly, parse_shifts,
)
from gamma_ideal.poly import UniPoly
from gamma_ideal.scalars import GaussianRational
from gamma_ideal.shifts import build_shift_system
from strategies import flat_sum

SYSTEM = build_shift_system(parse_shifts("0,1,2,1/2"))
MEMBER = parse_gamma_poly("G(0)*G(2)-G(1)^2-G(0)*G(1)", 4)
VERDICT = decide_membership(MEMBER, SYSTEM)
AST = parse_poly("-(1/2)i*s^3*G(0)/(2-i)+G(1)", 2)
VALUES = [
    GaussianRational(Fraction(-3, 4), Fraction(5, 6)),
    UniPoly([GaussianRational(1, Fraction(1, 2)), 0, 3]),
    MEMBER,
    SYSTEM,
    VERDICT,
    AST,
    SYSTEM.generators()[0],
    verify_verdict(VERDICT, SYSTEM, n_samples=3),
]

#: The values each type derives from its fields rather than storing them.
DERIVED = {
    "ShiftSystem": ("classes", "representatives"),
    "Verdict": ("is_member", "theorem_basis"),
    "VerificationReport": ("max_relative_residual", "verdict_consistent"),
}


@pytest.mark.parametrize("value", VALUES, ids=lambda v: type(v).__name__)
@pytest.mark.parametrize(
    "duplicate", [lambda v: pickle.loads(pickle.dumps(v)), copy.deepcopy], ids=["pickle", "deepcopy"]
)
def test_round_trip(value, duplicate):
    again = duplicate(value)
    assert type(again) is type(value) and again == value and repr(again) == repr(value)
    assert hash(again) == hash(value)
    for name in DERIVED.get(type(value).__name__, ()):
        assert getattr(again, name) == getattr(value, name), name


@pytest.mark.parametrize("duplicate", [lambda v: pickle.loads(pickle.dumps(v)), copy.deepcopy])
def test_copies_keep_the_cached_generators(duplicate):
    again = duplicate(SYSTEM)
    assert again.generators() == SYSTEM.generators()
    assert again.generators() is not SYSTEM.generators()


@pytest.mark.parametrize("duplicate", [lambda v: pickle.loads(pickle.dumps(v)), copy.deepcopy])
def test_copies_keep_the_cached_steps(duplicate):
    again = duplicate(SYSTEM)
    assert again.steps() == SYSTEM.steps()
    assert again.steps() is not SYSTEM.steps()


@pytest.mark.parametrize("used", [False, True], ids=["fresh", "used"])
@pytest.mark.parametrize(
    "duplicate", [lambda v: pickle.loads(pickle.dumps(v)), copy.deepcopy], ids=["pickle", "deepcopy"]
)
def test_a_copy_of_a_system_reduces_alike(duplicate, used):
    original = build_shift_system(parse_shifts("0,1,2,1/2"))
    poly = parse_gamma_poly("G(2)^3*G(3)-s*G(1)^2*G(0)+G(2)*G(1)", 4)
    if used:
        normal_form(poly, original)
    again = duplicate(original)
    assert again.generators() is not original.generators() and again.steps() is not original.steps()
    assert normal_form(poly, again) == normal_form(poly, original)
    assert again.generators() == original.generators() and again.steps() == original.steps()


def test_ast_repr_evaluates_back():
    namespace = {**vars(parser), "Fraction": Fraction}
    assert eval(repr(AST), namespace) == AST
    assert repr(GammaRef(1, pos=3)) == "GammaRef(index=1, pos=3)"


def test_nodes_of_different_types_are_unequal():
    x, y = SVar(), GammaRef(0)
    nodes = [
        Sum((x, y), (1, 1)), Sum((x, y), (1, -1)), Sum((x,), (-1,)), Product((x, y)),
        Product((x, y), (1,)), Pow(x, 2), x, y,
    ]
    for k, node in enumerate(nodes):
        assert [other == node for other in nodes] == [j == k for j in range(len(nodes))]
    assert Lit(GaussianRational(2)) != Pow(Lit(GaussianRational(2)), 1)


@pytest.mark.parametrize(
    "first, second",
    [
        (GammaRef(1, pos=3), GammaRef(1, pos=9)),
        (Product((SVar(), GammaRef(0)), (1,), (1,)), Product((SVar(), GammaRef(0, pos=5)), (1,))),
        (Pow(SVar(), 4, pos=2), Pow(SVar(), 4)),
    ],
)
def test_equality_and_hash_ignore_positions(first, second):
    assert first == second and hash(first) == hash(second)
    assert repr(first) != repr(second)


@pytest.mark.parametrize("value", VALUES[3:], ids=lambda v: type(v).__name__)
def test_records_are_immutable(value):
    name = type(value)._fields[0]
    with pytest.raises(AttributeError):
        setattr(value, name, None)
    with pytest.raises(AttributeError):
        delattr(value, name)
    with pytest.raises(AttributeError):
        value.extra = None
    assert not hasattr(value, "__dict__")


def nested_text(level: str, depth: int) -> str:
    """``level`` with ``{}`` replaced ``depth`` times by itself, then by s."""
    text = "s"
    for _ in range(depth):
        text = level.format(text)
    return text


@pytest.mark.parametrize(
    "text",
    [
        flat_sum(5000, seed=1),
        nested_text("({}+G(1)-s*G(0)+2*s^2-G(1)^3/3)", MAX_NESTING),
        nested_text("(1+s*{})", MAX_NESTING),
    ],
    ids=["flat-5000", "nested-sums", "horner"],
)
def test_long_and_deep_trees_round_trip(text):
    ast = parse_poly(text, 4)
    rebuilt = parse_poly(text, 4)
    assert rebuilt == ast and hash(rebuilt) == hash(ast) and repr(rebuilt) == repr(ast)
    for again in [pickle.loads(pickle.dumps(ast)), copy.deepcopy(ast)]:
        assert type(again) is type(ast) and again == ast and repr(again) == repr(ast)
        assert hash(again) == hash(ast)
