"""The exact core takes exact operands only.

Floats never enter the symbolic core: an arithmetic operator of
``GaussianRational``, ``UniPoly`` or ``GammaPoly`` with a float operand
raises ``TypeError``, whether the class returns ``NotImplemented`` or
``to_scalar`` refuses the value, and ``==`` with a foreign operand is
false.  Exact operands on the right-hand side of a reflected operator
convert, and the constructors and sums reject bad arities and indices.
"""

from fractions import Fraction

import pytest

from gamma_ideal.poly import GammaPoly, UniPoly, signed_sum
from gamma_ideal.scalars import ZERO, GaussianRational, to_scalar
from gamma_ideal.shifts import build_shift_system

FLOAT_OPERATIONS = {
    "scalar + float": lambda: GaussianRational(1) + 0.5,
    "scalar - float": lambda: GaussianRational(1) - 0.5,
    "scalar * float": lambda: GaussianRational(1) * 0.5,
    "scalar / float": lambda: GaussianRational(1) / 0.5,
    "float - scalar": lambda: 0.5 - GaussianRational(1),
    "float / scalar": lambda: 0.5 / GaussianRational(1),
    "unipoly + float": lambda: UniPoly.one() + 0.5,
    "unipoly - float": lambda: UniPoly.one() - 0.5,
    "unipoly * float": lambda: UniPoly.one() * 0.5,
    "float - unipoly": lambda: 0.5 - UniPoly.one(),
    "gammapoly + float": lambda: GammaPoly.variable(2, 0) + 0.5,
    "float * gammapoly": lambda: 0.5 * GammaPoly.variable(2, 0),
    "to_scalar(float)": lambda: to_scalar(0.5),
}


@pytest.mark.parametrize("name", FLOAT_OPERATIONS)
def test_a_float_operand_raises_type_error(name):
    with pytest.raises(TypeError):
        FLOAT_OPERATIONS[name]()


@pytest.mark.parametrize(
    "value, foreign",
    [
        (GaussianRational(1), 1.0),
        (UniPoly.one(), 1),
        (GammaPoly.variable(2, 0), "G(0)"),
    ],
)
def test_a_foreign_operand_compares_unequal(value, foreign):
    assert value != foreign
    assert not value == foreign


@pytest.mark.parametrize(
    "result, expected",
    [
        (lambda: 2 - UniPoly.x(), UniPoly([2, -1])),
        (lambda: 1 / GaussianRational(2), GaussianRational(Fraction(1, 2))),
        (lambda: str(1 - GammaPoly.variable(1, 0)), "-G(0)+1"),
        (lambda: UniPoly.x().coefficient(5), ZERO),
    ],
    ids=["int - unipoly", "int / scalar", "int - gammapoly", "coefficient past the degree"],
)
def test_an_exact_operand_on_the_left_converts(result, expected):
    assert result() == expected


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: GammaPoly(-1), "arity must be non-negative"),
        (lambda: GammaPoly.variable(2, 2), "variable index 2 out of range for arity 2"),
        (
            lambda: signed_sum(2, [(1, GammaPoly.variable(3, 0))]),
            "arity mismatch: 2 vs 3",
        ),
    ],
    ids=["negative arity", "variable past the arity", "signed_sum of another arity"],
)
def test_bad_arities_and_indices_raise_value_error(build, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        build()


def test_str_of_a_unipoly_a_relation_and_a_shift_system():
    sys = build_shift_system([0, 1, 2])
    assert str(UniPoly([1, 0, 2])) == "2*s^2+1"
    assert str(sys) == "ShiftSystem(0, 1, 2)"
    assert str(sys.generators()[0]) == "-s*G(0)+G(1)"
