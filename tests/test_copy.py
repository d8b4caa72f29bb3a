"""The value types survive ``pickle`` and ``copy.deepcopy`` unchanged."""

import copy
import pickle
from fractions import Fraction

import pytest

from gamma_ideal.ideal import decide_membership
from gamma_ideal.parser import parse_gamma_poly, parse_shifts
from gamma_ideal.poly import UniPoly
from gamma_ideal.scalars import GaussianRational
from gamma_ideal.shifts import build_shift_system

SYSTEM = build_shift_system(parse_shifts("0,1,2,1/2"))
SYSTEM.generators()  # cached on the instance, so copied along with it
MEMBER = parse_gamma_poly("G(0)*G(2)-G(1)^2-G(0)*G(1)", 4)
VALUES = [
    GaussianRational(Fraction(-3, 4), Fraction(5, 6)),
    UniPoly([GaussianRational(1, Fraction(1, 2)), 0, 3]),
    MEMBER,
    SYSTEM,
    decide_membership(MEMBER, SYSTEM),
]


@pytest.mark.parametrize("value", VALUES, ids=lambda v: type(v).__name__)
@pytest.mark.parametrize(
    "duplicate", [lambda v: pickle.loads(pickle.dumps(v)), copy.deepcopy], ids=["pickle", "deepcopy"]
)
def test_round_trip(value, duplicate):
    again = duplicate(value)
    assert type(again) is type(value) and again == value and repr(again) == repr(value)
