"""``certify`` makes one pass over the input's terms.

It never adds, subtracts or multiplies whole ``GammaPoly`` values (a
division loop that rebuilds the remainder at every step would, and its work
would grow as steps times terms), and it raises each rewrite multiplier to
each power at most once per call.
"""

import pytest

from gamma_ideal.ideal import certify, normal_form
from gamma_ideal.poly import GammaPoly, UniPoly
from gamma_ideal.shifts import build_shift_system

WHOLE_POLY_OPERATIONS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__")


def chain_member(n: int, degree: int = 4):
    """(G(0)+...+G(n-1))^degree minus its normal form, at shifts 0..n-1."""
    sys = build_shift_system(list(range(n)))
    power = sum((GammaPoly.variable(n, k) for k in range(n)), GammaPoly.zero(n)) ** degree
    return sys, power - normal_form(power, sys)


def count_calls(monkeypatch, cls, name: str) -> list:
    calls = []
    original = getattr(cls, name)

    def counting(self, *args):
        calls.append((self, *args))
        return original(self, *args)

    monkeypatch.setattr(cls, name, counting)
    return calls


@pytest.mark.parametrize("n", [6, 8])
def test_certify_does_no_whole_polynomial_arithmetic(monkeypatch, n):
    sys, member = chain_member(n)
    calls = {
        name: count_calls(monkeypatch, GammaPoly, name) for name in WHOLE_POLY_OPERATIONS
    }
    cert = certify(member, sys)
    assert {name: len(made) for name, made in calls.items()} == dict.fromkeys(
        WHOLE_POLY_OPERATIONS, 0
    )
    monkeypatch.undo()
    assert cert.normal_form.is_zero()
    assert cert.is_exact()


@pytest.mark.parametrize("n", [6, 8])
def test_certify_raises_each_multiplier_to_each_power_once(monkeypatch, n):
    sys, member = chain_member(n)
    multipliers = {id(rel.multiplier) for rel in sys.generators()}
    calls = count_calls(monkeypatch, UniPoly, "__pow__")
    certify(member, sys)
    powers = [(id(base), exponent) for base, exponent in calls]
    assert powers, "the chain member needs rewriting"
    assert {base for base, _ in powers} <= multipliers
    assert len(powers) == len(set(powers))
