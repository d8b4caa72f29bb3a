"""``certify`` makes one pass over the input's terms.

It never adds, subtracts or multiplies whole ``GammaPoly`` values (a
division loop that rebuilds the remainder at every step would, and its work
would grow as steps times terms), and it raises each rewrite multiplier to
each power at most once per call.
"""

import pytest

from gamma_ideal.ideal import certify
from gamma_ideal.poly import GammaPoly, UniPoly
from strategies import chain_member
from test_output_cost import counter

WHOLE_POLY_OPERATIONS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__")


@pytest.mark.parametrize("n", [6, 8])
def test_certify_does_no_whole_polynomial_arithmetic(monkeypatch, n):
    sys, member = chain_member(n)
    calls = {
        name: counter(monkeypatch, GammaPoly, name) for name in WHOLE_POLY_OPERATIONS
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
    calls = counter(monkeypatch, UniPoly, "__pow__")
    certify(member, sys)
    powers = [(id(base), exponent) for base, exponent in calls]
    assert powers, "the chain member needs rewriting"
    assert {base for base, _ in powers} <= multipliers
    assert len(powers) == len(set(powers))
