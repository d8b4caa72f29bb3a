"""The numeric oracle and the text renderer read ``UniPoly``'s int pairs
directly.

``verify_verdict`` converts each term's coefficients to complex doubles once
per call, not once per sample, and never goes through ``UniPoly.__call__``.
``gamma_poly_text`` renders from the int pairs and builds no
``GaussianRational`` along the way.
"""

import random

import pytest

from gamma_ideal.ideal import decide_membership
from gamma_ideal.numeric import verify_verdict
from gamma_ideal.poly import GammaPoly, UniPoly, gamma_poly_text
from gamma_ideal.scalars import GaussianRational
from gamma_ideal.shifts import build_shift_system
from strategies import chain_member


def independence_input(terms: int = 300, arity: int = 5):
    """``terms`` random terms at shifts k/6: no two differ by an integer, so
    the input is its own normal form and the oracle does all the work."""
    rng = random.Random(5)
    sys = build_shift_system([GaussianRational(k, 0) / 6 for k in range(arity)])
    poly = {}
    while len(poly) < terms:
        mono = tuple(rng.randint(0, 3) for _ in range(arity))
        poly[mono] = UniPoly([rng.randint(-9, 9) for _ in range(rng.randint(1, 3))] + [1])
    return sys, GammaPoly(arity, poly)


INPUTS = {"independence-t300-n5": independence_input, "chain-n8-member": lambda: chain_member(8)}


def counter(monkeypatch, cls, name: str) -> list:
    """Record the arguments of every call to ``cls.name`` (a method or a
    classmethod) from now on."""
    calls = []
    original = cls.__dict__[name]
    bound = isinstance(original, classmethod)
    function = original.__func__ if bound else original

    def counting(*args, **kwargs):
        calls.append(args)
        return function(*args, **kwargs)

    monkeypatch.setattr(cls, name, classmethod(counting) if bound else counting)
    return calls


@pytest.mark.parametrize("name", INPUTS)
def test_verify_converts_each_term_once_per_call(monkeypatch, name):
    sys, poly = INPUTS[name]()
    verdict = decide_membership(poly, sys)
    calls = counter(monkeypatch, UniPoly, "__call__")
    evaluations = counter(monkeypatch, UniPoly, "eval_complex")
    conversions = counter(monkeypatch, UniPoly, "complex_coeffs")
    for samples in (1, 20):
        conversions.clear()
        report = verify_verdict(verdict, sys, n_samples=samples, seed=3)
        assert len(report.samples) == samples
        converted = sorted(id(args[0]) for args in conversions)
        assert converted == sorted(map(id, poly.terms.values()))
    assert calls == evaluations == []


@pytest.mark.parametrize("name", INPUTS)
def test_text_builds_no_scalar(monkeypatch, name):
    sys, poly = INPUTS[name]()
    verdict = decide_membership(poly, sys)
    expected = gamma_poly_text(poly), verdict.as_payload()
    wrapped = counter(monkeypatch, GaussianRational, "_of")
    constructed = counter(monkeypatch, GaussianRational, "__init__")
    assert (gamma_poly_text(poly), verdict.as_payload()) == expected
    assert wrapped == constructed == []
