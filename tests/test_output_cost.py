"""The numeric oracle and the text renderer read ``UniPoly``'s int parts
directly.

``verify_verdict`` converts each term's coefficients to complex doubles once
per call, not once per sample, and never goes through ``UniPoly.__call__``.
``gamma_poly_text`` renders from the int parts and builds no
``GaussianRational`` along the way.  Within one call it renders each distinct
coefficient magnitude and each distinct ``G(k)^e`` once.
"""

import random

import pytest

from gamma_ideal import poly as poly_module
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
    conversions = counter(monkeypatch, UniPoly, "complex_coeffs")
    for samples in (1, 20):
        conversions.clear()
        report = verify_verdict(verdict, sys, n_samples=samples, seed=3)
        assert len(report.samples) == samples
        converted = sorted(id(args[0]) for args in conversions)
        assert converted == sorted(map(id, poly.terms.values()))
    assert calls == []


@pytest.mark.parametrize("name", INPUTS)
def test_text_builds_no_scalar(monkeypatch, name):
    sys, poly = INPUTS[name]()
    verdict = decide_membership(poly, sys)
    expected = gamma_poly_text(poly), verdict.as_payload()
    wrapped = counter(monkeypatch, GaussianRational, "_of")
    constructed = counter(monkeypatch, GaussianRational, "__init__")
    assert (gamma_poly_text(poly), verdict.as_payload()) == expected
    assert wrapped == constructed == []


def hoisted_parts(p: GammaPoly) -> set:
    """The (re, im, den) of every nonzero coefficient part of ``p``, with the
    sign the renderer hoists out of it removed."""
    parts = set()
    for c in p.terms.values():
        for r, i in zip(c._re, c._im):
            if r or i:
                parts.add((-r, -i, c._den) if (r < 0 if r else i < 0) else (r, i, c._den))
    return parts


def test_text_renders_each_magnitude_and_gamma_power_once_per_call(monkeypatch):
    sys, poly = chain_member(8)
    certificate = decide_membership(poly, sys).certificate
    polys = [certificate.input, *(r.as_poly for r in certificate.generators), *certificate.cofactors]
    expected = [gamma_poly_text(p) for p in polys]
    magnitudes = counter(monkeypatch, poly_module, "pair_factor_text")
    gamma_factors = counter(monkeypatch, poly_module._GammaFactors, "__missing__")
    for p, text in zip(polys, expected):
        magnitudes.clear()
        gamma_factors.clear()
        assert gamma_poly_text(p) == text
        parts = hoisted_parts(p)
        assert len(magnitudes) == len(set(magnitudes)) and set(magnitudes) <= parts
        assert all(r == den and not i for r, i, den in parts - set(magnitudes)), "only a unit is left out"
        powers = [key for _, key in gamma_factors]
        assert len(powers) == len(set(powers))
        assert set(powers) == {(k, e) for mono in p.terms for k, e in enumerate(mono) if e}
