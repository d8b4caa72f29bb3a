"""Gamma oracle accuracy and verdict verification.

mpmath is the independent reference: our Lanczos evaluation must agree with
it to well below every advertised tolerance.
"""

import json
import math
import random

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gamma_ideal.numeric as numeric
from gamma_ideal.ideal import decide_membership
from gamma_ideal.numeric import (
    EPSILON_POLE,
    ComplexSample,
    PoleError,
    SampleResidual,
    SamplingError,
    draw_samples,
    evaluate_poly,
    gamma_eval,
    nearest_pole,
    pole_clearance,
    selftest_functional_equations,
    verify_verdict,
)
from gamma_ideal.parser import parse_gamma_poly, parse_shifts
from gamma_ideal.poly import GammaPoly
from gamma_ideal.shifts import build_shift_system
from strategies import chain_member, random_member, random_poly, random_shift_system

SQRT_PI = math.sqrt(math.pi)


def system(text):
    return build_shift_system(parse_shifts(text))


# -- gamma_eval


@pytest.mark.parametrize(
    "s, expected",
    [(1, 1.0), (0.5, SQRT_PI), (5, 24.0)],
)
def test_classical_values(s, expected):
    assert abs(gamma_eval(complex(s)) - expected) / expected < 1e-12


def test_integer_factorials_to_high_precision():
    for k in range(1, 11):
        exact = math.factorial(k - 1)
        assert abs(gamma_eval(complex(k)) - exact) / exact < 1e-12


def test_agrees_with_mpmath_across_the_rectangle():
    rng = random.Random(42)
    worst = 0.0
    for _ in range(200):
        s = complex(rng.uniform(-3, 5), rng.uniform(-3, 3))
        if nearest_pole(s)[1] < 1e-2:
            continue
        ours = gamma_eval(s)
        reference = complex(mpmath.gamma(mpmath.mpc(s.real, s.imag)))
        worst = max(worst, abs(ours - reference) / abs(reference))
    assert worst < 1e-10, worst


def test_left_half_plane_goes_through_reflection():
    s = complex(-2.5, 0.0)
    reference = complex(mpmath.gamma(-2.5))
    assert abs(gamma_eval(s) - reference) / abs(reference) < 1e-12


@pytest.mark.parametrize("bad", [0, -1, -7, -2.9995, 1e-4])
def test_pole_rejection(bad):
    with pytest.raises(PoleError) as err:
        gamma_eval(complex(bad))
    assert err.value.clearance < EPSILON_POLE
    assert err.value.pole <= 0


def test_near_pole_in_the_complex_direction():
    with pytest.raises(PoleError):
        gamma_eval(complex(-3, 1e-5))


# -- pole geometry


@pytest.mark.parametrize(
    "z, pole, dist",
    [
        (complex(0.4, 0), 0, 0.4),
        (complex(-1.6, 0), -2, pytest.approx(0.4)),
        (complex(3, 4), 0, 5.0),
        (complex(-2, 1), -2, 1.0),
    ],
)
def test_nearest_pole(z, pole, dist):
    assert nearest_pole(z) == (pole, dist)


def test_pole_clearance_scans_all_shifts():
    # s = 1/2: the shifted argument 1/2 - 1/2 = 0 sits on a pole.
    clearance = pole_clearance(complex(0.5), [complex(0), complex(-0.5)])
    assert clearance == 0.0
    assert pole_clearance(complex(0.5), []) == math.inf


# -- sampling


def test_draw_samples_is_deterministic():
    sys = system("0,1/2")
    a = draw_samples(sys, 10, seed=3)
    b = draw_samples(sys, 10, seed=3)
    assert a == b
    assert all(isinstance(x, ComplexSample) for x in a)


def test_draw_samples_respects_clearance_and_domain():
    sys = system("0,1,2")
    for sample in draw_samples(sys, 50, seed=1):
        assert sample.pole_clearance >= EPSILON_POLE
        assert -3 <= sample.point.real <= 5
        assert -3 <= sample.point.imag <= 3


def test_draw_samples_gives_up_eventually():
    sys = system("0")
    with pytest.raises(SamplingError):
        draw_samples(sys, 5, seed=0, epsilon_pole=100.0)


# -- polynomial evaluation


def test_recurrence_cancels_numerically():
    sys = system("0,1")
    p = parse_gamma_poly("G(1)-s*G(0)", 2)
    value, scale = evaluate_poly(p, sys, complex(2.5))
    assert scale == pytest.approx(2 * abs(2.5 * gamma_eval(complex(2.5))), rel=1e-12)
    assert abs(value) / scale < 1e-10


def test_single_gamma_value():
    sys = system("1/2")
    value, scale = evaluate_poly(GammaPoly.variable(1, 0), sys, complex(0))
    assert value == pytest.approx(SQRT_PI, rel=1e-12)
    assert scale == pytest.approx(SQRT_PI, rel=1e-12)


def test_half_shift_product_misses_one():
    sys = system("0,1/2")
    p = parse_gamma_poly("G(0)*G(1)-1", 2)
    value, _ = evaluate_poly(p, sys, complex(1))
    assert value.real == pytest.approx(SQRT_PI / 2 - 1, rel=1e-10)


def test_zero_polynomial_evaluates_to_zero_scale():
    sys = system("0,1/2")
    assert evaluate_poly(GammaPoly.zero(2), sys, complex(1)) == (0j, 0.0)


# -- verdict verification


def member_verdict():
    sys = system("0,1,2")
    return decide_membership(parse_gamma_poly("G(0)*G(2)-G(1)^2-G(0)*G(1)", 3), sys), sys


def test_member_verification_is_consistent():
    verdict, sys = member_verdict()
    report = verify_verdict(verdict, sys, n_samples=20, seed=0, tol=1e-8)
    assert report.verdict_consistent
    assert report.max_relative_residual < 1e-8
    assert len(report.samples) == 20


def test_non_member_verification_finds_a_witness():
    sys = system("0,1,2")
    verdict = decide_membership(parse_gamma_poly("G(0)*G(2)-G(1)^2", 3), sys)
    report = verify_verdict(verdict, sys, n_samples=20, seed=0, tol=1e-8)
    assert not verdict.is_member
    assert report.verdict_consistent
    assert report.max_relative_residual >= 1e-8
    # at s=1 the miss is macroscopic: |G(1)G(3) - G(2)^2| = |2 - 1| = 1
    value, _ = evaluate_poly(verdict.certificate.input, sys, complex(1))
    assert abs(value) == pytest.approx(1.0, rel=1e-12)


def test_zero_polynomial_is_trivially_consistent():
    sys = system("0,1/2")
    verdict = decide_membership(GammaPoly.zero(2), sys)
    report = verify_verdict(verdict, sys, n_samples=5, seed=2)
    assert report.verdict_consistent
    assert all(row.residual == 0.0 for row in report.samples)
    assert report.max_relative_residual == 0.0


def test_reports_are_bit_deterministic():
    verdict, sys = member_verdict()
    a = verify_verdict(verdict, sys, n_samples=15, seed=7)
    b = verify_verdict(verdict, sys, n_samples=15, seed=7)
    assert a == b
    assert json.dumps(a.as_payload(), sort_keys=True) == json.dumps(
        b.as_payload(), sort_keys=True
    )


def test_separation_threshold_is_adjustable():
    sys = system("0,1,2")
    verdict = decide_membership(parse_gamma_poly("G(0)*G(2)-G(1)^2", 3), sys)
    strict = verify_verdict(verdict, sys, n_samples=20, seed=0, separation=1e-4)
    assert strict.verdict_consistent
    impossible = verify_verdict(verdict, sys, n_samples=20, seed=0, separation=1e12)
    assert not impossible.verdict_consistent


# -- functional-equation selftest


def test_selftest_passes_cleanly():
    report = selftest_functional_equations(n_samples=60, seed=5)
    assert report.ok
    names = [check.name for check in report.checks]
    assert names == [
        "recurrence",
        "multiplication_n2",
        "multiplication_n3",
        "reflection",
        "gamma_half_squared",
        "integer_factorials",
    ]


def test_selftest_catches_a_corrupted_coefficient(monkeypatch):
    broken = list(numeric.LANCZOS_COEFFICIENTS)
    broken[1] *= 1.0 + 1e-6
    monkeypatch.setattr(numeric, "LANCZOS_COEFFICIENTS", tuple(broken))
    report = selftest_functional_equations(n_samples=40, seed=5)
    assert not report.ok


# -- the float table against the per-sample reference


def reference_evaluate(p, sys, s):
    """The oracle's loop before the float table: every coefficient converted
    again at every sample, every Gamma power computed again for every term.
    ``complex`` of an exact scalar rounds each part correctly, as the int
    division in ``UniPoly.complex_coeffs`` does."""
    if p.arity != sys.arity:
        raise ValueError(f"arity mismatch: polynomial {p.arity}, shifts {sys.arity}")
    gammas = [gamma_eval(s + complex(a)) for a in sys.shifts]
    value = 0j
    scale = 0.0
    for mono, coeff in p.terms.items():
        term = 0j
        for c in reversed(coeff.coeffs):
            term = term * s + complex(c)
        for g, exponent in zip(gammas, mono):
            if exponent:
                term *= g**exponent
        value += term
        scale += abs(term)
    return value, scale


def reference_rows(p, sys, n_samples, seed):
    rows = []
    for sample in draw_samples(sys, n_samples, seed):
        value, scale = reference_evaluate(p, sys, sample.point)
        rows.append(SampleResidual(sample.point, abs(value), scale))
    return tuple(rows)


def assert_same_bits(p, sys, sample_seeds=(0, 1, 7)):
    verdict = decide_membership(p, sys)
    for seed in sample_seeds:
        expected = reference_rows(p, sys, 12, seed)
        # Dataclass equality compares every float with ==, no tolerance.
        assert verify_verdict(verdict, sys, n_samples=12, seed=seed).samples == expected
        for row in expected:
            assert evaluate_poly(p, sys, row.point) == reference_evaluate(p, sys, row.point)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_float_table_matches_the_reference_on_random_systems(seed):
    sys = random_shift_system(seed, max_arity=5)
    noise = random_poly(sys.arity, seed, max_terms=5, max_monomial_degree=4)
    if sys.generators():
        member = random_member(sys, seed)
        for p in (member, member + noise):
            assert_same_bits(p, sys)
    else:
        assert_same_bits(noise, sys)


def test_float_table_matches_the_reference_on_the_chain_member():
    sys, member = chain_member(6)
    assert_same_bits(member, sys)
    assert_same_bits(member + GammaPoly.variable(6, 3) ** 3, sys)


@pytest.mark.parametrize(
    "shifts, text",
    [
        ("0,1", "G(0)^400"),  # the Gamma power overflows
        ("0,150", "G(1)-G(0)"),  # Gamma itself overflows at the wide gap
    ],
)
def test_overflows_as_the_reference_does(shifts, text):
    sys = system(shifts)
    p = parse_gamma_poly(text, sys.arity)
    point = complex(4.5, 0.5)
    with pytest.raises(OverflowError) as expected:
        reference_evaluate(p, sys, point)
    with pytest.raises(OverflowError) as got:
        evaluate_poly(p, sys, point)
    assert str(got.value) == str(expected.value)
    with pytest.raises(OverflowError):
        verify_verdict(decide_membership(p, sys), sys, n_samples=20, seed=0)


def test_arity_and_pole_errors_are_raised_as_before():
    with pytest.raises(ValueError, match="arity mismatch"):
        evaluate_poly(GammaPoly.variable(2, 0), system("0"), complex(1))
    with pytest.raises(PoleError):
        evaluate_poly(GammaPoly.variable(1, 0), system("0"), complex(0))
    # No sample, no evaluation: a mismatched polynomial goes unnoticed, as before.
    verdict = decide_membership(GammaPoly.zero(2), system("0,1"))
    report = verify_verdict(verdict, system("0"), n_samples=0)
    assert report.samples == ()
