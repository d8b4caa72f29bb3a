"""Decision procedure: normal forms, certificates, membership verdicts."""

import inspect
import os
import random
import subprocess
from fractions import Fraction
from pathlib import Path
from sys import executable as PYTHON
from typing import List, Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gamma_ideal import ideal
from gamma_ideal.ideal import (
    Certificate,
    certify,
    decide_membership,
    normal_form,
)
from gamma_ideal.parser import parse_gamma_poly, parse_shifts
from gamma_ideal.poly import GammaPoly, Monomial, UniPoly, gamma_poly_text
from gamma_ideal.scalars import GaussianRational
from gamma_ideal.shifts import ShiftSystem, build_shift_system, shift_apply
import reference_normal_form
from strategies import (
    chain_member, nonzero_gamma_polys, random_member, random_poly, random_shift_system, scalars,
    system_with_polys,
)

HALF = Fraction(1, 2)


def chain_system():
    return build_shift_system([0, 1, 2])


def example_identity():
    return parse_gamma_poly("G(0)*G(2)-G(1)^2-G(0)*G(1)", 3)


# -- normal form


def test_worked_identity_reduces_to_zero():
    assert normal_form(example_identity(), chain_system()).is_zero()


def test_worked_non_member_reduces_to_s_y_squared():
    p = parse_gamma_poly("G(0)*G(2)-G(1)^2", 3)
    reduced = normal_form(p, chain_system())
    assert reduced == GammaPoly.constant(3, UniPoly.x()) * GammaPoly.variable(3, 0) ** 2
    assert gamma_poly_text(reduced) == "s*G(0)^2"


def test_singleton_classes_leave_everything_alone():
    sys = build_shift_system([0, HALF])
    p = parse_gamma_poly("G(0)*G(1)-1", 2)
    assert normal_form(p, sys) == p


def test_a_system_is_built_from_its_shifts_alone():
    """Classes handed in beside the shifts could relate Gamma values that no
    recurrence links: at 0 and 1/2 they would certify Gamma(s+1/2) = s*Gamma(s)."""
    shifts = parse_shifts("0,1/2")
    with pytest.raises(TypeError):
        ShiftSystem(shifts, ((0, 1),))
    p = parse_gamma_poly("G(1)-s*G(0)", 2)
    verdict = decide_membership(p, ShiftSystem(shifts))
    assert not verdict.is_member and verdict.certificate.normal_form == p


def test_normal_form_rejects_arity_mismatch():
    for route in (normal_form, certify, decide_membership):
        with pytest.raises(ValueError, match="^arity mismatch: polynomial 2, shifts 3$"):
            route(GammaPoly.variable(2, 0), chain_system())


@given(system_with_polys())
def test_normal_form_is_idempotent(bundle):
    sys, p = bundle
    once = normal_form(p, sys)
    assert normal_form(once, sys) == once


@given(system_with_polys(count=2))
def test_normal_form_is_linear(bundle):
    sys, p, q = bundle
    assert normal_form(p + q, sys) == normal_form(p, sys) + normal_form(q, sys)


@given(system_with_polys(count=2))
@settings(deadline=None)
def test_normal_form_is_multiplicative(bundle):
    sys, p, q = bundle
    lhs = normal_form(p * q, sys)
    rhs = normal_form(normal_form(p, sys) * normal_form(q, sys), sys)
    assert lhs == rhs


def test_normal_form_free_of_non_representatives():
    sys = build_shift_system([0, 1, 2, HALF])
    p = random_poly(4, random.Random(11), max_terms=5)
    reduced = normal_form(p, sys)
    spots = sys.non_representatives()
    assert all(all(mono[j] == 0 for j in spots) for mono in reduced.terms)


@st.composite
def translated_system_with_poly(draw):
    """A system of up to six shifts in classes of up to four, with gaps up to
    six, moved by a drawn scalar so that shifts come negative and complex,
    and a polynomial of matching arity."""
    rng = draw(st.randoms(use_true_random=False))
    base = random_shift_system(rng, max_arity=6, max_class_size=4, max_offset=6)
    offset = draw(scalars) - draw(st.integers(0, 6))
    sys = build_shift_system([a + offset for a in base.shifts])
    return sys, draw(nonzero_gamma_polys(sys.arity, max_terms=6))


@given(translated_system_with_poly())
@settings(deadline=None)
def test_step_down_route_matches_the_per_term_reference(bundle):
    sys, p = bundle
    reduced = normal_form(p, sys)
    assert reduced == reference_normal_form.normal_form(p, sys)
    if not sys.generators():
        assert reduced is p


@pytest.mark.parametrize("n", range(3, 9))
def test_step_down_route_matches_the_reference_on_chains(n):
    sys, member = chain_member(n)
    power = sum((GammaPoly.variable(n, k) for k in range(n)), GammaPoly.zero(n)) ** 4
    for p in (member, power, power * GammaPoly.variable(n, n - 1)):
        assert normal_form(p, sys) == reference_normal_form.normal_form(p, sys)


# -- certificates


def test_worked_identity_certificate():
    verdict = decide_membership(example_identity(), chain_system())
    assert verdict.is_member
    cert = verdict.certificate
    assert cert.normal_form.is_zero()
    assert cert.recombined() == example_identity()
    assert cert.is_exact()
    # two generators: G(1)-s*G(0) and G(2)-(s^2+s)*G(0)
    assert [r.target for r in cert.generators] == [1, 2]


def test_generator_is_its_own_certificate():
    sys = build_shift_system([0, 2])
    g = sys.generators()[0].as_poly
    cert = certify(g, sys)
    assert cert.normal_form.is_zero()
    assert cert.cofactors == (GammaPoly.constant(2, 1),)


def test_representative_only_polynomial_passes_through():
    sys = chain_system()
    p = parse_gamma_poly("s^2*G(0)", 3)
    cert = certify(p, sys)
    assert cert.normal_form == p
    assert all(c.is_zero() for c in cert.cofactors)


@given(system_with_polys())
@settings(deadline=None)
def test_certificates_re_expand_exactly(bundle):
    sys, p = bundle
    cert = certify(p, sys)
    assert cert.recombined() == p
    assert cert.normal_form == normal_form(p, sys)


def test_certificate_payload_uses_canonical_text():
    cert = certify(example_identity(), chain_system())
    payload = cert.as_payload()
    assert payload["normal_form"] == "0"
    assert payload["input"] == gamma_poly_text(example_identity())
    assert len(payload["generators"]) == len(payload["cofactors"]) == 2


def division_certify(p: GammaPoly, sys: ShiftSystem) -> Certificate:
    """Multivariate division by the generating relations.

    Repeatedly take the highest remaining monomial containing a
    non-representative variable and eliminate one such variable through its
    generator.  "Highest" is judged in the class-sorted view of the
    variables (non-representatives scanned before representatives), which
    makes each generator's leading term its non-representative variable and
    forces the selected monomial to decrease strictly at every step.

    Test-only reference: ``certify``'s telescoping rewrite must reproduce
    its cofactors and normal form exactly.
    """
    if p.arity != sys.arity:
        raise ValueError(f"arity mismatch: polynomial {p.arity}, shifts {sys.arity}")
    generators = sys.generators()
    slot_of = {rel.target: k for k, rel in enumerate(generators)}
    scan_order = list(sys.non_representatives()) + [
        i for i in range(sys.arity) if not sys.offset_of(i)
    ]

    def view_key(mono: Monomial) -> Monomial:
        return tuple(mono[i] for i in scan_order)

    cofactors: List[GammaPoly] = [GammaPoly.zero(sys.arity) for _ in generators]
    remainder = p
    previous_key: Optional[Monomial] = None
    while True:
        reducible = [m for m in remainder.terms if any(m[j] for j in slot_of)]
        if not reducible:
            break
        mono = max(reducible, key=view_key)
        key = view_key(mono)
        assert previous_key is None or key < previous_key, (
            "division step failed to decrease the leading reducible monomial"
        )
        previous_key = key
        j = next(i for i in scan_order if i in slot_of and mono[i])
        coeff = remainder.terms[mono]
        lowered = list(mono)
        lowered[j] -= 1
        partial = GammaPoly(sys.arity, {tuple(lowered): coeff})
        slot = slot_of[j]
        cofactors[slot] = cofactors[slot] + partial
        remainder = remainder - partial * generators[slot].as_poly
    return Certificate(
        input=p,
        generators=generators,
        cofactors=tuple(cofactors),
        normal_form=remainder,
    )


seeds = st.integers(0, 2**32 - 1)

# Two classes of two and three members: every monomial of degree >= 2 can
# mix non-representatives of both.
TWO_CLASSES = build_shift_system(parse_shifts("0, 1, 1/2, 3/2, 2"))


def random_input(sys: ShiftSystem, rng: random.Random) -> GammaPoly:
    """A member, a member plus noise or noise alone, with high-degree terms
    that mix the classes."""
    noise = random_poly(sys.arity, rng, max_terms=4, max_monomial_degree=5)
    if not sys.generators():
        return noise
    member = random_member(sys, rng, max_cofactor_degree=3)
    return rng.choice((member, member + noise, noise))


def assert_same_certificate(cert: Certificate, reference: Certificate) -> None:
    assert cert.generators == reference.generators
    assert cert.cofactors == reference.cofactors
    assert cert.normal_form == reference.normal_form
    assert cert.as_payload() == reference.as_payload()


@given(seeds)
@settings(deadline=None)
def test_telescoping_matches_division_on_random_systems(seed):
    rng = random.Random(seed)
    sys = random_shift_system(rng, max_arity=6)
    p = random_input(sys, rng)
    assert_same_certificate(certify(p, sys), division_certify(p, sys))


@given(seeds)
@settings(deadline=None)
def test_telescoping_matches_division_on_mixed_class_monomials(seed):
    p = random_input(TWO_CLASSES, random.Random(seed))
    assert_same_certificate(certify(p, TWO_CLASSES), division_certify(p, TWO_CLASSES))


@given(seeds)
@settings(deadline=None)
def test_certify_is_linear_cofactor_wise(seed):
    rng = random.Random(seed)
    sys = rng.choice((TWO_CLASSES, random_shift_system(rng, max_arity=6)))
    p, q = random_input(sys, rng), random_input(sys, rng)
    whole, left, right = certify(p + q, sys), certify(p, sys), certify(q, sys)
    assert whole.cofactors == tuple(
        a + b for a, b in zip(left.cofactors, right.cofactors)
    )
    assert whole.normal_form == left.normal_form + right.normal_form


# Multipliers s+1/3, s+(1+i)/2 and (s+2/5)(s+7/5): denominators 3, 2 and 25.
MIXED_DENOMINATORS = build_shift_system(parse_shifts("1/3, 4/3, (1+i)/2, (3+i)/2, 2/5, 12/5"))


def mixed_input(rng: random.Random) -> GammaPoly:
    """A member, a member plus noise or noise alone, with rational and
    Gaussian coefficients over denominators 1 to 7."""
    arity = MIXED_DENOMINATORS.arity

    def part() -> Fraction:
        return Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 5, 6, 7)))

    def coeff() -> UniPoly:
        return UniPoly(
            [GaussianRational(part(), part() if rng.random() < 0.5 else 0)]
            + [part() for _ in range(rng.randint(0, 2))]
        )

    def monomial() -> Monomial:
        return tuple(rng.randint(0, 2) for _ in range(arity))

    noise = GammaPoly(arity, {monomial(): coeff() for _ in range(rng.randint(1, 5))})
    member = GammaPoly.zero(arity)
    for rel in MIXED_DENOMINATORS.generators():
        member = member + GammaPoly(arity, {monomial(): coeff()}) * rel.as_poly
    return rng.choice((member, member + noise, noise))


def assert_canonical(p: GammaPoly) -> None:
    for coeff in p.terms.values():
        reference = UniPoly(coeff.coeffs)
        assert (coeff._re, coeff._im, coeff._den) == (reference._re, reference._im, reference._den)


@given(seeds)
@settings(deadline=None)
def test_certify_over_mixed_denominators(seed):
    sys = MIXED_DENOMINATORS
    p = mixed_input(random.Random(seed))
    cert = certify(p, sys)
    assert_same_certificate(cert, division_certify(p, sys))
    recombined = cert.recombined()
    assert recombined == p
    # Equal term maps are equal polynomials only if every coefficient is
    # stored canonically.
    for poly in (cert.normal_form, normal_form(p, sys), recombined, *cert.cofactors):
        assert_canonical(poly)


def test_two_class_certificate_by_hand():
    # G(1) - s*G(0) and G(3) - (s+1/2)*G(2): G(1)^2 goes first, through
    # G(1)^2 - (s G(0))^2 = (G(1) - s G(0)) * (G(1) + s G(0)), then G(3).
    sys = build_shift_system(parse_shifts("0, 1, 1/2, 3/2"))
    p = parse_gamma_poly("G(1)^2*G(3)", 4)
    cert = certify(p, sys)
    assert [gamma_poly_text(r.as_poly) for r in cert.generators] == [
        "-s*G(0)+G(1)",
        "-(s+1/2)*G(2)+G(3)",
    ]
    assert cert.cofactors == (
        parse_gamma_poly("G(1)*G(3)+s*G(0)*G(3)", 4),
        parse_gamma_poly("s^2*G(0)^2", 4),
    )
    assert cert.normal_form == parse_gamma_poly("(s^3+(1/2)*s^2)*G(0)^2*G(2)", 4)
    assert cert.is_exact()
    assert_same_certificate(cert, division_certify(p, sys))


def test_certify_without_generators_returns_the_input():
    sys = build_shift_system([0, HALF])
    p = parse_gamma_poly("G(0)*G(1)-s", 2)
    cert = certify(p, sys)
    assert cert.cofactors == ()
    assert cert.normal_form is p
    assert cert.recombined() is p


def leak_non_representatives(p: GammaPoly, sys: ShiftSystem) -> Certificate:
    """A broken certify: no rewriting at all, so the 'normal form' is the
    input itself; it still re-expands exactly."""
    zero = GammaPoly.zero(sys.arity)
    return Certificate(
        input=p,
        generators=sys.generators(),
        cofactors=tuple(zero for _ in sys.generators()),
        normal_form=p,
    )


def test_guard_catches_a_normal_form_with_non_representatives(monkeypatch):
    monkeypatch.setattr(ideal, "certify", leak_non_representatives)
    with pytest.raises(AssertionError, match="non-representative"):
        decide_membership(parse_gamma_poly("G(1)-G(0)", 2), build_shift_system([0, 1]))


def test_guard_fires_even_when_both_routes_leak_alike(monkeypatch):
    # Both routes agree and the certificate re-expands exactly, so only the
    # non-representative check is left to refuse the verdict.
    monkeypatch.setattr(ideal, "certify", leak_non_representatives)
    monkeypatch.setattr(ideal, "normal_form", lambda p, sys: p)
    with pytest.raises(AssertionError, match="non-representative"):
        decide_membership(parse_gamma_poly("G(2)", 3), chain_system())


def drop_cofactors(p: GammaPoly, sys: ShiftSystem) -> Certificate:
    """A broken certify: the right normal form, but no cofactors, so the
    certificate re-expands to the normal form alone."""
    return Certificate(
        input=p,
        generators=sys.generators(),
        cofactors=tuple(GammaPoly.zero(sys.arity) for _ in sys.generators()),
        normal_form=normal_form(p, sys),
    )


#: Breaks each guarded step in turn under ``python -O`` and prints what
#: ``decide_membership`` raises; ``GUARDED_STEPS`` follows it.
OPTIMISED_PROBE = """
import sys
from gamma_ideal import ideal
from gamma_ideal.ideal import Certificate, decide_membership, normal_form
from gamma_ideal.parser import parse_gamma_poly
from gamma_ideal.poly import GammaPoly
from gamma_ideal.shifts import ShiftSystem, build_shift_system

if not sys.flags.optimize:
    sys.exit("not optimised")
{leak}
{drop}
real_certify, real_normal_form = ideal.certify, ideal.normal_form
for name, value, text in [
    ("certify", leak_non_representatives, "G(1)-G(0)"),
    ("normal_form", lambda p, sys: GammaPoly.zero(sys.arity), "G(0)"),
    ("certify", drop_cofactors, "G(1)-s*G(0)"),
]:
    setattr(ideal, name, value)
    try:
        decide_membership(parse_gamma_poly(text, 2), build_shift_system([0, 1]))
    except AssertionError as error:
        print(error)
    else:
        print("passed")
    ideal.certify, ideal.normal_form = real_certify, real_normal_form
"""

GUARDED_STEPS = [
    "normal form still holds a non-representative variable",
    "certificate and substitution normal forms disagree",
    "certificate failed to re-expand to the input",
]


def test_guards_hold_under_python_optimisation():
    # ``python -O`` strips ``assert`` statements; the guards must not be ones.
    probe = OPTIMISED_PROBE.format(
        leak=inspect.getsource(leak_non_representatives),
        drop=inspect.getsource(drop_cofactors),
    )
    src = Path(ideal.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run(
        [PYTHON, "-O", "-c", probe], env=env, capture_output=True, text=True, timeout=60
    )
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout.splitlines() == GUARDED_STEPS


# -- verdicts


def test_recurrence_generator_is_a_member():
    sys = build_shift_system([0, 1])
    verdict = decide_membership(parse_gamma_poly("G(1)-s*G(0)", 2), sys)
    assert verdict.is_member


def test_product_against_half_shift_is_not():
    sys = build_shift_system([0, HALF])
    verdict = decide_membership(parse_gamma_poly("G(0)*G(1)-1", 2), sys)
    assert not verdict.is_member
    assert verdict.normal_form == parse_gamma_poly("G(0)*G(1)-1", 2)


def test_theorem_basis_notes_differ_by_verdict():
    member = decide_membership(example_identity(), chain_system())
    other = decide_membership(parse_gamma_poly("G(0)", 3), chain_system())
    assert member.theorem_basis != other.theorem_basis
    assert "normal form" in member.theorem_basis
    assert "normal form" in other.theorem_basis


def test_zero_polynomial_is_a_member_anywhere():
    sys = build_shift_system([0, HALF])
    assert decide_membership(GammaPoly.zero(2), sys).is_member


@given(system_with_polys())
def test_verdict_matches_normal_form(bundle):
    sys, p = bundle
    verdict = decide_membership(p, sys)
    assert verdict.is_member == normal_form(p, sys).is_zero()


def test_verdict_is_invariant_under_shift_permutation():
    rng = random.Random(5)
    shifts = parse_shifts("0, 1, 1/2, 2")
    base = build_shift_system(shifts)
    for trial in range(20):
        p = random_poly(4, rng, max_terms=4)
        expected = decide_membership(p, base).is_member
        order = list(range(4))
        rng.shuffle(order)
        permuted_sys = build_shift_system([shifts[k] for k in order])
        # rename G(k) -> G(position of k in the permuted list)
        rename = {old: new for new, old in enumerate(order)}
        remapped = GammaPoly(
            4,
            {
                tuple(mono[order[slot]] for slot in range(4)): coeff
                for mono, coeff in p.terms.items()
            },
        )
        assert decide_membership(remapped, permuted_sys).is_member == expected, (
            trial,
            rename,
        )


@given(system_with_polys(require_relation=True))
@settings(deadline=None)
def test_members_stay_members_under_the_shift_operator(bundle):
    sys, cofactor = bundle
    member = sum(
        (cofactor * rel.as_poly for rel in sys.generators()),
        GammaPoly.zero(sys.arity),
    )
    assert normal_form(member, sys).is_zero()
    assert normal_form(shift_apply(member, sys), sys).is_zero()


# -- random generators


def test_random_member_is_sound():
    for seed in range(40):
        sys = random_shift_system(seed, require_relation=True)
        member = random_member(sys, seed)
        assert decide_membership(member, sys).is_member, seed


def test_random_member_needs_a_relation():
    sys = build_shift_system([0, HALF])
    with pytest.raises(ValueError):
        random_member(sys, 0)


def test_random_member_reproducible_by_seed():
    sys = build_shift_system([0, 1, 2])
    assert random_member(sys, 9) == random_member(sys, 9)


def test_random_poly_respects_bounds():
    rng = random.Random(3)
    for _ in range(50):
        p = random_poly(3, rng, max_terms=3, max_monomial_degree=2, max_coeff_degree=2)
        assert len(p.terms) <= 3
        assert all(sum(mono) <= 2 for mono in p.terms)
        assert all(c.degree <= 2 for c in p.terms.values())


def test_random_shift_system_respects_bounds():
    for seed in range(30):
        sys = random_shift_system(seed, max_arity=4, max_class_size=3, max_offset=4)
        assert 1 <= sys.arity <= 4
        assert all(len(cls) <= 3 for cls in sys.classes)
        assert all(sys.offset_of(j) <= 4 for j in range(sys.arity))
