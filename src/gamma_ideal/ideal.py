"""Membership decision for the ideal of Gamma identities.

Every polynomial relation among Gamma values at integer-linked shifts is a
cofactor combination of the generating relations, so deciding whether an
expression is an identity reduces to computing a normal form: substitute
each non-representative variable by its rewrite image and collect.  Zero
normal form means the input re-expands over the generators (an identity by
construction); a nonzero normal form lives on the class representatives,
whose pairwise differences are non-integral, and no nonzero polynomial in
those Gamma values vanishes identically.

Two independent routes compute the same normal form: a one-pass
substitution homomorphism (``normal_form``) and a term-by-term multivariate
division that also accumulates the cofactor certificate (``certify``).
``decide_membership`` runs both and insists they agree.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Tuple, Union

from .poly import GammaPoly, Monomial, UniPoly, gamma_poly_text
from .scalars import GaussianRational
from .shifts import Relation, ShiftSystem, build_shift_system

RngLike = Union[int, random.Random]


def _as_rng(seed: RngLike) -> random.Random:
    if isinstance(seed, random.Random):
        return seed
    return random.Random(seed)


@dataclass(frozen=True)
class Certificate:
    """Exact decomposition input = sum(cofactor_k * generator_k) + normal_form.

    The normal form contains only class-representative variables; the
    decomposition can be re-expanded and compared against the input with
    zero tolerance.
    """

    input: GammaPoly
    generators: Tuple[Relation, ...]
    cofactors: Tuple[GammaPoly, ...]
    normal_form: GammaPoly

    def recombined(self) -> GammaPoly:
        """Re-expand the decomposition; equals ``input`` exactly."""
        total = self.normal_form
        for cofactor, relation in zip(self.cofactors, self.generators):
            total = total + cofactor * relation.as_poly
        return total

    def is_exact(self) -> bool:
        return self.recombined() == self.input

    def as_payload(self) -> dict:
        """Canonical-text form for JSON output."""
        return {
            "input": gamma_poly_text(self.input),
            "generators": [gamma_poly_text(r.as_poly) for r in self.generators],
            "cofactors": [gamma_poly_text(c) for c in self.cofactors],
            "normal_form": gamma_poly_text(self.normal_form),
        }


MEMBER_BASIS = (
    "zero normal form: the input re-expands exactly as a cofactor "
    "combination of the recurrence generators, so it vanishes identically "
    "at the Gamma values"
)
NON_MEMBER_BASIS = (
    "nonzero normal form over the class representatives, whose pairwise "
    "shift differences are non-integral; no nonzero polynomial in those "
    "Gamma values vanishes identically, so the input is not an identity"
)


@dataclass(frozen=True)
class Verdict:
    """Outcome of a membership query, always carrying its certificate."""

    is_member: bool
    certificate: Certificate
    theorem_basis: str

    @property
    def normal_form(self) -> GammaPoly:
        return self.certificate.normal_form

    def as_payload(self) -> dict:
        return {
            "member": self.is_member,
            "normal_form": gamma_poly_text(self.normal_form),
            "theorem_basis": self.theorem_basis,
            "certificate": self.certificate.as_payload(),
        }


def normal_form(p: GammaPoly, sys: ShiftSystem) -> GammaPoly:
    """Image of p under G(j) -> multiplier_j(s) * G(rep(j)) for non-reps j.

    A ring homomorphism, hence linear and multiplicative; idempotent because
    representatives map to themselves.  Each power multiplier_j ** e is
    computed once per call.
    """
    if p.arity != sys.arity:
        raise ValueError(f"arity mismatch: polynomial {p.arity}, shifts {sys.arity}")
    rewrites = {rel.target: rel for rel in sys.generators()}
    if not rewrites:
        return p
    powers: Dict[Tuple[int, int], UniPoly] = {}
    accumulated: Dict[Monomial, UniPoly] = {}
    for mono, coeff in p.terms.items():
        image = list(mono)
        scaled = coeff
        for j, exponent in enumerate(mono):
            rel = rewrites.get(j)
            if exponent == 0 or rel is None:
                continue
            image[j] = 0
            image[rel.source] += exponent
            factor = powers.get((j, exponent))
            if factor is None:
                factor = powers[j, exponent] = rel.multiplier ** exponent
            scaled = scaled * factor
        key = tuple(image)
        merged = accumulated.get(key)
        accumulated[key] = scaled if merged is None else merged + scaled
    return GammaPoly(p.arity, accumulated)


def certify(p: GammaPoly, sys: ShiftSystem) -> Certificate:
    """Multivariate division by the generating relations.

    Repeatedly take the highest remaining monomial containing a
    non-representative variable and eliminate one such variable through its
    generator.  "Highest" is judged in the class-sorted view of the
    variables (non-representatives scanned before representatives), which
    makes each generator's leading term its non-representative variable and
    forces the selected monomial to decrease strictly at every step.
    """
    if p.arity != sys.arity:
        raise ValueError(f"arity mismatch: polynomial {p.arity}, shifts {sys.arity}")
    generators = sys.generators()
    slot_of = {rel.target: k for k, rel in enumerate(generators)}
    scan_order = list(sys.non_representatives()) + [
        i for i in range(sys.arity) if sys.is_representative(i)
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


def decide_membership(p: GammaPoly, sys: ShiftSystem) -> Verdict:
    """Decide whether p vanishes identically at the shifted Gamma values."""
    certificate = certify(p, sys)
    assert certificate.normal_form == normal_form(p, sys), (
        "division and substitution normal forms disagree"
    )
    assert certificate.is_exact(), "certificate failed to re-expand to the input"
    member = certificate.normal_form.is_zero()
    return Verdict(
        is_member=member,
        certificate=certificate,
        theorem_basis=MEMBER_BASIS if member else NON_MEMBER_BASIS,
    )


def _random_scalar(rng: random.Random, max_numerator: int, allow_imag: bool = True) -> GaussianRational:
    def part() -> Fraction:
        return Fraction(rng.randint(-max_numerator, max_numerator), rng.choice((1, 1, 2)))

    real = part()
    imag = part() if allow_imag and rng.random() < 0.25 else Fraction(0)
    return GaussianRational(real, imag)


def _random_unipoly(rng: random.Random, max_degree: int, max_numerator: int) -> UniPoly:
    degree = rng.randint(0, max_degree)
    coeffs = [_random_scalar(rng, max_numerator) for _ in range(degree + 1)]
    return UniPoly(tuple(coeffs))


def random_poly(
    arity: int,
    seed: RngLike,
    *,
    max_terms: int = 3,
    max_monomial_degree: int = 2,
    max_coeff_degree: int = 2,
    max_numerator: int = 4,
) -> GammaPoly:
    """Random sparse polynomial with bounded height and coefficient size.

    May be zero (a drawn coefficient can vanish); filter at the call site
    when a nonzero sample is required.
    """
    rng = _as_rng(seed)
    terms: Dict[Monomial, UniPoly] = {}
    for _ in range(rng.randint(1, max_terms)):
        budget = rng.randint(0, max_monomial_degree)
        mono = [0] * arity
        for _ in range(budget):
            if arity == 0:
                break
            mono[rng.randrange(arity)] += 1
        coeff = _random_unipoly(rng, max_coeff_degree, max_numerator)
        key = tuple(mono)
        terms[key] = terms.get(key, UniPoly.zero()) + coeff
    return GammaPoly(arity, terms)


def random_member(
    sys: ShiftSystem,
    seed: RngLike,
    *,
    max_cofactor_terms: int = 2,
    max_cofactor_degree: int = 2,
    max_coeff_degree: int = 1,
    max_numerator: int = 3,
) -> GammaPoly:
    """Random cofactor combination of the generating relations: a guaranteed
    member.  Requires at least one non-singleton class."""
    generators = sys.generators()
    if not generators:
        raise ValueError(
            "no generating relations: every integer-difference class is a "
            "singleton, so the only member is zero"
        )
    rng = _as_rng(seed)
    while True:
        total = GammaPoly.zero(sys.arity)
        drew_nonzero = False
        for relation in generators:
            if rng.random() < 0.3 and drew_nonzero:
                continue
            cofactor = random_poly(
                sys.arity,
                rng,
                max_terms=max_cofactor_terms,
                max_monomial_degree=max_cofactor_degree,
                max_coeff_degree=max_coeff_degree,
                max_numerator=max_numerator,
            )
            if not cofactor.is_zero():
                drew_nonzero = True
            total = total + cofactor * relation.as_poly
        if drew_nonzero:
            return total


def random_shift_system(
    seed: RngLike,
    *,
    max_arity: int = 4,
    max_class_size: int = 3,
    max_offset: int = 4,
    require_relation: bool = False,
) -> ShiftSystem:
    """Random shift tuple with bounded integer-difference class structure.

    Class anchors are drawn pairwise non-integer-linked (rationals with
    distinct denominators > 1, plus imaginary offsets) and then extended by
    distinct integer offsets up to ``max_offset``.
    """
    rng = _as_rng(seed)
    anchor_pool = [
        GaussianRational(Fraction(0)),
        GaussianRational(Fraction(1, 2)),
        GaussianRational(Fraction(1, 3)),
        GaussianRational(Fraction(2, 5)),
        GaussianRational(Fraction(0), Fraction(1)),
        GaussianRational(Fraction(1, 2), Fraction(1)),
        GaussianRational(Fraction(1, 7), Fraction(-1, 2)),
    ]
    min_arity = 2 if require_relation else 1
    if max_arity < min_arity:
        raise ValueError("max_arity too small to host a relation")
    while True:
        arity = rng.randint(min_arity, max_arity)
        anchors = rng.sample(anchor_pool, k=min(arity, len(anchor_pool)))
        shifts: List[GaussianRational] = []
        anchor_index = 0
        while len(shifts) < arity and anchor_index < len(anchors):
            anchor = anchors[anchor_index]
            anchor_index += 1
            room = arity - len(shifts)
            low = 1
            if require_relation and anchor_index == 1:
                low = min(2, room)
            size = rng.randint(low, min(max_class_size, room))
            offsets = rng.sample(range(max_offset + 1), k=size)
            shifts.extend(anchor + d for d in offsets)
        if len(shifts) < arity:
            continue
        rng.shuffle(shifts)
        sys = build_shift_system(shifts)
        if require_relation and not sys.generators():
            continue
        return sys
