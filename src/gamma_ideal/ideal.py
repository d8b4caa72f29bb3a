"""Membership decision for the ideal of Gamma identities.

Every polynomial relation among Gamma values at integer-linked shifts is a
cofactor combination of the generating relations, so deciding whether an
expression is an identity reduces to computing a normal form: substitute
each non-representative variable by its rewrite image and collect.  Zero
normal form means the input re-expands over the generators (an identity by
construction); a nonzero normal form lives on the class representatives,
whose pairwise differences are non-integral, and no nonzero polynomial in
those Gamma values vanishes identically.

Two routes compute the normal form, each in one pass over the input's
terms: the substitution homomorphism (``normal_form``), and a telescoping
rewrite that also yields the cofactor certificate (``certify``).  Its
cofactors are those of multivariate division by the generators.
``decide_membership`` runs both and insists that they agree, that the
normal form holds no non-representative variable, and that the certificate
re-expands exactly to the input; together these make the certificate a
proof whatever route produced it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Tuple, Union

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
        certificate = self.certificate.as_payload()
        return {
            "member": self.is_member,
            "normal_form": certificate["normal_form"],
            "theorem_basis": self.theorem_basis,
            "certificate": certificate,
        }


def _cached_power(
    powers: Dict[Tuple[int, int], UniPoly], rel: Relation, exponent: int
) -> UniPoly:
    """multiplier ** exponent of ``rel``, computed once per ``powers`` cache."""
    key = (rel.target, exponent)
    factor = powers.get(key)
    if factor is None:
        factor = powers[key] = rel.multiplier ** exponent
    return factor


def _accumulate(terms: Dict[Monomial, UniPoly], mono: Monomial, coeff: UniPoly) -> None:
    """Add ``coeff`` at ``mono``; a coefficient that cancels leaves the map."""
    merged = terms.get(mono)
    if merged is None:
        terms[mono] = coeff
        return
    total = merged + coeff
    if total:
        terms[mono] = total
    else:
        del terms[mono]


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
            scaled = scaled * _cached_power(powers, rel, exponent)
        _accumulate(accumulated, tuple(image), scaled)
    return GammaPoly._build(p.arity, accumulated)


def certify(p: GammaPoly, sys: ShiftSystem) -> Certificate:
    """Cofactors and normal form of p, by telescoping each term once.

    For a generator G(j) - m_j G(r) (r the representative of j, m_j its
    rising-factorial multiplier) and any exponent e,

        G(j)^e - (m_j G(r))^e
            = (G(j) - m_j G(r)) * sum_{k<e} G(j)^(e-1-k) (m_j G(r))^k.

    So a term c*M with G(j)^e in M moves to c*m_j^e * M G(r)^e / G(j)^e,
    and cofactor j gains c*m_j^k * M G(r)^k / G(j)^(k+1) for k = 0..e-1.
    Each term's non-representative variables are rewritten one after the
    other, in ascending index order; what is left after the last one is the
    term's share of the normal form.

    These are the cofactors of the multivariate division by the generators
    that always eliminates the lowest-indexed non-representative of the
    highest reducible monomial: each division step depends only on the
    monomial it reduces, so division is linear in the input, and on a single
    term it makes exactly the steps above, in the same order.
    """
    if p.arity != sys.arity:
        raise ValueError(f"arity mismatch: polynomial {p.arity}, shifts {sys.arity}")
    generators = sys.generators()
    if not generators:
        return Certificate(input=p, generators=generators, cofactors=(), normal_form=p)
    powers: Dict[Tuple[int, int], UniPoly] = {}
    cofactors: List[Dict[Monomial, UniPoly]] = [{} for _ in generators]
    reduced: Dict[Monomial, UniPoly] = {}
    for mono, coeff in p.terms.items():
        image = list(mono)
        for rel, cofactor in zip(generators, cofactors):
            j, r = rel.target, rel.source
            exponent = image[j]
            if exponent == 0:
                continue
            base = image[r]
            for k in range(exponent):
                image[j] = exponent - 1 - k
                image[r] = base + k
                share = coeff if k == 0 else coeff * _cached_power(powers, rel, k)
                _accumulate(cofactor, tuple(image), share)
            image[j] = 0
            image[r] = base + exponent
            coeff = coeff * _cached_power(powers, rel, exponent)
        _accumulate(reduced, tuple(image), coeff)
    return Certificate(
        input=p,
        generators=generators,
        cofactors=tuple(GammaPoly._build(p.arity, terms) for terms in cofactors),
        normal_form=GammaPoly._build(p.arity, reduced),
    )


def decide_membership(p: GammaPoly, sys: ShiftSystem) -> Verdict:
    """Decide whether p vanishes identically at the shifted Gamma values."""
    certificate = certify(p, sys)
    non_representatives = sys.non_representatives()
    assert not any(
        mono[j] for mono in certificate.normal_form.terms for j in non_representatives
    ), "normal form still holds a non-representative variable"
    assert certificate.normal_form == normal_form(p, sys), (
        "certificate and substitution normal forms disagree"
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
