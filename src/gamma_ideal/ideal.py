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

from dataclasses import dataclass
from typing import Dict, List, Tuple

from .poly import GammaPoly, Monomial, UniPoly, gamma_poly_text
from .shifts import Relation, ShiftSystem


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
