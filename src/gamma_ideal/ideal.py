"""Membership decision for the ideal of Gamma identities.

Every polynomial relation among Gamma values at integer-linked shifts is a
cofactor combination of the generating relations, so deciding whether an
expression is an identity reduces to computing a normal form: substitute
each non-representative variable by its rewrite image and collect.  Zero
normal form means the input re-expands over the generators (an identity by
construction); a nonzero normal form lives on the class representatives,
whose pairwise differences are non-integral, and no nonzero polynomial in
those Gamma values vanishes identically.

Two routes compute the normal form.  The substitution homomorphism
(``normal_form``) steps each class down one gap at a time, G(j) ->
step_j * G(prev) from the highest offset down, one pass per step.  The
telescoping rewrite (``certify``) moves each G(j) straight to its
representative with m_j ** e, in ascending order, one pass per generator,
and also yields the cofactor certificate: the cofactors of multivariate
division by the generators.  Both sum the terms landing on one monomial
before multiplying them.  ``decide_membership`` runs both and insists that
they agree, that the normal form holds no non-representative variable, and
that the certificate re-expands exactly to the input.  On a class of three
or more members the routes share no power and no sum, so each checks the
other; the last two guards alone make the certificate a proof whatever
route produced it.  The guards raise ``AssertionError`` explicitly, so
``python -O`` keeps them.

Both routes and the re-expansion add into ``poly.TermSums``: per monomial,
int lists over one denominator, with each coefficient made canonical once.
"""

from __future__ import annotations

from operator import add
from typing import Dict, Tuple

from ._record import Record, setfield
from .poly import GammaPoly, TermSums, UniPoly, gamma_poly_text, input_and_normal_text
from .shifts import Relation, ShiftSystem


class Certificate(Record):
    """Exact decomposition input = sum(cofactor_k * generator_k) + normal_form.

    The normal form contains only class-representative variables; the
    decomposition can be re-expanded and compared against the input with
    zero tolerance.
    """

    __slots__ = _fields = ("input", "generators", "cofactors", "normal_form")

    def __init__(
        self,
        input: GammaPoly,
        generators: Tuple[Relation, ...],
        cofactors: Tuple[GammaPoly, ...],
        normal_form: GammaPoly,
    ):
        setfield(self, "input", input)
        setfield(self, "generators", generators)
        setfield(self, "cofactors", cofactors)
        setfield(self, "normal_form", normal_form)

    def recombined(self) -> GammaPoly:
        """Re-expand the decomposition; equals ``input`` exactly.

        Every product of a cofactor term and a generator term is convolved
        into one ``TermSums`` that starts from the normal form's terms, by
        reference.  With no generators the normal form itself is returned.
        """
        if not self.generators:
            return self.normal_form
        total = TermSums()
        for mono, coeff in self.normal_form.terms.items():
            total.add(mono, coeff)
        for cofactor, relation in zip(self.cofactors, self.generators):
            for g_mono, g_coeff in relation.as_poly.terms.items():
                for mono, coeff in cofactor.terms.items():
                    total.add_product(tuple(map(add, mono, g_mono)), coeff, g_coeff)
        return GammaPoly._build(self.normal_form.arity, total.terms())

    def is_exact(self) -> bool:
        return self.recombined() == self.input

    def as_payload(self) -> dict:
        """Canonical-text form for JSON output."""
        input_text, normal_text = input_and_normal_text(self.input, self.normal_form)
        return {
            "input": input_text,
            "generators": [gamma_poly_text(r.as_poly) for r in self.generators],
            "cofactors": [gamma_poly_text(c) for c in self.cofactors],
            "normal_form": normal_text,
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


class Verdict(Record):
    """Outcome of a membership query, always carrying its certificate."""

    __slots__ = _fields = ("is_member", "certificate", "theorem_basis")

    def __init__(self, is_member: bool, certificate: Certificate, theorem_basis: str):
        setfield(self, "is_member", is_member)
        setfield(self, "certificate", certificate)
        setfield(self, "theorem_basis", theorem_basis)

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


def normal_form(p: GammaPoly, sys: ShiftSystem) -> GammaPoly:
    """Image of p under G(j) -> multiplier_j(s) * G(rep(j)) for non-reps j.

    A ring homomorphism, hence linear and multiplicative; idempotent because
    representatives map to themselves.  The multiplier of j is the product of
    the steps down its class, one rising factorial per gap, so the map is
    applied as the chain of adjacent substitutions G(j) -> step_j * G(prev)
    of ``ShiftSystem.steps``, each class from its highest offset down.  One
    pass per step groups the terms that hold G(j) by (image, e), sums each
    group in a ``TermSums`` and multiplies the sum once by step_j ** e, each
    power computed once per pass; terms free of G(j) pass through by
    reference.  With consecutive shifts every step is linear.  ``certify``
    moves each G(j) straight to its representative instead, so on a class of
    three or more members the two routes share no power and no sum.
    """
    if p.arity != sys.arity:
        raise ValueError(f"arity mismatch: polynomial {p.arity}, shifts {sys.arity}")
    steps = sys.steps()
    if not steps:
        return p
    terms = p.terms
    for j, prev, step in steps:
        left, moved = TermSums(), TermSums()
        for mono, coeff in terms.items():
            exponent = mono[j]
            if not exponent:
                left.add(mono, coeff)
                continue
            image = list(mono)
            image[j] = 0
            image[prev] += exponent
            moved.add((tuple(image), exponent), coeff)
        powers: Dict[int, UniPoly] = {1: step}
        for (mono, exponent), total in moved.terms().items():
            factor = powers.get(exponent)
            if factor is None:
                factor = powers[exponent] = step ** exponent
            # The shorter operand first: it drives the convolution's outer loop.
            if factor.degree < total.degree:
                left.add_product(mono, factor, total)
            else:
                left.add_product(mono, total, factor)
        terms = left.terms()
    return GammaPoly._build(p.arity, terms)


def certify(p: GammaPoly, sys: ShiftSystem) -> Certificate:
    """Cofactors and normal form of p, eliminating one generator at a time.

    For a generator G(j) - m_j G(r) (r the representative of j, m_j its
    rising-factorial multiplier) and any exponent e,

        G(j)^e - (m_j G(r))^e
            = (G(j) - m_j G(r)) * sum_{k<e} G(j)^(e-1-k) (m_j G(r))^k.

    So a term c*M with G(j)^e in M moves to c*m_j^e * M G(r)^e / G(j)^e,
    and cofactor j gains c*m_j^k * M G(r)^k / G(j)^(k+1) for k = 0..e-1.
    The generators are eliminated in ascending target order, each in one
    pass over the terms left by the one before.  A pass groups the
    cofactor shares by (monomial, k) and the moved terms by (image, e),
    sums each group's coefficients in a ``TermSums`` and multiplies the sum
    once by m_j^k or m_j^e; terms free of G(j) pass through by reference.
    What is left after the last pass is the normal form.

    These are the cofactors of the multivariate division by the generators
    that always eliminates the lowest-indexed non-representative of the
    highest reducible monomial: each division step depends only on the
    monomial it reduces, so division is linear in the input, and on a single
    term it makes exactly the steps above, in the same order.  Moving a term
    to G(r) never brings in a later generator's variable, and grouping only
    sums what linearity would add anyway.
    """
    if p.arity != sys.arity:
        raise ValueError(f"arity mismatch: polynomial {p.arity}, shifts {sys.arity}")
    generators = sys.generators()
    if not generators:
        return Certificate(input=p, generators=generators, cofactors=(), normal_form=p)
    powers: Dict[Tuple[int, int], UniPoly] = {}
    cofactors = []
    terms = p.terms
    for rel in generators:
        j, r = rel.target, rel.source
        left, shares, moved = TermSums(), TermSums(), TermSums()
        for mono, coeff in terms.items():
            exponent = mono[j]
            if exponent == 0:
                left.add(mono, coeff)
                continue
            image = list(mono)
            base = image[r]
            for k in range(exponent):
                image[j] = exponent - 1 - k
                image[r] = base + k
                shares.add((tuple(image), k), coeff)
            image[j] = 0
            image[r] = base + exponent
            moved.add((tuple(image), exponent), coeff)
        cofactor = TermSums()
        for (mono, k), total in shares.terms().items():
            cofactor.add_product(mono, total, _cached_power(powers, rel, k))
        cofactors.append(GammaPoly._build(p.arity, cofactor.terms()))
        for (mono, exponent), total in moved.terms().items():
            left.add_product(mono, total, _cached_power(powers, rel, exponent))
        terms = left.terms()
    return Certificate(
        input=p,
        generators=generators,
        cofactors=tuple(cofactors),
        normal_form=GammaPoly._build(p.arity, terms),
    )


def decide_membership(p: GammaPoly, sys: ShiftSystem) -> Verdict:
    """Decide whether p vanishes identically at the shifted Gamma values."""
    certificate = certify(p, sys)
    # Raised explicitly, not asserted, so that ``python -O`` keeps the guards.
    non_representatives = sys.non_representatives()
    if any(mono[j] for mono in certificate.normal_form.terms for j in non_representatives):
        raise AssertionError("normal form still holds a non-representative variable")
    if certificate.normal_form != normal_form(p, sys):
        raise AssertionError("certificate and substitution normal forms disagree")
    if not certificate.is_exact():
        raise AssertionError("certificate failed to re-expand to the input")
    member = certificate.normal_form.is_zero()
    return Verdict(
        is_member=member,
        certificate=certificate,
        theorem_basis=MEMBER_BASIS if member else NON_MEMBER_BASIS,
    )
