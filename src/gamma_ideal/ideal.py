"""Membership decision for the ideal of Gamma identities.

Every polynomial relation among Gamma values at integer-linked shifts is a
cofactor combination of the generating relations, so deciding whether an
expression is an identity reduces to computing a normal form: its image
under G(j) -> m_j * G(rep(j)) for every non-representative j.  Zero normal
form means the input re-expands over the generators (an identity by
construction); a nonzero normal form lives on the class representatives,
whose pairwise differences are non-integral, and no nonzero polynomial in
those Gamma values vanishes identically.

One pass, ``_substitute``, moves the terms under G(j) -> multiplier * G(r),
multiplying each moved term once, straight into the result, and can collect
the cofactor of the move as well.  Two routes run it, one variable at a
time: ``normal_form`` steps each class down one gap at a time, G(j) ->
step_j * G(prev), and ``certify`` moves each G(j) straight to its
representative with m_j and yields the cofactor certificate.
``decide_membership`` insists that the two normal forms agree, that the
normal form holds no non-representative variable, and that the certificate
re-expands exactly to the input.  On a class of three or more members the
routes share no multiplier power and no intermediate sum, so the agreement
guard checks each against the other.  A defect in ``_substitute`` itself
would hit both routes alike and pass that guard, but not the other two: the
re-expansion runs through the independent ``Certificate.recombined``, and
those two alone make the certificate a proof.  The guards raise
``AssertionError`` explicitly, so ``python -O`` keeps them.

The passes and the re-expansion add into ``poly.TermSums``: per monomial, int
lists over one denominator.  Each pass hands its sums to the next as they
are, open, so a route makes its remainder canonical once, after its last
pass, and each cofactor once, after its own pass.
"""

from __future__ import annotations

from typing import Mapping, Optional, Tuple, Union

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
                raised = [(k, e) for k, e in enumerate(g_mono) if e]
                for mono, coeff in cofactor.terms.items():
                    image = list(mono)
                    for k, e in raised:
                        image[k] += e
                    total.add_product(tuple(image), coeff, g_coeff)
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
    """Outcome of a membership query: its certificate, from which membership
    (a zero normal form) and its basis are read."""

    __slots__ = _fields = ("certificate",)

    def __init__(self, certificate: Certificate):
        setfield(self, "certificate", certificate)

    @property
    def is_member(self) -> bool:
        return self.normal_form.is_zero()

    @property
    def theorem_basis(self) -> str:
        return MEMBER_BASIS if self.is_member else NON_MEMBER_BASIS

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


def _substitute(
    terms: Union[Mapping, TermSums], j: int, r: int, m: UniPoly, cofactor: Optional[TermSums] = None
) -> TermSums:
    """The terms with G(j) -> m * G(r), m the multiplier, in one pass, as
    the open sums of a new ``TermSums``.

    ``terms`` is a polynomial's term map or the ``TermSums`` of the pass
    before, whose entries it takes over as they are.  Terms free of G(j)
    pass through by reference, and a term c*M holding G(j)^e is multiplied
    once by m^e, straight into the result.  Given a ``cofactor``, the
    telescoping shares of the move are added into it too:

        G(j)^e - (m G(r))^e = (G(j) - m G(r)) * sum_{k<e} G(j)^(e-1-k) (m G(r))^k,

    so the term gains c*m^k * M G(r)^k / G(j)^(k+1) for k = 0..e-1, each
    share multiplied once by m^k.  Moves and shares take their powers of m
    from one table per pass, which holds m^0 = 1 and m^1 = m from the start
    and the higher powers from their first use.
    """
    left, powers = TermSums(), {0: UniPoly.one(), 1: m}

    def power(e: int) -> UniPoly:
        factor = powers.get(e)
        if factor is None:
            factor = powers[e] = m ** e
        return factor

    for mono, coeff in terms.items():
        exponent = mono[j]
        if not exponent:
            left.add(mono, coeff)
            continue
        image = list(mono)
        base = image[r]
        if cofactor is not None:
            for k in range(exponent):
                image[j] = exponent - 1 - k
                image[r] = base + k
                cofactor.add_product(tuple(image), coeff, power(k))
        image[j] = 0
        image[r] = base + exponent
        left.add_product(tuple(image), coeff, power(exponent))
    return left


def normal_form(p: GammaPoly, sys: ShiftSystem) -> GammaPoly:
    """Image of p under G(j) -> multiplier_j(s) * G(rep(j)) for non-reps j.

    A ring homomorphism, hence linear and multiplicative; idempotent because
    representatives map to themselves.  The multiplier of j is the product of
    the steps down its class, one rising factorial per gap, so the map is
    applied as the chain of adjacent substitutions G(j) -> step_j * G(prev)
    of ``ShiftSystem.steps``, each class from its highest offset down, one
    ``_substitute`` pass per step.  With consecutive shifts every step is
    linear.
    """
    sys.check_arity(p)
    steps = sys.steps()
    if not steps:
        return p
    terms = p.terms
    for j, prev, step in steps:
        terms = _substitute(terms, j, prev, step)
    return GammaPoly._build(p.arity, terms.terms())


def certify(p: GammaPoly, sys: ShiftSystem) -> Certificate:
    """Cofactors and normal form of p, eliminating one generator at a time.

    Each generator G(j) - m_j G(r) (r the representative of j, m_j its
    rising-factorial multiplier) is eliminated by one ``_substitute`` pass
    that moves G(j) straight to G(r) and collects cofactor j from the
    telescoping shares, in ascending target order, each pass over the terms
    left open by the one before.  What is left after the last pass is the
    normal form.

    These are the cofactors of the multivariate division by the generators
    that always eliminates the lowest-indexed non-representative of the
    highest reducible monomial: each division step depends only on the
    monomial it reduces, so division is linear in the input, and on a single
    term it makes exactly the steps of the pass, in the same order.  Moving
    a term to G(r) never brings in a later generator's variable, and the
    pass adds up the single-term results just as linearity does.
    """
    sys.check_arity(p)
    generators = sys.generators()
    if not generators:
        return Certificate(input=p, generators=generators, cofactors=(), normal_form=p)
    cofactors, terms = [], p.terms
    for rel in generators:
        cofactor = TermSums()
        terms = _substitute(terms, rel.target, rel.source, rel.multiplier, cofactor)
        cofactors.append(GammaPoly._build(p.arity, cofactor.terms()))
    return Certificate(
        input=p,
        generators=generators,
        cofactors=tuple(cofactors),
        normal_form=GammaPoly._build(p.arity, terms.terms()),
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
    return Verdict(certificate)
