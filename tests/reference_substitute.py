"""The rewrite pass of ``ideal`` as it stood before each pass handed its open
sums to the next, kept verbatim as a reference for ``test_open_sums.py``:
every pass makes its sums canonical (``TermSums.terms``) and the next pass
reads that map.  ``normal_form`` and ``certify`` are the routes of ``ideal``
over this pass.

The routes of ``ideal`` must give the same polynomials, cofactors and term
order on every input.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional

from gamma_ideal.ideal import Certificate
from gamma_ideal.poly import GammaPoly, TermSums, UniPoly
from gamma_ideal.shifts import ShiftSystem


def _substitute(
    terms: Mapping, j: int, r: int, multiplier: UniPoly, cofactor: Optional[TermSums] = None
) -> Dict:
    """The terms with G(j) -> m * G(r), m the multiplier, in one pass.

    Terms free of G(j) pass through by reference, and a term c*M holding
    G(j)^e is multiplied once by m^e, straight into the result.  Given a
    ``cofactor``, the telescoping shares of the move are added into it too:

        G(j)^e - (m G(r))^e = (G(j) - m G(r)) * sum_{k<e} G(j)^(e-1-k) (m G(r))^k,

    so the term gains c*m^k * M G(r)^k / G(j)^(k+1) for k = 0..e-1, each
    share multiplied once by m^k.  Moves and shares take their powers of m
    from one table per pass, which holds m^0 = 1 and m^1 = m from the start
    and the higher powers from their first use.
    """
    left, powers = TermSums(), {0: UniPoly.one(), 1: multiplier}

    def power(e: int) -> UniPoly:
        factor = powers.get(e)
        if factor is None:
            factor = powers[e] = multiplier ** e
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
    return left.terms()


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
    return GammaPoly._build(p.arity, terms)


def certify(p: GammaPoly, sys: ShiftSystem) -> Certificate:
    """Cofactors and normal form of p, eliminating one generator at a time.

    Each generator G(j) - m_j G(r) (r the representative of j, m_j its
    rising-factorial multiplier) is eliminated by one ``_substitute`` pass
    that moves G(j) straight to G(r) and collects cofactor j from the
    telescoping shares, in ascending target order, each pass over the terms
    left by the one before.  What is left after the last pass is the normal
    form.

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
        normal_form=GammaPoly._build(p.arity, terms),
    )
