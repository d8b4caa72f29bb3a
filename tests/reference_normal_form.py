"""The substitution route as it stood before ``normal_form`` stepped each
shift class down one gap at a time, kept verbatim as a reference for
``test_ideal.py``: every input term is mapped on its own through the full
multipliers m_j ** e of the generators and its image added into one
``TermSums``.

The step-down route must give the same polynomial on every input.
"""

from __future__ import annotations

from typing import Dict, Tuple

from gamma_ideal.poly import GammaPoly, TermSums, UniPoly
from gamma_ideal.shifts import Relation, ShiftSystem


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
    representatives map to themselves.  Each term is substituted on its own
    and its image added into one ``TermSums``; a term with no
    non-representative variable passes through by reference.  Each power
    multiplier_j ** e is computed once per call.
    """
    if p.arity != sys.arity:
        raise ValueError(f"arity mismatch: polynomial {p.arity}, shifts {sys.arity}")
    rewrites = {rel.target: rel for rel in sys.generators()}
    if not rewrites:
        return p
    powers: Dict[Tuple[int, int], UniPoly] = {}
    images = TermSums()
    for mono, coeff in p.terms.items():
        image = list(mono)
        factors = []
        for j, exponent in enumerate(mono):
            rel = rewrites.get(j)
            if exponent == 0 or rel is None:
                continue
            image[j] = 0
            image[rel.source] += exponent
            factors.append(_cached_power(powers, rel, exponent))
        if not factors:
            images.add(mono, coeff)
            continue
        for factor in factors[:-1]:
            coeff = coeff * factor
        images.add_product(tuple(image), coeff, factors[-1])
    return GammaPoly._build(p.arity, images.terms())
