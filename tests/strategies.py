"""Shared hypothesis strategies for the algebraic layers, and seeded
generators of random shift systems, polynomials and members."""

import random
from fractions import Fraction
from typing import Dict, List, Union

from hypothesis import strategies as st

from gamma_ideal.ideal import normal_form
from gamma_ideal.poly import GammaPoly, Monomial, UniPoly
from gamma_ideal.scalars import GaussianRational
from gamma_ideal.shifts import ShiftSystem, build_shift_system

fractions = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))

scalars = st.builds(GaussianRational, fractions, fractions)
nonzero_scalars = scalars.filter(lambda z: not z.is_zero())

unipolys = st.lists(scalars, max_size=4).map(lambda cs: UniPoly(tuple(cs)))
nonzero_unipolys = unipolys.filter(bool)


def monomials(arity: int, max_exponent: int = 3):
    return st.tuples(*([st.integers(0, max_exponent)] * arity))


def gamma_polys(arity: int, max_terms: int = 4):
    return st.dictionaries(monomials(arity), unipolys, max_size=max_terms).map(
        lambda terms: GammaPoly(arity, terms)
    )


def nonzero_gamma_polys(arity: int, max_terms: int = 4):
    return gamma_polys(arity, max_terms).filter(bool)


@st.composite
def system_with_polys(
    draw, count: int = 1, nonzero: bool = False, require_relation: bool = False
):
    """A shift system from ``random_shift_system`` bundled with ``count``
    polynomials of matching arity."""
    rng = draw(st.randoms(use_true_random=False))
    sys = random_shift_system(rng, require_relation=require_relation)
    source = nonzero_gamma_polys if nonzero else gamma_polys
    polys = tuple(draw(source(sys.arity)) for _ in range(count))
    return (sys, *polys)


def chain_member(n: int, degree: int = 4):
    """(G(0)+...+G(n-1))^degree minus its normal form, at shifts 0..n-1."""
    sys = build_shift_system(list(range(n)))
    power = sum((GammaPoly.variable(n, k) for k in range(n)), GammaPoly.zero(n)) ** degree
    return sys, power - normal_form(power, sys)


# ---------------------------------------------------------------------------
# seeded generators

RngLike = Union[int, random.Random]


def _as_rng(seed: RngLike) -> random.Random:
    if isinstance(seed, random.Random):
        return seed
    return random.Random(seed)


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
