from fractions import Fraction
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gamma_ideal.poly import GammaPoly, UniPoly, height, highest_term
from gamma_ideal.scalars import GaussianRational, to_scalar
from gamma_ideal.shifts import (
    Relation,
    build_shift_system,
    generating_relation,
    integer_difference,
    rising_factorial,
    shift_apply,
)
from strategies import random_shift_system, system_with_polys
from test_output_cost import counter

HALF = Fraction(1, 2)
IMAG = GaussianRational(0, 1)


@pytest.mark.parametrize(
    "a, b, expected",
    [
        (Fraction(5, 2), HALF, 2),
        (0, 3, -3),
        (HALF, 0, None),
        (IMAG, 0, None),
        (IMAG + 1, IMAG, 1),
        (Fraction(1, 3), Fraction(2, 3), None),
    ],
)
def test_integer_difference(a, b, expected):
    assert integer_difference(a, b) == expected


def test_rising_factorial_empty_product():
    assert rising_factorial(to_scalar(0), 0) == UniPoly.one()


def test_rising_factorial_matches_iterated_recurrence():
    # start 0, length 3: s(s+1)(s+2) = s^3 + 3s^2 + 2s
    p = rising_factorial(to_scalar(0), 3)
    assert p == UniPoly((to_scalar(0), to_scalar(2), to_scalar(3), to_scalar(1)))


def test_rising_factorial_rejects_negative_length():
    with pytest.raises(ValueError):
        rising_factorial(to_scalar(0), -1)


# -- class structure


def test_chain_of_integer_shifts_is_one_class():
    sys = build_shift_system([0, 1, 2])
    assert sys.classes == ((0, 1, 2),)
    assert sys.representatives == (0,)
    assert not sys.in_h


def test_non_integer_gaps_give_singletons():
    sys = build_shift_system([0, HALF])
    assert sys.classes == ((0,), (1,))
    assert sys.in_h
    assert sys.generators() == ()


def test_two_interleaved_classes():
    sys = build_shift_system([0, HALF, 1, Fraction(5, 2)])
    assert sys.classes == ((0, 2), (1, 3))
    assert sys.representatives == (0, 1)
    assert sys.offset_of(2) == 1
    assert sys.offset_of(3) == 2


def test_representative_is_the_minimal_shift_regardless_of_input_order():
    sys = build_shift_system([2, 0, 1])
    assert sys.representatives == (1,)
    assert sys.classes == ((1, 2, 0),)
    assert [sys.offset_of(k) for k in (1, 2, 0)] == [0, 1, 2]


def test_duplicate_shifts_are_rejected():
    with pytest.raises(ValueError):
        build_shift_system([0, 0])


def test_duplicate_error_names_the_first_pair_of_positions():
    with pytest.raises(ValueError, match="duplicate shift 0 at positions 0 and 3"):
        build_shift_system([0, HALF, HALF, 0])


def test_negative_and_complex_shifts_share_a_class_by_their_key():
    third = GaussianRational(Fraction(1, 3), Fraction(1, 3))
    sys = build_shift_system([-HALF, HALF, Fraction(-3, 2), third, third + 1, third - 2])
    assert sys.classes == ((2, 0, 1), (5, 3, 4))
    assert sys.representatives == (2, 5)
    assert [sys.offset_of(k) for k in range(6)] == [1, 2, 0, 2, 3, 0]


def test_scaled_shift_families_stay_independent():
    for alpha in (Fraction(3, 7), IMAG, GaussianRational(HALF, HALF)):
        sys = build_shift_system([to_scalar(0), to_scalar(alpha), to_scalar(alpha) * 2])
        assert sys.in_h, alpha


# -- generating relations


def test_generating_relation_iterated():
    sys = build_shift_system([0, 3])
    relation = generating_relation(sys, 0, 1)
    assert relation.source == 0 and relation.target == 1
    assert relation.multiplier == rising_factorial(to_scalar(0), 3)
    expected = GammaPoly.variable(2, 1) - GammaPoly.variable(2, 0) * relation.multiplier
    assert relation.as_poly == expected


def test_generating_relation_requires_positive_gap():
    sys = build_shift_system([0, 3])
    with pytest.raises(ValueError):
        generating_relation(sys, 1, 0)


def test_generating_relation_requires_shared_class():
    sys = build_shift_system([0, HALF])
    with pytest.raises(ValueError):
        generating_relation(sys, 0, 1)


@pytest.mark.parametrize(
    "shifts, i, j, message",
    [
        ([0, 3], -1, 0, "variable index -1 out of range"),
        ([0, 3], 0, 5, "variable index 5 out of range"),
        ([0, HALF], 0, 1, "shifts 0 and 1/2 do not differ by an integer"),
        ([0, 3], 1, 0, "need a positive integer gap from index 1 to 0, got -3"),
    ],
)
def test_generating_relation_error_messages(shifts, i, j, message):
    sys = build_shift_system(shifts)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        generating_relation(sys, i, j)


def test_generators_cover_every_non_representative():
    sys = build_shift_system([0, 1, 2, HALF])
    targets = [r.target for r in sys.generators()]
    assert targets == [1, 2]


# -- the shift operator


def test_shift_apply_on_a_single_placeholder():
    sys = build_shift_system([HALF])
    shifted = shift_apply(GammaPoly.variable(1, 0), sys)
    assert shifted == GammaPoly.constant(1, UniPoly.linear(HALF)) * GammaPoly.variable(1, 0)


def test_shift_apply_translates_plain_coefficients():
    sys = build_shift_system([0, HALF])
    p = GammaPoly.constant(2, UniPoly.x())
    assert shift_apply(p, sys) == GammaPoly.constant(2, UniPoly.linear(1))


@given(system_with_polys(count=2))
def test_shift_apply_is_a_ring_homomorphism(bundle):
    sys, p, q = bundle
    assert shift_apply(p + q, sys) == shift_apply(p, sys) + shift_apply(q, sys)
    assert shift_apply(p * q, sys) == shift_apply(p, sys) * shift_apply(q, sys)


@given(system_with_polys(nonzero=True))
def test_shift_apply_highest_term_formula(bundle):
    # The image's highest term sits at the same monomial, with coefficient
    # coeff(s+1) * prod over variables of (s + a_m)^exponent.
    sys, p = bundle
    mono, coeff = highest_term(p)
    expected = coeff.compose_shift(1)
    for index, exponent in enumerate(mono):
        expected = expected * UniPoly.linear(sys.shifts[index]) ** exponent
    assert highest_term(shift_apply(p, sys)) == (mono, expected)


@given(system_with_polys(nonzero=True))
def test_shift_apply_preserves_monomials_and_height(bundle):
    sys, p = bundle
    image = shift_apply(p, sys)
    assert set(image.terms) == set(p.terms)
    assert height(image) == height(p)


def test_shift_apply_rejects_arity_mismatch():
    sys = build_shift_system([0, 1])
    with pytest.raises(ValueError):
        shift_apply(GammaPoly.variable(3, 0), sys)


# -- the one-pass build against the pairwise construction it replaced


def reference_rising_factorial(start: GaussianRational, length: int) -> UniPoly:
    """(s + start)(s + start + 1)...(s + start + length - 1); one() for length 0."""
    if length < 0:
        raise ValueError("length must be non-negative")
    product = UniPoly.one()
    for k in range(length):
        product = product * UniPoly.linear(start + k)
    return product


def reference_build_shift_system(shifts):
    """Partition a tuple of pairwise-distinct shifts into integer-difference
    classes and pick each class's minimal-offset member as representative.

    The pairwise construction: returns (shifts, classes, representatives)."""
    values = tuple(to_scalar(a) for a in shifts)
    for i in range(len(values)):
        for j in range(i + 1, len(values)):
            if values[i] == values[j]:
                raise ValueError(
                    f"duplicate shift {values[i]} at positions {i} and {j}; "
                    "a repeated Gamma argument is degenerate"
                )

    groups: list[list[int]] = []
    for idx, a in enumerate(values):
        for group in groups:
            if integer_difference(a, values[group[0]]) is not None:
                group.append(idx)
                break
        else:
            groups.append([idx])

    # Integer-difference is transitive on exact scalars; verify rather than trust.
    for gi, group in enumerate(groups):
        for i in group:
            for j in group:
                assert integer_difference(values[i], values[j]) is not None
        for other in groups[gi + 1 :]:
            for j in other:
                assert integer_difference(values[group[0]], values[j]) is None

    classes = []
    representatives = []
    for group in groups:
        anchor = values[group[0]]
        ordered = sorted(group, key=lambda k: integer_difference(values[k], anchor))
        classes.append(tuple(ordered))
        representatives.append(ordered[0])
    return values, tuple(classes), tuple(representatives)


def reference_generators(values, classes, representatives):
    """One relation per non-representative index, ascending, each multiplier
    a rising factorial built from scratch."""
    arity = len(values)
    relations = []
    for cls, rep in zip(classes, representatives):
        for j in cls:
            d = integer_difference(values[j], values[rep])
            if d:
                multiplier = reference_rising_factorial(values[rep], d)
                as_poly = GammaPoly.variable(arity, j) - GammaPoly.variable(arity, rep) * multiplier
                relations.append(Relation(rep, j, multiplier, as_poly))
    return tuple(sorted(relations, key=lambda r: r.target))


SMALL_SHIFTS = [to_scalar(a) for a in (0, 1, 2, -1, HALF, Fraction(5, 2), Fraction(-3, 2))] + [
    IMAG,
    IMAG + 1,
    GaussianRational(Fraction(1, 3), Fraction(1, 3)),
    GaussianRational(Fraction(4, 3), Fraction(1, 3)),
]


@st.composite
def shift_lists(draw):
    """Shift lists from ``random_shift_system`` in any order, some with a
    shift repeated, and short lists over a small pool that often repeat."""
    rng = draw(st.randoms(use_true_random=False))
    shifts = draw(st.permutations(random_shift_system(rng, max_arity=7).shifts))
    if draw(st.booleans()):
        repeated = draw(st.sampled_from(shifts))
        shifts.insert(draw(st.integers(0, len(shifts))), repeated)
    small = draw(st.lists(st.sampled_from(SMALL_SHIFTS), max_size=8))
    return draw(st.sampled_from([shifts, small]))


def outcome(build, shifts):
    try:
        return build(shifts)
    except ValueError as exc:
        return str(exc)


@given(shift_lists())
def test_one_pass_build_matches_the_pairwise_reference(shifts):
    def one_pass(shifts):
        sys = build_shift_system(shifts)
        return sys.shifts, sys.classes, sys.representatives, sys.generators()

    def pairwise(shifts):
        built = reference_build_shift_system(shifts)
        return (*built, reference_generators(*built))

    assert outcome(one_pass, shifts) == outcome(pairwise, shifts)


def test_generators_of_a_chain_take_two_products_per_member(monkeypatch):
    n = 64
    subtractions = counter(monkeypatch, GaussianRational, "__sub__")
    products = counter(monkeypatch, UniPoly, "__mul__")
    generators = build_shift_system(range(n)).generators()
    assert subtractions == []
    assert len(products) <= 2 * (n - 1)
    monkeypatch.undo()
    assert generators[-1].multiplier == reference_rising_factorial(to_scalar(0), n - 1)


def test_a_generator_is_built_from_its_two_terms_target_first(monkeypatch):
    products = counter(monkeypatch, GammaPoly, "__mul__")
    differences = counter(monkeypatch, GammaPoly, "__sub__")
    sys = build_shift_system([0, 3, HALF, 1, 2, HALF + 2])
    relations = [*sys.generators(), generating_relation(sys, 0, 4)]
    assert products == differences == []

    def unit(index):
        return tuple(int(k == index) for k in range(sys.arity))

    for r in relations:
        terms = [(unit(r.target), UniPoly.one()), (unit(r.source), -r.multiplier)]
        assert list(r.as_poly.terms.items()) == terms
