"""Self-tests of the benchmark's input generator.

    python3 -m pytest perfbench

The answers the benchmark checks against come from how each input is built.
These tests confirm them with an independent oracle: sympy substitutes every
``G(j)`` by its recurrence image over the class representative and expands.
Zero means a member; otherwise the expansion is the normal form.
"""

from fractions import Fraction

import pytest
import sympy

import generate

S = sympy.Symbol("s")
SEEDS = (0, 1)


def serialized(workload: str, seed: int) -> bytes:
    make, _ = generate.WORKLOADS[workload]
    return repr(make(seed)).encode()


@pytest.mark.parametrize("workload", sorted(generate.WORKLOADS))
def test_same_seed_same_bytes_other_seed_other_bytes(workload):
    assert serialized(workload, 7) == serialized(workload, 7)
    assert serialized(workload, 7) != serialized(workload, 8)


@pytest.mark.parametrize("workload", sorted(generate.WORKLOADS))
def test_anchor_is_in_the_mix(workload):
    make, anchor = generate.WORKLOADS[workload]
    assert anchor in [q.name for q in make(0)]


def _shift_values(text: str):
    return [sympy.Rational(part) for part in text.split(",")]


def _images(shifts):
    """G(j) -> (s+a_r)...(s+a_r+d-1) * g_r, with r the smallest shift of j's class."""
    reps = sympy.symbols(f"g0:{len(shifts)}")
    images = []
    for a in shifts:
        linked = [b for b in shifts if (a - b).is_integer]
        base = min(linked)
        r = shifts.index(base)
        factor = sympy.Mul(*[S + base + k for k in range(int(a - base))])
        images.append(factor * reps[r])
    return images


def _oracle_text(text: str, shifts_text: str):
    images = _images(_shift_values(shifts_text))
    local = {"G": lambda k: images[int(k)], "s": S, "i": sympy.I}
    return sympy.expand(sympy.sympify(text.replace("^", "**"), locals=local))


def _oracle_poly(poly, shifts_text: str):
    images = _images(_shift_values(shifts_text))
    total = 0
    for key, (re, im) in poly.items():
        term = (sympy.Rational(re) + sympy.I * sympy.Rational(im)) * S ** key[0]
        for j, e in enumerate(key[1:]):
            term *= images[j] ** e
        total += term
    return sympy.expand(total)


def _queries(workload):
    make, _ = generate.WORKLOADS[workload]
    for seed in SEEDS:
        yield from make(seed)


def _normal_form(q):
    if q.poly is not None:
        return _oracle_poly(q.poly, q.shifts)
    return _oracle_text(q.text, q.shifts)


@pytest.mark.parametrize("workload", sorted(generate.WORKLOADS))
def test_members_and_non_members_under_the_sympy_oracle(workload):
    checked = 0
    for q in _queries(workload):
        if q.command not in ("member", "reduce"):
            continue
        nf = _normal_form(q)
        if q.member is True:
            assert nf == 0, q.name
        if q.member is False:
            assert nf != 0, q.name
        if q.normal_form is not None:
            assert sympy.expand(nf - _oracle_poly(q.normal_form, q.shifts)) == 0, q.name
        checked += 1
    assert checked


def test_independence_shifts_have_no_integer_difference():
    for q in _queries("verify-sweep"):
        if q.name.startswith("sweep-independent"):
            values = _shift_values(q.shifts)
            assert all(
                not (a - b).is_integer for i, a in enumerate(values) for b in values[:i]
            ), q.shifts


def test_classes_answers_follow_integer_differences():
    for q in _queries("cli-cold"):
        if q.command != "classes":
            continue
        values = _shift_values(q.shifts)
        for cls in q.classes:
            offsets = [values[j] - values[cls[0]] for j in cls]
            assert all(d.is_integer and d >= 0 for d in offsets), q.name
            assert offsets == sorted(offsets), q.name
        for i, ci in enumerate(q.classes):
            for cj in q.classes[i + 1 :]:
                assert not (values[ci[0]] - values[cj[0]]).is_integer, q.name
        assert sorted(j for cls in q.classes for j in cls) == list(range(len(values)))
        firsts = [min(cls) for cls in q.classes]
        assert firsts == sorted(firsts), q.name


def test_flat_sums_reach_their_sizes():
    for q in _queries("cli-cold"):
        if q.name.startswith("cli-reduce-flat-"):
            target = int(q.name.rsplit("-", 1)[1])
            assert target <= q.terms <= target + 1
            assert q.text.count("G(") > q.terms


def test_gamma_points_stay_clear_of_poles():
    for q in _queries("cli-cold"):
        if q.command == "gamma":
            z = complex(q.point.replace("i", "j"))
            assert min(abs(z - k) for k in range(0, -10, -1)) >= 0.2, q.point


def test_text_rendering_round_trips_through_sympy():
    poly = {
        (2, 1, 0): (Fraction(-3, 2), Fraction(0)),
        (0, 0, 2): (Fraction(1), Fraction(-1)),
        (1, 0, 0): (Fraction(0), Fraction(2)),
    }
    text = generate.poly_text(poly)
    assert sympy.expand(_oracle_text(text, "1/3,2/3") - _oracle_poly(poly, "1/3,2/3")) == 0
