"""``normal_form`` steps each shift class down one gap at a time.

It applies G(j) -> step_j * G(prev) for each non-representative j, from the
highest offset of each class down, where prev is the member just below j and
step_j the rising factorial over their gap.  So it raises only the steps,
each to each power at most once per pass, never a generator's full
multiplier; it multiplies each moved term once, straight into one
accumulator per step, since no two terms of a pass land on one (image, e);
and it never adds, subtracts or multiplies whole ``GammaPoly`` values.  On
consecutive shifts every step is linear.
"""

from gamma_ideal import poly
from gamma_ideal.ideal import normal_form
from gamma_ideal.poly import GammaPoly, TermSums, UniPoly
import reference_normal_form
from strategies import chain_member
from test_certify_cost import WHOLE_POLY_OPERATIONS
from test_output_cost import counter


def test_normal_form_raises_only_the_steps_each_power_once(monkeypatch):
    sys, member = chain_member(8)
    sys.generators()
    calls = counter(monkeypatch, UniPoly, "__pow__")
    normal_form(member, sys)
    monkeypatch.undo()
    assert calls, "the chain member needs rewriting"
    assert {base.degree for base, _ in calls} == {1}
    steps = {id(step) for _, _, step in sys.steps()}
    assert {id(base) for base, _ in calls} <= steps
    powers = [(id(base), exponent) for base, exponent in calls]
    assert len(powers) == len(set(powers))


def test_normal_form_does_no_whole_polynomial_arithmetic(monkeypatch):
    sys, member = chain_member(8)
    calls = {
        name: counter(monkeypatch, GammaPoly, name) for name in WHOLE_POLY_OPERATIONS
    }
    reduced = normal_form(member, sys)
    assert {name: len(made) for name, made in calls.items()} == dict.fromkeys(
        WHOLE_POLY_OPERATIONS, 0
    )
    monkeypatch.undo()
    assert reduced.is_zero()


def test_normal_form_builds_one_accumulator_per_step(monkeypatch):
    sys, member = chain_member(8)
    steps = sys.steps()
    built = counter(monkeypatch, TermSums, "__init__")
    normal_form(member, sys)
    monkeypatch.undo()
    assert len(built) == len(steps) == 7


def multiply_adds(monkeypatch, route, p, sys) -> int:
    """Coefficient products of one call of ``route``, powers included."""
    products = []
    convolve = poly._convolve_into

    def counting(re, im, a, b):
        products.append(len(a[0]) * len(b[0]))
        convolve(re, im, a, b)

    monkeypatch.setattr(poly, "_convolve_into", counting)
    route(p, sys)
    monkeypatch.undo()
    return sum(products)


def test_normal_form_makes_a_quarter_of_the_per_term_coefficient_work(monkeypatch):
    sys, member = chain_member(8)
    sys.generators()
    per_term = multiply_adds(monkeypatch, reference_normal_form.normal_form, member, sys)
    step_down = multiply_adds(monkeypatch, normal_form, member, sys)
    assert 0 < 4 * step_down <= per_term
