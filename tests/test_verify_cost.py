"""``verify_verdict`` evaluates all samples at once, and a payload renders a
polynomial that is its own normal form once.

One call builds one float table, runs the term kernel once over the whole
sample vector and makes one Gamma pass per shift over all samples; it never
evaluates Gamma one (sample, shift) at a time.  Each (sample, shift) is
checked for poles once, when the sample is drawn, not again in the Gamma
pass.  When no generator applies,
the normal form is the input object itself, and ``Certificate.as_payload``,
``reduce --json`` and ``member --json`` render its text once.
"""

import json

import pytest

from gamma_ideal import cli, numeric
from gamma_ideal.ideal import decide_membership
from gamma_ideal.numeric import verify_verdict
from gamma_ideal.poly import GammaPoly
from test_output_cost import INPUTS, counter, independence_input


@pytest.mark.parametrize("name", INPUTS)
def test_verify_runs_one_kernel_and_one_gamma_pass_per_shift(monkeypatch, name):
    sys, poly = INPUTS[name]()
    verdict = decide_membership(poly, sys)
    expected = verify_verdict(verdict, sys, n_samples=20, seed=3)
    tables = counter(monkeypatch, numeric, "_float_table")
    kernels = counter(monkeypatch, numeric, "_evaluate_terms")
    passes = counter(monkeypatch, numeric, "_lanczos_values")
    checked = counter(monkeypatch, numeric, "gamma_values")
    scalar = counter(monkeypatch, numeric, "gamma_eval")
    report = verify_verdict(verdict, sys, n_samples=20, seed=3)
    assert report == expected
    assert len(tables) == len(kernels) == 1
    points = [row.point for row in report.samples]
    shifts = [complex(a) for a in sys.shifts]
    assert [args[0] for args in passes] == [[s + a for s in points] for a in shifts]
    assert scalar == checked == []


@pytest.mark.parametrize("name", INPUTS)
def test_verify_checks_each_drawn_point_for_poles_once(monkeypatch, name):
    sys, poly = INPUTS[name]()
    verdict = decide_membership(poly, sys)
    monkeypatch.setattr(numeric, "EPSILON_POLE", 1.0)
    expected = verify_verdict(verdict, sys, n_samples=20, seed=3)
    attempts = counter(monkeypatch, numeric, "pole_clearance")
    checks = counter(monkeypatch, numeric, "nearest_pole")
    report = verify_verdict(verdict, sys, n_samples=20, seed=3)
    assert report == expected
    assert len(attempts) > len(report.samples), "some draws should land near a pole"
    assert len(checks) == len(attempts) * sys.arity


def rendered(monkeypatch) -> list:
    """The polynomials rendered to text from now on, one entry per render."""
    return counter(monkeypatch, GammaPoly, "sorted_terms")


def test_certificate_payload_renders_its_own_normal_form_once(monkeypatch):
    sys, poly = independence_input()
    verdict = decide_membership(poly, sys)
    assert verdict.normal_form is poly
    expected = verdict.as_payload()
    renders = rendered(monkeypatch)
    assert verdict.as_payload() == expected
    assert expected["normal_form"] == expected["certificate"]["input"]
    assert [id(args[0]) for args in renders] == [id(poly)]


@pytest.mark.parametrize(
    "argv",
    [
        ["reduce", "--json", "0,1/2", "s*G(0)^2-G(1)+3"],
        ["member", "--json", "0,1/2", "s*G(0)^2-G(1)+3"],
    ],
)
def test_cli_renders_an_input_without_generators_once(monkeypatch, capsys, argv):
    renders = rendered(monkeypatch)
    cli.main(argv)
    payload = json.loads(capsys.readouterr().out)
    assert payload["normal_form"] == payload["polynomial"] == "s*G(0)^2-G(1)+3"
    assert len(renders) == 1
