"""``member`` decides once and renders that one result as JSON or as text.

The text lines carry the same verdict, normal form, generator and cofactor
texts and verification figures as the JSON payload of the same run.  The
certificate's re-expansion, ``Certificate.recombined``, runs once per
decision: ``decide_membership`` raises unless it holds, so no output path
runs it again.
"""

import json

import pytest

from gamma_ideal import cli, ideal
from gamma_ideal.ideal import Certificate
from test_cli_bytes import IDENTITY, corpus, invoke
from test_output_cost import counter


@pytest.fixture(autouse=True)
def _no_seed_override(monkeypatch):
    monkeypatch.delenv("GAMMA_IDEAL_SEED", raising=False)


def expected_text(payload: dict) -> list:
    """The text lines ``member`` prints for ``payload``: the certificate
    block only with ``--certify``, the verification block only with
    ``--verify``."""
    lines = [
        f"verdict: {'member' if payload['member'] else 'non-member'}",
        f"normal_form: {payload['normal_form']}",
        f"basis: {payload['theorem_basis']}",
    ]
    if "certificate" in payload:
        certificate = payload["certificate"]
        lines += [
            "certificate:",
            *(
                f"  generator {generator}: cofactor {cofactor}"
                for generator, cofactor in zip(certificate["generators"], certificate["cofactors"])
            ),
            *([] if certificate["generators"] else ["  (no generators: the shift system admits no relation)"]),
            f"  normal_form: {certificate['normal_form']}",
            "  re-expands exactly: yes",
        ]
    if "verification" in payload:
        report = payload["verification"]
        lines += [
            "verification:",
            f"  samples: {len(report['samples'])}  seed: {report['seed']}  tol: {report['tol']:g}",
            f"  max relative residual: {report['max_relative_residual']:.3e}",
            f"  consistent: {'yes' if report['consistent'] else 'NO'}",
        ]
    return lines


def test_member_text_and_json_carry_the_same_fields():
    cases = [argv for argv in corpus() if argv[0] == "member" and "--json" in argv]
    decided = 0
    for argv in cases:
        code, out, err = invoke(argv)
        text_code, text_out, text_err = invoke([arg for arg in argv if arg != "--json"])
        assert (text_code, text_err) == (code, err), argv
        if code == 2:  # a usage or parse error prints no result
            assert text_out == out == "", argv
            continue
        decided += 1
        assert text_out.splitlines() == expected_text(json.loads(out)), argv
    assert decided > 50


@pytest.mark.parametrize("flags", [(), ("--json",)], ids=["text", "json"])
def test_member_certify_re_expands_once(monkeypatch, capsys, flags):
    calls = counter(monkeypatch, Certificate, "recombined")
    assert cli.main(["member", "--certify", *flags, "0,1,2", IDENTITY]) == 0
    capsys.readouterr()
    assert len(calls) == 1


def test_selftest_re_expands_once_per_decision(monkeypatch, capsys):
    decisions = counter(monkeypatch, ideal, "decide_membership")
    calls = counter(monkeypatch, Certificate, "recombined")
    assert cli.main(["selftest"]) == 0
    capsys.readouterr()
    assert len(calls) == len(decisions) > 0
