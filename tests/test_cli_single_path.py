"""Each command builds one payload and renders it either as JSON or as text.

The text lines of a run are rendered from the JSON payload of the same run
alone: the reference renderers below map each command's payload to the
lines its run without ``--json`` prints, for every ``--json`` invocation of
the pinned corpus and ``selftest --json``.  The certificate's re-expansion,
``Certificate.recombined``, runs once per decision: ``decide_membership``
raises unless it holds, so no output path runs it again.
"""

import functools
import json

import pytest

from gamma_ideal import cli, ideal
from gamma_ideal.ideal import Certificate, Verdict
from test_cli_bytes import IDENTITY, corpus, invoke
from test_output_cost import counter


@pytest.fixture(autouse=True)
def _no_seed_override(monkeypatch):
    monkeypatch.delenv("GAMMA_IDEAL_SEED", raising=False)


def classes_text(payload: dict) -> list:
    shifts = payload["shifts"]
    lines = [f"shifts: {', '.join(shifts)}", "classes:"]
    for cls in payload["classes"]:
        members = ", ".join(f"G({k}) at {shifts[k]}" for k in cls["indices"])
        lines.append(f"  representative G({cls['representative']}): {members}")
    lines.append(f"in_h: {'yes' if payload['in_h'] else 'no'}")
    if not payload["generators"]:
        return lines + ["generators: none (every class is a singleton)"]
    return lines + ["generators:"] + [f"  {generator}" for generator in payload["generators"]]


def member_text(payload: dict) -> list:
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


def reduce_text(payload: dict) -> list:
    return [payload["normal_form"]]


def complex_text(parts: list) -> str:
    re, im = parts
    if im == 0:
        return f"{re:.15g}"
    return f"{re:.15g}{'+' if im >= 0 else '-'}{abs(im):.15g}i"


def gamma_text(payload: dict) -> list:
    return [f"gamma({complex_text(payload['point'])}) = {complex_text(payload['value'])}"]


def selftest_text(payload: dict) -> list:
    checks = payload["checks"]
    lines = [
        f"check {check['name']}: {'ok' if check['passed'] else 'FAIL'} ({check['detail']})"
        for check in checks
    ]
    failed = sum(not check["passed"] for check in checks)
    if failed:
        return lines + [f"FAILED {failed} of {len(checks)} checks"]
    return lines + [f"all {len(checks)} checks passed"]


RENDERERS = {
    "classes": classes_text,
    "member": member_text,
    "reduce": reduce_text,
    "gamma": gamma_text,
    "selftest": selftest_text,
}


@functools.lru_cache(maxsize=None)
def json_argvs() -> tuple:
    return tuple(argv for argv in corpus() if "--json" in argv) + (["selftest", "--json"],)


def rendered_runs(command: str) -> int:
    """Check every ``--json`` run of ``command`` against its run without
    ``--json``: the same exit code and stderr, and as text the lines
    rendered from the JSON payload.  Returns the number of runs that
    printed a result."""
    printed = 0
    for argv in json_argvs():
        if argv[0] != command:
            continue
        code, out, err = invoke(argv)
        text_code, text_out, text_err = invoke([arg for arg in argv if arg != "--json"])
        assert (text_code, text_err) == (code, err), argv
        if not out:  # a usage, parse or numeric error prints no result
            assert text_out == "", argv
            continue
        assert code != 2, argv
        printed += 1
        payload = json.loads(out)
        assert payload["command"] == command
        assert text_out.splitlines() == RENDERERS[command](payload), argv
    return printed


def test_member_text_and_json_carry_the_same_fields():
    assert rendered_runs("member") > 50


@pytest.mark.parametrize("command", ["classes", "reduce", "gamma", "selftest"])
def test_text_is_rendered_from_the_json_payload(command):
    assert rendered_runs(command) > 0


@pytest.mark.parametrize("flags", [(), ("--json",)], ids=["text", "json"])
def test_member_certify_re_expands_once(monkeypatch, capsys, flags):
    calls = counter(monkeypatch, Certificate, "recombined")
    assert cli.main(["member", "--certify", *flags, "0,1,2", IDENTITY]) == 0
    capsys.readouterr()
    assert len(calls) == 1


@pytest.mark.parametrize("flags", [(), ("--json",)], ids=["text", "json"])
def test_member_certify_prints_the_verdict_payload(monkeypatch, capsys, flags):
    calls = counter(monkeypatch, Verdict, "as_payload")
    assert cli.main(["member", "--certify", *flags, "0,1,2", IDENTITY]) == 0
    capsys.readouterr()
    assert len(calls) == 1


def test_selftest_re_expands_once_per_decision(monkeypatch, capsys):
    decisions = counter(monkeypatch, ideal, "decide_membership")
    calls = counter(monkeypatch, Certificate, "recombined")
    assert cli.main(["selftest"]) == 0
    capsys.readouterr()
    assert len(calls) == len(decisions) > 0
