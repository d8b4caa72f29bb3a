import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gamma_ideal.cli as cli
import gamma_ideal.numeric as numeric
from gamma_ideal.cli import main

SRC = Path(__file__).resolve().parent.parent / "src"

IDENTITY = "G(0)*G(2)-G(1)^2-G(0)*G(1)"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- exit codes


def test_member_exits_zero(capsys):
    code, out, _ = run(capsys, "member", "0,1,2", IDENTITY)
    assert code == 0
    assert "verdict: member" in out


def test_non_member_exits_one(capsys):
    code, out, _ = run(capsys, "member", "0,1/2", "G(0)*G(1)-1")
    assert code == 1
    assert "verdict: non-member" in out


def test_parse_failure_exits_two(capsys):
    code, _, err = run(capsys, "member", "0,1,2", "G(7)+")
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["reduce", "0", "s^\u00b2"], "unexpected character '\u00b2' (at position 2)"),
        (["reduce", "0,1,2,3", "G(\u0663)"], "unexpected character '\u0663' (at position 2)"),
        (["member", "0,1", "G(\u0661)-s*G(0)"], "unexpected character '\u0661' (at position 2)"),
        (["gamma", "--eval", "\u0663"], "unexpected character '\u0663' (at position 0)"),
    ],
)
def test_non_ascii_digits_are_positioned_parse_errors(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


def test_bad_shift_list_exits_two(capsys):
    code, _, err = run(capsys, "classes", "0,0")
    assert code == 2
    assert "duplicate" in err


def test_unknown_command_exits_two(capsys):
    assert main(["frobnicate"]) == 2
    capsys.readouterr()


def test_missing_argument_exits_two(capsys):
    assert main(["member", "0,1"]) == 2
    capsys.readouterr()


# -- classes


def test_classes_human_report(capsys):
    code, out, _ = run(capsys, "classes", "0,1,2")
    assert code == 0
    assert "representative G(0)" in out
    assert "in_h: no" in out
    assert "-s*G(0)+G(1)" in out


def test_classes_singletons(capsys):
    code, out, _ = run(capsys, "classes", "0,1/2")
    assert code == 0
    assert "in_h: yes" in out
    assert "generators: none" in out


def test_classes_json(capsys):
    code, out, _ = run(capsys, "classes", "0,1,2", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["in_h"] is False
    assert payload["classes"] == [{"indices": [0, 1, 2], "representative": 0}]
    assert len(payload["generators"]) == 2


@pytest.mark.parametrize(
    "flags",
    [
        ["--samples", "0"],
        ["--samples", "-3"],
        ["--samples=-3"],
        ["--tol", "nan"],
        ["--tol", "inf"],
        ["--tol", "0"],
        ["--tol=-1e-8"],
    ],
)
def test_degenerate_verify_flags_exit_two(capsys, flags):
    code, out, err = run(capsys, "member", "0,1,2", IDENTITY, "--verify", *flags)
    assert code == 2
    assert out == ""
    assert flags[0].split("=")[0] in err


@pytest.mark.parametrize(
    "command, flag, value",
    [
        ("member", "--samples", "\u0663"),
        ("member", "--seed", "\u0667"),
        ("member", "--samples", "\uff13"),
        ("selftest", "--samples", "\u0663"),
        ("selftest", "--seed", "\u0667"),
    ],
)
def test_non_ascii_integer_flags_exit_two(capsys, command, flag, value):
    # int() reads Arabic-Indic and fullwidth digits as their values
    operands = ["0,1", "G(1)-s*G(0)", "--verify"] if command == "member" else []
    code, out, err = run(capsys, command, *operands, flag, value)
    assert code == 2
    assert out == ""
    assert f"argument {flag}: invalid int value: {value!r}" in err


def test_tol_is_reported_as_given(capsys):
    code, out, _ = run(capsys, "member", "0,1", "G(1)-s*G(0)", "--verify", "--json", "--tol", "1e-6")
    assert code == 0
    assert json.loads(out)["verification"]["tol"] == 1e-06
    assert '"tol": 1e-06' in out


def test_tol_that_is_no_float_exits_two(capsys):
    code, out, err = run(capsys, "member", "0,1", "G(1)-s*G(0)", "--verify", "--tol", "abc")
    assert (code, out) == (2, "")
    assert err.endswith("error: argument --tol: invalid float value: 'abc'\n")


def test_selftest_rejects_zero_samples(capsys):
    code, out, _ = run(capsys, "selftest", "--samples", "0")
    assert code == 2
    assert out == ""


# -- member output surfaces


def test_certificate_block(capsys):
    code, out, _ = run(capsys, "member", "0,1,2", IDENTITY, "--certify")
    assert code == 0
    assert "certificate:" in out
    assert "re-expands exactly: yes" in out
    assert out.count("generator ") == 2


def test_verification_block(capsys):
    code, out, _ = run(capsys, "member", "0,1,2", IDENTITY, "--verify", "--samples", "10")
    assert code == 0
    assert "consistent: yes" in out
    assert "samples: 10" in out


def test_disagreement_warns_but_keeps_the_verdict_code(capsys):
    # No residual passes a tolerance of 1e-300, so the oracle disagrees.
    code, out, err = run(capsys, "member", "0,1,2", IDENTITY, "--verify", "--tol", "1e-300")
    assert code == 0
    assert "  consistent: NO\n" in out
    assert err == "warning: numeric verification disagrees with the verdict\n"


def test_an_overflowed_residual_prints_nan_not_zero(capsys):
    # At gap 100, 19 of the 20 samples' scales overflow to NaN.
    chain = "*".join(["s"] + [f"(s+{k})" for k in range(1, 100)])
    text = f"(3*s+4*G(0)-4*G(1))*(G(1)-{chain}*G(0))"
    code, out, err = run(capsys, "member", "--verify", "--seed", "0", "--", "0,100", text)
    assert code == 0
    assert "  max relative residual: nan\n  consistent: NO\n" in out
    assert err == "warning: numeric verification disagrees with the verdict\n"


@pytest.mark.parametrize("flags", [(), ("--json",)])
def test_a_coefficient_past_the_float_range_is_a_numeric_failure(capsys, flags):
    # 7e320 has no double, so the oracle cannot build its float table.
    text = "7" + "0" * 320 + "*G(1)-s*G(0)"
    code, out, err = run(capsys, "member", "0,1", text, "--verify", *flags)
    assert (code, out) == (1, "")
    assert err == "error: a coefficient of the polynomial is out of floating-point range\n"


@pytest.mark.parametrize(
    "shifts, flags",
    [
        ("0,1+1000i", ()),
        ("0,1+1000i", ("--json",)),
        ("0,3+1000i", ()),
        ("0,3+1000i", ("--json",)),
        # Near 1e308i the phase of the Lanczos power is infinite.
        ("0,5+10^308*i", ()),
        ("0,5+10^308*i", ("--json",)),
        # Between them the Lanczos power is NaN.
        ("0,5+10^100*i", ()),
        ("0,5+10^100*i", ("--json",)),
        ("0,5+10^200*i", ()),
        ("0,5+10^200*i", ("--json",)),
    ],
    ids=[
        "human",
        "json",
        "underflow-human",
        "underflow-json",
        "lanczos-phase-human",
        "lanczos-phase-json",
        "nan-1e100-human",
        "nan-1e100-json",
        "nan-1e200-human",
        "nan-1e200-json",
    ],
)
def test_a_far_imaginary_shift_is_a_numeric_failure(capsys, shifts, flags):
    # 1000 units up the imaginary axis, samples left of 1/2 take the
    # reflection formula, whose sine overflows; right of it Gamma underflows
    # to 0.0, which is no Gamma value, since Gamma has no zeros.
    code, out, err = run(capsys, "member", shifts, "G(1)", "--verify", *flags)
    assert (code, out) == (1, "")
    assert err == "error: a Gamma value at a sample point is out of floating-point range\n"


@pytest.mark.parametrize("flags", [(), ("--json",)], ids=["human", "json"])
@pytest.mark.parametrize("shifts", ["10^400", "0,1+10^400*i"], ids=["real", "imaginary"])
def test_a_shift_past_the_float_range_is_a_numeric_failure(capsys, shifts, flags):
    # A shift of 10^400 or 10^400*i has no double to sample Gamma at.
    code, out, err = run(capsys, "member", shifts, "G(0)", "--verify", *flags)
    assert (code, out) == (1, "")
    assert err == "error: a shift is out of floating-point range\n"


def test_certificate_without_generators(capsys):
    code, out, _ = run(capsys, "member", "0,1/2", "G(0)*G(1)-1", "--certify")
    assert code == 1
    assert "certificate:\n  (no generators: the shift system admits no relation)\n" in out


def test_member_json_payload(capsys):
    code, out, _ = run(
        capsys, "member", "0,1,2", IDENTITY, "--json", "--certify", "--verify"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["member"] is True
    assert payload["normal_form"] == "0"
    assert payload["certificate"]["cofactors"]
    assert payload["verification"]["consistent"] is True


def test_json_is_stable_under_reserialization(capsys):
    _, out, _ = run(capsys, "member", "0,1,2", IDENTITY, "--json", "--verify")
    payload = json.loads(out)
    assert json.dumps(payload, sort_keys=True, indent=2) == out.strip()


def test_json_is_reproducible(capsys):
    _, first, _ = run(capsys, "member", "0,1,2", IDENTITY, "--json", "--verify")
    _, second, _ = run(capsys, "member", "0,1,2", IDENTITY, "--json", "--verify")
    assert first == second


def test_verdict_survives_shift_permutation(capsys):
    code_a, _, _ = run(capsys, "member", "0,1,2", IDENTITY)
    # same identity spelled against the permuted shift list (2,0,1)
    renamed = "G(1)*G(0)-G(2)^2-G(1)*G(2)"
    code_b, _, _ = run(capsys, "member", "2,0,1", renamed)
    assert code_a == code_b == 0


# -- reduce


def test_reduce_prints_the_normal_form(capsys):
    code, out, _ = run(capsys, "reduce", "0,1,2", "G(0)*G(2)-G(1)^2")
    assert code == 0
    assert out.strip() == "s*G(0)^2"


def test_reduce_json(capsys):
    code, out, _ = run(capsys, "reduce", "0,1,2", "G(0)*G(2)-G(1)^2", "--json")
    assert code == 0
    assert json.loads(out)["normal_form"] == "s*G(0)^2"


def test_integers_past_the_string_limit(capsys):
    # 4400 digits: Python's str(int) and int(str) stop at 4300 by default
    digits = "7" + "0" * 4398 + "3"
    assert run(capsys, "reduce", "0", f"{digits}*G(0)") == (0, f"{digits}*G(0)\n", "")
    code, out, _ = run(capsys, "reduce", "0", f"G(0)-{digits}/3*s*G(0)", "--json")
    assert code == 0
    assert json.loads(out)["normal_form"] == f"-({digits}/3*s-1)*G(0)"


@pytest.mark.parametrize("text", ["s^{}", "G(0)^{}", "G(0)+G({})"])
def test_exponents_and_indices_past_the_string_limit(capsys, text):
    # only literals are read past the limit; a 4400-digit exponent or index
    # stays a usage error, as the interpreter's int() reports it
    digits = "7" + "0" * 4398 + "3"
    code, out, err = run(capsys, "reduce", "0,1", text.format(digits))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "4300" in err


@pytest.mark.parametrize(
    "text, position",
    [
        ("s^100000000000000000000", 1),  # past an index-sized int
        ("s^4611686018427387904", 1),  # 2^62: a dense list that long
        ("G(0)*s^1000001", 6),
        ("(s+1)^1000001", 5),
        ("(s^2*G(0))^500001", 10),
        ("((s^1000)^1000)^2", 15),
    ],
)
def test_huge_powers_of_s_are_positioned_parse_errors(capsys, text, position):
    code, out, err = run(capsys, "reduce", "0", text)
    assert (code, out) == (2, "")
    assert err == f"error: power exceeds degree 1000000 in s (at position {position})\n"


@pytest.mark.parametrize(
    "text, printed",
    [("(s^1000)^1000", "s^1000000"), ("G(0)^100000000000000000000", "G(0)^100000000000000000000")],
)
def test_powers_up_to_the_degree_limit_lower(capsys, text, printed):
    # the limit is on the degree in s; exponents of G(k) are not expanded
    assert run(capsys, "reduce", "0", text) == (0, printed + "\n", "")


# -- gamma


def test_gamma_eval_integer(capsys):
    code, out, _ = run(capsys, "gamma", "--eval", "5")
    assert code == 0
    assert out.strip() == "gamma(5) = 24"


def test_gamma_eval_near_pole_fails(capsys):
    code, _, err = run(capsys, "gamma", "--eval", "-2")
    assert code == 1
    assert "pole" in err


@pytest.mark.parametrize(
    "point, printed, pole",
    [
        ("-2", "-2", "-2"),
        ("-9007199254740991", "-9007199254740991", "-9007199254740991"),
        ("-9007199254740992", "-9007199254740992", "-9007199254740992"),
        ("-1e300", "-1e+300", "-1e+300"),
    ],
)
def test_gamma_eval_poles_past_2_to_the_53_print_as_doubles(capsys, point, printed, pole):
    code, out, err = run(capsys, "gamma", f"--eval={point}")
    assert (code, out) == (1, "")
    assert err == f"error: point ({printed}+0j) is within 0 of the Gamma pole at {pole}\n"


def test_gamma_eval_json(capsys):
    code, out, _ = run(capsys, "gamma", "--eval", "1/2", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["value"][0] == pytest.approx(1.7724538509055160, rel=1e-12)


@pytest.mark.parametrize(
    "point, position",
    [("1e400", 0), ("1e400i", 0), ("1" * 4400, 0), ("nan", 0), ("10^400", 0), (" 2^2000*i", 1)],
    ids=["1e400", "1e400i", "4400-digit", "nan", "10^400", "2^2000i"],
)
def test_gamma_eval_non_finite_point_is_a_parse_error(capsys, point, position):
    code, out, err = run(capsys, "gamma", "--eval", point)
    assert (code, out) == (2, "")
    assert err == f"error: not a finite complex double (at position {position})\n"


@pytest.mark.parametrize(
    "point, text",
    [("172", "172"), ("1e300", "1e+300"), ("1e300i", "0+1e+300i"), ("1e300+1e300i", "1e+300+1e+300i")],
)
@pytest.mark.parametrize("flags", [(), ("--json",)], ids=["human", "json"])
def test_gamma_eval_out_of_range_is_a_numeric_failure(capsys, point, text, flags):
    code, out, err = run(capsys, "gamma", "--eval", point, *flags)
    assert (code, out) == (1, "")
    assert err == f"error: gamma({text}) is out of floating-point range\n"


@pytest.mark.parametrize(
    "point, text",
    [("1+1e308i", "1+1e+308i"), ("0.5-1e308i", "0.5-1e+308i"), ("3+1000i", "3+1000i")],
)
@pytest.mark.parametrize("flags", [(), ("--json",)], ids=["human", "json"])
def test_gamma_eval_far_up_the_imaginary_axis_is_a_numeric_failure(capsys, point, text, flags):
    """Near 1e308i the phase of the Lanczos power is infinite, which CPython
    reports as a domain error.  Gamma(3+1000i) is about 5e-675, below the
    smallest double, and 0.0 is no Gamma value.  Both end as the
    out-of-range line too."""
    code, out, err = run(capsys, "gamma", "--eval", point, *flags)
    assert (code, out) == (1, "")
    assert err == f"error: gamma({text}) is out of floating-point range\n"


def test_gamma_eval_blank_point_is_a_parse_error(capsys):
    code, out, err = run(capsys, "gamma", "--eval", " ")
    assert (code, out) == (2, "")
    assert err == "error: empty complex literal (at position 0)\n"


# -- selftest


def test_selftest_passes(capsys):
    code, out, _ = run(capsys, "selftest")
    assert code == 0
    assert "checks passed" in out


def test_selftest_json(capsys):
    code, out, _ = run(capsys, "selftest", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    assert any(check["name"] == "recurrence" for check in payload["checks"])


def test_selftest_detects_a_broken_oracle(capsys, monkeypatch):
    broken = list(numeric.LANCZOS_COEFFICIENTS)
    broken[2] *= 1.0 + 1e-5
    monkeypatch.setattr(numeric, "LANCZOS_COEFFICIENTS", tuple(broken))
    code, out, err = run(capsys, "selftest")
    assert code == 1
    assert "FAILED" in out
    assert "selftest failure" in err


def test_selftest_without_clear_points_is_a_numeric_failure(capsys, monkeypatch):
    # Every point drawn is the pole at -1.
    monkeypatch.setattr(numeric, "SAMPLE_RE_RANGE", (-1.0, -1.0))
    monkeypatch.setattr(numeric, "SAMPLE_IM_RANGE", (0.0, 0.0))
    code, out, err = run(capsys, "selftest")
    assert (code, out) == (1, "")
    assert err == "error: drew only 0 of 100 selftest points\n"


# -- configuration plumbing


def test_seed_env_override(capsys, monkeypatch):
    monkeypatch.setenv("GAMMA_IDEAL_SEED", "17")
    _, out, _ = run(capsys, "member", "0,1,2", IDENTITY, "--json", "--verify")
    assert json.loads(out)["verification"]["seed"] == 17


def test_explicit_seed_beats_the_env(capsys, monkeypatch):
    monkeypatch.setenv("GAMMA_IDEAL_SEED", "17")
    _, out, _ = run(capsys, "member", "0,1,2", IDENTITY, "--json", "--verify", "--seed", "3")
    assert json.loads(out)["verification"]["seed"] == 3


def test_invalid_seed_env_is_a_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("GAMMA_IDEAL_SEED", "not-a-number")
    code, _, _ = run(capsys, "member", "0,1,2", IDENTITY, "--verify")
    assert code == 2


@pytest.mark.parametrize("text, verdict_code", [(IDENTITY, 0), ("G(0)*G(2)-G(1)^2", 1)])
def test_member_without_verify_ignores_the_seed_env(capsys, monkeypatch, text, verdict_code):
    monkeypatch.delenv("GAMMA_IDEAL_SEED", raising=False)
    expected = run(capsys, "member", "0,1,2", text)
    monkeypatch.setenv("GAMMA_IDEAL_SEED", "not-a-number")
    assert run(capsys, "member", "0,1,2", text) == expected
    assert expected[0] == verdict_code


def test_non_ascii_seed_env_is_a_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("GAMMA_IDEAL_SEED", "\u0667")
    code, out, err = run(capsys, "member", "0,1", "G(1)-s*G(0)", "--verify")
    assert code == 2
    assert out == ""
    assert err == "error: GAMMA_IDEAL_SEED must be an integer, got '\u0667' (at position 0)\n"


@pytest.mark.parametrize(
    "shifts, message",
    [
        ("0,\u0663", "unexpected character '\u0663' (at position 2)"),
        ("0, 1/", "expected a value, found 'end of input' (at position 5)"),
        ("0,1,,2", "empty shift entry (at position 4)"),
    ],
)
def test_shift_list_errors_count_from_the_list_start(capsys, shifts, message):
    code, out, err = run(capsys, "member", shifts, "G(1)")
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


def test_member_verify_defaults(capsys, monkeypatch):
    monkeypatch.delenv("GAMMA_IDEAL_SEED", raising=False)
    _, out, _ = run(capsys, "member", "--verify", "--json", "0,1", "G(0)")
    report = json.loads(out)["verification"]
    assert (len(report["samples"]), report["seed"], report["tol"]) == (20, 0, 1e-8)


@pytest.mark.parametrize(
    "argv", [("classes", "0,1"), ("reduce", "0,1", "G(1)"), ("gamma", "--eval", "2")]
)
def test_commands_that_never_sample_ignore_the_seed_env(capsys, monkeypatch, argv):
    monkeypatch.delenv("GAMMA_IDEAL_SEED", raising=False)
    expected = run(capsys, *argv)
    monkeypatch.setenv("GAMMA_IDEAL_SEED", "abc")
    assert run(capsys, *argv) == expected
    assert expected[0] == 0


def test_selftest_samples_what_it_is_asked(capsys):
    code, out, _ = run(capsys, "selftest", "--json", "--samples", "20")
    checks = {check["name"]: check for check in json.loads(out)["checks"]}
    assert code == 0
    assert checks["recurrence"]["detail"].endswith(", 20 samples)")


def test_cli_defaults_match_the_library_defaults():
    """The CLI copies these defaults so that parsing arguments need not
    import ``numeric``; each copy must equal the default it copies."""
    verify = inspect.signature(numeric.verify_verdict).parameters
    selftest = inspect.signature(numeric.selftest_functional_equations).parameters
    assert cli.DEFAULT_SAMPLES == verify["n_samples"].default
    assert cli.DEFAULT_SEED == verify["seed"].default == selftest["seed"].default
    assert cli.DEFAULT_TOL == verify["tol"].default
    assert cli.SELFTEST_SAMPLES == selftest["n_samples"].default


# -- entry points


@pytest.mark.parametrize(
    "text, code, first_line",
    [("G(1)-s*G(0)", 0, "verdict: member"), ("G(1)-G(0)", 1, "verdict: non-member")],
    ids=["member", "non-member"],
)
def test_python_dash_m_runs_the_cli(text, code, first_line):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("GAMMA_IDEAL_SEED", None)
    done = subprocess.run(
        [sys.executable, "-m", "gamma_ideal", "member", "0,1", text],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert (done.returncode, done.stderr) == (code, "")
    assert done.stdout.splitlines()[0] == first_line


@pytest.mark.parametrize(
    "argv",
    [["member", "0,1", "G(1)-s*G(0)"], ["member", "0,1", "G(1)-G(0)"]],
    ids=["member", "non-member"],
)
def test_console_main_exits_with_the_code_of_main(capsys, monkeypatch, argv):
    expected = run(capsys, *argv)
    monkeypatch.setattr(sys, "argv", ["gamma-ideal", *argv])
    with pytest.raises(SystemExit) as raised:
        cli.console_main()
    captured = capsys.readouterr()
    assert (raised.value.code, captured.out, captured.err) == expected
