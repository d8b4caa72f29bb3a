import json

import pytest

import gamma_ideal.numeric as numeric
from gamma_ideal.cli import CliConfig, config_from_args, main

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


# -- gamma


def test_gamma_eval_integer(capsys):
    code, out, _ = run(capsys, "gamma", "--eval", "5")
    assert code == 0
    assert out.strip() == "gamma(5) = 24"


def test_gamma_eval_near_pole_fails(capsys):
    code, _, err = run(capsys, "gamma", "--eval", "-2")
    assert code == 1
    assert "pole" in err


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
    code, _, _ = run(capsys, "member", "0,1,2", IDENTITY)
    assert code == 2


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


def test_config_defaults():
    config = config_from_args(["member", "0,1", "G(0)"])
    assert config == CliConfig(
        command="member", shifts="0,1", polynomial="G(0)", samples=20,
        seed=0, tol=1e-8, output="human", certify=False, verify=False,
    )
