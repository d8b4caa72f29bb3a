"""Command-line front end.

Commands:

* ``classes SHIFTS``            -- integer-difference class report
* ``member SHIFTS POLY``        -- membership verdict (exit 0 member, 1 not)
* ``reduce SHIFTS POLY``        -- print the normal form
* ``gamma --eval POINT``        -- evaluate Gamma at a complex point
* ``selftest``                  -- worked examples plus numeric self-checks

Every command accepts ``--json`` for machine-readable output (sorted keys,
stable across runs with the same seed).  Exit codes: 0 success/member,
1 failure/non-member, 2 usage error.  The environment variable
``GAMMA_IDEAL_SEED`` overrides the default sampling seed.
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import os
import sys
from dataclasses import dataclass
from typing import List, Optional, Sequence

from .ideal import Verdict, decide_membership, normal_form
from .numeric import (
    PoleError,
    SamplingError,
    gamma_eval,
    selftest_functional_equations,
    verify_verdict,
)
from .parser import ParseError, parse_complex, parse_gamma_poly, parse_shifts
from .poly import GammaPoly, gamma_poly_text
from .shifts import ShiftSystem, build_shift_system

DEFAULT_SAMPLES = 20
DEFAULT_SEED = 0
DEFAULT_TOL = 1e-8
SEED_ENV_VAR = "GAMMA_IDEAL_SEED"


@dataclass(frozen=True)
class CliConfig:
    """Everything a command needs, resolved from argv and the environment."""

    command: str
    shifts: str = ""
    polynomial: str = ""
    samples: int = DEFAULT_SAMPLES
    seed: int = DEFAULT_SEED
    tol: float = DEFAULT_TOL
    output: str = "human"  # "human" | "json"
    certify: bool = False
    verify: bool = False
    eval_point: str = ""

    @property
    def json_output(self) -> bool:
        return self.output == "json"


def _emit_json(payload: dict) -> None:
    print(json.dumps(payload, sort_keys=True, indent=2))


def _complex_text(z: complex) -> str:
    if z.imag == 0:
        return f"{z.real:.15g}"
    sign = "+" if z.imag >= 0 else "-"
    return f"{z.real:.15g}{sign}{abs(z.imag):.15g}i"


def _parse_system(text: str) -> ShiftSystem:
    return build_shift_system(parse_shifts(text))


def cmd_classes(config: CliConfig) -> int:
    sys_ = _parse_system(config.shifts)
    generators = sys_.generators()
    if config.json_output:
        _emit_json(
            {
                "command": "classes",
                "shifts": [str(a) for a in sys_.shifts],
                "classes": [
                    {"indices": list(cls), "representative": rep}
                    for cls, rep in zip(sys_.classes, sys_.representatives)
                ],
                "in_h": sys_.in_h,
                "generators": [gamma_poly_text(r.as_poly) for r in generators],
            }
        )
        return 0
    print(f"shifts: {sys_.shifts_text()}")
    print("classes:")
    for cls, rep in zip(sys_.classes, sys_.representatives):
        members = ", ".join(f"G({k}) at {sys_.shifts[k]}" for k in cls)
        print(f"  representative G({rep}): {members}")
    print(f"in_h: {'yes' if sys_.in_h else 'no'}")
    if generators:
        print("generators:")
        for relation in generators:
            print(f"  {relation.as_poly}")
    else:
        print("generators: none (every class is a singleton)")
    return 0


def _member_payload(
    config: CliConfig, sys_: ShiftSystem, poly: GammaPoly, verdict: Verdict
) -> dict:
    # The certificate renders the input and the normal form; reuse its text.
    if config.certify:
        certificate = verdict.certificate.as_payload()
        poly_text, normal_text = certificate["input"], certificate["normal_form"]
    else:
        poly_text, normal_text = gamma_poly_text(poly), gamma_poly_text(verdict.normal_form)
    payload = {
        "command": "member",
        "shifts": [str(a) for a in sys_.shifts],
        "polynomial": poly_text,
        "member": verdict.is_member,
        "normal_form": normal_text,
        "theorem_basis": verdict.theorem_basis,
    }
    if config.certify:
        payload["certificate"] = certificate
    if config.verify:
        report = verify_verdict(
            verdict, sys_, n_samples=config.samples, seed=config.seed, tol=config.tol
        )
        payload["verification"] = report.as_payload()
    return payload


def cmd_member(config: CliConfig) -> int:
    sys_ = _parse_system(config.shifts)
    poly = parse_gamma_poly(config.polynomial, sys_.arity)
    verdict = decide_membership(poly, sys_)
    exit_code = 0 if verdict.is_member else 1

    if config.json_output:
        payload = _member_payload(config, sys_, poly, verdict)
        verification = payload.get("verification")
        if verification is not None and not verification["consistent"]:
            print("warning: numeric verification disagrees with the verdict", file=sys.stderr)
        _emit_json(payload)
        return exit_code

    normal_text = gamma_poly_text(verdict.normal_form)
    print(f"verdict: {'member' if verdict.is_member else 'non-member'}")
    print(f"normal_form: {normal_text}")
    print(f"basis: {verdict.theorem_basis}")
    if config.certify:
        cert = verdict.certificate
        print("certificate:")
        if not cert.generators:
            print("  (no generators: the shift system admits no relation)")
        for relation, cofactor in zip(cert.generators, cert.cofactors):
            print(f"  generator {relation.as_poly}: cofactor {cofactor}")
        print(f"  normal_form: {normal_text}")
        print(f"  re-expands exactly: {'yes' if cert.is_exact() else 'NO'}")
    if config.verify:
        report = verify_verdict(
            verdict, sys_, n_samples=config.samples, seed=config.seed, tol=config.tol
        )
        print("verification:")
        print(
            f"  samples: {len(report.samples)}  seed: {report.seed}  tol: {report.tol:g}"
        )
        print(f"  max relative residual: {report.max_relative_residual:.3e}")
        print(f"  consistent: {'yes' if report.verdict_consistent else 'NO'}")
        if not report.verdict_consistent:
            print("warning: numeric verification disagrees with the verdict", file=sys.stderr)
    return exit_code


def cmd_reduce(config: CliConfig) -> int:
    sys_ = _parse_system(config.shifts)
    poly = parse_gamma_poly(config.polynomial, sys_.arity)
    reduced = normal_form(poly, sys_)
    if config.json_output:
        _emit_json(
            {
                "command": "reduce",
                "shifts": [str(a) for a in sys_.shifts],
                "polynomial": gamma_poly_text(poly),
                "normal_form": gamma_poly_text(reduced),
            }
        )
    else:
        print(gamma_poly_text(reduced))
    return 0


def cmd_gamma(config: CliConfig) -> int:
    point = parse_complex(config.eval_point)
    try:
        value = gamma_eval(point)
        finite = cmath.isfinite(value)
    except OverflowError:
        finite = False
    if not finite:
        print(f"error: gamma({_complex_text(point)}) is out of floating-point range", file=sys.stderr)
        return 1
    if config.json_output:
        _emit_json(
            {
                "command": "gamma",
                "point": [point.real, point.imag],
                "value": [value.real, value.imag],
            }
        )
    else:
        print(f"gamma({_complex_text(point)}) = {_complex_text(value)}")
    return 0


def _symbolic_selftest_checks() -> List[dict]:
    """The worked identities, decided from scratch on every run."""
    checks: List[dict] = []

    def record(name: str, passed: bool, detail: str) -> None:
        checks.append({"name": name, "passed": passed, "detail": detail})

    sys_ = build_shift_system(parse_shifts("0,1,2"))
    p = parse_gamma_poly("G(0)*G(2)-G(1)^2-G(0)*G(1)", 3)
    verdict = decide_membership(p, sys_)
    record(
        "worked_identity_member",
        verdict.is_member and verdict.certificate.is_exact(),
        "G(0)*G(2)-G(1)^2-G(0)*G(1) at shifts 0,1,2",
    )

    pairwise = parse_gamma_poly("G(0)*(G(2)-(s+1)*G(1))+G(1)*(s*G(0)-G(1))", 3)
    record(
        "pairwise_decomposition_re_expands",
        pairwise == p,
        "cofactors against the pairwise relations rebuild the identity",
    )

    q = parse_gamma_poly("G(0)*G(2)-G(1)^2", 3)
    reduced = normal_form(q, sys_)
    record(
        "worked_non_member_normal_form",
        (not decide_membership(q, sys_).is_member)
        and gamma_poly_text(reduced) == "s*G(0)^2",
        "G(0)*G(2)-G(1)^2 reduces to s*G(0)^2",
    )

    gap_sys = build_shift_system(parse_shifts("0,3"))
    generator = gap_sys.generators()[0].as_poly
    record(
        "iterated_recurrence_generator",
        decide_membership(generator, gap_sys).is_member,
        f"{generator} at shifts 0,3",
    )
    return checks


def cmd_selftest(config: CliConfig) -> int:
    checks = _symbolic_selftest_checks()
    numeric_report = selftest_functional_equations(
        n_samples=config.samples if config.samples != DEFAULT_SAMPLES else 100,
        seed=config.seed,
    )
    for check in numeric_report.checks:
        checks.append(
            {
                "name": check.name,
                "passed": check.passed,
                "detail": (
                    f"max relative error {check.max_relative_error:.3e} "
                    f"(threshold {check.threshold:g}, {check.samples} samples)"
                ),
            }
        )
    ok = all(check["passed"] for check in checks)

    if config.json_output:
        _emit_json({"command": "selftest", "checks": checks, "ok": ok})
    else:
        for check in checks:
            status = "ok" if check["passed"] else "FAIL"
            print(f"check {check['name']}: {status} ({check['detail']})")
        if ok:
            print(f"all {len(checks)} checks passed")
        else:
            failed = sum(1 for check in checks if not check["passed"])
            print(f"FAILED {failed} of {len(checks)} checks")
    if not ok:
        for check in checks:
            if not check["passed"]:
                print(f"selftest failure: {check['name']}", file=sys.stderr)
    return 0 if ok else 1


def _ascii_int(text: str) -> int:
    """``int(text)`` for ASCII text only: ``int`` alone also reads other
    scripts' digits, which expressions reject."""
    if not text.isascii():
        raise ValueError(f"non-ASCII integer: {text!r}")
    return int(text)


def _int_option(text: str) -> int:
    """An int option value (``--seed``, ``--samples``) in ASCII digits."""
    try:
        return _ascii_int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")


def _sample_count(text: str) -> int:
    """``--samples``: an int of at least 1; no samples would check nothing."""
    value = _int_option(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _tolerance(text: str) -> float:
    """``--tol``: a finite float above zero, so that a residual can pass it."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}")
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"must be finite and positive, got {text!r}")
    return value


def _build_argparser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gamma-ideal",
        description=(
            "Decide whether a polynomial in s and Gamma values at shifted "
            "arguments is an identity, with certificates and numeric checks."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, sampled: bool) -> None:
        p.add_argument("--json", action="store_true", help="machine-readable output")
        if sampled:
            p.add_argument("--samples", type=_sample_count, default=DEFAULT_SAMPLES)
            p.add_argument("--seed", type=_int_option, default=None)
            p.add_argument("--tol", type=_tolerance, default=DEFAULT_TOL)

    p_classes = sub.add_parser("classes", help="integer-difference class report")
    p_classes.add_argument("shifts", help="comma-separated shift list, e.g. '0,1/2,i'")
    add_common(p_classes, sampled=False)

    p_member = sub.add_parser("member", help="decide ideal membership")
    p_member.add_argument("shifts")
    p_member.add_argument("polynomial", help="e.g. 'G(0)*G(2)-G(1)^2-G(0)*G(1)'")
    p_member.add_argument("--certify", action="store_true", help="emit the cofactor certificate")
    p_member.add_argument("--verify", action="store_true", help="numeric cross-check at sample points")
    add_common(p_member, sampled=True)

    p_reduce = sub.add_parser("reduce", help="print the normal form")
    p_reduce.add_argument("shifts")
    p_reduce.add_argument("polynomial")
    add_common(p_reduce, sampled=False)

    p_gamma = sub.add_parser("gamma", help="evaluate Gamma at a point")
    p_gamma.add_argument("--eval", required=True, metavar="POINT", dest="eval_point")
    add_common(p_gamma, sampled=False)

    p_selftest = sub.add_parser("selftest", help="worked examples + numeric checks")
    p_selftest.add_argument("--samples", type=_sample_count, default=DEFAULT_SAMPLES)
    p_selftest.add_argument("--seed", type=_int_option, default=None)
    p_selftest.add_argument("--json", action="store_true")
    return parser


def _resolve_seed(explicit: Optional[int]) -> int:
    if explicit is not None:
        return explicit
    raw = os.environ.get(SEED_ENV_VAR)
    if raw is None:
        return DEFAULT_SEED
    try:
        return _ascii_int(raw)
    except ValueError:
        raise ParseError(f"{SEED_ENV_VAR} must be an integer, got {raw!r}", 0)


def config_from_args(argv: Sequence[str]) -> CliConfig:
    args = _build_argparser().parse_args(argv)
    return CliConfig(
        command=args.command,
        shifts=getattr(args, "shifts", ""),
        polynomial=getattr(args, "polynomial", ""),
        samples=getattr(args, "samples", DEFAULT_SAMPLES),
        seed=_resolve_seed(getattr(args, "seed", None)),
        tol=getattr(args, "tol", DEFAULT_TOL),
        output="json" if getattr(args, "json", False) else "human",
        certify=getattr(args, "certify", False),
        verify=getattr(args, "verify", False),
        eval_point=getattr(args, "eval_point", ""),
    )


_COMMANDS = {
    "classes": cmd_classes,
    "member": cmd_member,
    "reduce": cmd_reduce,
    "gamma": cmd_gamma,
    "selftest": cmd_selftest,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        config = config_from_args(list(argv))
    except SystemExit as exc:
        # argparse already printed a usage message
        return int(exc.code or 0)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        return _COMMANDS[config.command](config)
    except (PoleError, SamplingError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ParseError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
