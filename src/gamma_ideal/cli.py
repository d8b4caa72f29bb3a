"""Command-line front end.

Commands:

* ``classes SHIFTS``            -- integer-difference class report
* ``member SHIFTS POLY``        -- membership verdict (exit 0 member, 1 not)
* ``reduce SHIFTS POLY``        -- print the normal form
* ``gamma --eval POINT``        -- evaluate Gamma at a complex point
* ``selftest``                  -- worked examples plus numeric self-checks

Every command accepts ``--json`` for machine-readable output (sorted keys,
stable across runs with the same seed).  Exit codes: 0 success/member,
1 failure/non-member, 2 usage error.  An operand that starts with ``-``
needs ``--`` before it, as in ``member -- 0,1 "-s*G(0)+G(1)"``.  The
environment variable ``GAMMA_IDEAL_SEED`` overrides the default sampling
seed of the runs that sample, ``member --verify`` and ``selftest``; the
other runs do not read it.

Each subparser names its command in ``run``, and the command reads its
options from the argparse namespace.  A command computes its result once,
into the payload that ``--json`` prints, and hands it to ``_emit``; the text
form is rendered from that payload alone.

A process imports only what its command runs: the decision procedure
(``ideal``) for ``member``, ``reduce`` and ``selftest``, the numeric oracle
(``numeric``) for ``--verify``, ``gamma`` and ``selftest``, and ``json`` for
``--json``.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, List, Optional, Sequence

from .parser import ParseError, parse_complex, parse_gamma_poly, parse_shifts
from .poly import gamma_poly_text, input_and_normal_text
from .shifts import build_shift_system

if TYPE_CHECKING:
    from .shifts import ShiftSystem

DEFAULT_SAMPLES = 20
SELFTEST_SAMPLES = 100
DEFAULT_SEED = 0
DEFAULT_TOL = 1e-8
SEED_ENV_VAR = "GAMMA_IDEAL_SEED"


def _emit(args: argparse.Namespace, payload: dict, text: Callable[[dict], Iterable[str]]) -> None:
    """Print ``payload`` as JSON under ``--json``, else the lines that
    ``text`` renders from the payload alone."""
    if args.json:
        import json

        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        for line in text(payload):
            print(line)


def _complex_text(z: complex) -> str:
    if z.imag == 0:
        return f"{z.real:.15g}"
    sign = "+" if z.imag >= 0 else "-"
    return f"{z.real:.15g}{sign}{abs(z.imag):.15g}i"


def _parse_system(text: str) -> ShiftSystem:
    return build_shift_system(parse_shifts(text))


def _classes_text(payload: dict) -> Iterator[str]:
    shifts = payload["shifts"]
    yield f"shifts: {', '.join(shifts)}"
    yield "classes:"
    for cls in payload["classes"]:
        members = ", ".join(f"G({k}) at {shifts[k]}" for k in cls["indices"])
        yield f"  representative G({cls['representative']}): {members}"
    yield f"in_h: {'yes' if payload['in_h'] else 'no'}"
    if payload["generators"]:
        yield "generators:"
        yield from (f"  {generator}" for generator in payload["generators"])
    else:
        yield "generators: none (every class is a singleton)"


def cmd_classes(args: argparse.Namespace) -> int:
    sys_ = _parse_system(args.shifts)
    payload = {
        "command": "classes",
        "shifts": [str(a) for a in sys_.shifts],
        "classes": [
            {"indices": list(cls), "representative": rep}
            for cls, rep in zip(sys_.classes, sys_.representatives)
        ],
        "in_h": sys_.in_h,
        "generators": [gamma_poly_text(r.as_poly) for r in sys_.generators()],
    }
    _emit(args, payload, _classes_text)
    return 0


def _member_text(payload: dict) -> Iterator[str]:
    yield f"verdict: {'member' if payload['member'] else 'non-member'}"
    yield f"normal_form: {payload['normal_form']}"
    yield f"basis: {payload['theorem_basis']}"
    certificate = payload.get("certificate")
    if certificate is not None:
        yield "certificate:"
        if not certificate["generators"]:
            yield "  (no generators: the shift system admits no relation)"
        for generator, cofactor in zip(certificate["generators"], certificate["cofactors"]):
            yield f"  generator {generator}: cofactor {cofactor}"
        yield f"  normal_form: {certificate['normal_form']}"
        # decide_membership has raised unless the certificate re-expands.
        yield "  re-expands exactly: yes"
    report = payload.get("verification")
    if report is not None:
        yield "verification:"
        yield f"  samples: {len(report['samples'])}  seed: {report['seed']}  tol: {report['tol']:g}"
        yield f"  max relative residual: {report['max_relative_residual']:.3e}"
        yield f"  consistent: {'yes' if report['consistent'] else 'NO'}"


def cmd_member(args: argparse.Namespace) -> int:
    from .ideal import decide_membership

    sys_ = _parse_system(args.shifts)
    poly = parse_gamma_poly(args.polynomial, sys_.arity)
    verdict = decide_membership(poly, sys_)
    # The certificate renders the input and the normal form; reuse its text.
    if args.certify:
        payload = verdict.as_payload()
        poly_text = payload["certificate"]["input"]
    else:
        poly_text, normal_text = input_and_normal_text(poly, verdict.normal_form)
        payload = {
            "member": verdict.is_member,
            "normal_form": normal_text,
            "theorem_basis": verdict.theorem_basis,
        }
    payload.update(command="member", shifts=[str(a) for a in sys_.shifts], polynomial=poly_text)
    if args.verify:
        from .numeric import verify_verdict

        report = verify_verdict(verdict, sys_, n_samples=args.samples, seed=args.seed, tol=args.tol)
        payload["verification"] = report.as_payload()
    _emit(args, payload, _member_text)
    if args.verify and not payload["verification"]["consistent"]:
        print("warning: numeric verification disagrees with the verdict", file=sys.stderr)
    return 0 if verdict.is_member else 1


def _reduce_text(payload: dict) -> Iterator[str]:
    yield payload["normal_form"]


def cmd_reduce(args: argparse.Namespace) -> int:
    from .ideal import normal_form

    sys_ = _parse_system(args.shifts)
    poly = parse_gamma_poly(args.polynomial, sys_.arity)
    poly_text, normal_text = input_and_normal_text(poly, normal_form(poly, sys_))
    payload = {
        "command": "reduce",
        "shifts": [str(a) for a in sys_.shifts],
        "polynomial": poly_text,
        "normal_form": normal_text,
    }
    _emit(args, payload, _reduce_text)
    return 0


def _gamma_text(payload: dict) -> Iterator[str]:
    point, value = (complex(*payload[key]) for key in ("point", "value"))
    yield f"gamma({_complex_text(point)}) = {_complex_text(value)}"


def cmd_gamma(args: argparse.Namespace) -> int:
    from .numeric import gamma_eval

    point = parse_complex(args.eval_point)
    try:
        value = gamma_eval(point)
        finite = math.isfinite(value.real) and math.isfinite(value.imag)
    except OverflowError:
        finite = False
    if not finite:
        print(f"error: gamma({_complex_text(point)}) is out of floating-point range", file=sys.stderr)
        return 1
    payload = {"command": "gamma", "point": [point.real, point.imag], "value": [value.real, value.imag]}
    _emit(args, payload, _gamma_text)
    return 0


def _symbolic_selftest_checks() -> List[dict]:
    """The worked identities, decided from scratch on every run."""
    from .ideal import decide_membership

    checks: List[dict] = []

    def record(name: str, passed: bool, detail: str) -> None:
        checks.append({"name": name, "passed": passed, "detail": detail})

    sys_ = build_shift_system(parse_shifts("0,1,2"))
    p = parse_gamma_poly("G(0)*G(2)-G(1)^2-G(0)*G(1)", 3)
    verdict = decide_membership(p, sys_)
    # decide_membership has raised unless the certificate re-expands.
    record(
        "worked_identity_member",
        verdict.is_member,
        "G(0)*G(2)-G(1)^2-G(0)*G(1) at shifts 0,1,2",
    )

    pairwise = parse_gamma_poly("G(0)*(G(2)-(s+1)*G(1))+G(1)*(s*G(0)-G(1))", 3)
    record(
        "pairwise_decomposition_re_expands",
        pairwise == p,
        "cofactors against the pairwise relations rebuild the identity",
    )

    non_member = decide_membership(parse_gamma_poly("G(0)*G(2)-G(1)^2", 3), sys_)
    record(
        "worked_non_member_normal_form",
        not non_member.is_member and gamma_poly_text(non_member.normal_form) == "s*G(0)^2",
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


def _selftest_text(payload: dict) -> Iterator[str]:
    checks = payload["checks"]
    for check in checks:
        yield f"check {check['name']}: {'ok' if check['passed'] else 'FAIL'} ({check['detail']})"
    failed = sum(not check["passed"] for check in checks)
    yield f"FAILED {failed} of {len(checks)} checks" if failed else f"all {len(checks)} checks passed"


def cmd_selftest(args: argparse.Namespace) -> int:
    from .numeric import selftest_functional_equations

    checks = _symbolic_selftest_checks()
    numeric_report = selftest_functional_equations(n_samples=args.samples, seed=args.seed)
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
    _emit(args, {"command": "selftest", "checks": checks, "ok": ok}, _selftest_text)
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

    def add_json(p: argparse.ArgumentParser) -> None:
        p.add_argument("--json", action="store_true", help="machine-readable output")

    p_classes = sub.add_parser("classes", help="integer-difference class report")
    p_classes.add_argument("shifts", help="comma-separated shift list, e.g. '0,1/2,i'")
    add_json(p_classes)
    p_classes.set_defaults(run=cmd_classes)

    p_member = sub.add_parser("member", help="decide ideal membership")
    p_member.add_argument("shifts")
    p_member.add_argument("polynomial", help="e.g. 'G(0)*G(2)-G(1)^2-G(0)*G(1)'")
    p_member.add_argument("--certify", action="store_true", help="emit the cofactor certificate")
    p_member.add_argument("--verify", action="store_true", help="numeric cross-check at sample points")
    add_json(p_member)
    p_member.add_argument("--samples", type=_sample_count, default=DEFAULT_SAMPLES)
    p_member.add_argument("--seed", type=_int_option, default=None)
    p_member.add_argument("--tol", type=_tolerance, default=DEFAULT_TOL)
    p_member.set_defaults(run=cmd_member)

    p_reduce = sub.add_parser("reduce", help="print the normal form")
    p_reduce.add_argument("shifts")
    p_reduce.add_argument("polynomial")
    add_json(p_reduce)
    p_reduce.set_defaults(run=cmd_reduce)

    p_gamma = sub.add_parser("gamma", help="evaluate Gamma at a point")
    p_gamma.add_argument("--eval", required=True, metavar="POINT", dest="eval_point")
    add_json(p_gamma)
    p_gamma.set_defaults(run=cmd_gamma)

    p_selftest = sub.add_parser("selftest", help="worked examples + numeric checks")
    p_selftest.add_argument("--samples", type=_sample_count, default=SELFTEST_SAMPLES)
    p_selftest.add_argument("--seed", type=_int_option, default=None)
    add_json(p_selftest)
    p_selftest.set_defaults(run=cmd_selftest)
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


def _numeric_errors() -> tuple:
    """The numeric oracle's failures, which exit 1.  Before ``numeric`` is
    imported none can have been raised, so it is looked up, not imported."""
    numeric = sys.modules.get(f"{__package__}.numeric")
    if numeric is None:
        return ()
    return numeric.PoleError, numeric.SamplingError, numeric.FloatRangeError


def main(argv: Optional[Sequence[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = _build_argparser().parse_args(list(argv))
    except SystemExit as exc:
        # argparse already printed a usage message
        return int(exc.code or 0)
    try:
        if "seed" in args and getattr(args, "verify", True):  # member --verify, selftest
            args.seed = _resolve_seed(args.seed)
        return args.run(args)
    except _numeric_errors() as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ParseError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
