"""Acceptance criteria.

One test per criterion.  Each records a single pass/fail summary line —
printed in the terminal summary at the end of the run — and enforces the
criterion's runtime budget.
"""

import json
import random
import time
from contextlib import contextmanager
from fractions import Fraction

import _criteria_log

from gamma_ideal.cli import main as cli_main
from gamma_ideal.ideal import decide_membership, normal_form
from gamma_ideal.numeric import selftest_functional_equations, verify_verdict
from gamma_ideal.parser import parse_gamma_poly, parse_shifts
from gamma_ideal.poly import UniPoly, euclid_divide, gamma_poly_text, highest_term
from gamma_ideal.scalars import GaussianRational, to_scalar
from gamma_ideal.shifts import build_shift_system, shift_apply
from strategies import random_member, random_poly, random_shift_system


@contextmanager
def criterion(label: str, budget_seconds: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        elapsed = time.perf_counter() - start
        _criteria_log.record("FAIL", label, elapsed, budget_seconds)
        raise
    elapsed = time.perf_counter() - start
    within = elapsed < budget_seconds
    _criteria_log.record("PASS" if within else "FAIL", label, elapsed, budget_seconds)
    assert within, f"{label}: {elapsed:.2f}s exceeded the {budget_seconds:g}s budget"


def _rnd_scalar(rng: random.Random) -> GaussianRational:
    return GaussianRational(
        Fraction(rng.randint(-5, 5), rng.choice((1, 2))),
        Fraction(rng.randint(-2, 2)),
    )


def _rnd_unipoly(rng: random.Random, max_degree: int = 3) -> UniPoly:
    return UniPoly(
        tuple(_rnd_scalar(rng) for _ in range(rng.randint(1, max_degree + 1)))
    )


def test_criterion_1_worked_identity_golden():
    with criterion("criterion 1: worked identity, certificate, re-expansion", 1.0):
        sys = build_shift_system(parse_shifts("0,1,2"))
        p = parse_gamma_poly("G(0)*G(2)-G(1)^2-G(0)*G(1)", 3)
        verdict = decide_membership(p, sys)
        assert verdict.is_member
        assert verdict.certificate.recombined() == p
        assert verdict.certificate.normal_form.is_zero()
        # the published pairwise decomposition also rebuilds the input exactly
        pairwise = parse_gamma_poly("G(0)*(G(2)-(s+1)*G(1))+G(1)*(s*G(0)-G(1))", 3)
        assert pairwise == p


def test_criterion_2_iterated_recurrence_generators():
    with criterion("criterion 2: iterated-recurrence generators, d=1..5", 1.0):
        starts = [to_scalar(0), to_scalar(Fraction(1, 2)), GaussianRational(0, 1)]
        for a0 in starts:
            for d in range(1, 6):
                sys = build_shift_system([a0, a0 + d])
                generator = sys.generators()[0].as_poly
                verdict = decide_membership(generator, sys)
                assert verdict.is_member, (a0, d)
                report = verify_verdict(verdict, sys, n_samples=20, seed=d, tol=1e-8)
                assert report.verdict_consistent, (a0, d)
                assert report.max_relative_residual < 1e-8, (a0, d)


def test_criterion_3_soundness_sweep():
    with criterion("criterion 3: 200 random members decide+verify", 30.0):
        rng = random.Random(2026)
        for k in range(200):
            sys = random_shift_system(rng, require_relation=True)
            member = random_member(sys, rng)
            verdict = decide_membership(member, sys)
            assert verdict.is_member, k
            report = verify_verdict(verdict, sys, n_samples=20, seed=k, tol=1e-8)
            assert report.verdict_consistent, (k, report.max_relative_residual)


def test_criterion_4_completeness_evidence():
    with criterion("criterion 4: 200 nonzero normal forms show residuals", 30.0):
        rng = random.Random(413)
        produced = 0
        while produced < 200:
            sys = random_shift_system(rng)
            p = random_poly(sys.arity, rng, max_terms=3, max_monomial_degree=2)
            if normal_form(p, sys).is_zero():
                continue
            produced += 1
            verdict = decide_membership(p, sys)
            assert not verdict.is_member
            report = verify_verdict(
                verdict, sys, n_samples=20, seed=produced, tol=1e-8, separation=1e-4
            )
            assert report.verdict_consistent, (produced, report.max_relative_residual)
            assert report.max_relative_residual > 1e-4, produced


def test_criterion_5_proof_machinery_properties():
    with criterion("criterion 5: 500x shift/euclid/normal-form properties", 30.0):
        rng = random.Random(77)

        for _ in range(500):
            sys = random_shift_system(rng)
            p = random_poly(sys.arity, rng)
            if p.is_zero():
                continue
            mono, coeff = highest_term(p)
            expected = coeff.compose_shift(1)
            for index, exponent in enumerate(mono):
                expected = expected * UniPoly.linear(sys.shifts[index]) ** exponent
            assert highest_term(shift_apply(p, sys)) == (mono, expected)

        for _ in range(500):
            num = _rnd_unipoly(rng)
            den = _rnd_unipoly(rng)
            if den.is_zero():
                continue
            quotient, remainder = euclid_divide(num, den)
            assert quotient * den + remainder == num
            assert remainder.is_zero() or remainder.degree < den.degree

        for _ in range(500):
            sys = random_shift_system(rng)
            p = random_poly(sys.arity, rng)
            q = random_poly(sys.arity, rng)
            nf = normal_form(p, sys)
            assert normal_form(nf, sys) == nf
            assert normal_form(p + q, sys) == nf + normal_form(q, sys)


def test_criterion_6_numeric_oracle_identities():
    with criterion("criterion 6: functional equations at tolerance", 5.0):
        report = selftest_functional_equations(n_samples=100, seed=0)
        by_name = {check.name: check for check in report.checks}
        recurrence = by_name["recurrence"]
        assert recurrence.samples == 100
        assert recurrence.max_relative_error < 1e-10
        for n in (2, 3):
            mult = by_name[f"multiplication_n{n}"]
            assert mult.samples == 50
            assert mult.max_relative_error < 1e-8
        assert by_name["gamma_half_squared"].max_relative_error < 1e-12
        assert by_name["integer_factorials"].max_relative_error < 1e-12


def test_criterion_7_scaled_shift_families():
    with criterion("criterion 7: (0, a, 2a) families admit no identity", 10.0):
        alphas = [
            to_scalar(Fraction(3, 7)),
            GaussianRational(0, 1),
            GaussianRational(Fraction(1, 2), Fraction(1, 2)),
        ]
        rng = random.Random(99)
        for alpha in alphas:
            sys = build_shift_system([to_scalar(0), alpha, alpha * 2])
            assert sys.in_h, alpha
            checked = 0
            while checked < 50:
                p = random_poly(3, rng, max_terms=4)
                if p.is_zero():
                    continue
                checked += 1
                assert not decide_membership(p, sys).is_member, (alpha, checked)


def _cli_json(capsys, *argv) -> str:
    code = cli_main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_criterion_8_cli_contract(capsys):
    with criterion("criterion 8: CLI exit codes, JSON, round-trips", 5.0):
        corpus = [
            "0",
            "1",
            "s",
            "-s^3",
            "1/2",
            "(1/2)i",
            "G(0)",
            "s*G(0)^2",
            "-G(0)*G(1)+G(0)*G(2)-G(1)^2",
            "(s^2+s)*G(1)-G(2)",
        ]
        rng = random.Random(8)
        while len(corpus) < 50:
            corpus.append(gamma_poly_text(random_poly(3, rng, max_terms=4)))
        for text in corpus:
            p = parse_gamma_poly(text, 3)
            assert parse_gamma_poly(gamma_poly_text(p), 3) == p, text

        # exit codes
        identity = "G(0)*G(2)-G(1)^2-G(0)*G(1)"
        code, _ = _cli_json(capsys, "member", "0,1,2", identity)
        assert code == 0
        code, _ = _cli_json(capsys, "member", "0,1/2", "G(0)*G(1)-1")
        assert code == 1
        code, _ = _cli_json(capsys, "member", "0,1,2", "G(")
        assert code == 2

        # JSON stability: canonical key order survives re-serialization,
        # and identical invocations are byte-identical
        for argv in (
            ["classes", "0,1,2", "--json"],
            ["member", "0,1,2", identity, "--json", "--certify", "--verify"],
            ["reduce", "0,1,2", "G(0)*G(2)-G(1)^2", "--json"],
        ):
            _, first = _cli_json(capsys, *argv)
            assert json.dumps(json.loads(first), sort_keys=True, indent=2) == first.strip()
            _, second = _cli_json(capsys, *argv)
            assert first == second
