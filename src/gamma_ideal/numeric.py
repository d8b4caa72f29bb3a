"""Floating-point Gamma oracle and numeric cross-checks of symbolic verdicts.

Gamma is evaluated by the 9-term Lanczos series (g = 7) on the right
half-plane and extended left by the reflection formula.  Identities are
checked with a cancellation-aware relative residual: the polynomial value at
a sample divided by the sum of the absolute values of its evaluated terms.
Members must stay below tolerance at every sample; a non-member only has to
exceed the separation threshold somewhere, since isolated near-zeros of a
nonzero function are expected.

The oracle runs over all samples at once.  Gamma is evaluated once per shift,
in one pass over the sample vector; a polynomial is turned into one float
table per call (per term, its coefficients as complex doubles and its Gamma
factors), and one kernel pass runs each term over the whole vector.  Every
step maps one operation over the points, so each point goes through the same
operations in the same order as evaluating it alone, term by term from the
exact coefficients, and the residuals and scales are the same bits.
"""

from __future__ import annotations

import cmath
import math
import random
from itertools import compress, repeat
from operator import add, mul, neg, sub, truediv
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence, Tuple

from ._record import Record, setfield

if TYPE_CHECKING:
    from .ideal import Verdict
    from .poly import GammaPoly
    from .shifts import ShiftSystem

LANCZOS_G = 7
LANCZOS_COEFFICIENTS = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)

EPSILON_POLE = 1e-3
SAMPLE_RE_RANGE = (-3.0, 5.0)
SAMPLE_IM_RANGE = (-3.0, 3.0)


class PoleError(ValueError):
    """Evaluation requested too close to a pole of Gamma."""

    def __init__(self, point: complex, pole: int, clearance: float):
        self.point = point
        self.pole = pole
        self.clearance = clearance
        # Past 2**53 a pole is the integer value of a double: print the double.
        pole_text = pole if abs(pole) <= 2**53 else float(pole)
        super().__init__(
            f"point {point} is within {clearance:.3g} of the Gamma pole at {pole_text}"
        )


class SamplingError(RuntimeError):
    """Could not draw enough pole-clear sample points."""


class FloatRangeError(OverflowError):
    """A shift, a coefficient of the polynomial, the sine of the reflection
    formula or the Lanczos power far from the real axis, or a Gamma value
    that underflows to 0 or comes out NaN (as at 5+1e100i, where the Lanczos
    power overflows twice) is past the floating-point range."""


def nearest_pole(z: complex) -> Tuple[int, float]:
    """The non-positive integer closest to z and its distance.

    That is the integer nearest the real part, or 0 for a positive one.
    ``round`` is exact on a double, so no distances are compared: past 2**53
    they would round to ties.  A half-integer rounds to the even neighbour.
    A non-finite point has no nearest pole and raises ``ValueError``.
    """
    if not cmath.isfinite(z):
        raise ValueError(f"point {z} is not finite")
    pole = min(0, round(z.real))
    return pole, abs(z - pole)


def pole_clearance(s: complex, shifts: Sequence[complex]) -> float:
    """Minimum distance from any shifted argument s + a_m to a Gamma pole."""
    if not shifts:
        return math.inf
    return min(nearest_pole(s + complex(a))[1] for a in shifts)


def _check_poles(points: Iterable[complex]) -> None:
    """Raise ``PoleError`` at the first point within EPSILON_POLE of a pole."""
    for z in points:
        pole, clearance = nearest_pole(z)
        if clearance < EPSILON_POLE:
            raise PoleError(z, pole, clearance)


def gamma_values(points: Iterable[complex]) -> List[complex]:
    """Gamma at every point, to about 1e-13 relative accuracy away from the
    poles.  Each step maps one operation over all points, so a point's value
    does not depend on the others."""
    points = list(map(complex, points))
    _check_poles(points)
    return _lanczos_values(points)


def _lanczos_values(points: List[complex]) -> List[complex]:
    """``gamma_values`` without the pole check, for points already known
    to be clear of the poles."""
    reflect = [z.real < 0.5 for z in points]
    try:
        sines = list(map(cmath.sin, map(mul, repeat(math.pi), compress(points, reflect))))
    except OverflowError as exc:  # an imaginary part past about 226
        raise FloatRangeError(*exc.args) from None
    if sines:
        points = [1 - z if left else z for z, left in zip(points, reflect)]
    zs = list(map(sub, points, repeat(1)))
    coefficients = LANCZOS_COEFFICIENTS
    series = repeat(coefficients[0], len(zs))
    for k, coefficient in enumerate(coefficients[1:], start=1):
        series = map(add, series, map(truediv, repeat(coefficient), map(add, zs, repeat(k))))
    ts = list(map(add, map(add, zs, repeat(LANCZOS_G)), repeat(0.5)))
    # sqrt(2 pi) * t ** (z + 1/2) * exp(-t) * series, left to right.  The maps
    # are consumed one point at a time, so the first point to overflow raises.
    powers = map(pow, ts, map(add, zs, repeat(0.5)))
    scaled = map(mul, map(mul, repeat(math.sqrt(2 * math.pi)), powers), map(cmath.exp, map(neg, ts)))
    try:
        values = list(map(mul, scaled, series))
    except ZeroDivisionError:  # an infinite phase of the power, a domain error
        raise FloatRangeError("a Lanczos power is out of floating-point range") from None
    if sines:
        reflected = map(truediv, repeat(math.pi), map(mul, sines, compress(values, reflect)))
        values = [next(reflected) if left else g for g, left in zip(values, reflect)]
    if 0j in values:  # Gamma has no zeros: the value underflowed
        raise FloatRangeError("a Gamma value underflows to 0")
    # Far up the imaginary axis, as at 5+1e100i, the power's modulus and its
    # damping both overflow, and their quotient is NaN.
    if any(map(cmath.isnan, values)):
        raise FloatRangeError("a Gamma value is not a number")
    return values


def gamma_eval(s: complex) -> complex:
    """Gamma(s) to about 1e-13 relative accuracy away from the poles."""
    return gamma_values([s])[0]


class ComplexSample(Record):
    """A sample point together with its distance to the nearest shifted pole."""

    __slots__ = _fields = ("point", "pole_clearance")

    def __init__(self, point: complex, pole_clearance: float):
        setfield(self, "point", point)
        setfield(self, "pole_clearance", pole_clearance)


def _float_shifts(sys: ShiftSystem) -> List[complex]:
    """The shifts as complex doubles."""
    try:
        return [complex(a) for a in sys.shifts]
    except OverflowError:
        raise FloatRangeError("a shift is out of floating-point range") from None


def draw_samples(sys: ShiftSystem, n_samples: int, seed: int) -> List[ComplexSample]:
    """Uniform pole-clear samples from the standard rectangle, seeded."""
    rng = random.Random(seed)
    shifts = _float_shifts(sys)
    samples: List[ComplexSample] = []
    attempts = 0
    limit = 200 * max(n_samples, 1)
    while len(samples) < n_samples:
        if attempts >= limit:
            raise SamplingError(
                f"drew only {len(samples)} of {n_samples} pole-clear points "
                f"in {limit} attempts (EPSILON_POLE={EPSILON_POLE})"
            )
        attempts += 1
        point = complex(
            rng.uniform(*SAMPLE_RE_RANGE), rng.uniform(*SAMPLE_IM_RANGE)
        )
        clearance = pole_clearance(point, shifts)
        if clearance >= EPSILON_POLE:
            samples.append(ComplexSample(point, clearance))
    return samples


#: A polynomial as the oracle evaluates it: per term, the coefficients as
#: complex doubles (highest power first) and the nonzero (index, exponent)
#: Gamma factors, in term order.
FloatTable = List[Tuple[Tuple[complex, ...], Tuple[Tuple[int, int], ...]]]


def _float_table(p: GammaPoly) -> FloatTable:
    try:
        return [
            (coeff.complex_coeffs(), tuple(compress(enumerate(mono), mono)))
            for mono, coeff in p.terms.items()
        ]
    except OverflowError:
        raise FloatRangeError("a coefficient of the polynomial is out of floating-point range") from None


def _evaluate_terms(
    table: FloatTable, gammas: Sequence[Sequence[complex]], points: Sequence[complex]
) -> Tuple[List[complex], List[float]]:
    """Values and cancellation scales of a float table at every point, given
    ``gammas[k][i]``, the Gamma value of shift k at point i.

    Each term runs over all points at once: a Horner pass from its leading
    coefficient (``0j * s + c`` is ``c`` up to the sign of a zero part, which
    no absolute value sees), its Gamma factors in index order, each
    ``Gamma ** e`` computed on first use, then a sum into the values and
    scales in term order: per point, the operations of evaluating it alone."""
    n = len(points)
    values = [0j] * n
    scales = [0.0] * n
    powers: Dict[Tuple[int, int], List[complex]] = {}
    for coeffs, factors in table:
        terms = repeat(coeffs[0], n)
        for c in coeffs[1:]:
            terms = map(add, map(mul, terms, points), repeat(c))
        for factor in factors:
            power = powers.get(factor)
            if power is None:
                k, e = factor
                power = powers[factor] = list(map(pow, gammas[k], repeat(e)))
            terms = map(mul, terms, power)
        terms = list(terms)
        values = list(map(add, values, terms))
        scales = list(map(add, scales, map(abs, terms)))
    return values, scales


def _evaluate(
    p: GammaPoly, shifts: List[complex], points: List[complex]
) -> Tuple[List[complex], List[float]]:
    """Values and cancellation scales of p at every point: one Gamma pass
    per shift (a double) over all points, one float table and one kernel
    pass.  The caller has checked p's arity and every shifted point for poles."""
    try:
        gammas = [_lanczos_values(list(map(add, points, repeat(a)))) for a in shifts]
    except FloatRangeError:
        raise FloatRangeError("a Gamma value at a sample point is out of floating-point range") from None
    return _evaluate_terms(_float_table(p), gammas, points)


def evaluate_poly(
    p: GammaPoly, sys: ShiftSystem, s: complex
) -> Tuple[complex, float]:
    """Value of p at (s, Gamma(s+a_0), ...) and the cancellation scale.

    The scale is the sum of the absolute values of the individually
    evaluated terms; an identity cancels against it, so value/scale is the
    meaningful relative residual.

    This is the oracle of ``verify_verdict`` run on one point: one Gamma
    pass per shift, one float table and one kernel pass, so both give the
    same bits.  The point is checked for poles first, shift by shift, as
    ``draw_samples`` checks each sample of ``verify_verdict``.
    """
    sys.check_arity(p)
    s, shifts = complex(s), _float_shifts(sys)
    _check_poles([s + a for a in shifts])
    values, scales = _evaluate(p, shifts, [s])
    return values[0], scales[0]


def _worst(errors: Iterable[float]) -> float:
    """The largest of ``errors``, 0.0 for none, and NaN as soon as one is
    NaN, which ``max(worst, err)`` would pass over."""
    worst = 0.0
    for err in errors:
        if math.isnan(err):
            return err
        worst = max(worst, err)
    return worst


class SampleResidual(Record):
    __slots__ = _fields = ("point", "residual", "scale")

    def __init__(self, point: complex, residual: float, scale: float):
        setfield(self, "point", point)
        setfield(self, "residual", residual)
        setfield(self, "scale", scale)

    @property
    def relative(self) -> float:
        """residual / scale, 0.0 at a zero scale and NaN at a NaN one."""
        return 0.0 if self.scale == 0 else self.residual / self.scale


class VerificationReport(Record):
    """Numeric evidence for (or against) a symbolic membership verdict."""

    __slots__ = _fields = ("member", "samples", "seed", "tol", "separation")

    def __init__(
        self,
        member: bool,
        samples: Tuple[SampleResidual, ...],
        seed: int,
        tol: float,
        separation: float,
    ):
        setfield(self, "member", member)
        setfield(self, "samples", samples)
        setfield(self, "seed", seed)
        setfield(self, "tol", tol)
        setfield(self, "separation", separation)

    @property
    def max_relative_residual(self) -> float:
        return _worst(row.relative for row in self.samples)

    @property
    def verdict_consistent(self) -> bool:
        """Member: every relative residual must stay below tol.  Non-member:
        at least one sample must reach the separation threshold; the verdict
        is flagged inconsistent only when all samples look like an identity.
        """
        if self.member:
            return all(row.relative < self.tol for row in self.samples)
        return any(row.relative >= self.separation for row in self.samples)

    def as_payload(self) -> dict:
        return {
            "member": self.member,
            "seed": self.seed,
            "tol": self.tol,
            "separation": self.separation,
            "samples": [
                {
                    "point": [smp.point.real, smp.point.imag],
                    "residual": smp.residual,
                    "scale": smp.scale,
                    "relative": smp.relative,
                }
                for smp in self.samples
            ],
            "max_relative_residual": self.max_relative_residual,
            "consistent": self.verdict_consistent,
        }


def verify_verdict(
    verdict: Verdict,
    sys: ShiftSystem,
    n_samples: int = 20,
    seed: int = 0,
    tol: float = 1e-8,
    separation: Optional[float] = None,
) -> VerificationReport:
    """Check a symbolic verdict against seeded samples; the report holds
    the residuals and judges them (the separation defaults to tol)."""
    if separation is None:
        separation = tol
    p = verdict.certificate.input
    sys.check_arity(p)
    points = [sample.point for sample in draw_samples(sys, n_samples, seed)]
    # draw_samples has checked every (sample, shift) for poles.
    values, scales = _evaluate(p, _float_shifts(sys), points)
    rows = tuple(map(SampleResidual, points, map(abs, values), scales))
    return VerificationReport(verdict.is_member, rows, seed, tol, separation)


class CheckResult(Record):
    __slots__ = _fields = ("name", "samples", "max_relative_error", "threshold")

    def __init__(self, name: str, samples: int, max_relative_error: float, threshold: float):
        setfield(self, "name", name)
        setfield(self, "samples", samples)
        setfield(self, "max_relative_error", max_relative_error)
        setfield(self, "threshold", threshold)

    @property
    def passed(self) -> bool:
        return self.max_relative_error < self.threshold


class SelftestReport(Record):
    __slots__ = _fields = ("checks",)

    def __init__(self, checks: Tuple[CheckResult, ...]):
        setfield(self, "checks", checks)

    @property
    def ok(self) -> bool:
        return all(check.passed for check in self.checks)


def _clear_samples(rng: random.Random, count: int) -> List[complex]:
    """Sample points keeping every value used by the identity checks clear of
    poles by at least 0.05 (the checks look at s, s+1, 2s, 3s, ...)."""
    points: List[complex] = []
    attempts = 0
    while len(points) < count and attempts < 200 * count:
        attempts += 1
        s = complex(rng.uniform(*SAMPLE_RE_RANGE), rng.uniform(*SAMPLE_IM_RANGE))
        probes = [s, s + 1, 2 * s, 3 * s, s + 0.5, s + 1 / 3, s + 2 / 3]
        if all(nearest_pole(z)[1] >= 0.05 for z in probes):
            points.append(s)
    if len(points) < count:
        raise SamplingError(f"drew only {len(points)} of {count} selftest points")
    return points


def selftest_functional_equations(
    n_samples: int = 100, seed: int = 0
) -> SelftestReport:
    """Validate the oracle against the classical Gamma identities.

    Failures are reported, never raised: the caller decides what a red
    check means.
    """
    rng = random.Random(seed)
    points = _clear_samples(rng, n_samples)
    checks: List[CheckResult] = []

    shifted = zip(points, gamma_values(map(add, points, repeat(1))), gamma_values(points))
    worst = _worst(abs(lhs - s * g) / abs(lhs) for s, lhs, g in shifted)
    checks.append(CheckResult("recurrence", len(points), worst, 1e-10))

    mult_points = points[: max(1, min(50, len(points)))]
    for n in (2, 3):
        errors = []
        lhs_values = gamma_values(map(mul, repeat(n), mult_points))
        factors = zip(*(gamma_values(map(add, mult_points, repeat(j / n))) for j in range(n)))
        for s, lhs, gammas in zip(mult_points, lhs_values, factors):
            rhs = n ** (n * s - 0.5) * (2 * math.pi) ** ((1 - n) / 2)
            for g in gammas:
                rhs *= g
            errors.append(abs(lhs - rhs) / abs(lhs))
        checks.append(CheckResult(f"multiplication_n{n}", len(mult_points), _worst(errors), 1e-8))

    strip = [complex(rng.uniform(0.55, 0.95), rng.uniform(-2.0, 2.0)) for _ in points]
    mirrored = gamma_values(map(sub, repeat(1), strip))
    worst = _worst(
        abs(direct - math.pi / (cmath.sin(math.pi * s) * g)) / abs(direct)
        for s, direct, g in zip(strip, gamma_values(strip), mirrored)
    )
    checks.append(CheckResult("reflection", len(strip), worst, 1e-10))

    half = gamma_eval(0.5)
    err = abs(half * half - math.pi) / math.pi
    checks.append(CheckResult("gamma_half_squared", 1, err, 1e-12))

    exact = [float(math.factorial(k - 1)) for k in range(1, 11)]
    worst = _worst(abs(value - e) / e for value, e in zip(gamma_values(range(1, 11)), exact))
    checks.append(CheckResult("integer_factorials", 10, worst, 1e-12))

    return SelftestReport(tuple(checks))
