"""Spans around calls into the package, and direct calls into each layer.

The benchmark records every span from its own code; the package itself is
not instrumented.  A span is ``(id, parent, name, start, end)``: one root span
per query execution, and one child span per public call that execution makes.
The name of a child span is ``<layer>.<what>``, so summing durations by name
gives each layer's time; a root's self time is the part of the query that no
layer span covers.
"""

from __future__ import annotations

import itertools
import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Dict, List, NamedTuple, Optional


class Span(NamedTuple):
    id: int
    parent: Optional[int]
    name: str
    start: float
    end: float


def plain_call(name: str, fn: Callable, *args):
    """The untraced counterpart of ``Tracer.call``."""
    return fn(*args)


class Tracer:
    """Keeps spans in memory; ``spans`` is written out when the run ends."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count()
        self._root: Optional[int] = None

    def call(self, name: str, fn: Callable, *args):
        start = perf_counter()
        try:
            return fn(*args)
        finally:
            self.spans.append(Span(next(self._ids), self._root, name, start, perf_counter()))

    @contextmanager
    def request(self, name: str):
        span_id = next(self._ids)
        self._root = span_id
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self._root = None
            self.spans.append(Span(span_id, None, name, start, end))


@dataclass
class LayerCounts:
    """Work counts and extremes gathered by one direct pass over the mix."""

    values: Dict[str, float] = field(default_factory=dict)

    def add(self, name: str, amount: float) -> None:
        self.values[name] = self.values.get(name, 0) + amount

    def maximum(self, name: str, value: float) -> None:
        self.values[name] = max(self.values.get(name, value), value)

    def minimum(self, name: str, value: float) -> None:
        self.values[name] = min(self.values.get(name, value), value)


def scalar_bits(value) -> int:
    """Largest bit length among the numerators and denominators of a scalar."""
    return max(
        value.real.numerator.bit_length(),
        value.real.denominator.bit_length(),
        value.imag.numerator.bit_length(),
        value.imag.denominator.bit_length(),
    )


def record_sizes(counts: LayerCounts, polys) -> None:
    """Coefficient count, bit length and s-degree over GammaPolys."""
    for p in polys:
        for coeff in p.terms.values():
            counts.maximum("poly.max_s_degree", coeff.degree)
            for c in coeff.coeffs:
                if c:
                    counts.add("scalars.coeffs", 1)
                    counts.maximum("scalars.coeff_bits_max", scalar_bits(c))


def direct_member(api, tracer: Tracer, counts: LayerCounts, poly, system, sample_seed: int, samples: int) -> None:
    """Call the components that decide_membership and verify_verdict wrap."""
    call = tracer.call
    generators = call("shifts.generators", system.generators)
    counts.add("shifts.generators", len(generators))
    normal = call("ideal.normal_form", api.normal_form, poly, system)
    certificate = call("ideal.certify", api.certify, poly, system)
    call("ideal.reexpand", certificate.is_exact)
    counts.add("ideal.terms_in", len(poly.terms))
    counts.add("ideal.nf_terms", len(normal.terms))
    counts.add("ideal.cofactor_terms", sum(len(c.terms) for c in certificate.cofactors))
    record_sizes(counts, [poly, normal, *certificate.cofactors, *(g.as_poly for g in generators)])

    points = call("numeric.sample", api.draw_samples, system, samples, sample_seed)
    shifts = [complex(a) for a in system.shifts]
    for sample in points:
        counts.minimum("numeric.min_clearance", sample.pole_clearance)
        try:
            value, scale = call("numeric.eval", api.evaluate_poly, poly, system, sample.point)
            finite = math.isfinite(abs(value)) and math.isfinite(scale)
        except OverflowError:
            finite = False
        counts.add("numeric.nonfinite_samples", 0 if finite else 1)
        for a in shifts:
            counts.add("numeric.gamma_calls", 1)
            try:
                call("numeric.gamma_eval", api.gamma_eval, sample.point + a)
            except OverflowError:
                pass
