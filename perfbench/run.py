#!/usr/bin/env python3
"""gamma-ideal benchmark: time to verdict, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  Workloads: chain-members, verify-sweep, cli-cold (see README.md in
this directory).  Load is a closed loop with one caller: the fixed mix of a
workload is run once whole, then on until ``--seconds`` have passed.  Every
output is checked against the answer known by construction.

``--trace 0`` prints the end-to-end metrics, with every time scaled to the
host's speed (see HostSpeed); ``--trace 1`` prints the per-layer metrics of
a separate traced run, in wall time.  Queries that fail today from a known
defect of the package run once per run, after the timed loop, and are not
among its operations.  The last line of standard output is one JSON object;
failed queries and the outcome of each defect query are listed above it by
name and reason.  Records are also written to ``results/<workload>.json`` next to
this file, and the traced run's spans to ``results/<workload>.spans.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import gc
import importlib
import json
import math
import os
import random
import resource
import signal
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

import generate
from layers import LayerCounts, Tracer, direct_member, plain_call, record_sizes

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

SAMPLES = 20
SETUP_REPEATS = 7
PROBE_REPEATS = 3
CHILD_TIMEOUT_S = 150.0
# Scaled times are times on a host on which the reference kernel takes
# REFERENCE_KERNEL_S, a round figure near its time on the 2-vCPU baseline
# host when that ran fast; HOST_SAMPLE_S is how often the kernel is sampled
# within a timed stretch.  See HostSpeed.
REFERENCE_KERNEL_S = 3.0e-3
HOST_SAMPLE_S = 0.5


@dataclass
class Prepared:
    """What setup derives from a query: the library-side input and answer."""

    poly: object = None
    expected_nf: object = None
    argv: Optional[List[str]] = None


def load_api():
    """Import the package from the checkout's ``src``; None when it is absent."""
    if not (SRC / "gamma_ideal" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(SRC))
    api = importlib.import_module("gamma_ideal")
    api.parse_complex = importlib.import_module("gamma_ideal.parser").parse_complex
    return api


def to_gamma_poly(api, poly: generate.Poly, arity: int):
    """The library's GammaPoly for a generator dict."""
    grouped: Dict[Tuple[int, ...], Dict[int, generate.Scalar]] = {}
    for key, c in poly.items():
        grouped.setdefault(key[1:], {})[key[0]] = c
    terms = {}
    for mono, by_power in grouped.items():
        coeffs = [by_power.get(k, (0, 0)) for k in range(max(by_power) + 1)]
        terms[mono] = api.UniPoly(tuple(api.GaussianRational(re, im) for re, im in coeffs))
    return api.GammaPoly(arity, terms)


def cli_argv(q: generate.Query) -> List[str]:
    """Flags first and ``--`` before the operands, which may start with '-'."""
    if q.command == "member":
        return ["member", "--certify", "--verify", "--json", "--", q.shifts, q.text]
    if q.command == "classes":
        return ["classes", "--json", "--", q.shifts]
    if q.command == "reduce":
        return ["reduce", "--json", "--", q.shifts, q.text]
    return ["gamma", "--json", f"--eval={q.point}"]


def prepare(api, workload: str, queries: List[generate.Query]) -> Dict[str, Prepared]:
    prepared = {}
    for q in queries:
        prep = Prepared()
        if q.poly is not None:
            prep.poly = to_gamma_poly(api, q.poly, q.arity)
        if q.normal_form is not None:
            prep.expected_nf = to_gamma_poly(api, q.normal_form, q.arity)
        if workload == "cli-cold":
            prep.argv = cli_argv(q)
        prepared[q.name] = prep
    return prepared


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env.pop("GAMMA_IDEAL_SEED", None)
    env["PYTHONPATH"] = str(SRC)
    return env


class Child(NamedTuple):
    returncode: int
    stdout: str
    stderr: str
    rss_mb: float


# The child process being waited for, which HostSpeed pauses while it samples.
running_child: Optional[int] = None


def run_child(argv: List[str]) -> Child:
    """Run one child process and reap it with ``wait4``, which gives the peak
    memory of that child alone.  Output goes to files, so that a full pipe
    cannot stall the child; a child past ``CHILD_TIMEOUT_S`` is killed.

    The child is first waited for without being reaped, so that its pid
    cannot be reused while ``running_child`` names it."""
    global running_child
    RESULTS.mkdir(exist_ok=True)
    with open(RESULTS / "child.stdout", "w+") as out, open(RESULTS / "child.stderr", "w+") as err:
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=out, stderr=err)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        running_child = proc.pid
        try:
            os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
        finally:
            running_child = None
            watchdog.cancel()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return Child(proc.returncode, out.read(), err.read(), usage.ru_maxrss / 1024.0)


def run_cli(argv: List[str]) -> Child:
    return run_child([sys.executable, "-m", "gamma_ideal", *argv])


# -- one query


def run_query(api, q: generate.Query, prep: Prepared, call: Callable, trail: List[str]):
    """The member pipeline in-process, or one CLI process for cli-cold."""
    if prep.argv is not None:
        trail.append("cli.process")
        return call("cli.process", run_cli, prep.argv)
    trail.append("parser.parse")
    shifts = call("parser.parse", api.parse_shifts, q.shifts)
    trail.append("shifts.build")
    system = call("shifts.build", api.build_shift_system, shifts)
    poly = prep.poly
    if poly is None:
        trail.append("parser.parse")
        ast = call("parser.parse", api.parse_poly, q.text, system.arity)
        trail.append("parser.lower")
        poly = call("parser.lower", api.lower_to_poly, ast, system.arity)
    trail.append("ideal.decide")
    verdict = call("ideal.decide", api.decide_membership, poly, system)
    trail.append("poly.text")
    payload = call("poly.text", verdict.as_payload)
    trail.append("numeric.verify")
    report = call("numeric.verify", api.verify_verdict, verdict, system, SAMPLES, q.sample_seed)
    return system, poly, verdict, payload, report


def check_in_process(q: generate.Query, prep: Prepared, result) -> Optional[str]:
    _, _, verdict, payload, report = result
    if verdict.is_member != q.member:
        return f"wrong verdict: member={verdict.is_member}"
    if verdict.normal_form != prep.expected_nf:
        return "normal form differs from the known one"
    if q.member and payload["normal_form"] != "0":
        return "member payload shows a nonzero normal form"
    if not all(math.isfinite(r.scale) and math.isfinite(r.residual) for r in report.samples):
        return "non-finite sample scale"
    if not report.verdict_consistent:
        return "verification inconsistent"
    return None


def check_cli(api, q: generate.Query, prep: Prepared, proc: Child) -> Optional[str]:
    if "Traceback" in proc.stderr:
        return "traceback: " + proc.stderr.strip().splitlines()[-1][:120]
    expected_code = (0 if q.member else 1) if q.command == "member" else 0
    if proc.returncode != expected_code:
        return f"exit code {proc.returncode}, expected {expected_code}"
    try:
        payload = json.loads(proc.stdout)
    except ValueError:
        return "stdout is not JSON"
    if q.command == "member":
        if payload["member"] != q.member:
            return f"wrong verdict: member={payload['member']}"
        verification = payload["verification"]
        if not all(math.isfinite(smp["scale"]) for smp in verification["samples"]):
            return "non-finite sample scale"
        if not verification["consistent"]:
            return "verification inconsistent"
    if q.command in ("member", "reduce"):
        if api.parse_gamma_poly(payload["normal_form"], q.arity) != prep.expected_nf:
            return "normal form differs from the known one"
    if q.command == "classes":
        if [c["indices"] for c in payload["classes"]] != q.classes:
            return "classes differ from the known ones"
    if q.command == "gamma":
        import mpmath

        point = complex(q.point.replace("i", "j"))
        expected = complex(mpmath.gamma(mpmath.mpc(point.real, point.imag)))
        value = complex(*payload["value"])
        if abs(value - expected) > 1e-9 * abs(expected):
            return "gamma value differs from mpmath"
    return None


def known_defect(q: generate.Query, reason: str) -> bool:
    """Whether a defect query fails the way the package fails today.

    The Gamma oracle overflows (or returns a non-finite scale) once the gap
    reaches 100, and the recursive parser fails past about 1000 terms.
    Any other failure makes the run incorrect.
    """
    if not q.defect:
        return False
    if q.gap >= generate.DEFECT_GAP:
        return "OverflowError" in reason or reason == "non-finite sample scale"
    return q.terms > generate.DEFECT_TERMS and "RecursionError" in reason


@dataclass
class Timing:
    """Wall time of one timed stretch, and that time scaled (see HostSpeed)."""

    latency: float = 0.0
    scaled: float = 0.0


@contextlib.contextmanager
def wall_clock():
    timing = Timing()
    start = perf_counter()
    try:
        yield timing
    finally:
        timing.latency = timing.scaled = perf_counter() - start


@dataclass
class Execution:
    timing: Timing
    failure: Optional[str]
    result: object = None


def execute(api, workload: str, q, prep, call=plain_call, request=None, clock=wall_clock) -> Execution:
    trail: List[str] = []
    scope = request(q.name) if request else contextlib.nullcontext()
    try:
        with clock() as timing, scope:
            result = run_query(api, q, prep, call, trail)
    except Exception as exc:  # every exception is a failed query, reported by name
        stage = trail[-1] if trail else "start"
        return Execution(timing, f"{stage}: {type(exc).__name__}: {exc}"[:200])
    if workload == "cli-cold":
        failure = check_cli(api, q, prep, result)
    else:
        failure = check_in_process(q, prep, result)
    return Execution(timing, failure, result)


# -- set-up


def setup(workload: str, seed: int):
    """Import the package, generate the inputs, prepare them and warm up."""
    api = load_api()
    if api is None:
        return None
    make, anchor = generate.WORKLOADS[workload]
    queries = make(seed)
    prepared = prepare(api, workload, queries)
    if workload == "cli-cold":
        import mpmath  # noqa: F401  (checks gamma values)

        run_cli(["gamma", "--eval", "1", "--json"])
    else:
        first = queries[0]
        execute(api, workload, first, prepared[first.name])
    return api, queries, prepared, anchor


class HostSpeed:
    """Times a fixed piece of the benchmark's own exact arithmetic around and
    during every measured stretch, to scale that stretch to a steady host.

    The host is shared, and its speed flips between states about two times
    apart, which can last from under a second to longer than a run.  The
    kernel does the same kind of work as the package (products of
    Fraction pairs in dicts) and does not depend on it, so its time measures
    the host's speed at that moment.  ``clock()`` samples the kernel when a
    stretch ends and, from an interval timer, every ``HOST_SAMPLE_S``
    within it.  Each piece of the stretch between two samples is scaled to
    a host on which the kernel takes ``REFERENCE_KERNEL_S``, from the
    geometric mean of its two samples.  The time spent in the samples
    within a stretch is left out of both its times.  A child process being
    waited for shares the one CPU with this process, so it is stopped while
    the kernel runs.
    """

    def __init__(self) -> None:
        rng = random.Random("host-reference")
        self.a, self.b = (generate.random_poly(rng, 3, 16, [0, 1, 2], 4, 3, bound=9, complex_share=0.3) for _ in range(2))
        self.samples = [self._kernel()]
        self.paused = 0.0
        self._piece_start = 0.0
        self._scaled = 0.0
        signal.signal(signal.SIGALRM, self._on_alarm)

    def _kernel(self) -> float:
        """Best of three timings of the kernel."""
        best = math.inf
        for _ in range(3):
            start = perf_counter()
            generate.pmul(self.a, self.b)
            best = min(best, perf_counter() - start)
        return best

    def _close_piece(self, end: float) -> None:
        self.samples.append(self._kernel())
        self._scaled += (end - self._piece_start) * REFERENCE_KERNEL_S / math.sqrt(self.samples[-2] * self.samples[-1])

    def _on_alarm(self, signum, frame) -> None:
        start = perf_counter()
        child = running_child
        if child is not None:
            os.kill(child, signal.SIGSTOP)
        try:
            self._close_piece(start)
        finally:
            if child is not None:
                os.kill(child, signal.SIGCONT)
        self._piece_start = perf_counter()
        self.paused += self._piece_start - start

    @contextlib.contextmanager
    def clock(self):
        timing = Timing()
        paused = self.paused
        self._scaled = 0.0
        start = self._piece_start = perf_counter()
        signal.setitimer(signal.ITIMER_REAL, HOST_SAMPLE_S, HOST_SAMPLE_S)
        try:
            yield timing
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            end = perf_counter()
            self._close_piece(end)
            timing.latency = end - start - (self.paused - paused)
            timing.scaled = self._scaled


def measure_setup(workload: str, seed: int, host: HostSpeed) -> Tuple[float, float]:
    """Median wall time of fresh processes that only set up, scaled and unscaled."""
    times, scaled = [], []
    for _ in range(SETUP_REPEATS):
        with host.clock() as timing:
            proc = run_child(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed), "--seconds", "0", "--trace", "0", "--setup-only"]
            )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up process failed: {proc.stderr.strip()[-200:]}")
        times.append(timing.latency)
        scaled.append(timing.scaled)
    return statistics.median(scaled), statistics.median(times)


# -- timed phases


def percentile(values: List[float], share: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)]


def cycle_order(queries, repeat: bool = True) -> list:
    """The executions of one cycle: a query's repeats are spread evenly over
    the cycle rather than run back to back, so that its time does not hang
    on one stretch of machine load."""
    slots = []
    for index, q in enumerate(queries):
        count = q.repeats if repeat else 1
        slots.extend(((j + 0.5) / count, index, q) for j in range(count))
    return [q for _, _, q in sorted(slots, key=lambda slot: slot[:2])]


def timed_phase(seconds: float, queries, run_one: Callable, repeat: bool = True) -> int:
    """One whole cycle of the mix, then more executions in cycle order until
    ``seconds`` have passed; returns the executions run.

    The run stops after the execution that crosses the deadline, so that a
    run lasts about ``seconds`` (or one cycle, if that is longer) whatever a
    cycle costs."""
    order = cycle_order(queries, repeat)
    start = perf_counter()
    executions = 0
    while True:
        for q in order:
            if executions >= len(order) and perf_counter() - start >= seconds:
                return executions
            gc.collect()
            run_one(q)
            executions += 1


class Tally:
    """Latencies, failures and child memory of the executions of one run."""

    def __init__(self):
        self.by_query: Dict[str, List[float]] = {}
        self.scaled: Dict[str, List[float]] = {}
        self.failures: Dict[Tuple[str, str], List] = {}
        self.child_rss_mb = 0.0

    def add(self, q, run: Execution) -> None:
        self.by_query.setdefault(q.name, []).append(run.timing.latency)
        self.scaled.setdefault(q.name, []).append(run.timing.scaled)
        if isinstance(run.result, Child):
            self.child_rss_mb = max(self.child_rss_mb, run.result.rss_mb)
        if run.failure is not None:
            entry = self.failures.setdefault(
                (q.name, run.failure), [0, known_defect(q, run.failure)]
            )
            entry[0] += 1

    @property
    def attempted(self) -> int:
        return sum(map(len, self.by_query.values()))

    @property
    def failed(self) -> int:
        return sum(count for count, _ in self.failures.values())

    @property
    def unexpected(self) -> int:
        return sum(count for count, known in self.failures.values() if not known)

    def failure_lines(self) -> List[str]:
        return [
            f"failed x{count}: {name}: {reason} ({'known defect' if known else 'UNEXPECTED'})"
            for (name, reason), (count, known) in sorted(self.failures.items())
        ]


def run_defects(api, workload: str, defects, prepared) -> Tuple[Tally, List[str]]:
    """Each defect query once, untimed; its outcome by name."""
    tally = Tally()
    for q in defects:
        gc.collect()
        tally.add(q, execute(api, workload, q, prepared[q.name]))
    passed = [f"defect query passed: {q.name}" for q in defects if not any(name == q.name for name, _ in tally.failures)]
    return tally, ["defect query " + line for line in tally.failure_lines()] + passed


def latency_metrics(queries, by_query: Dict[str, List[float]], anchor: str) -> Dict[str, float]:
    """Each query's median time in the run; the percentiles are over the
    queries of the mix, each counted once whatever its repeats."""
    typical = [statistics.median(by_query[q.name]) for q in queries]
    return {
        "queries_per_s": len(typical) / sum(typical),
        "latency_p50_s": percentile(typical, 0.5),
        "latency_p90_s": percentile(typical, 0.9),
        "largest_query_s": statistics.median(by_query[anchor]),
    }


UNITS = {"setup_s": "s", "queries_per_s": "1/s", "latency_p50_s": "s", "latency_p90_s": "s", "largest_query_s": "s", "peak_rss_mb": "MB"}


def end_to_end(args, api, queries, prepared, anchor: str) -> Tuple[Dict, Tally, Dict]:
    host = HostSpeed()
    setup_s, setup_unscaled_s = measure_setup(args.workload, args.seed, host)
    tally = Tally()
    timeline: List[Tuple[str, float, float]] = []

    def run_one(q):
        run = execute(api, args.workload, q, prepared[q.name], clock=host.clock)
        tally.add(q, run)
        timeline.append((q.name, run.timing.latency, run.timing.scaled))

    timed_phase(args.seconds, queries, run_one)
    if args.workload == "cli-cold":
        peak_rss_mb = tally.child_rss_mb
    else:
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    values = {"setup_s": setup_s, **latency_metrics(queries, tally.scaled, anchor), "peak_rss_mb": peak_rss_mb}
    unscaled = {"setup_s": setup_unscaled_s, **latency_metrics(queries, tally.by_query, anchor)}
    metrics = {name: (value, UNITS[name]) for name, value in values.items()}
    return metrics, tally, {"unscaled": unscaled, "timeline": timeline, "host_kernel_s": host.samples}


# -- traced run


def cli_probe(code: str) -> float:
    times = []
    for _ in range(PROBE_REPEATS):
        start = perf_counter()
        run_child([sys.executable, "-c", code])
        times.append(perf_counter() - start)
    return statistics.median(times)


TIME_SPANS = (
    "parser.parse",
    "parser.lower",
    "poly.text",
    "shifts.build",
    "shifts.generators",
    "ideal.decide",
    "ideal.normal_form",
    "ideal.certify",
    "ideal.reexpand",
    "numeric.verify",
    "numeric.sample",
    "numeric.eval",
    "numeric.gamma_eval",
    "cli.process",
)
COUNTS = (
    "parser.chars",
    "poly.text_chars",
    "poly.max_s_degree",
    "scalars.coeff_bits_max",
    "scalars.coeffs",
    "shifts.generators",
    "ideal.terms_in",
    "ideal.nf_terms",
    "ideal.cofactor_terms",
    "numeric.gamma_calls",
    "numeric.min_clearance",
    "numeric.nonfinite_samples",
)


def direct_calls(api, workload, q, prep, traced_result, tracer: Tracer, counts: LayerCounts) -> None:
    """One direct pass over a query's layers, on the inputs the run used.

    In-process workloads reuse the system and polynomial of the traced
    execution, whose parse, decide and verify spans are already recorded;
    after a failed execution they are rebuilt untraced.  For cli-cold the
    whole pipeline is repeated in-process, since the child process cannot be
    seen into; verify-sweep parses the canonical text of
    its term-dict inputs, which its pipeline never does.
    """
    call = tracer.call
    with tracer.request("direct:" + q.name):
        if workload != "cli-cold":
            if traced_result is None:
                system = api.build_shift_system(api.parse_shifts(q.shifts))
                poly = prep.poly or api.parse_gamma_poly(q.text, system.arity)
                payload = None
            else:
                system, poly, _, payload, _ = traced_result
            counts.add("parser.chars", len(q.shifts) + len(q.text))
            if workload == "verify-sweep":
                text = api.gamma_poly_text(poly)
                counts.add("parser.chars", len(text))
                call("parser.lower", api.lower_to_poly, call("parser.parse", api.parse_poly, text, system.arity), system.arity)
            if payload is not None:
                counts.add("poly.text_chars", len(json.dumps(payload)))
            direct_member(api, tracer, counts, poly, system, q.sample_seed, SAMPLES)
            return
        if q.command == "gamma":
            counts.add("parser.chars", len(q.point))
            point = call("parser.parse", api.parse_complex, q.point)
            counts.add("numeric.gamma_calls", 1)
            call("numeric.gamma_eval", api.gamma_eval, point)
            return
        counts.add("parser.chars", len(q.shifts) + len(q.text))
        system = call("shifts.build", api.build_shift_system, call("parser.parse", api.parse_shifts, q.shifts))
        if q.command == "classes":
            generators = call("shifts.generators", system.generators)
            counts.add("shifts.generators", len(generators))
            texts = call("poly.text", lambda: [api.gamma_poly_text(g.as_poly) for g in generators])
            counts.add("poly.text_chars", sum(map(len, texts)))
            return
        try:
            ast = call("parser.parse", api.parse_poly, q.text, system.arity)
        except RecursionError:  # the known parser defect past about 1000 terms
            return
        poly = call("parser.lower", api.lower_to_poly, ast, system.arity)
        if q.command == "reduce":
            normal = call("ideal.normal_form", api.normal_form, poly, system)
            counts.add("poly.text_chars", len(call("poly.text", api.gamma_poly_text, normal)))
            counts.add("ideal.terms_in", len(poly.terms))
            counts.add("ideal.nf_terms", len(normal.terms))
            record_sizes(counts, [poly, normal])
            return
        verdict = call("ideal.decide", api.decide_membership, poly, system)
        counts.add("poly.text_chars", len(json.dumps(call("poly.text", verdict.as_payload))))
        try:
            call("numeric.verify", api.verify_verdict, verdict, system, SAMPLES, q.sample_seed)
        except OverflowError:  # the known oracle defect at gaps of 100 and more
            pass
        direct_member(api, tracer, counts, poly, system, q.sample_seed, SAMPLES)


def per_layer(args, api, queries, defects, prepared, anchor: str) -> Tuple[Dict, Tally, Tracer, Dict]:
    """Paired executions (untraced, then traced) of each query, then one
    direct pass over the layers of every query, the defect queries too; the
    pair difference is the tracing overhead."""
    tracer = Tracer()
    tally = Tally()
    pairs: List[float] = []
    last: Dict[str, object] = {}

    def run_one(q):
        plain = execute(api, args.workload, q, prepared[q.name])
        gc.collect()
        traced = execute(api, args.workload, q, prepared[q.name], tracer.call, tracer.request)
        tally.add(q, traced)
        pairs.append(traced.timing.latency - plain.timing.latency)
        last[q.name] = traced.result

    timed_phase(args.seconds, queries, run_one, repeat=False)
    pipeline_spans = len(tracer.spans)

    counts = LayerCounts()
    for q in queries + defects:
        gc.collect()
        direct_calls(api, args.workload, q, prepared[q.name], last.get(q.name), tracer, counts)

    if args.workload != "cli-cold":
        probe = min((q for q in queries if q.member), key=lambda q: len(q.text or "") + len(q.poly or ()))
        text = probe.text or api.gamma_poly_text(prepared[probe.name].poly)
        argv = cli_argv(dataclasses.replace(probe, text=text))
        with tracer.request("direct:cli-probe"):
            tracer.call("cli.process", run_cli, argv)

    # Sum span time by name, per pass over the mix: a pipeline span divided
    # by the traced executions of its query, direct spans (one pass) as they are.
    roots = {s.id: s for s in tracer.spans if s.parent is None}
    totals: Dict[str, float] = {}
    children: Dict[int, float] = {}
    for span in tracer.spans:
        if span.parent is None:
            continue
        duration = span.end - span.start
        children[span.parent] = children.get(span.parent, 0.0) + duration
        root = roots[span.parent].name
        weight = 1.0 if root.startswith("direct:") else 1.0 / len(tally.by_query[root])
        totals[span.name] = totals.get(span.name, 0.0) + duration * weight

    metrics: Dict[str, Tuple[float, str]] = {}
    for name in TIME_SPANS:
        metrics[name + "_s"] = (totals.get(name, 0.0), "s")
    for name in COUNTS:
        unit = "1" if name == "numeric.min_clearance" else "count"
        metrics[name] = (counts.values.get(name, 0), unit)
    metrics["cli.python_floor_s"] = (cli_probe("pass"), "s")
    metrics["cli.import_s"] = (cli_probe("import gamma_ideal.cli"), "s")

    query_roots = [s for s in roots.values() if not s.name.startswith("direct:")]
    unaccounted = [(s.end - s.start) - children.get(s.id, 0.0) for s in query_roots]
    anchor_roots = [s for s in query_roots if s.name == anchor]
    anchor_total = [s.end - s.start for s in anchor_roots]
    anchor_spans = [children.get(s.id, 0.0) for s in anchor_roots]
    metrics["trace.overhead_s"] = (statistics.median(pairs), "s")
    metrics["trace.unaccounted_s"] = (statistics.median(unaccounted), "s")
    metrics["anchor.query_s"] = (statistics.median(anchor_total), "s")
    metrics["anchor.accounted_s"] = (statistics.median(anchor_spans), "s")

    breakdown: Dict[str, float] = {}
    for span in tracer.spans[:pipeline_spans]:
        if span.parent is not None and roots[span.parent].name == anchor:
            breakdown[span.name] = breakdown.get(span.name, 0.0) + (span.end - span.start) / len(anchor_roots)
    return metrics, tally, tracer, breakdown


def write_record(workload: str, key: str, record: Dict) -> None:
    """Merge one run's record into ``results/<workload>.json``."""
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"{workload}.json"
    try:
        data = json.loads(path.read_text())
    except (OSError, ValueError):
        data = {}
    data[key] = record
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(generate.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    # One CPU for this process and its children: the reference kernel then
    # times the CPU that the measured work runs on (see HostSpeed).
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    ready = setup(args.workload, args.seed)
    if ready is None:
        print(f"error: no package source at {SRC / 'gamma_ideal'}; run from a source checkout", file=sys.stderr)
        return 2
    if args.setup_only:
        return 0
    api, every_query, prepared, anchor = ready
    queries = [q for q in every_query if not q.defect]
    defects = [q for q in every_query if q.defect]

    if args.trace:
        metrics, tally, tracer, breakdown = per_layer(args, api, queries, defects, prepared, anchor)
        RESULTS.mkdir(exist_ok=True)
        (RESULTS / f"{args.workload}.spans.json").write_text(json.dumps([s._asdict() for s in tracer.spans]))
        extra = {"anchor": anchor, "anchor_spans_s": breakdown}
    else:
        metrics, tally, host = end_to_end(args, api, queries, prepared, anchor)
        extra = host
    defect_tally, defect_lines = run_defects(api, args.workload, defects, prepared)
    result = {
        "correct": tally.unexpected == 0 and defect_tally.unexpected == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    write_record(
        args.workload,
        "per_layer" if args.trace else "end_to_end",
        {"seed": args.seed, "seconds": args.seconds, **result, "failures": tally.failure_lines(), "defect_queries": defect_lines, **extra},
    )
    for line in tally.failure_lines() + defect_lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
