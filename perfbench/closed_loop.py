"""The closed loop shared by ``safe_mix`` and ``unsafe_cold``.

One client calls the engine back to back.  A pass runs every request of
the workload's fixed mix once, in an order drawn from the workload seed;
the untraced run repeats whole passes while another one fits in
``--seconds``, and runs at least ``MIN_PASSES``, so every run measures the
same mix in the same proportions.  Latency percentiles and throughput are
taken over the mix's requests, each at its median over the passes: with
three or more passes a request slowed by a few seconds of contention on a
shared machine does not move its median.  Every time is reported at the
reference host speed (``hostspeed``): a request's time is divided by the
mean slowness of the probes just before and just after it, and the set-up
time by the median slowness of every probe of the run.  The untraced run
sets up ``SETUPS`` times, from data generation on, and reports the median:
one set-up is a single stretch of a few seconds, which the host's
second-to-second swings move by a fifth.
Garbage collection and (for cold workloads) ``SproutEngine.close()`` run
between requests, outside the timed calls.

The traced run times one untraced pass, then one pass with the span
recorders installed, and derives the per-layer metrics from the second.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Dict, List

import hostspeed
import tracing
from common import (
    STATE_DIR,
    RunResult,
    build_database,
    check_counters,
    freeze_heap,
    median,
    peak_rss_mb,
    percentile,
    provenance,
    settle,
)


#: Fewest passes an untraced run makes, whatever ``--seconds`` says; a
#: median of two samples is their mean, which a single slow one shifts.
MIN_PASSES = 3
#: Set-ups an untraced run makes; the engine of the last one is measured.
SETUPS = 3


@dataclass
class Request:
    """One request of a mix: how to issue it and how to check its answer."""

    label: str
    call: Callable  # (engine) -> EvaluationResult
    check: Callable  # (engine, EvaluationResult) -> error text or None


@dataclass
class ClosedWorkload:
    name: str
    mix: List[Request]
    warmup: Callable  # (engine) -> None, part of set-up
    cold: bool  # close the engine (cold lineage cache) before every request
    required: Callable  # (execution) -> entry points the traced pass must reach


def fingerprint(result) -> Dict[str, object]:
    """Deterministic facts of one answer; identical on every repeat."""
    return {
        "refine_steps": result.refine_steps,
        "rows_processed": result.rows_processed,
        "answer_rows": result.answer_rows,
        "scans_used": result.scans_used,
        "selected": len(result.relation),
        "decided": result.decided,
    }


def _one_pass(workload, engine, rng, probes, tracer=None):
    """Run the mix once in seeded order; [(label, seconds, slowness, result)]."""
    samples = []
    for request in rng.sample(workload.mix, len(workload.mix)):
        if workload.cold:
            engine.close()
        settle()
        before = probes.probe()
        started = perf_counter()
        if tracer is None:
            answer = request.call(engine)
        else:
            with tracer.span("op", "engine"):
                answer = request.call(engine)
        samples.append([request.label, perf_counter() - started, before, answer])
    # Each request's slowness: the mean of the probes on either side of it.
    after = [sample[2] for sample in samples[1:]] + [probes.probe()]
    for sample, slowness in zip(samples, after):
        sample[2] = (sample[2] + slowness) / 2
    return [tuple(sample) for sample in samples]


def _check_answers(workload, engine, samples, result: RunResult) -> Dict[str, object]:
    """Check each label's first answer; every repeat must match it exactly."""
    by_label = {request.label: request for request in workload.mix}
    counters: Dict[str, object] = {}
    wrong = set()
    for index, (label, _, _, answer) in enumerate(samples):
        facts = fingerprint(answer)
        if label not in counters:
            counters[label] = facts
            error = by_label[label].check(engine, answer)
            if error is not None:
                wrong.add(index)
                result.fail(f"{workload.name} {label}: {error}")
        elif facts != counters[label]:
            wrong.add(index)
            result.fail(f"{workload.name} {label}: repeat differs {facts} != {counters[label]}")
    result.attempted = len(samples)
    result.failed = len(wrong)
    return counters


def _set_up(workload, engine_class):
    """Data set, engine and warm-up; (engine, seconds)."""
    started = perf_counter()
    engine = engine_class(build_database())
    workload.warmup(engine)
    if workload.cold:
        engine.close()
    return engine, perf_counter() - started


def run(workload: ClosedWorkload, seed: int, seconds: int, trace: bool, engine_class):
    result = RunResult()
    probes = hostspeed.Probes()
    setups = []
    for _ in range(1 if trace else SETUPS):
        if setups:
            engine.close()
            del engine
            settle()
        probes.burst()
        engine, setup_s = _set_up(workload, engine_class)
        setups.append(setup_s)
    freeze_heap()
    probes.burst()
    result.report.append("provenance " + json.dumps(provenance(engine, workload.name, seed)))
    rng = random.Random(seed)

    if not trace:
        samples = []
        window = perf_counter()
        passes = 0
        while True:
            samples += _one_pass(workload, engine, rng, probes)
            passes += 1
            elapsed = perf_counter() - window
            if passes >= MIN_PASSES and elapsed + elapsed / passes > seconds:
                break
        rss = peak_rss_mb()
        setup_slowness = probes.median()
        counters = _check_answers(workload, engine, samples, result)
        check_counters(result, f"{workload.name}-seed{seed}-trace0", counters)
        latencies = [seconds_ for _, seconds_, _, _ in samples]
        # The fixed mix with each request at its median over the passes, so
        # the figures do not depend on how many passes fit the window.
        per_request = {
            request.label: median([
                s / slowness for label, s, slowness, _ in samples if label == request.label
            ])
            for request in workload.mix
        }
        raw = {
            request.label: median([s for label, s, _, _ in samples if label == request.label])
            for request in workload.mix
        }
        result.metric("setup_s", median(setups) / setup_slowness, "s")
        result.metric("latency_p50_ms", 1000.0 * median(per_request.values()), "ms")
        result.metric("latency_p90_ms", 1000.0 * percentile(per_request.values(), 90), "ms")
        result.metric("throughput_qps", len(per_request) / sum(per_request.values()), "1/s")
        result.metric("peak_rss_mb", rss, "MiB")
        result.report.append(
            f"{workload.name}: {passes} pass(es) of {len(workload.mix)} requests, "
            f"{len(latencies)} samples, {sum(latencies):.2f}s busy, "
            f"failed_frac {result.failed / result.attempted:.4f}"
        )
        result.report.append(
            f"  host slowness: run median {setup_slowness:.3f}, requests median "
            f"{median([slowness for _, _, slowness, _ in samples]):.3f}; measured set-ups "
            + " ".join(f"{s:.2f}s" for s in setups)
            + f", latency p50 {1000 * median(raw.values()):.1f} ms, "
            f"p90 {1000 * percentile(raw.values(), 90):.1f} ms"
        )
        for label, seconds_ in per_request.items():
            result.report.append(
                f"  {label:<40} median {1000 * seconds_:9.1f} ms "
                f"(measured {1000 * raw[label]:9.1f} ms)"
            )
        return result

    plain = _one_pass(workload, engine, rng, probes)
    tracer = tracing.Tracer()
    engine_class.tracer = tracer
    installed = tracing.Installed(tracer)
    tracer.recording = True
    try:
        traced = _one_pass(workload, engine, rng, probes, tracer)
    finally:
        tracer.recording = False
        installed.restore()
    _check_answers(workload, engine, plain + traced, result)
    top = sum(rec[3] - rec[2] for rec in tracer.spans.values() if rec[0] == "op")
    metrics = tracing.layer_metrics(tracer, len(traced), top)
    _trace_integrity(workload, engine, tracer, metrics, result)
    metrics["bench.trace_overhead_ratio"] = (
        median([s for _, s, _, _ in traced]) / median([s for _, s, _, _ in plain])
    )
    counters = {name: metrics[name] for name in tracing.DETERMINISTIC}
    check_counters(result, f"{workload.name}-seed{seed}-trace1", counters)
    for name, unit in tracing.PER_LAYER_UNITS.items():
        result.metric(name, metrics.get(name, 0), unit)
    STATE_DIR.mkdir(exist_ok=True)
    tracer.dump(STATE_DIR / f"spans-{workload.name}-seed{seed}.jsonl")
    return result


def _trace_integrity(workload, engine, tracer, metrics, result: RunResult) -> None:
    """Every required wrapper fired, spans nest, and layers sum to the top."""
    missing = tracing.missing_entries(tracer, workload.required(engine.execution))
    if missing:
        result.fail(f"wrapped entry points never fired: {missing}")
    for problem in tracer.check_nesting():
        result.fail(problem)
    gap = metrics.pop("_identity_gap_s")
    if abs(gap) > 1e-6:
        result.fail(f"layer self times miss the top span by {gap:.9f}s")
    result.report.append(
        "traced layers (ms/op): " + ", ".join(
            f"{name}={metrics[name]:.2f}"
            for name in list(tracing.LAYER_MS.values()) + ["engine.unattributed_ms"]
        ) + f" = engine.total_ms {metrics['engine.total_ms']:.2f}"
    )

