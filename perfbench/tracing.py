"""Span recorders wrapped around the public entry points of each layer.

The traced run patches module attributes and class methods of ``repro``
from here, so ``src/`` stays untouched.  Each wrapper records one span
(name, layer, start, end, parent) on a per-thread stack, plus the layer's
deterministic counters.  Spans stay in memory and are written out once,
when the run ends.

A layer's self time is its spans' durations minus the time their child
spans cover.  A wrapper with ``layer=None`` (the generic sort and batch
execution calls) takes the layer of the layer span it runs inside, so a
sort inside the confidence operator counts as confidence time; called
straight from the engine, it counts as answer materialisation.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: Per-layer metrics, in the order BENCHMARK.json lists them.
LAYER_MS = {
    "query.parse": "query.parse_ms",
    "query.classify": "query.classify_ms",
    "planner": "planner.answer_ms",
    "conf": "conf.operator_ms",
    "lineage": "lineage.extract_ms",
    "compile": "compile.ms",
    "refine.decide": "refine.decide_ms",
    "refine.finish": "refine.finish_ms",
    "refine.propagate": "refine.propagate_ms",
    "stream": "stream.delta_ms",
    "service.serialise": "service.serialise_ms",
}

#: Counters that must repeat exactly between runs of the same seed.
DETERMINISTIC = (
    "refine.steps",
    "planner.rows_processed",
    "planner.answer_rows",
    "lineage.clauses",
    "compile.nodes",
    "conf.scans",
)


class Tracer:
    """In-memory span store with per-thread nesting."""

    def __init__(self) -> None:
        self.recording = False
        self.spans: Dict[int, list] = {}
        self.counters: Counter = Counter()
        self.fired: Counter = Counter()
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, layer: Optional[str]) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else None
        if layer is None:
            inherited = self.spans[parent][1] if parent is not None else "engine"
            layer = "planner" if inherited == "engine" else inherited
        sid = next(self._ids)
        self.spans[sid] = [name, layer, time.perf_counter(), None, parent,
                           threading.get_ident()]
        stack.append(sid)
        return sid

    def end(self, sid: int) -> None:
        self._stack().pop()
        self.spans[sid][3] = time.perf_counter()

    def span(self, name: str, layer: str) -> "_SpanContext":
        return _SpanContext(self, name, layer)

    def wrap(
        self,
        entry: str,
        layer: Optional[str],
        function: Callable,
        before: Optional[Callable] = None,
        after: Optional[Callable] = None,
    ) -> Callable:
        """``function`` recording a span per call while ``recording`` is on."""
        tracer = self

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            if not tracer.recording:
                return function(*args, **kwargs)
            tracer.fired[entry] += 1
            state = before(args, kwargs) if before is not None else None
            sid = tracer.begin(entry, layer)
            try:
                result = function(*args, **kwargs)
            finally:
                tracer.end(sid)
            if after is not None:
                after(tracer.counters, state, args, kwargs, result)
            return result

        return wrapper

    # -- analysis ------------------------------------------------------------

    def self_times(self) -> Dict[int, float]:
        """Span id -> duration minus the time its children cover."""
        selfs = {sid: rec[3] - rec[2] for sid, rec in self.spans.items() if rec[3] is not None}
        for sid, rec in self.spans.items():
            parent = rec[4]
            if parent is not None and rec[3] is not None:
                selfs[parent] -= rec[3] - rec[2]
        return selfs

    def layer_totals(self) -> Dict[str, float]:
        """Self seconds per layer."""
        per_layer: Dict[str, float] = defaultdict(float)
        for sid, seconds in self.self_times().items():
            per_layer[self.spans[sid][1]] += seconds
        return dict(per_layer)

    def check_nesting(self, tolerance: float = 1e-6) -> List[str]:
        """Problems with the span tree: unfinished spans, negative self time."""
        problems = []
        for sid, rec in self.spans.items():
            if rec[3] is None:
                problems.append(f"span {rec[0]} never ended")
        for sid, seconds in self.self_times().items():
            if seconds < -tolerance:
                problems.append(f"span {self.spans[sid][0]} has negative self time {seconds:.6f}s")
        return problems

    def dump(self, path) -> None:
        """Write every span once, as JSON lines."""
        with open(path, "w") as handle:
            for sid, (name, layer, start, end, parent, thread) in self.spans.items():
                handle.write(json.dumps({
                    "id": sid, "name": name, "layer": layer, "start": start,
                    "end": end, "parent": parent, "thread": thread,
                }) + "\n")


class _SpanContext:
    def __init__(self, tracer: Tracer, name: str, layer: str):
        self.tracer, self.name, self.layer = tracer, name, layer
        self.sid: Optional[int] = None

    def __enter__(self) -> "_SpanContext":
        if self.tracer.recording:
            self.sid = self.tracer.begin(self.name, self.layer)
        return self

    def __exit__(self, *exc_info) -> None:
        if self.sid is not None:
            self.tracer.end(self.sid)


# -- counters read at the layer boundaries ------------------------------------


def _lineage_clauses(counters, state, args, kwargs, result) -> None:
    counters["lineage.clauses"] += sum(len(dnf) for dnf in result.values())


def _columnar_clauses(counters, state, args, kwargs, result) -> None:
    counters["lineage.clauses"] += sum(len(clauses) for clauses in result[0].values())


def _cache_before(args, kwargs):
    cache = kwargs.get("cache")
    if cache is None or not hasattr(cache, "store"):
        return None
    return (cache.store, cache.store.node_count, cache.hits, cache.misses, cache.evictions)


def _cache_after(counters, state, args, kwargs, result) -> None:
    if state is None:
        return
    cache = kwargs["cache"]
    store, nodes, hits, misses, evictions = state
    if cache.store is store:
        counters["compile.nodes"] += store.node_count - nodes
    counters["cache.hits"] += cache.hits - hits
    counters["cache.misses"] += cache.misses - misses
    counters["cache.evictions"] += cache.evictions - evictions


def _conf_scans(counters, state, args, kwargs, result) -> None:
    counters["conf.scans"] += result[2]


def _decision_steps(counters, state, args, kwargs, result) -> None:
    outcome, finishing = result
    counters["refine.steps"] += outcome.steps + finishing


def _round(counters, state, args, kwargs, result) -> None:
    counters["refine.rounds"] += 1


def _refresh(counters, state, args, kwargs, result) -> None:
    watch = args[0]
    counters["stream.refreshes"] += 1
    counters["stream.delta_steps"] += result.delta_steps
    if watch.last_entered or watch.last_left:
        counters["stream.answer_changed"] += 1


# -- the wrap points ------------------------------------------------------------


def wrap_points():
    """(owner, attribute, entry name, layer, before, after) for every wrapper."""
    import repro.algebra.columnar as columnar
    import repro.prob.nodetable as nodetable
    import repro.prob.sharedag as sharedag
    import repro.query.parser as parser
    import repro.service.core as service_core
    import repro.sprout.engine as engine
    import repro.sprout.streaming as streaming
    import repro.sprout.topk as topk
    import repro.storage.relation as relation

    return [
        (parser, "parse_query", "parse_query", "query.parse", None, None),
        (service_core, "parse_query", "service.parse_query", "query.parse", None, None),
        (engine.SproutEngine, "is_tractable", "SproutEngine.is_tractable",
         "query.classify", None, None),
        (engine.SproutEngine, "signature_for", "SproutEngine.signature_for",
         "query.classify", None, None),
        (engine, "materialize_answer", "materialize_answer", "planner", None, None),
        (engine, "build_answer_plan_batch", "build_answer_plan_batch", "planner", None, None),
        (columnar.BatchOperator, "to_batch", "BatchOperator.to_batch", None, None, None),
        (relation.Relation, "sorted_by", "Relation.sorted_by", None, None, None),
        (engine, "sort_batch", "sort_batch", "planner", None, None),
        (engine, "compute_answer_confidences", "compute_answer_confidences", "conf",
         None, _conf_scans),
        (engine, "lineage_by_tuple", "lineage_by_tuple", "lineage", None, _lineage_clauses),
        (engine, "probabilities_from_answer", "probabilities_from_answer", "lineage",
         None, None),
        (engine, "columnar_lineage", "columnar_lineage", "lineage", None, _columnar_clauses),
        (engine, "dtrees_from_dnfs", "dtrees_from_dnfs", "compile", _cache_before,
         _cache_after),
        (streaming, "dtrees_from_dnfs", "streaming.dtrees_from_dnfs", "compile",
         _cache_before, _cache_after),
        (engine, "run_decision", "run_decision", "refine.decide", None, _decision_steps),
        (streaming, "run_decision", "streaming.run_decision", "refine.decide", None,
         _decision_steps),
        (topk, "finish_selected", "finish_selected", "refine.finish", None, None),
        (sharedag.SharedLineageStore, "refine_round", "SharedLineageStore.refine_round",
         "refine.decide", None, _round),
        (nodetable.NodeTable, "propagate_from_many", "NodeTable.propagate_from_many",
         "refine.propagate", None, None),
        (streaming.StandingQuery, "update_probability", "StandingQuery.update_probability",
         "stream", None, None),
        (streaming.StandingQuery, "refresh", "StandingQuery.refresh", "stream", None,
         _refresh),
        (service_core, "result_payload", "result_payload", "service.serialise", None, None),
    ]


#: Entry points each execution route must reach, by what the workload does.
ROUTE_ENTRIES = {
    "row": {
        "answer": ["materialize_answer"],
        "sort": ["Relation.sorted_by"],
        "lineage": ["lineage_by_tuple", "probabilities_from_answer"],
    },
    "batch": {
        "answer": ["BatchOperator.to_batch"],
        "sort": ["sort_batch"],
        "lineage": ["columnar_lineage"],
    },
}


class Installed:
    """The wrappers of one traced run; ``restore()`` puts the originals back."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._saved: List[Tuple[object, str, object]] = []
        for owner, attribute, entry, layer, before, after in wrap_points():
            original = owner.__dict__[attribute]
            self._saved.append((owner, attribute, original))
            setattr(owner, attribute, tracer.wrap(entry, layer, original, before, after))
        self._wrap_http_json()

    def _wrap_http_json(self) -> None:
        """Time the HTTP layer's ``json.dumps`` of each response body."""
        import repro.service.http as http

        tracer = self.tracer
        module_json = http.json

        class _Json:
            def __getattr__(self, name):
                return getattr(module_json, name)

        proxy = _Json()
        proxy.dumps = tracer.wrap("http.json.dumps", "service.serialise", module_json.dumps)
        self._saved.append((http, "json", module_json))
        http.json = proxy

    def restore(self) -> None:
        for owner, attribute, original in reversed(self._saved):
            setattr(owner, attribute, original)
        self._saved.clear()


def engine_class():
    """A ``SproutEngine`` subclass recording one span per public call.

    The outermost call of each thread also takes the answer-size counters
    from the ``EvaluationResult`` it returns, so nested calls (top-k over a
    tractable query evaluates it) are counted once.
    """
    from repro.sprout.engine import EvaluationResult, SproutEngine

    class TracedEngine(SproutEngine):
        tracer: Optional[Tracer] = None

        def _traced(self, name, method, *args, **kwargs):
            tracer = self.tracer
            if tracer is None or not tracer.recording:
                return method(*args, **kwargs)
            tracer.fired[f"TracedEngine.{name}"] += 1
            outermost = not any(
                tracer.spans[sid][0] == "engine.call" for sid in tracer._stack()
            )
            sid = tracer.begin("engine.call", "engine")
            try:
                result = method(*args, **kwargs)
            finally:
                tracer.end(sid)
            if outermost and isinstance(result, EvaluationResult):
                tracer.counters["planner.rows_processed"] += result.rows_processed
                tracer.counters["planner.answer_rows"] += result.answer_rows
            return result

        def evaluate(self, *args, **kwargs):
            return self._traced("evaluate", super().evaluate, *args, **kwargs)

        def evaluate_topk(self, *args, **kwargs):
            return self._traced("evaluate_topk", super().evaluate_topk, *args, **kwargs)

        def evaluate_threshold(self, *args, **kwargs):
            return self._traced(
                "evaluate_threshold", super().evaluate_threshold, *args, **kwargs
            )

        def watch_topk(self, *args, **kwargs):
            return self._traced("watch_topk", super().watch_topk, *args, **kwargs)

        def watch_threshold(self, *args, **kwargs):
            return self._traced("watch_threshold", super().watch_threshold, *args, **kwargs)

    return TracedEngine


def missing_entries(tracer: Tracer, required: Sequence[str]) -> List[str]:
    """Required entry points that never fired in the traced window."""
    return [entry for entry in required if tracer.fired[entry] == 0]


def layer_metrics(
    tracer: Tracer,
    ops: int,
    top_seconds: float,
    extra_layers: Optional[Dict[str, float]] = None,
) -> Dict[str, float]:
    """Per-op layer self times (ms) plus the window's counters.

    ``top_seconds`` is the summed top span of every operation; the
    ``engine`` layer (top-span self time plus engine-call overhead) is
    reported as ``engine.unattributed_ms``.  ``extra_layers`` adds seconds
    measured outside the span tree (the service's queue wait and HTTP time).
    """
    per_layer = tracer.layer_totals()
    for layer, seconds in (extra_layers or {}).items():
        per_layer[layer] = per_layer.get(layer, 0.0) + seconds
    metrics: Dict[str, float] = {}
    for layer, name in LAYER_MS.items():
        metrics[name] = 1000.0 * per_layer.get(layer, 0.0) / ops
    counters = tracer.counters
    lookups = counters["cache.hits"] + counters["cache.misses"]
    refreshes = counters["stream.refreshes"]
    metrics.update({
        "planner.rows_processed": counters["planner.rows_processed"],
        "planner.answer_rows": counters["planner.answer_rows"],
        "conf.scans": counters["conf.scans"],
        "lineage.clauses": counters["lineage.clauses"],
        "compile.nodes": counters["compile.nodes"],
        "cache.hit_ratio": counters["cache.hits"] / lookups if lookups else 0.0,
        "cache.evictions": counters["cache.evictions"],
        "refine.rounds": counters["refine.rounds"],
        "refine.steps": counters["refine.steps"],
        "stream.delta_steps": counters["stream.delta_steps"],
        "stream.answer_changed_ratio": (
            counters["stream.answer_changed"] / refreshes if refreshes else 0.0
        ),
        "engine.total_ms": 1000.0 * top_seconds / ops,
        "engine.unattributed_ms": 1000.0 * per_layer.get("engine", 0.0) / ops,
    })
    attributed = sum(per_layer.values())
    metrics["_identity_gap_s"] = top_seconds - attributed
    return metrics


#: Units of the per-layer metrics.
PER_LAYER_UNITS = {
    **{name: "ms" for name in LAYER_MS.values()},
    "planner.rows_processed": "count",
    "planner.answer_rows": "count",
    "conf.scans": "count",
    "lineage.clauses": "count",
    "compile.nodes": "count",
    "cache.hit_ratio": "ratio",
    "cache.evictions": "count",
    "refine.rounds": "count",
    "refine.steps": "count",
    "stream.delta_steps": "count",
    "stream.answer_changed_ratio": "ratio",
    "service.queue_wait_p50_ms": "ms",
    "service.queue_wait_p90_ms": "ms",
    "service.lane_ms": "ms",
    "service.http_ms": "ms",
    "service.rejected": "count",
    "engine.total_ms": "ms",
    "engine.unattributed_ms": "ms",
    "bench.gen_lag_ms": "ms",
    "bench.trace_overhead_ratio": "ratio",
}
