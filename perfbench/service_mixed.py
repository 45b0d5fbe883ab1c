"""``service_mixed``: open-loop HTTP traffic against ``python -m repro.service``.

The server runs in its own process (``--dataset tpch --scale 0.05``, every
other flag at its default), so the generator's clock is not stalled by the
server's interpreter lock.  ``setup_s`` is the server's own set-up: process
start, data generation, engine construction and the warm-up requests.  The
benchmark process builds its copy of the data set and its replay oracle
before it starts the server, so nothing else runs while that is timed.
Requests are due at a fixed rate, ``RATE`` per second for ``--seconds``
seconds, and are sent when due over at most two connections whether or not
earlier ones have finished.  Each latency is timed from when the request
was due, so a stalled lane also delays the requests behind it.  Arrivals are
evenly spaced rather than Poisson: Poisson clumping decided the median and
gave run-to-run spreads of about half the median across ten seeds.
``throughput_qps`` is completions per second of busy time (see
``busy_throughput``), a figure the server sets, not the offered rate.
Every figure is reported at the reference host speed: a
``hostspeed.Sampler`` probes the host four times a second in a side
process for the whole run, and set-up and window are each divided by the
median slowness sampled during them.

The mix, in fixed proportions per seeded block of 20 requests:

* ``topk``/``threshold`` reads: unsafe ones over a hot set compiled during
  set-up (lineages of 162 to 1,213 rows, far below the default 2M-node
  cache), and ones the keys make safe;
* safe ``evaluate`` reads (the scan-based operator);
* subscription ``update`` writes on two standing top-k subscriptions made
  during set-up, drawn mostly from part and supplier variables (random
  partsupp variables are mostly no-ops).

Writes go through one connection, so they reach the single serial lane in
schedule order; reads do not depend on writes (subscriptions own their
stores), which keeps every response a function of the seed.  After the
window every response is compared with a serial in-process
``QueryService.execute`` replay of the server's admission order.

The traced run hosts the service in-process (``ServiceServer``) on a
``SproutEngine`` subclass that records a span per public call, times each
job's lane work by wrapping ``QueryService._execute``, and compares an
untraced window with a traced one of the same length.
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import resource
import signal
import subprocess
import sys
import threading
from time import perf_counter
from typing import Dict, List, Optional, Tuple

import hostspeed
import tracing
from common import (
    CHECKOUT,
    SCALE_FACTOR,
    SRC,
    STATE_DIR,
    RunResult,
    build_database,
    check_counters,
    freeze_heap,
    median,
    peak_rss_mb,
    percentile,
    provenance,
)

#: Offered load in requests per second: about a fifth of the lane's capacity
#: on this mix, well below the knee, so queueing shows in the tail without a
#: backlog; 340 samples in a 34-second window.
RATE = 10.0
#: Writes use connection 0 only; reads use whichever has less outstanding.
CONNECTIONS = 2

BRANDS = "SELECT p_brand, conf() FROM part, partsupp, supplier WHERE ps_availqty < 300"
SUPPLIER_NATIONS = (
    "SELECT ns_name, conf() FROM nation_s, supplier, partsupp WHERE ps_availqty < 100"
)

#: Request templates.  The ``part ⋈ partsupp ⋈ supplier`` reads stay unsafe
#: under the TPC-H keys, so they take the refinement route over lineage
#: compiled during set-up (warm cache hits).  The region chains become
#: hierarchical under the keys (Section VI's FD-reducts), so the engine
#: answers those top-k and threshold reads with the scan-based operator.
READS = {
    "brands_top5": ("topk", {"sql": BRANDS, "k": 5}),
    "containers_tau": ("threshold", {
        "sql": "SELECT p_container, conf() FROM part, partsupp, supplier "
               "WHERE ps_availqty < 300",
        "tau": 0.999999999999,
    }),
    "size7_nations_top3": ("topk", {
        "sql": "SELECT s_nationkey, conf() FROM part, partsupp, supplier "
               "WHERE p_size = 7 AND ps_availqty < 2000",
        "k": 3,
    }),
    "regions_top2": ("topk", {"sql": "SELECT r_name, conf() FROM region, nation_s, supplier",
                              "k": 2}),
    "customer_regions_tau": ("threshold", {
        "sql": "SELECT r_name, conf() FROM region, nation_c, customer WHERE c_acctbal < 0",
        "tau": 0.5,
    }),
    "segments_evaluate": ("evaluate", {
        "sql": "SELECT c_mktsegment, conf() FROM customer, nation_c WHERE c_acctbal < 0",
    }),
    "supplier_nations_evaluate": ("evaluate", {
        "sql": "SELECT ns_name, conf() FROM nation_s, supplier",
    }),
}
#: Standing top-k subscriptions the writes update.
SUBSCRIPTIONS = [
    {"sql": BRANDS, "k": 5},
    {"sql": SUPPLIER_NATIONS, "k": 5},
]
#: One block of the mix, shuffled by the seed: 13 top-k/threshold reads (4 on
#: the refinement route), 3 evaluate reads and 4 subscription updates per 20
#: requests.  The median falls in the middle of the largest group of similar
#: requests and the 90th percentile in the middle of the refinement-route
#: reads, so neither sits on the edge between two groups.
BLOCK = (
    ["write"] * 4 + ["supplier_nations_evaluate"] * 2
    + ["regions_top2"] * 8
    + ["segments_evaluate", "customer_regions_tau"]
    + ["brands_top5", "containers_tau"] + ["size7_nations_top3"] * 2
)
#: Base tables the writes draw variables from, with their weights; a table
#: a subscription's lineage does not reach is skipped for it.
WRITE_TABLES = {"supplier": 0.5, "part": 0.3, "partsupp": 0.2}

PATHS = {"evaluate": "/evaluate", "topk": "/topk", "threshold": "/threshold",
         "subscribe": "/subscribe"}


def _warmup_requests() -> List[Tuple[str, dict]]:
    """Set-up traffic, identical for the server and the replay oracle."""
    requests = [("subscribe", dict(spec)) for spec in SUBSCRIPTIONS]
    requests += [(kind, dict(params)) for kind, params in list(READS.values()) * 2]
    return requests


def _variable_pools(subscribed: List[dict], database) -> List[Dict[str, list]]:
    """Per subscription: its lineage variables grouped by base table."""
    pools = []
    for payload in subscribed:
        by_table: Dict[str, list] = {table: [] for table in WRITE_TABLES}
        for variable in payload["variables"]:
            table = database.registry.table(variable)
            if table in by_table:
                by_table[table].append(variable)
        pools.append(by_table)
    return pools


def schedule(seed: int, count: int, seconds: float, subscriptions, pools) -> List[dict]:
    """``count`` seeded requests, evenly spaced over [0, seconds)."""
    rng = random.Random(seed)
    offsets = [(index + 0.5) * seconds / count for index in range(count)]
    kinds: List[str] = []
    while len(kinds) < count:
        kinds += rng.sample(BLOCK, len(BLOCK))
    requests = []
    for offset, kind in zip(offsets, kinds):
        if kind != "write":
            name, params = READS[kind]
            params = dict(params)
        else:
            which = rng.randrange(len(subscriptions))
            tables = [table for table in WRITE_TABLES if pools[which][table]]
            table = rng.choices(tables, weights=[WRITE_TABLES[t] for t in tables])[0]
            pool = pools[which][table]
            name = "subscription_update"
            params = {
                "subscription": subscriptions[which],
                "variable": pool[rng.randrange(len(pool))],
                "probability": round(rng.uniform(0.05, 0.95), 4),
            }
        requests.append({"offset": offset, "kind": name, "params": params,
                         "write": kind == "write"})
    return requests


def _route(request: dict) -> Tuple[str, str, dict]:
    kind, params = request["kind"], request["params"]
    if kind == "subscription_update":
        body = {key: value for key, value in params.items() if key != "subscription"}
        return "POST", f"/subscriptions/{params['subscription']}/update", body
    return "POST", PATHS[kind], params


async def _drive(host: str, port: int, requests: List[dict]) -> List[dict]:
    """Send ``requests`` on their schedule; one record per request."""
    from repro.service.client import arequest

    queues = [asyncio.Queue() for _ in range(CONNECTIONS)]
    outstanding = [0] * CONNECTIONS
    records: List[Optional[dict]] = [None] * len(requests)

    async def connection(slot: int) -> None:
        while True:
            item = await queues[slot].get()
            if item is None:
                return
            index, due = item
            method, path, body = _route(requests[index])
            sent = perf_counter()
            try:
                status, payload = await arequest(host, port, method, path, body)
            except Exception as error:  # noqa: BLE001 - counted as a failed request
                status, payload = 0, {"error": repr(error)}
            records[index] = {"due": due, "sent": sent, "done": perf_counter(),
                              "status": status, "payload": payload}
            outstanding[slot] -= 1

    workers = [asyncio.ensure_future(connection(slot)) for slot in range(CONNECTIONS)]
    start = perf_counter()
    for index, request in enumerate(requests):
        due = start + request["offset"]
        delay = due - perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        if request["write"]:
            slot = 0
        else:
            slot = min(range(CONNECTIONS - 1, -1, -1), key=lambda s: outstanding[s])
        outstanding[slot] += 1
        queues[slot].put_nowait((index, due))
    for slot in range(CONNECTIONS):
        queues[slot].put_nowait(None)
    await asyncio.gather(*workers)
    return records


def _normalised(payload: dict) -> dict:
    return json.loads(json.dumps(payload))


def _without_seq(payload: dict) -> str:
    return json.dumps({k: v for k, v in payload.items() if k != "seq"}, sort_keys=True)


def _replay(replica, requests, records, warm_server, warm_replica, result) -> Dict[str, str]:
    """Compare every response with a serial replay; per-request digests."""
    failed = set()
    for index, (served, replayed) in enumerate(zip(warm_server, warm_replica)):
        if _normalised(served) != _normalised(replayed):
            result.fail(f"set-up response {index} differs from the serial replay")
    admitted = []
    for index, record in enumerate(records):
        if record is None or record["status"] != 200:
            failed.add(index)
            status = None if record is None else record["status"]
            result.fail(f"request {index} ({requests[index]['kind']}) got status {status}")
        else:
            admitted.append((record["payload"]["seq"], index))
    for _, index in sorted(admitted):
        request = requests[index]
        replayed = _normalised(replica.execute(request["kind"], dict(request["params"])))
        if replayed != records[index]["payload"]:
            failed.add(index)
            result.fail(f"request {index} ({request['kind']}) differs from the serial replay")
    result.attempted = len(requests)
    result.failed = len(failed)
    return {
        str(index): _without_seq(record["payload"])
        for index, record in enumerate(records)
        if index not in failed
    }


def busy_throughput(records) -> float:
    """Answered requests per second of busy time.

    Walking the answers in admission order, each adds the time from when it
    was sent, or from when the one before it completed if that is later,
    until it completed: the time the serial lane and the HTTP path spent on
    it.  Unlike completions per second of wall time, which at an offered
    rate below the knee is just that rate, this moves with the server.
    """
    answered = sorted(
        (r for r in records if r is not None and r["status"] == 200),
        key=lambda r: r["payload"]["seq"],
    )
    busy, previous = 0.0, float("-inf")
    for record in answered:
        busy += max(0.0, record["done"] - max(record["sent"], previous))
        previous = max(previous, record["done"])
    return len(answered) / busy


def _summarise(requests, records, result: RunResult) -> List[float]:
    latencies = [r["done"] - r["due"] for r in records if r is not None]
    writes = [r["done"] - r["due"] for q, r in zip(requests, records) if q["write"] and r]
    reads = [r["done"] - r["due"] for q, r in zip(requests, records) if not q["write"] and r]
    lags = [r["sent"] - r["due"] for r in records if r is not None]
    span = max(r["done"] for r in records if r) - min(r["due"] for r in records if r)
    quarter = max(1, len(latencies) // 4)
    result.report.append(
        f"service_mixed: {len(latencies)} samples ({len(reads)} reads, {len(writes)} writes) "
        f"at {RATE:g} req/s offered over {CONNECTIONS} connections"
    )
    result.report.append(
        f"  read_p50_ms {1000 * median(reads):.1f}  write_p50_ms {1000 * median(writes):.1f} ms  "
        f"failed_frac {result.failed / max(1, result.attempted):.4f}  "
        f"gen_lag p50 {1000 * median(lags):.2f} ms max {1000 * max(lags):.1f} ms"
    )
    result.report.append(
        f"  backlog: mean latency first quarter {1000 * sum(latencies[:quarter]) / quarter:.1f} ms,"
        f" last quarter {1000 * sum(latencies[-quarter:]) / quarter:.1f} ms; "
        f"{len(latencies) / span:.2f} completions per wall second"
    )
    return latencies


# -- untraced run: server in its own process ---------------------------------------


def _start_server():
    STATE_DIR.mkdir(exist_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH")
                                     else "")
    log = open(STATE_DIR / "server.log", "w")
    try:
        server = subprocess.Popen(
            [sys.executable, "-m", "repro.service", "--dataset", "tpch",
             "--scale", str(SCALE_FACTOR)],
            cwd=CHECKOUT, env=env, stdout=subprocess.PIPE, stderr=log, text=True,
        )
    finally:
        log.close()
    return server


def _await_ready(server, timeout: float = 150.0) -> Tuple[str, int]:
    lines: List[str] = []
    reader = threading.Thread(target=lambda: lines.append(server.stdout.readline()),
                              daemon=True)
    reader.start()
    reader.join(timeout)
    if not lines or not lines[0].startswith("SERVICE READY"):
        raise RuntimeError(f"service did not come up: {lines!r}")
    _, _, host, port = lines[0].split()
    return host, int(port)


#: Seconds the server gets to shut down after SIGINT before it is killed; it
#: holds no state worth saving, and a run must not stall on its shutdown.
STOP_GRACE = 10.0


def _stop_server(server, result: RunResult) -> None:
    if server.poll() is None:
        server.send_signal(signal.SIGINT)
        try:
            server.wait(timeout=STOP_GRACE)
        except subprocess.TimeoutExpired:
            result.report.append(f"server still running {STOP_GRACE:g}s after SIGINT; killed")
            server.kill()
            server.wait()
    server.stdout.close()


def _warm_server(host: str, port: int) -> List[dict]:
    from repro.service.client import RetryPolicy, ServiceClient

    client = ServiceClient(host, port, timeout=120.0, retry=RetryPolicy(retries=0))
    return [client.must("POST", PATHS[kind], params) for kind, params in _warmup_requests()]


def run(seed: int, seconds: int, trace: bool) -> RunResult:
    if trace:
        return _run_traced(seed, seconds)
    from repro.service import QueryService

    result = RunResult()
    # The variable pools and the replay oracle need the data set here too.
    # Both are ready before the server starts, so its set-up runs alone.
    database = build_database()
    replica = QueryService(database).start()
    warm_replica = [replica.execute(kind, params) for kind, params in _warmup_requests()]
    sampler = hostspeed.Sampler()
    try:
        started = perf_counter()
        server = _start_server()
        try:
            host, port = _await_ready(server)
            warm_server = _warm_server(host, port)
            ready = perf_counter()
            subscribed = warm_server[: len(SUBSCRIPTIONS)]
            requests = schedule(seed, int(RATE * seconds), seconds,
                                [p["subscription"] for p in subscribed],
                                _variable_pools(subscribed, database))
            freeze_heap()
            window = perf_counter()
            records = asyncio.run(_drive(host, port, requests))
            done = perf_counter()
        finally:
            _stop_server(server, result)
    finally:
        sampler.stop()
    setup_s = ready - started
    setup_slowness = sampler.median_between(started, ready)
    slowness = sampler.median_between(window, done)
    rss = peak_rss_mb(resource.RUSAGE_CHILDREN)
    result.report.append("provenance " + json.dumps(
        provenance(replica.engine, "service_mixed", seed)))
    digests = _replay(replica, requests, records, warm_server, warm_replica, result)
    replica.close()
    check_counters(result, f"service_mixed-seed{seed}-trace0", digests)
    latencies = _summarise(requests, records, result)
    result.report.append(
        f"  host slowness: set-up {setup_slowness:.3f}, window {slowness:.3f} "
        f"({len(sampler.samples)} samples); measured set-up {setup_s:.2f}s, "
        f"latency p50 {1000 * median(latencies):.1f} ms, "
        f"p90 {1000 * percentile(latencies, 90):.1f} ms, "
        f"throughput {busy_throughput(records):.2f}/s"
    )
    result.metric("setup_s", setup_s / setup_slowness, "s")
    result.metric("latency_p50_ms", 1000.0 * median(latencies) / slowness, "ms")
    result.metric("latency_p90_ms", 1000.0 * percentile(latencies, 90) / slowness, "ms")
    result.metric("throughput_qps", busy_throughput(records) * slowness, "1/s")
    result.metric("peak_rss_mb", rss, "MiB")
    return result


# -- traced run: service in-process on the recording engine ------------------------


class _Admissions:
    """When each job of the traced window was admitted, and its lane span.

    ``QueryService.submit`` is wrapped to note the admission time, and
    ``QueryService._execute``, the one method the serial lane runs every job
    through, records a root span of the ``engine`` layer: its self time is
    the lane time no layer span covers.
    """

    def __init__(self, tracer: tracing.Tracer):
        from repro.service import QueryService

        self.submitted: Dict[object, float] = {}
        self.lane_spans: Dict[object, int] = {}
        self._saved = {name: QueryService.__dict__[name] for name in ("submit", "_execute")}
        submit, execute = self._saved["submit"], self._saved["_execute"]
        submitted, lane_spans = self.submitted, self.lane_spans

        def traced_submit(service, kind, params=None):
            admitted = perf_counter()
            future = submit(service, kind, params)
            submitted[future] = admitted
            return future

        def traced_execute(service, job):
            tracer.fired["QueryService._execute"] += 1
            sid = tracer.begin("QueryService._execute", "engine")
            lane_spans[job.future] = sid
            try:
                return execute(service, job)
            finally:
                tracer.end(sid)

        QueryService.submit = traced_submit
        QueryService._execute = traced_execute

    def restore(self) -> None:
        from repro.service import QueryService

        for name, original in self._saved.items():
            setattr(QueryService, name, original)

    def waits_and_lanes(self, tracer: tracing.Tracer) -> Tuple[List[float], List[float]]:
        """Per job the lane ran: admission to lane start, and lane time."""
        waits, lanes = [], []
        for future, admitted in self.submitted.items():
            if future in self.lane_spans:
                _, _, start, end, _, _ = tracer.spans[self.lane_spans[future]]
                waits.append(start - admitted)
                lanes.append(end - start)
        return waits, lanes


def _run_traced(seed: int, seconds: int) -> RunResult:
    from repro.service import QueryService, ServiceConfig
    from repro.service.client import RetryPolicy, ServiceClient
    from repro.service.http import ServiceServer

    result = RunResult()
    database = build_database()
    engine_class = tracing.engine_class()
    config = ServiceConfig()
    engine = engine_class(database, workers=0, refine_lanes=config.refine_lanes)
    service = QueryService(database, config=config, engine=engine)
    with ServiceServer(service) as server:
        client = ServiceClient(server.host, server.port, timeout=120.0,
                               retry=RetryPolicy(retries=0))
        warm_server = [client.must("POST", PATHS[kind], params)
                       for kind, params in _warmup_requests()]
        subscribed = warm_server[: len(SUBSCRIPTIONS)]
        half = max(1, int(RATE * seconds) // 2)
        requests = schedule(seed, 2 * half, seconds,
                            [p["subscription"] for p in subscribed],
                            _variable_pools(subscribed, database))
        first = requests[:half]
        second = [dict(r, offset=r["offset"] - requests[half]["offset"])
                  for r in requests[half:]]
        freeze_heap()
        plain = asyncio.run(_drive(server.host, server.port, first))
        tracer = tracing.Tracer()
        engine_class.tracer = tracer
        installed = tracing.Installed(tracer)
        admissions = _Admissions(tracer)
        tracer.recording = True
        try:
            traced = asyncio.run(_drive(server.host, server.port, second))
        finally:
            tracer.recording = False
            admissions.restore()
            installed.restore()
        result.report.append("provenance " + json.dumps(
            provenance(engine, "service_mixed", seed)))
    replica = QueryService(database).start()
    warm_replica = [replica.execute(kind, params) for kind, params in _warmup_requests()]
    records = plain + traced
    digests = _replay(replica, first + second, records, warm_server, warm_replica, result)
    replica.close()

    ok = [r for r in traced if r is not None and r["status"] == 200]
    waits, lanes = admissions.waits_and_lanes(tracer)
    top = sum(r["done"] - r["sent"] for r in ok)
    json_seconds = sum(
        rec[3] - rec[2] for rec in tracer.spans.values() if rec[0] == "http.json.dumps"
    )
    http = top - sum(waits) - sum(lanes) - json_seconds
    metrics = tracing.layer_metrics(
        tracer, len(ok), top, {"service.queue_wait": sum(waits), "service.http": http},
    )
    gap = metrics.pop("_identity_gap_s")
    if abs(gap) > 1e-6:
        result.fail(f"layer self times miss the top span by {gap:.9f}s")
    missing = tracing.missing_entries(tracer, _required(engine.execution))
    if missing:
        result.fail(f"wrapped entry points never fired: {missing}")
    for problem in tracer.check_nesting():
        result.fail(problem)
    if len(admissions.submitted) != len(ok) or len(lanes) != len(ok):
        result.fail(f"{len(admissions.submitted)} admissions and {len(lanes)} lane runs "
                    f"for {len(ok)} answered requests")
    if http < 0:
        result.fail(f"negative HTTP remainder {http:.6f}s")
    metrics.update({
        "service.queue_wait_p50_ms": 1000.0 * median(waits),
        "service.queue_wait_p90_ms": 1000.0 * percentile(waits, 90),
        "service.lane_ms": 1000.0 * sum(lanes) / len(ok),
        "service.http_ms": 1000.0 * http / len(ok),
        "service.rejected": sum(1 for r in traced if r is not None and r["status"] == 429),
        "bench.gen_lag_ms": 1000.0 * median([r["sent"] - r["due"] for r in ok]),
        "bench.trace_overhead_ratio": (
            median([r["done"] - r["due"] for r in ok])
            / median([r["done"] - r["due"] for r in plain if r is not None])
        ),
    })
    result.report.append(
        "traced layers (ms/req): " + ", ".join(
            f"{name}={metrics[name]:.2f}"
            for name in list(tracing.LAYER_MS.values())
            + ["engine.unattributed_ms", "service.http_ms"]
        ) + f", queue wait mean {1000 * sum(waits) / len(ok):.2f}"
        + f" = engine.total_ms {metrics['engine.total_ms']:.2f}"
    )
    counters = {name: metrics[name] for name in tracing.DETERMINISTIC}
    counters["responses"] = digests
    check_counters(result, f"service_mixed-seed{seed}-trace1", counters)
    for name, unit in tracing.PER_LAYER_UNITS.items():
        result.metric(name, metrics.get(name, 0), unit)
    tracer.dump(STATE_DIR / f"spans-service_mixed-seed{seed}.jsonl")
    return result


def _required(execution: str) -> List[str]:
    route = tracing.ROUTE_ENTRIES[execution]
    return [
        "TracedEngine.evaluate", "TracedEngine.evaluate_topk", "TracedEngine.evaluate_threshold",
        "service.parse_query", "SproutEngine.is_tractable", *route["answer"], *route["sort"],
        *route["lineage"], "compute_answer_confidences", "dtrees_from_dnfs", "run_decision",
        "finish_selected", "StandingQuery.update_probability", "StandingQuery.refresh",
        "streaming.run_decision", "NodeTable.propagate_from_many", "result_payload",
        "http.json.dumps", "QueryService._execute",
    ]
