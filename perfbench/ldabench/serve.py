"""The ``serve`` workload: one mmap checkpoint, one worker pool, two phases.

* ``open`` — Poisson arrivals at a fixed rate through
  ``TopicServer(pool)`` with the scheduler's defaults; latency runs from
  each request's scheduled arrival.
* ``saturate`` — closed-loop rounds through ``serve_wallclock``, one
  batch of 16 in flight at a time; throughput is the median over the
  rounds of each round's answered requests per second.

Every answered request is then replayed in-process, batch by batch,
through an :class:`~repro.serving.InferenceEngine` over the same
checkpoint, and its theta must match the pool's bit for bit.
"""

from __future__ import annotations

import os
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core import LDAHyperParams
from repro.core.model import LDAModel
from repro.core.serialization import save_model_mmap
from repro.serving import (
    BatchScheduler,
    FrozenModelState,
    InferenceEngine,
    RequestQueue,
    ResultCache,
    ServingRequest,
    TopicServer,
    WorkerPool,
    document_digest,
    engine_results_digest,
    layout_batch,
    make_requests,
    serve_wallclock,
)
from repro.telemetry import Tracer, WallClock, write_chrome_trace

from .inputs import model_counts, poisson_schedule, zipf_queries
from .layers import LayerProbe, layer_rows
from .measure import median, percentile, process_peak_rss_mb
from .report import RunResult
from .spec import SERVE, TRAIN_LAYER_METRICS, ServeSpec

#: The run length the phases are sized for (``run_seconds`` in BENCHMARK.json).
REFERENCE_SECONDS = 30.0

#: Saturate rounds are capped so the query set (and so the inputs of a
#: seed) has a fixed size whatever ``--seconds`` is.
MAX_SATURATE_ROUNDS = 20

#: Parent-side layers of the open phase: layer -> wrapped span names.
DRIVER_LAYERS: Dict[str, List[str]] = {
    "submit": ["WorkerPool.submit"],
    "collect": ["WorkerPool.collect"],
    "dispatch": ["BatchScheduler.dispatch"],
    "queue": ["RequestQueue.offer"],
    "cache": ["ResultCache.get", "ResultCache.put"],
}

#: Every span the traced run must see at least once.
REQUIRED_SPANS = [
    "TopicServer.serve",
    *[name for names in DRIVER_LAYERS.values() for name in names],
    "FrozenModelState.fold_in",
]


@dataclass
class Inputs:
    """The seeded inputs of one serve run."""

    model: LDAModel
    open_requests: List[ServingRequest]
    saturate_queries: List[np.ndarray]


def make_inputs(seed: int, spec: ServeSpec = SERVE) -> Inputs:
    counts = model_counts(seed, spec.vocabulary_size, spec.num_topics, spec.model_tokens_per_topic)
    model = LDAModel(counts, LDAHyperParams.paper_defaults(spec.num_topics))
    total = spec.open_requests + MAX_SATURATE_ROUNDS * spec.saturate_round_requests
    queries = zipf_queries(seed, total, spec.vocabulary_size, spec.query_mean_length)
    arrivals = poisson_schedule(seed, spec.open_rate_qps, spec.open_requests)
    return Inputs(
        model=model,
        open_requests=make_requests(queries[: spec.open_requests], arrivals),
        saturate_queries=queries[spec.open_requests :],
    )


def start_pool(
    inputs: Inputs, seed: int, work_dir: str, spec: ServeSpec, tracer: Optional[Tracer] = None
) -> Tuple[WorkerPool, float]:
    """Write the checkpoint and start the pool; returns it with the seconds taken."""
    checkpoint = os.path.join(work_dir, "checkpoint")
    started = time.perf_counter()
    save_model_mmap(inputs.model, checkpoint)
    pool = WorkerPool(
        checkpoint,
        num_workers=spec.num_workers,
        seed=seed,
        num_sweeps=spec.num_sweeps,
        log_dir=os.path.join(work_dir, "worker_logs"),
        **({"tracer": tracer} if tracer is not None else {}),
    )
    pool.start()
    seconds = time.perf_counter() - started
    if len(pool.live_workers) != spec.num_workers:
        pool.close()
        raise RuntimeError(f"only {len(pool.live_workers)} of {spec.num_workers} workers booted")
    return pool, seconds


@dataclass
class PhaseRecord:
    """What the two phases produced."""

    open_report: object = None
    open_seconds: float = 0.0
    saturate_reports: List[object] = field(default_factory=list)
    round_qps: List[float] = field(default_factory=list)
    requests: Dict[int, ServingRequest] = field(default_factory=dict)

    def reports(self) -> List[object]:
        opened = [self.open_report] if self.open_report is not None else []
        return opened + self.saturate_reports

    def batches(self) -> List[object]:
        return [batch for report in self.reports() for batch in report.batches]

    def outcomes(self) -> List[object]:
        return [outcome for report in self.reports() for outcome in report.outcomes]


def run_open(pool: WorkerPool, inputs: Inputs, record: PhaseRecord) -> TopicServer:
    server = TopicServer(pool)
    started = time.perf_counter()
    record.open_report = server.serve(inputs.open_requests)
    record.open_seconds = time.perf_counter() - started
    record.requests.update({request.request_id: request for request in inputs.open_requests})
    return server


def saturate_rounds(spec: ServeSpec, seconds: float) -> int:
    """Closed-loop rounds for a run of ``seconds``.

    A count, not a deadline: every run of a seed sends the same requests,
    so the workers' lazily built samplers warm up the same way however
    fast the machine is today.
    """
    scaled = round(spec.saturate_rounds * seconds / REFERENCE_SECONDS)
    return min(MAX_SATURATE_ROUNDS, max(2, scaled))


def run_saturate(
    pool: WorkerPool, inputs: Inputs, record: PhaseRecord, spec: ServeSpec, rounds: int
) -> float:
    """Closed-loop rounds; returns the median round's answered requests per second.

    Each batch goes through ``serve_wallclock`` on its own, so one lane
    computes at a time.  With both lanes busy, throughput on a 2-vCPU
    guest swung by 1.6x between runs of the same code, with where the
    host placed the two vCPUs; one lane at a time measures fold-in plus
    IPC per batch, which is what a change to the serving path moves.
    """
    size, batch_docs = spec.saturate_round_requests, spec.batch_docs
    for index in range(rounds):
        # Request ids continue after the open phase's: each request of a
        # run is a distinct document with its own id.
        queries = inputs.saturate_queries[index * size : (index + 1) * size]
        requests = make_requests(
            queries, np.zeros(len(queries)), first_request_id=spec.open_requests + index * size
        )
        answered, seconds = 0, 0.0
        for start in range(0, len(requests), batch_docs):
            report = serve_wallclock(pool, requests[start : start + batch_docs], batch_docs)
            record.saturate_reports.append(report)
            answered += report.answered
            seconds += report.wall_seconds
        record.round_qps.append(answered / seconds)
        record.requests.update({request.request_id: request for request in requests})
    return median(record.round_qps)


def worker_peak_rss_mb(pool: WorkerPool) -> float:
    return max(process_peak_rss_mb(pool.worker_info[wid]["pid"]) for wid in pool.live_workers)


@dataclass
class ReplayResult:
    """The in-process replay of every answered batch."""

    failed_ids: set
    notes: List[str]
    neg_ll_per_token: float
    foldin_seconds: Dict[int, float]
    sampler_builds: int
    digest: str


def replay(
    checkpoint: str,
    seed: int,
    record: PhaseRecord,
    spec: ServeSpec,
    foldin_clock: Optional[List[float]] = None,
) -> ReplayResult:
    """Re-run every answered batch in-process and compare thetas bit for bit.

    ``foldin_clock`` (traced runs) is a running list of fold-in call
    durations appended by a probe; the replay attributes the ones each
    batch adds to that batch's id.
    """
    engine = InferenceEngine.from_mmap_checkpoint(checkpoint, num_sweeps=spec.num_sweeps, seed=seed)
    phi = engine.state.phi
    failed_ids, notes = set(), []
    served, replayed = {}, {}
    foldin_seconds: Dict[int, float] = {}
    builds = 0
    log_likelihood, tokens = 0.0, 0
    for batch in record.batches():
        if batch.status != "answered":
            continue
        requests = [record.requests[request_id] for request_id in batch.request_ids]
        calls_before = len(foldin_clock) if foldin_clock is not None else 0
        execution = engine.execute(layout_batch(requests, batch.batch_id, 0.0))
        if foldin_clock is not None:
            foldin_seconds[batch.batch_id] = sum(foldin_clock[calls_before:])
        builds += execution.samplers_built
        for request, theirs, ours in zip(requests, batch.results, execution.results, strict=True):
            rid = request.request_id
            served[rid], replayed[rid] = theirs, ours
            theta = np.asarray(theirs.theta, dtype=np.float64)
            if not np.all(np.isfinite(theta)) or abs(theta.sum() - 1.0) > 1e-9:
                failed_ids.add(rid)
                notes.append(f"request {rid}: theta sums to {theta.sum()!r}")
            if theta.tobytes() != np.asarray(ours.theta, dtype=np.float64).tobytes():
                failed_ids.add(rid)
                notes.append(f"request {rid}: pool theta differs from the in-process engine")
            log_likelihood += float(np.log(phi[request.word_ids] @ theta).sum())
            tokens += request.num_tokens
    order = sorted(served)
    digest = engine_results_digest([served[rid] for rid in order])
    if digest != engine_results_digest([replayed[rid] for rid in order]):
        notes.append("answered digest differs from the in-process engine's")
    return ReplayResult(
        failed_ids=failed_ids,
        notes=notes[:20],
        neg_ll_per_token=-log_likelihood / max(tokens, 1),
        foldin_seconds=foldin_seconds,
        sampler_builds=builds,
        digest=digest,
    )


def conservation_notes(pool: WorkerPool) -> List[str]:
    stats = pool.stats()
    lhs, rhs = stats["admitted"], stats["answered"] + stats["failed"] + stats["pending"]
    if lhs != rhs:
        return [f"pool admitted {lhs} != answered + failed + pending {rhs}"]
    return []


def unanswered_ids(record: PhaseRecord) -> set:
    return {
        outcome.request_id
        for outcome in record.outcomes()
        if outcome.status not in ("answered", "cache_hit")
    }


def open_latencies(record: PhaseRecord) -> List[float]:
    return [
        outcome.latency_seconds
        for outcome in record.open_report.outcomes
        if outcome.status in ("answered", "cache_hit")
    ]


def run_measured(seed: int, seconds: float, out_dir: str, spec: ServeSpec = SERVE) -> RunResult:
    inputs = make_inputs(seed, spec)
    setups: List[float] = []
    pool = None
    work_dir = None
    record = PhaseRecord()
    try:
        for _ in range(spec.setup_repeats):
            if pool is not None:
                pool.close()
                shutil.rmtree(work_dir)
            work_dir = tempfile.mkdtemp(prefix="serve-", dir=out_dir)
            pool, elapsed = start_pool(inputs, seed, work_dir, spec)
            setups.append(elapsed)
        run_open(pool, inputs, record)
        throughput = run_saturate(pool, inputs, record, spec, saturate_rounds(spec, seconds))
        rss = worker_peak_rss_mb(pool)
        notes = conservation_notes(pool)
        pool.close()
        checked = replay(pool.checkpoint_dir, seed, record, spec)
    finally:
        if pool is not None:
            pool.close()
        if work_dir is not None:
            shutil.rmtree(work_dir, ignore_errors=True)

    failed_ids = unanswered_ids(record) | checked.failed_ids
    latencies = open_latencies(record)
    result = RunResult(
        workload="serve",
        attempted=len(record.requests),
        failed=len(failed_ids),
        notes=notes + checked.notes,
    )
    result.add("throughput_per_s", throughput, len(record.round_qps))
    result.add("latency_p50_ms", percentile(latencies, 50) * 1e3, len(latencies))
    result.add("peak_rss_mb", rss, spec.num_workers)
    result.add("neg_ll_per_token", checked.neg_ll_per_token, len(record.requests))
    result.add("setup_s", median(setups), len(setups))
    result.info.update(
        open_latency_ms={
            f"p{q:g}": percentile(latencies, q) * 1e3 for q in (50, 90, 95, 99, 100)
        },
        saturate_round_qps=record.round_qps,
        setup_seconds=setups,
        open_seconds=record.open_seconds,
        open_mean_batch_docs=record.open_report.mean_batch_docs,
        answered_digest=checked.digest,
    )
    return result


class _Waterfall:
    """Parent-side stamps of the open phase, keyed by request id."""

    def __init__(self, open_ids: set, digests: Dict[str, int]) -> None:
        self.open_ids = open_ids
        self.digests = digests
        self.origin = float("inf")
        self.dispatched: Dict[int, float] = {}
        self.admitted: Dict[int, float] = {}
        self.submit_seconds: List[float] = []
        self.collected: Dict[int, float] = {}

    def on_dispatch(self, args, kwargs, batch, started, finished) -> None:
        now = kwargs.get("now", args[2] if len(args) > 2 else None)
        # The serve loop evaluates now() just before the call, so entry
        # time minus the argument bounds the run clock's origin from above.
        self.origin = min(self.origin, started - now)
        for request in batch.requests:
            self.dispatched[request.request_id] = batch.dispatch_seconds

    def on_submit(self, args, kwargs, batch_id, started, finished) -> None:
        requests = kwargs.get("requests", args[1] if len(args) > 1 else [])
        if requests[0].request_id in self.open_ids:
            self.submit_seconds.append(finished - started)

    def on_collect(self, args, kwargs, outcome, started, finished) -> None:
        self.collected[outcome.batch_id] = finished

    def on_cache_get(self, args, kwargs, value, started, finished) -> None:
        digest = kwargs.get("digest", args[1] if len(args) > 1 else None)
        request_id = self.digests.get(digest)
        if request_id is not None and request_id not in self.admitted:
            self.admitted[request_id] = started


def run_traced(seed: int, seconds: float, out_dir: str, spec: ServeSpec = SERVE) -> RunResult:
    inputs = make_inputs(seed, spec)
    watch_clock = WallClock()
    probe_tracer = Tracer(watch_clock)
    pool_tracer = Tracer(WallClock(watch_clock.watch))
    replay_tracer = Tracer(WallClock(watch_clock.watch))
    stamps = _Waterfall(
        {request.request_id for request in inputs.open_requests},
        {document_digest(request.word_ids): request.request_id for request in inputs.open_requests},
    )
    record = PhaseRecord()
    pool = None
    work_dir = tempfile.mkdtemp(prefix="serve-", dir=out_dir)
    try:
        # The same two phases untraced, on their own pool: the baseline
        # of the tracing overhead.
        rounds = saturate_rounds(spec, seconds)
        baseline = PhaseRecord()
        pool, _ = start_pool(inputs, seed, work_dir, spec)
        run_open(pool, inputs, baseline)
        plain_throughput = run_saturate(pool, inputs, baseline, spec, rounds)
        pool.close()
        shutil.rmtree(work_dir)
        work_dir = tempfile.mkdtemp(prefix="serve-", dir=out_dir)

        probe = LayerProbe(probe_tracer)
        try:
            probe.wrap(TopicServer, "serve", "TopicServer.serve")
            probe.wrap(WorkerPool, "submit", "WorkerPool.submit", hook=stamps.on_submit)
            probe.wrap(WorkerPool, "collect", "WorkerPool.collect", hook=stamps.on_collect)
            probe.wrap(
                BatchScheduler, "dispatch", "BatchScheduler.dispatch", hook=stamps.on_dispatch
            )
            probe.wrap(RequestQueue, "offer", "RequestQueue.offer")
            probe.wrap(ResultCache, "get", "ResultCache.get", hook=stamps.on_cache_get)
            probe.wrap(ResultCache, "put", "ResultCache.put")
            pool, _ = start_pool(inputs, seed, work_dir, spec, tracer=pool_tracer)
            server = run_open(pool, inputs, record)
            traced_throughput = run_saturate(pool, inputs, record, spec, rounds)
            stats = pool.stats()
            notes = conservation_notes(pool)
            pool.close()
        finally:
            probe.close()

        foldin_durations: List[float] = []
        with LayerProbe(replay_tracer) as replay_probe:
            replay_probe.wrap(
                FrozenModelState,
                "fold_in",
                "FrozenModelState.fold_in",
                hook=lambda a, k, r, started, finished: foldin_durations.append(finished - started),
            )
            checked = replay(pool.checkpoint_dir, seed, record, spec, foldin_durations)
        probe.calls.update(replay_probe.calls)
        probe.require_calls(REQUIRED_SPANS)
    finally:
        if pool is not None:
            pool.close()
        shutil.rmtree(work_dir, ignore_errors=True)

    report = record.open_report
    waits, lags, residuals, late = [], [], [], []
    answered_batches = [batch for batch in report.batches if batch.status == "answered"]
    latency_of = {outcome.request_id: outcome.latency_seconds for outcome in report.outcomes}
    for batch in answered_batches:
        collected = stamps.collected[batch.batch_id] - stamps.origin
        for request_id in batch.request_ids:
            arrival = record.requests[request_id].arrival_seconds
            dispatched = stamps.dispatched[request_id]
            wait = dispatched - arrival
            lag = collected - dispatched - batch.latency_seconds
            waits.append(wait)
            lags.append(lag)
            residuals.append(latency_of[request_id] - (wait + batch.latency_seconds + lag))
    for request_id, admitted in stamps.admitted.items():
        late.append(admitted - stamps.origin - record.requests[request_id].arrival_seconds)
    batch_latencies = [batch.latency_seconds for batch in answered_batches]
    ipc = [
        batch.latency_seconds - checked.foldin_seconds[batch.batch_id]
        for batch in answered_batches
    ]
    all_batches = [batch for batch in record.batches() if batch.status == "answered"]
    replay_docs = sum(len(batch.request_ids) for batch in all_batches)
    replay_tokens = sum(
        record.requests[rid].num_tokens for batch in all_batches for rid in batch.request_ids
    )
    foldin_total = sum(foldin_durations)
    cache_spans = [
        span for span in probe_tracer.spans if span.name in DRIVER_LAYERS["cache"]
    ]
    [root] = [span for span in probe_tracer.spans if span.name == "TopicServer.serve"]
    rows, residual = layer_rows(probe_tracer.spans, root, DRIVER_LAYERS)
    rows["driver_loop"] = residual + rows.pop("unassigned")

    write_chrome_trace(
        os.path.join(out_dir, f"serve-seed{seed}-trace.json"),
        [*probe_tracer.spans, *pool_tracer.spans, *replay_tracer.spans],
        metadata={"workload": "serve", "seed": seed},
    )

    failed_ids = unanswered_ids(record) | checked.failed_ids
    result = RunResult(
        workload="serve",
        attempted=len(record.requests) + len(baseline.requests),
        failed=len(failed_ids) + len(unanswered_ids(baseline)),
        notes=notes + checked.notes,
    )
    for metric in TRAIN_LAYER_METRICS:
        result.add(metric, 0.0, 0)
    n_req, n_batch = len(waits), len(answered_batches)
    result.add("queue.wait_p50_ms", percentile(waits, 50) * 1e3, n_req)
    result.add("queue.wait_p99_ms", percentile(waits, 99) * 1e3, n_req)
    result.add("queue.rejected", server.queue.rejected, len(inputs.open_requests))
    result.add("scheduler.batches", probe.calls["BatchScheduler.dispatch"], 1)
    result.add("scheduler.batch_docs_mean", report.mean_batch_docs, n_batch)
    lookups = probe.calls["ResultCache.get"]
    result.add("cache.lookups", lookups, 1)
    result.add("cache.hit_frac", server.cache.hits / lookups if lookups else 0.0, lookups)
    result.add("cache.s", sum(span.duration_seconds for span in cache_spans), len(cache_spans))
    result.add(
        "workers.submit_ms", float(np.mean(stamps.submit_seconds)) * 1e3, len(stamps.submit_seconds)
    )
    result.add("workers.batch_p50_ms", percentile(batch_latencies, 50) * 1e3, n_batch)
    result.add("workers.batch_p99_ms", percentile(batch_latencies, 99) * 1e3, n_batch)
    result.add("workers.ipc_ms", median(ipc) * 1e3, n_batch)
    result.add("workers.retries", stats["retries"], 1)
    result.add("workers.respawns", stats["respawns"], 1)
    result.add("workers.fallback_batches", stats["fallback_batches"], 1)
    result.add("foldin.ms_per_doc", foldin_total / replay_docs * 1e3, replay_docs)
    result.add(
        "foldin.tokens_per_s", replay_tokens * spec.num_sweeps / foldin_total, replay_docs
    )
    result.add("foldin.sampler_builds", checked.sampler_builds, len(all_batches))
    result.add("driver.lag_ms", median(lags) * 1e3, n_req)
    result.add("loadgen.late_p99_ms", percentile(late, 99) * 1e3, len(late))
    result.add("waterfall.max_residual_ms", max(abs(r) for r in residuals) * 1e3, n_req)
    result.add(
        "trace.overhead_frac",
        plain_throughput / traced_throughput - 1.0,
        len(record.round_qps),
    )
    result.info.update(
        driver_rows_s=rows,
        open_seconds=root.duration_seconds,
        untraced_throughput_qps=plain_throughput,
        traced_throughput_qps=traced_throughput,
        untraced_open_p50_ms=percentile(open_latencies(baseline), 50) * 1e3,
        waterfall_ms={
            "queue_wait_p50": percentile(waits, 50) * 1e3,
            "batch_p50": percentile(batch_latencies, 50) * 1e3,
            "driver_lag_p50": median(lags) * 1e3,
            "latency_p50": percentile(open_latencies(record), 50) * 1e3,
        },
    )
    return result
