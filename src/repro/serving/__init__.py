"""repro.serving — online topic inference over trained SaberLDA models.

Training ends with a checkpoint; this subsystem is everything after it:
load a frozen :class:`~repro.core.model.LDAModel` and answer
"what is this document about?" for unseen documents under live request
load, with the latency and throughput of every design choice measured on
the same simulated-GPU cost model the trainer uses.  The pipeline:

**Loading** — :meth:`InferenceEngine.from_checkpoint` accepts any
checkpoint layout through :func:`repro.core.serialization.load_model`'s
format auto-detection: a plain archive, row shards (data-parallel runs)
or column shards (topic-parallel runs) reassemble to one ``B``; a seeded
query stream is bit-identical across all three.

**Fold-in inference** (:mod:`~repro.serving.foldin`) — ESCA-flavoured
Gibbs sweeps with the paper's sparsity-aware decomposition.  Because
``B̂`` is frozen, the per-word Problem-2 structures (alias table or
W-ary tree — the same ``repro.sampling`` implementations the trainer
ablates) are built *lazily per hot word* and kept in an LRU
:class:`WordSamplerBank` instead of being rebuilt every iteration.
:meth:`FrozenModelState.fold_in` folds a whole micro-batch per call —
one pass per sweep over every document on the vectorized path, whose
bank keeps only word ids (the row CDFs answer Problem 2) — with each
request's result independent of its batch.

**Request path** (:mod:`~repro.serving.queue` /
:mod:`~repro.serving.scheduler` / :mod:`~repro.serving.cache`) — a
bounded :class:`RequestQueue` with admission control sheds load past
saturation; a :class:`BatchScheduler` packs pending documents into
PDOW-style micro-batches (one training chunk's layout, built with
``corpus.chunking``) trading bounded queueing delay for GPU occupancy;
a digest-keyed :class:`ResultCache` answers repeated documents without
spending a batch slot.

**Scaling out** (:mod:`~repro.serving.pool`) — :class:`EnginePool`
feeds ``N`` engines from the one shared queue, either *replicated*
(full model per engine, whole micro-batches to the least-loaded lane)
or *topic-sharded* (engines own ``~K/N`` column slices from the
trainer's :func:`~repro.distributed.shard.plan_topic_shards`; each
batch's Problem-2 work splits by column owner and merges through an
all-to-all charged on
:meth:`~repro.gpusim.cost_model.CostModel.alltoall_seconds`).  Results
stay bit-identical to the single-engine path in both strategies.

**Execution and measurement** (:mod:`~repro.serving.engine` /
:mod:`~repro.serving.server`) — :class:`InferenceEngine` runs the real
fold-in mathematics and charges sampling / lazy pre-processing /
transfer on :class:`~repro.gpusim.cost_model.CostModel`;
:class:`TopicServer` drives the whole path as a discrete-event
simulation under open-loop (Poisson) arrivals and reports p50/p99
latency, sustained QPS, batch occupancy, cache hit rate and rejection
rate — the serving analogue of the trainer's iteration records.

**Real processes** (:mod:`~repro.serving.workers`) — everything above
measures *simulated* seconds; :class:`WorkerPool` is the wall-clock data
plane: N OS worker processes each open the frozen ``phi`` / ``phi_cdf``
off an mmap checkpoint (:func:`repro.core.serialization.save_model_mmap`)
with ``mmap_mode="r"`` — one physical copy of the model shared through
the page cache — and serve micro-batches over real IPC, with
crash/timeout detection, bounded retry and graceful degradation to
in-process execution.  :func:`serve_wallclock` measures sustained QPS
and latency percentiles closed-loop; a :class:`WorkerPool` handed to
:class:`TopicServer` as its executor runs the full open-loop arrival
path **measured** instead of simulated
(:func:`~repro.serving.open_loop.serve_open_loop`), returning a
:class:`WallClockReport` with the same field surface as
:class:`ServingReport`.  Results stay bit-identical to the single
in-process engine because requests are keyed by ``(seed, request_id)``.

**Fault tolerance** (:mod:`~repro.serving.faults` /
:mod:`~repro.serving.supervisor`) — worker death is an input, not an
error.  A seeded :class:`FaultPlan` schedules replayable chaos (crash
before batch *N*, straggler stall, dropped reply, transient
checkpoint-open failure, arrival burst) at pinned hook points in the
worker loop, and a per-lane :class:`Supervisor` — a pure, clock-free
state machine — walks the :class:`DegradationPolicy` ladder
``retry → hedge → respawn → fallback → shed``: hedged duplicates race
on another lane (first answer wins, request-keyed so bit-identity is
untouchable), dead lanes respawn under seeded exponential backoff, and
a circuit breaker quarantines a flapping lane until a half-open probe
succeeds.  The same ``(seed, FaultPlan)`` replays the same failures,
respawns and quarantines; ``bench_fault_tolerance.py`` gates it.

Typical usage::

    from repro.serving import InferenceEngine, TopicServer, make_requests

    engine = InferenceEngine.from_checkpoint("model.ckpt", seed=7)
    server = TopicServer(engine)
    report = server.serve(make_requests(documents, arrival_times))
    print(report.summary())
"""

from .cache import ResultCache, document_digest
from .faults import (
    FAULT_KINDS,
    FaultEvent,
    FaultInjector,
    FaultPlan,
    TransientCheckpointError,
    poisson_arrivals_with_bursts,
)
from .engine import (
    BatchExecution,
    InferenceEngine,
    engine_results_digest,
    warm_sampler_bank,
)
from .foldin import (
    FoldInResult,
    FrozenModelState,
    WordSamplerBank,
    fold_in_proximity,
    request_rng,
)
from .pool import (
    POOL_STRATEGIES,
    EnginePool,
    PoolBatchExecution,
    pool_results_digest,
)
from .open_loop import serve_open_loop
from .queue import RequestQueue, ServingRequest
from .scheduler import BatchScheduler, InferenceBatch, layout_batch
from .stats import LatencyReportMixin, dispatch_tally_increment, pinned_makespan
from .supervisor import (
    BackoffPolicy,
    CircuitBreaker,
    DegradationPolicy,
    Supervisor,
    SupervisorEvent,
)
from .server import (
    RequestOutcome,
    ServingReport,
    TopicServer,
    make_requests,
    poisson_arrivals,
)
from .workers import (
    BatchOutcome,
    WallClockOutcome,
    WallClockReport,
    WorkerJobSpec,
    WorkerPool,
    serve_wallclock,
)

__all__ = [
    "BackoffPolicy",
    "BatchExecution",
    "BatchOutcome",
    "BatchScheduler",
    "CircuitBreaker",
    "DegradationPolicy",
    "EnginePool",
    "FAULT_KINDS",
    "FaultEvent",
    "FaultInjector",
    "FaultPlan",
    "FoldInResult",
    "FrozenModelState",
    "InferenceBatch",
    "InferenceEngine",
    "LatencyReportMixin",
    "POOL_STRATEGIES",
    "PoolBatchExecution",
    "RequestOutcome",
    "RequestQueue",
    "ResultCache",
    "ServingReport",
    "ServingRequest",
    "Supervisor",
    "SupervisorEvent",
    "TopicServer",
    "TransientCheckpointError",
    "WallClockOutcome",
    "WallClockReport",
    "WordSamplerBank",
    "WorkerJobSpec",
    "WorkerPool",
    "dispatch_tally_increment",
    "document_digest",
    "engine_results_digest",
    "fold_in_proximity",
    "layout_batch",
    "make_requests",
    "pinned_makespan",
    "poisson_arrivals",
    "poisson_arrivals_with_bursts",
    "pool_results_digest",
    "request_rng",
    "serve_open_loop",
    "serve_wallclock",
    "warm_sampler_bank",
]
