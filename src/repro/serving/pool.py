"""Multi-engine serving: one shared queue feeding a pool of engines.

A single :class:`~repro.serving.engine.InferenceEngine` is one device;
its micro-batch capacity is the serving knee.  :class:`EnginePool`
scales the serving tier past that knee the same two ways the trainer
scales (``repro.distributed``):

* ``"replicated"`` — every engine holds a full frozen model and the pool
  exposes one dispatch *lane per engine*: the server hands each whole
  micro-batch to the least-loaded idle engine, so up to ``N`` batches are
  in flight at once.  Memory per engine stays the full ``V x K`` model;
  aggregate throughput scales with the lane count until the shared queue
  (or the arrival process) runs dry.
* ``"topic_sharded"`` — the engines own contiguous column ranges of the
  frozen ``B̂`` from the trainer's own
  :func:`~repro.distributed.shard.plan_topic_shards`, and every batch is
  executed *cooperatively*: each engine runs the batch's Problem-2 draws
  for its ``~K/N`` columns, then the per-document topic statistics merge
  through an all-to-all charged on
  :meth:`~repro.gpusim.cost_model.CostModel.alltoall_seconds`.  The pool
  exposes a single lane (one batch at a time across all engines), the
  per-engine model footprint shrinks to the widest column slice, and the
  batch barrier is the slowest shard plus the exchange.

Like the topic-parallel trainer (PR 2), the *mathematics* of a sharded
batch run globally on the full frozen state while the *cost* is
attributed per column owner — which is exactly what keeps every result
bit-identical to the single-engine path: per-request RNG keying
(:func:`~repro.serving.foldin.request_rng`) already makes a request's
mixture independent of batch composition, and the pool adds no draw the
single engine would not make.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..core.model import LDAModel
from ..core.serialization import load_model
from ..distributed.shard import TopicShardPlan, plan_topic_shards
from ..gpusim.cost_model import CostModel
from ..gpusim.streams import PCIE_P2P, InterconnectSpec
from ..kernels.backend import KernelBackend
from .engine import BatchExecution, InferenceEngine, cost_batch_phases
from .foldin import FoldInResult, FrozenModelState, WordSamplerBank
from .scheduler import InferenceBatch

#: The supported scaling strategies of the serving pool.
POOL_STRATEGIES = ("replicated", "topic_sharded")

#: Phase key of the sharded pool's merge exchange (mirrors the trainer's
#: ``phase_breakdown`` naming for the same collective).
PHASE_ALLTOALL = "alltoall"

#: Bytes of one merged per-(document, topic) count entry on the wire
#: (int32, the collectives' wire format).  Public because the analytic
#: projection (:func:`repro.evaluation.serving.project_pool_throughput`)
#: charges the same exchange and must not drift from the pool.
MERGE_ENTRY_BYTES = 4


@dataclass(frozen=True)
class PoolBatchExecution:
    """One batch executed by the pool: results plus per-engine cost.

    Attributes
    ----------
    batch / results:
        As :class:`~repro.serving.engine.BatchExecution` — the results
        are bit-identical to what any single engine would produce.
    engine_id:
        The executing lane (replicated), or ``-1`` when every engine
        participated (topic-sharded).
    participants:
        Engine ids charged in ``per_engine_phase_seconds`` order.
    per_engine_phase_seconds:
        Phase breakdown of each participating engine.
    alltoall_seconds:
        Merge-exchange cost of the batch (zero for replicated pools).
    samplers_built:
        Per-word structures built during this batch.
    """

    batch: InferenceBatch
    results: List[FoldInResult]
    engine_id: int
    participants: List[int]
    per_engine_phase_seconds: List[Dict[str, float]]
    alltoall_seconds: float = 0.0
    samplers_built: int = 0

    @property
    def barrier_seconds(self) -> float:
        """Compute time of the slowest participating engine."""
        return max(sum(phases.values()) for phases in self.per_engine_phase_seconds)

    @property
    def seconds(self) -> float:
        """Total simulated batch time: slowest engine plus the exchange."""
        return self.barrier_seconds + self.alltoall_seconds

    @property
    def phase_seconds(self) -> Dict[str, float]:
        """Slowest engine's phase breakdown, plus the all-to-all when charged."""
        slowest = max(
            range(len(self.per_engine_phase_seconds)),
            key=lambda index: sum(self.per_engine_phase_seconds[index].values()),
        )
        phases = dict(self.per_engine_phase_seconds[slowest])
        if self.alltoall_seconds > 0.0:
            phases[PHASE_ALLTOALL] = self.alltoall_seconds
        return phases

    @property
    def tokens_per_second(self) -> float:
        """Simulated token throughput of the batch."""
        if self.seconds <= 0:
            return 0.0
        return self.batch.num_tokens / self.seconds


@dataclass
class EnginePool:
    """A pool of inference engines behind one shared request queue.

    Build with :meth:`replicated`, :meth:`topic_sharded` or
    :meth:`from_checkpoint`.  ``engines`` holds one engine per lane for
    the replicated strategy and the single full-state engine that runs
    the (globally attributed) mathematics for the sharded strategy;
    ``num_engines`` always reports the pool size of the strategy.
    """

    engines: List[InferenceEngine]
    strategy: str = "replicated"
    interconnect: InterconnectSpec = field(default=PCIE_P2P)
    topic_plan: Optional[TopicShardPlan] = None
    batches_executed: int = 0
    documents_executed: int = 0
    busy_seconds: List[float] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.strategy not in POOL_STRATEGIES:
            raise ValueError(
                f"strategy must be one of {POOL_STRATEGIES}, got {self.strategy!r}"
            )
        if not self.engines:
            raise ValueError("an EnginePool needs at least one engine")
        if self.strategy == "topic_sharded":
            if self.topic_plan is None:
                raise ValueError("a topic-sharded pool needs a TopicShardPlan")
            if len(self.engines) != 1:
                raise ValueError(
                    "a topic-sharded pool holds one full-state engine "
                    "(the plan owns the column ranges)"
                )
            if self.topic_plan.num_topics != self.engines[0].model.num_topics:
                raise ValueError("the topic plan must cover the model's columns")
        else:
            first = self.engines[0]
            for engine in self.engines[1:]:
                if engine.seed != first.seed or engine.num_sweeps != first.num_sweeps:
                    raise ValueError(
                        "replicated engines must share seed and num_sweeps "
                        "(bit-identity across lanes)"
                    )
                # Same frozen model on every lane — the property that makes
                # the lane choice invisible in the results.  Identity covers
                # the common constructors; replicas loaded separately must
                # agree count-for-count.
                same_model = engine.model is first.model or (
                    engine.model.params == first.model.params
                    and np.array_equal(
                        engine.model.word_topic_counts,
                        first.model.word_topic_counts,
                    )
                )
                if not same_model:
                    raise ValueError(
                        "replicated engines must serve the same frozen model "
                        "(bit-identity across lanes)"
                    )
        if not self.busy_seconds:
            self.busy_seconds = [0.0] * self.num_lanes

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    @classmethod
    def replicated(
        cls,
        model: LDAModel,
        num_engines: int,
        interconnect: InterconnectSpec = PCIE_P2P,
        **engine_kwargs,
    ) -> "EnginePool":
        """``num_engines`` lanes over one frozen model, one lane each.

        The frozen ``B̂``/``Q`` are prepared once and shared read-only
        across the lanes (a replica is the *same* model); only the
        per-word sampler bank — the per-device LRU warmth — is private
        to each engine.
        """
        if num_engines < 1:
            raise ValueError("num_engines must be >= 1")
        first = InferenceEngine.from_model(model, **engine_kwargs)
        engines = [first] + [
            _engine_with_fresh_bank(first) for _ in range(1, num_engines)
        ]
        return cls(engines=engines, strategy="replicated", interconnect=interconnect)

    @classmethod
    def topic_sharded(
        cls,
        model: LDAModel,
        num_engines: int,
        interconnect: InterconnectSpec = PCIE_P2P,
        **engine_kwargs,
    ) -> "EnginePool":
        """``num_engines`` engines owning contiguous ``~K/N`` column slices."""
        if num_engines < 1:
            raise ValueError("num_engines must be >= 1")
        if model.num_topics < num_engines:
            raise ValueError(
                "topic sharding needs at least one topic column per engine "
                f"(K={model.num_topics} < {num_engines} engines)"
            )
        plan = plan_topic_shards(model.num_topics, num_engines)
        engine = InferenceEngine.from_model(model, **engine_kwargs)
        return cls(
            engines=[engine],
            strategy="topic_sharded",
            interconnect=interconnect,
            topic_plan=plan,
        )

    @classmethod
    def from_checkpoint(
        cls,
        path: str,
        num_engines: int,
        strategy: str = "replicated",
        interconnect: InterconnectSpec = PCIE_P2P,
        **engine_kwargs,
    ) -> "EnginePool":
        """Stand a pool up from any checkpoint layout (one load, N engines)."""
        model = load_model(path)
        if strategy == "replicated":
            return cls.replicated(
                model, num_engines, interconnect=interconnect, **engine_kwargs
            )
        if strategy == "topic_sharded":
            return cls.topic_sharded(
                model, num_engines, interconnect=interconnect, **engine_kwargs
            )
        raise ValueError(f"strategy must be one of {POOL_STRATEGIES}, got {strategy!r}")

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def num_engines(self) -> int:
        """Pool size: engines (replicated) or plan shards (topic-sharded)."""
        if self.strategy == "topic_sharded":
            return self.topic_plan.num_devices
        return len(self.engines)

    @property
    def num_lanes(self) -> int:
        """Independent dispatch lanes: ``N`` replicated, 1 topic-sharded."""
        return len(self.engines) if self.strategy == "replicated" else 1

    @property
    def model(self) -> LDAModel:
        """The frozen model being served (shared across the pool)."""
        return self.engines[0].model

    @property
    def seed(self) -> int:
        """The pool-wide RNG seed (identical on every lane)."""
        return self.engines[0].seed

    @property
    def num_sweeps(self) -> int:
        """Gibbs sweeps per request (identical on every lane)."""
        return self.engines[0].num_sweeps

    def model_bytes_per_engine(self, element_bytes: int = 4) -> float:
        """Per-engine footprint of the frozen model — the trade-off lever.

        Replicated engines each hold the full ``V x K`` matrix;
        topic-sharded engines hold only the widest column slice of the
        plan (the memory saving the all-to-all pays for).
        """
        vocabulary_size = self.model.vocabulary_size
        if self.strategy == "topic_sharded":
            return self.topic_plan.max_model_bytes(vocabulary_size, element_bytes)
        return float(vocabulary_size) * self.model.num_topics * element_bytes

    def phi_shard(self, device_id: int) -> np.ndarray:
        """The ``B̂`` column block the given engine holds resident (a view).

        Only meaningful for topic-sharded pools — it is the slice a real
        deployment would ship to the device, and what
        :meth:`model_bytes_per_engine` sizes.
        """
        if self.strategy != "topic_sharded":
            raise ValueError("phi_shard is defined for topic-sharded pools only")
        return self.topic_plan.slice_columns(self.engines[0].state.phi, device_id)

    def select_lane(self, idle_lanes: Sequence[int]) -> int:
        """The least-loaded idle lane (cumulative busy seconds, then id)."""
        if not idle_lanes:
            raise ValueError("select_lane needs at least one idle lane")
        return min(idle_lanes, key=lambda lane: (self.busy_seconds[lane], lane))

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #
    def execute(self, batch: InferenceBatch, lane: int = 0) -> PoolBatchExecution:
        """Run one micro-batch on the pool.

        ``lane`` selects the engine for the replicated strategy (the
        server picks it with :meth:`select_lane`); the sharded strategy
        always runs the batch across every engine of the plan.
        """
        if not 0 <= lane < self.num_lanes:
            raise ValueError(f"lane {lane} outside [0, {self.num_lanes})")
        if self.strategy == "replicated":
            execution = self._execute_replicated(batch, lane)
        else:
            execution = self._execute_sharded(batch)
        self.batches_executed += 1
        self.documents_executed += batch.num_documents
        self.busy_seconds[lane] += execution.seconds
        return execution

    def _execute_replicated(self, batch: InferenceBatch, lane: int) -> PoolBatchExecution:
        execution: BatchExecution = self.engines[lane].execute(batch)
        return PoolBatchExecution(
            batch=batch,
            results=execution.results,
            engine_id=lane,
            participants=[lane],
            per_engine_phase_seconds=[dict(execution.phase_seconds)],
            alltoall_seconds=0.0,
            samplers_built=execution.samplers_built,
        )

    def _execute_sharded(self, batch: InferenceBatch) -> PoolBatchExecution:
        """Cooperative execution: every engine runs its column slice.

        The draws are made once against the full frozen state (global
        mathematics — the bit-identity guarantee), each shard is charged
        the sampling/pre-processing of its ``~K/N`` columns exactly as
        the topic-parallel trainer charges a device, and the
        per-document topic counts merge through the all-to-all.
        """
        engine = self.engines[0]
        mark = engine.state.bank.begin_batch()
        results = engine.infer_requests(
            [request.word_ids for request in batch.requests],
            [request.request_id for request in batch.requests],
        )
        built = engine.state.bank.builds_since(mark)
        stats = engine.batch_stats(batch, results)
        per_engine_phases: List[Dict[str, float]] = []
        for shard in self.topic_plan.shards:
            shard_stats = replace(stats, num_topics=max(1, shard.num_topics))
            per_engine_phases.append(
                cost_batch_phases(
                    shard_stats,
                    num_sweeps=engine.num_sweeps,
                    built_words=built,
                    config=engine.cost_config,
                )
            )
        merge_bytes = (
            float(batch.num_documents) * stats.num_topics * MERGE_ENTRY_BYTES
        )
        alltoall_seconds = CostModel(engine.device).alltoall_seconds(
            merge_bytes, self.topic_plan.num_devices, self.interconnect
        )
        return PoolBatchExecution(
            batch=batch,
            results=results,
            engine_id=-1,
            participants=[shard.device_id for shard in self.topic_plan.shards],
            per_engine_phase_seconds=per_engine_phases,
            alltoall_seconds=alltoall_seconds,
            samplers_built=built,
        )

    # ------------------------------------------------------------------ #
    # Reporting
    # ------------------------------------------------------------------ #
    def stats(self) -> Dict[str, object]:
        """Counters for reports and benchmarks."""
        return {
            "strategy": self.strategy,
            "num_engines": self.num_engines,
            "num_lanes": self.num_lanes,
            "batches_executed": self.batches_executed,
            "documents_executed": self.documents_executed,
            "busy_seconds": list(self.busy_seconds),
            "model_bytes_per_engine": self.model_bytes_per_engine(),
        }


def _engine_with_fresh_bank(engine: InferenceEngine) -> InferenceEngine:
    """A lane sharing ``engine``'s frozen state but owning its own bank.

    ``phi`` and ``prior_mass`` are immutable once frozen, so replicas
    share them; the :class:`WordSamplerBank` is per-device LRU state and
    must be private (each lane warms its own hot-word set).
    """
    state = engine.state
    bank = WordSamplerBank.fresh_replica(
        state.bank, share_phi_cdf=state.backend is KernelBackend.VECTORIZED
    )
    return InferenceEngine(
        state=FrozenModelState(
            model=state.model,
            phi=state.phi,
            prior_mass=state.prior_mass,
            bank=bank,
            backend=state.backend,
        ),
        device=engine.device,
        num_sweeps=engine.num_sweeps,
        seed=engine.seed,
        threads_per_block=engine.threads_per_block,
    )


def pool_results_digest(outcomes: Sequence) -> str:
    """SHA-256 over answered outcomes' thetas, in request order.

    The pool counterpart of
    :func:`~repro.serving.engine.engine_results_digest`: two serving
    runs — whatever their engine count or strategy — agree on this
    digest iff every answered request's mixture agrees to the last bit.
    """
    import hashlib

    hasher = hashlib.sha256()
    for outcome in outcomes:
        if outcome.theta is None:
            continue
        theta = np.ascontiguousarray(np.asarray(outcome.theta, dtype=np.float64))
        hasher.update(np.int64(outcome.request_id).tobytes())
        hasher.update(theta.tobytes())
    return hasher.hexdigest()
