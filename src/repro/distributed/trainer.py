"""Multi-device SaberLDA training: a cost attribution over the single-device loop.

ESCA is bulk synchronous — every chunk is resampled against the frozen
``A``/``B̂``, then the integer counts are rebuilt — so resampling order
is irrelevant and merging per-device counts is exact.  The distributed
trainer therefore runs the very loop of the single-device trainer
(:func:`~repro.saberlda.trainer.run_esca`: the chunk layouts in global
stream order, one RNG stream, bit-identical at the same seed in every
mode) and differs only in its :class:`PoolCoster`, which attributes the
cost of each iteration per the selected ``parallelism``:

* ``"data"`` — chunks are sharded (:class:`~repro.distributed.shard.ShardPlan`),
  ``B`` is replicated: every device is charged the phases of its own
  shard plus the replicated pre-processing of ``B̂``/``Q`` and the W-ary
  trees, and the counts merge over a ring all-reduce;
* ``"topic"`` — the ``K`` columns of ``B`` are sharded
  (:class:`~repro.distributed.shard.TopicShardPlan`): every device scans
  the full token stream but samples, stores and pre-processes only its
  ``~K/N`` column slice (Problem-2 draws are routed to the owning
  device), and the per-topic sufficient statistics are exchanged with an
  all-to-all instead of the ring;
* ``"hybrid"`` — both shardings at once: each device samples its own
  chunk shard over the full ``K`` (routed draws), but stores and
  pre-processes only its column slice, again merging via the all-to-all.

In every case the per-iteration barrier is the slowest device (BSP), and
under the asynchronous streaming schedule part of the collective hides
behind the E-step tail — the overlap window is derived from the per-chunk
word-completion times of :mod:`repro.saberlda.scheduling`, not a fixed
fraction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..core.count_matrices import SparseDocTopicMatrix, count_by_word_topic
from ..core.model import LDAModel
from ..core.tokens import TokenList
from ..gpusim.profiler import PHASE_PREPROCESSING, PHASE_SAMPLING
from ..gpusim.streams import PCIE_P2P, DevicePool, InterconnectSpec
from ..saberlda.config import SaberLDAConfig
from ..saberlda.costing import WorkloadStats
from ..saberlda.layout import ChunkLayout, build_layout, gather_layout_tokens
from ..saberlda.projection import cost_iteration_phases
from ..saberlda.scheduling import allreduce_overlap_fraction, alltoall_overlap_fraction
from ..saberlda.trainer import (
    SimulatedRun,
    run_esca,
    trace_iteration,
    trace_phases,
    train_saberlda,
)
from ..telemetry.metrics import MetricsRegistry, null_metrics
from ..telemetry.tracer import Tracer, null_tracer
from .allreduce import AllToAll, RingAllReduce, exposed_allreduce_seconds
from .shard import ShardPlan, TopicShardPlan, build_sharded_layout, plan_topic_shards

#: The supported cost-attribution modes of the distributed trainer.
PARALLELISM_MODES = ("data", "topic", "hybrid")


@dataclass
class DistributedIterationRecord:
    """Per-iteration measurements of the multi-device run."""

    iteration: int
    per_device_phase_seconds: List[Dict[str, float]]
    per_device_seconds: List[float]
    allreduce_seconds: float
    exposed_allreduce_seconds: float
    simulated_seconds: float
    cumulative_simulated_seconds: float
    log_likelihood_per_token: Optional[float]
    #: Cost of the all-to-all exchange of per-topic sufficient statistics
    #: (zero under pure data parallelism, where the ring merges ``B``).
    alltoall_seconds: float = 0.0
    exposed_alltoall_seconds: float = 0.0

    @property
    def collective_seconds(self) -> float:
        """Total collective cost of the iteration (ring + all-to-all)."""
        return self.allreduce_seconds + self.alltoall_seconds

    @property
    def exposed_collective_seconds(self) -> float:
        """Exposed (non-overlapped) collective cost of the iteration."""
        return self.exposed_allreduce_seconds + self.exposed_alltoall_seconds

    @property
    def barrier_seconds(self) -> float:
        """Compute time of the slowest device (the BSP barrier)."""
        return max(self.per_device_seconds)

    @property
    def balance_efficiency(self) -> float:
        """Mean device busy time over the barrier (1.0 = perfectly balanced)."""
        barrier = self.barrier_seconds
        if barrier <= 0:
            return 1.0
        return float(np.mean(self.per_device_seconds)) / barrier


@dataclass
class DistributedTrainingResult(SimulatedRun):
    """Everything produced by one data-parallel run."""

    model: LDAModel
    doc_topic: SparseDocTopicMatrix
    history: List[DistributedIterationRecord]
    plan: Optional[ShardPlan]
    pool: DevicePool
    config: SaberLDAConfig
    num_tokens: int
    wall_seconds: float
    topic_plan: Optional[TopicShardPlan] = None
    parallelism: str = "data"

    @property
    def num_devices(self) -> int:
        """Pool size of the run."""
        return self.pool.num_devices

    def allreduce_share(self) -> float:
        """Fraction of the simulated time spent in exposed collectives."""
        if self.simulated_seconds <= 0:
            return 0.0
        exposed = sum(record.exposed_collective_seconds for record in self.history)
        return exposed / self.simulated_seconds

    def alltoall_seconds_total(self) -> float:
        """Total (pre-overlap) all-to-all cost over the run, separate from the ring."""
        return sum(record.alltoall_seconds for record in self.history)

    def ring_seconds_total(self) -> float:
        """Total (pre-overlap) ring all-reduce cost over the run."""
        return sum(record.allreduce_seconds for record in self.history)

    def model_bytes_per_device(self, element_bytes: int = 4) -> float:
        """Largest per-device footprint of ``B`` under the run's parallelism.

        Replicated (data-parallel) runs hold the full ``V x K`` matrix on
        every device; topic-sharded runs hold only the widest column
        slice of the :class:`~repro.distributed.shard.TopicShardPlan`.
        """
        vocabulary_size, num_topics = self.model.word_topic_counts.shape
        if self.topic_plan is not None:
            return self.topic_plan.max_model_bytes(vocabulary_size, element_bytes)
        return float(vocabulary_size) * num_topics * element_bytes

    def phase_breakdown(self) -> Dict[str, float]:
        """Slowest-device seconds per phase over the run, plus the collectives."""
        totals: Dict[str, float] = {}
        for record in self.history:
            slowest = int(np.argmax(record.per_device_seconds))
            for phase, seconds in record.per_device_phase_seconds[slowest].items():
                totals[phase] = totals.get(phase, 0.0) + seconds
            totals["allreduce"] = (
                totals.get("allreduce", 0.0) + record.exposed_allreduce_seconds
            )
            totals["alltoall"] = (
                totals.get("alltoall", 0.0) + record.exposed_alltoall_seconds
            )
        return totals

    def speedup_versus(self, single_device_seconds: float) -> float:
        """Simulated speedup over a single-device run of the same workload."""
        if self.simulated_seconds <= 0:
            return 0.0
        return single_device_seconds / self.simulated_seconds


@dataclass
class PoolCoster:
    """Charges each ESCA iteration to a pool of ``num_devices`` simulated devices.

    Holds the shard plans, counts one partial ``B`` per device and merges
    the partials through the mode's collective (the ring all-reduce or the
    all-to-all, both guarding the int32 wire format), then costs every
    device's share of the iteration.  An iteration costs the slowest
    device (the BSP barrier) plus whatever of the collective its overlap
    window cannot hide.
    """

    config: SaberLDAConfig
    num_devices: int
    interconnect: InterconnectSpec
    parallelism: str
    tracer: Tracer
    metrics: MetricsRegistry
    plan: Optional[ShardPlan] = field(default=None, init=False)
    topic_plan: Optional[TopicShardPlan] = field(default=None, init=False)

    def __post_init__(self) -> None:
        self.pool = DevicePool.homogeneous(self.config.device, self.num_devices, self.interconnect)
        self._ring = RingAllReduce(link=self.interconnect)
        self._alltoall = AllToAll(link=self.interconnect)
        self._num_processors = max(1, self.config.device.num_sms * 2)
        self._ring_cost = None
        self._alltoall_cost = None
        self._ring_overlap: List[float] = []

    def layout(self, tokens: TokenList, num_documents: int) -> List[ChunkLayout]:
        num_topics = self.config.params.num_topics
        if self.parallelism == "topic":
            # Pure model parallelism streams every chunk through every
            # device, so the chunk count never needs raising for the pool.
            layouts = build_layout(tokens, num_documents, self.config)
        else:
            layouts, self.plan, self.config = build_sharded_layout(
                tokens, num_documents, self.config, self.num_devices
            )
        if self.parallelism == "data":
            # The ring's overlap window depends only on the word-run
            # structure of each device's stream (words never move between
            # chunks), so it is computed once, not per iteration.
            self._ring_overlap = [
                allreduce_overlap_fraction(self._device_stream(layouts, device_id),
                                           self._num_processors)
                for device_id in range(self.num_devices)
            ]
        else:
            self.topic_plan = plan_topic_shards(num_topics, self.num_devices)
        return layouts

    def count_word_topic(
        self, layouts: List[ChunkLayout], tokens: TokenList, vocabulary_size: int
    ) -> np.ndarray:
        """Merge the per-device partial ``B`` with the mode's collective.

        Exactly one collective runs per mode; its cost is kept for
        :meth:`charge`, separately per kind so benchmarks can compare the
        ring against the all-to-all.
        """
        num_topics = self.config.params.num_topics
        if self.parallelism == "topic":
            # No data sharding: the merged matrix is one pass over the
            # stream.  Route it through the collective so the wire-format
            # overflow guard applies in this mode too, then charge the
            # exchange at the pool size (the single partial is a
            # correctness artefact).
            merged = self._alltoall.exchange(
                [count_by_word_topic(tokens, vocabulary_size, num_topics)]
            )
            self._alltoall_cost = self._alltoall.cost(int(merged.size), self.num_devices)
            return merged
        partials = [
            count_by_word_topic(
                gather_layout_tokens(self._device_stream(layouts, device_id)),
                vocabulary_size,
                num_topics,
            )
            for device_id in range(self.num_devices)
        ]
        if self.parallelism == "hybrid":
            merged, self._alltoall_cost = self._alltoall.exchange_with_cost(partials)
        else:
            merged, self._ring_cost = self._ring.reduce_with_cost(partials)
        return merged

    def charge(
        self,
        iteration: int,
        start_seconds: float,
        layouts: List[ChunkLayout],
        doc_topic: SparseDocTopicMatrix,
        vocabulary_size: int,
        log_likelihood: Optional[float],
        doc_branch_fraction: float,
    ) -> DistributedIterationRecord:
        config = self.config
        per_device_phases = [
            self._device_phase_seconds(device_id, layouts, doc_topic, vocabulary_size)
            for device_id in range(self.num_devices)
        ]
        per_device_seconds = [sum(phases.values()) for phases in per_device_phases]
        barrier = max(per_device_seconds)
        slowest = int(np.argmax(per_device_seconds))
        overlappable = config.asynchronous and config.num_workers >= 2 and self.num_devices > 1
        slowest_sampling = per_device_phases[slowest].get(PHASE_SAMPLING, 0.0)
        exposed_ring = exposed_a2a = 0.0
        if self._ring_cost is not None:
            # Reduce-scatter segments of words that completed early ride
            # the interconnect while the slowest device still samples its
            # tail: the word-completion-weighted share of its sampling.
            window = self._ring_overlap[slowest] * slowest_sampling
            exposed_ring = exposed_allreduce_seconds(self._ring_cost, window, overlappable)
        if self._alltoall_cost is not None:
            # The all-to-all moves *column blocks*, final only once the
            # stream's last token of each topic has been drawn — a
            # per-column readiness of this iteration's assignments (topics
            # move between iterations; word runs do not, which is why the
            # ring window is precomputed).
            column_fraction = alltoall_overlap_fraction(
                self._device_stream(layouts, slowest),
                self._num_processors,
                config.params.num_topics,
            )
            exposed_a2a = exposed_allreduce_seconds(
                self._alltoall_cost, column_fraction * slowest_sampling, overlappable
            )
        iteration_seconds = barrier + exposed_ring + exposed_a2a
        if self.tracer.enabled:
            self._trace(iteration, start_seconds, iteration_seconds, per_device_phases,
                        barrier, exposed_ring, exposed_a2a)
        self.metrics.counter("train.iterations").inc()
        self.metrics.counter("train.simulated_seconds").inc(iteration_seconds)
        self.metrics.counter("train.exposed_ring_seconds").inc(exposed_ring)
        self.metrics.counter("train.exposed_alltoall_seconds").inc(exposed_a2a)
        return DistributedIterationRecord(
            iteration=iteration,
            per_device_phase_seconds=per_device_phases,
            per_device_seconds=per_device_seconds,
            allreduce_seconds=self._ring_cost.seconds if self._ring_cost is not None else 0.0,
            exposed_allreduce_seconds=exposed_ring,
            simulated_seconds=iteration_seconds,
            cumulative_simulated_seconds=start_seconds + iteration_seconds,
            log_likelihood_per_token=log_likelihood,
            alltoall_seconds=(
                self._alltoall_cost.seconds if self._alltoall_cost is not None else 0.0
            ),
            exposed_alltoall_seconds=exposed_a2a,
        )

    def _device_stream(self, layouts: List[ChunkLayout], device_id: int) -> List[ChunkLayout]:
        """The chunk layouts the given device streams through per iteration."""
        if self.plan is None:  # topic parallelism: every device scans everything
            return list(layouts)
        return self.plan.layouts_for_device(layouts, device_id)

    def _device_phase_seconds(
        self,
        device_id: int,
        layouts: List[ChunkLayout],
        doc_topic: SparseDocTopicMatrix,
        vocabulary_size: int,
    ) -> Dict[str, float]:
        """Cost one device's share of one iteration under the selected mode.

        * ``data``: the device's chunk shard at the full ``K`` (``B``
          replicated, pre-processing included in full);
        * ``topic``: the whole stream, but every ``K``-dependent phase at
          the device's column-shard width (draws routed to the owner);
        * ``hybrid``: the chunk shard at full ``K`` for sampling, with
          only the pre-processing re-costed at the column-shard width
          (each device builds ``B̂``/trees for its own slice only).
        """
        config = self.config
        device_layouts = self._device_stream(layouts, device_id)

        def phases(num_topics: int) -> Dict[str, float]:
            stats = WorkloadStats.measure(
                device_layouts, doc_topic, num_topics, vocabulary_size, config.device
            )
            return dict(cost_iteration_phases(stats, config).phase_seconds)

        if self.topic_plan is None:
            return phases(config.params.num_topics)
        shard_topics = max(1, self.topic_plan.shards[device_id].num_topics)
        if self.parallelism == "topic":
            return phases(shard_topics)
        hybrid = phases(config.params.num_topics)
        hybrid[PHASE_PREPROCESSING] = phases(shard_topics)[PHASE_PREPROCESSING]
        return hybrid

    def _trace(
        self,
        iteration: int,
        start_seconds: float,
        total: float,
        per_device_phases: List[Dict[str, float]],
        barrier_seconds: float,
        exposed_ring: float,
        exposed_a2a: float,
    ) -> None:
        """One iteration's multi-track simulated spans.

        Every device's compute rides its own track (``device_id + 1``);
        the iteration span on track 0 covers barrier + exposed
        collectives — the same floats the iteration record carries.
        """
        tracer = self.tracer
        trace_iteration(tracer, iteration, start_seconds, total)
        for device_id, phases in enumerate(per_device_phases):
            tracer.add_span(
                "device_compute", start_seconds, sum(phases.values()), category="train",
                track=device_id + 1, depth=1, args={"device": device_id},
            )
            trace_phases(tracer, phases, start_seconds, depth=2, track=device_id + 1)
        collective_start = start_seconds + barrier_seconds
        if exposed_ring > 0:
            tracer.add_span(
                "allreduce", collective_start, exposed_ring, category="collective", depth=1
            )
            collective_start += exposed_ring
        if exposed_a2a > 0:
            tracer.add_span(
                "alltoall", collective_start, exposed_a2a, category="collective", depth=1
            )


@dataclass
class DistributedTrainer:
    """Runs SaberLDA on ``num_devices`` simulated devices.

    ``config.device`` is replicated into a homogeneous pool joined by
    ``interconnect``; ``parallelism`` selects how work and model state are
    split (see the module docstring and :data:`PARALLELISM_MODES`).
    Statistical results are bit-identical to
    :class:`~repro.saberlda.trainer.SaberLDATrainer` run with the same
    seed and the same (effective) chunk count, in every mode.
    """

    config: SaberLDAConfig
    num_devices: int = 2
    interconnect: InterconnectSpec = field(default=PCIE_P2P)
    parallelism: str = "data"
    #: Disabled by default.  An enabled tracer records, per iteration,
    #: one simulated span per device (track = device id, phases as
    #: children) plus the exposed ring/all-to-all collectives — the
    #: multi-track view of the BSP barrier — and one wall-domain ``fit``.
    tracer: Tracer = field(default_factory=null_tracer)
    metrics: MetricsRegistry = field(default_factory=null_metrics)

    def __post_init__(self) -> None:
        if self.num_devices < 1:
            raise ValueError("num_devices must be >= 1")
        if self.parallelism not in PARALLELISM_MODES:
            raise ValueError(
                f"parallelism must be one of {PARALLELISM_MODES}, "
                f"got {self.parallelism!r}"
            )
        if (
            self.parallelism in ("topic", "hybrid")
            and self.config.params.num_topics < self.num_devices
        ):
            raise ValueError(
                "topic parallelism needs at least one topic column per device "
                f"(K={self.config.params.num_topics} < {self.num_devices} devices)"
            )
        self._rng = np.random.default_rng(self.config.seed)

    def fit(
        self,
        tokens: TokenList,
        num_documents: int,
        vocabulary_size: int,
        vocabulary=None,
    ) -> DistributedTrainingResult:
        """Run the configured number of multi-device iterations."""
        coster = PoolCoster(
            self.config, self.num_devices, self.interconnect, self.parallelism,
            self.tracer, self.metrics,
        )
        word_topic, doc_topic, history, wall_seconds = run_esca(
            coster, self._rng, tokens, num_documents, vocabulary_size
        )
        config = coster.config
        model = LDAModel(
            word_topic_counts=word_topic,
            params=config.params,
            vocabulary=vocabulary,
            metadata={
                "system": "SaberLDA-distributed",
                "device": config.device.name,
                "num_devices": self.num_devices,
                "interconnect": self.interconnect.name,
                "parallelism": self.parallelism,
                "num_iterations": config.num_iterations,
                "num_chunks": config.num_chunks,
                "num_workers": config.num_workers,
                "seed": config.seed,
            },
        )
        return DistributedTrainingResult(
            model=model,
            doc_topic=doc_topic,
            history=history,
            plan=coster.plan,
            pool=coster.pool,
            config=config,
            num_tokens=tokens.num_tokens,
            wall_seconds=wall_seconds,
            topic_plan=coster.topic_plan,
            parallelism=self.parallelism,
        )


def train_distributed(
    tokens: TokenList,
    num_documents: int,
    vocabulary_size: int,
    config: SaberLDAConfig,
    num_devices: int,
    interconnect: InterconnectSpec = PCIE_P2P,
    vocabulary=None,
    parallelism: str = "data",
    tracer: Optional[Tracer] = None,
    metrics: Optional[MetricsRegistry] = None,
) -> DistributedTrainingResult:
    """Convenience wrapper: construct a distributed trainer and fit it."""
    trainer = DistributedTrainer(
        config=config,
        num_devices=num_devices,
        interconnect=interconnect,
        parallelism=parallelism,
        tracer=tracer if tracer is not None else null_tracer(),
        metrics=metrics if metrics is not None else null_metrics(),
    )
    return trainer.fit(tokens, num_documents, vocabulary_size, vocabulary)


@dataclass(frozen=True)
class ScalingPoint:
    """One device count of a scaling sweep."""

    num_devices: int
    simulated_seconds: float
    speedup: float
    efficiency: float
    allreduce_share: float
    token_imbalance: float


def measure_scaling(
    tokens: TokenList,
    num_documents: int,
    vocabulary_size: int,
    config: SaberLDAConfig,
    device_counts: Sequence[int],
    interconnect: InterconnectSpec = PCIE_P2P,
) -> List[ScalingPoint]:
    """Strong-scaling sweep: the same corpus trained on each pool size.

    Every point — including the single-device :func:`train_saberlda`
    baseline — runs on one common chunking (the configured count, raised
    to ``2 * max(device_counts)`` when smaller, matching what
    :func:`~repro.distributed.shard.build_sharded_layout` would pick for
    the largest pool), so the reported speedups measure the distribution
    machinery only, never a chunk-count change.
    """
    counts_sorted = sorted(set(int(count) for count in device_counts))
    if not counts_sorted:
        return []
    common_chunks = max(config.num_chunks, 2 * counts_sorted[-1])
    if common_chunks != config.num_chunks:
        config = config.with_overrides(num_chunks=common_chunks)
    baseline: Optional[float] = None
    points: List[ScalingPoint] = []
    for count in counts_sorted:
        if count == 1:
            single = train_saberlda(
                tokens.copy(), num_documents, vocabulary_size, config
            )
            seconds = single.simulated_seconds
            share = 0.0
            imbalance = 0.0
        else:
            result = train_distributed(
                tokens.copy(), num_documents, vocabulary_size, config, count, interconnect
            )
            seconds = result.simulated_seconds
            share = result.allreduce_share()
            imbalance = result.plan.token_imbalance
        if baseline is None:
            baseline = seconds
        speedup = baseline / seconds if seconds > 0 else 0.0
        points.append(
            ScalingPoint(
                num_devices=count,
                simulated_seconds=seconds,
                speedup=speedup,
                # Speedup is relative to the smallest pool in the sweep, so
                # efficiency must be too (equals speedup/count when 1 is swept).
                efficiency=speedup * counts_sorted[0] / count,
                allreduce_share=share,
                token_imbalance=imbalance,
            )
        )
    return points
