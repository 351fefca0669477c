"""The SaberLDA trainer: streaming ESCA iterations with simulated GPU timing.

Each iteration follows Alg. 1 exactly:

1. **E-step** — every chunk's tokens are resampled with the
   sparsity-aware decomposition against the frozen matrices ``A`` and
   ``B̂`` (the mathematics run vectorised; see ``estep.py``);
2. **M-step** — the chunk rows of ``A`` are rebuilt and merged and ``B``
   is recounted; ``B̂``/``Q`` and the per-word sampling structures are
   prepared from it at the top of the next E-step.

ESCA is bulk synchronous, so how many devices share the work changes
only what an iteration *costs*, never what it computes.  That is why
there is one loop, :func:`run_esca`, and the trainers differ only in the
:class:`IterationCoster` they hand it: :class:`SingleDeviceCoster` here,
and the device-pool coster of :mod:`repro.distributed.trainer`.  The
single device charges every phase with the workload analyser + roofline
model (the streaming schedule hides transfers when the run is
asynchronous) and records the per-phase simulated seconds and the
training log-likelihood — everything the benchmarks need to reproduce
Figs. 9-12 and Tables 2 and 4.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Protocol, Tuple

import numpy as np

from ..bench.timing import stopwatch
from ..core.count_matrices import SparseDocTopicMatrix, count_by_word_topic
from ..core.likelihood import LikelihoodResult, training_log_likelihood
from ..core.model import LDAModel
from ..core.tokens import TokenList
from ..gpusim.cost_model import CostModel
from ..gpusim.profiler import Profiler
from ..telemetry.clock import DOMAIN_WALL
from ..telemetry.metrics import MetricsRegistry, null_metrics
from ..telemetry.tracer import Tracer, null_tracer
from .config import SaberLDAConfig
from .costing import WorkloadStats
from .estep import WordSide, esca_estep
from .layout import ChunkLayout, build_layout, gather_layout_tokens
from .projection import cost_iteration_phases
from .ssc import merge_chunk_rows, rebuild_doc_topic_sort


def rebuild_doc_topic(
    layouts: List[ChunkLayout], num_documents: int, num_topics: int
) -> SparseDocTopicMatrix:
    """Rebuild A chunk by chunk and merge the rows (vectorised functional path)."""
    chunk_rows = [rebuild_doc_topic_sort(layout, num_topics) for layout in layouts]
    return merge_chunk_rows(chunk_rows, num_documents, num_topics)


def sparse_training_likelihood(
    tokens: TokenList,
    doc_topic: SparseDocTopicMatrix,
    word_topic: np.ndarray,
    params,
) -> LikelihoodResult:
    """The loop's model-quality step: training log-likelihood from the CSR ``A``.

    Scores every token over its document's ``K_d`` non-zero topics plus
    the per-word prior mass (:func:`training_log_likelihood`), so the
    step is ``O(N * K_d + V * K)`` and never densifies ``A``.  It stays
    a global of this module, calling ``training_log_likelihood`` through
    this module too, so ``perfbench``'s layer trace can time the step.
    """
    return training_log_likelihood(tokens, doc_topic, word_topic, params)


@dataclass
class IterationRecord:
    """Per-iteration measurements and simulated timings."""

    iteration: int
    phase_seconds: Dict[str, float]
    simulated_seconds: float
    cumulative_simulated_seconds: float
    log_likelihood_per_token: Optional[float]
    mean_doc_nnz: float
    doc_branch_fraction: float


class SimulatedRun:
    """Run totals shared by both result types (needs ``history`` and ``num_tokens``)."""

    @property
    def simulated_seconds(self) -> float:
        """Total simulated time of the run (on a pool: barriers + exposed collectives)."""
        if not self.history:
            return 0.0
        return self.history[-1].cumulative_simulated_seconds

    def throughput_tokens_per_second(self) -> float:
        """Simulated end-to-end throughput (tokens/s), the metric of Fig. 10."""
        if self.simulated_seconds <= 0:
            return 0.0
        return self.num_tokens * len(self.history) / self.simulated_seconds

    def final_log_likelihood(self) -> Optional[float]:
        """Last recorded per-token training log-likelihood."""
        for record in reversed(self.history):
            if record.log_likelihood_per_token is not None:
                return record.log_likelihood_per_token
        return None


@dataclass
class TrainingResult(SimulatedRun):
    """Everything produced by one SaberLDA run."""

    model: LDAModel
    doc_topic: SparseDocTopicMatrix
    history: List[IterationRecord]
    profiler: Profiler
    config: SaberLDAConfig
    num_tokens: int
    wall_seconds: float

    def convergence_curve(self) -> List[tuple]:
        """``(cumulative simulated seconds, log-likelihood per token)`` pairs."""
        return [
            (record.cumulative_simulated_seconds, record.log_likelihood_per_token)
            for record in self.history
            if record.log_likelihood_per_token is not None
        ]

    def phase_breakdown(self) -> Dict[str, float]:
        """Total simulated seconds per phase over the whole run (Fig. 9 bars)."""
        totals: Dict[str, float] = {}
        for record in self.history:
            for phase, seconds in record.phase_seconds.items():
                totals[phase] = totals.get(phase, 0.0) + seconds
        return totals


class IterationCoster(Protocol):
    """What :func:`run_esca` asks of a cost attribution.

    ``config`` is the *effective* configuration once :meth:`layout` has
    run (a device pool may raise the chunk count).
    """

    config: SaberLDAConfig
    tracer: Tracer

    def layout(self, tokens: TokenList, num_documents: int) -> List[ChunkLayout]:
        """Partition and lay out the stream."""

    def count_word_topic(
        self, layouts: List[ChunkLayout], tokens: TokenList, vocabulary_size: int
    ) -> np.ndarray:
        """``B`` of the laid-out stream (``tokens`` is the whole stream, gathered)."""

    def charge(
        self,
        iteration: int,
        start_seconds: float,
        layouts: List[ChunkLayout],
        doc_topic: SparseDocTopicMatrix,
        vocabulary_size: int,
        log_likelihood: Optional[float],
        doc_branch_fraction: float,
    ):
        """Cost, trace and count one iteration; return its record."""


def trace_iteration(tracer: Tracer, iteration: int, start_seconds: float, total: float) -> None:
    """One simulated iteration span on track 0, advancing a simulated clock past it.

    ``start_seconds`` is the cumulative simulated time *before* this
    iteration — the same floats the iteration records carry, so the
    trace and the history agree exactly.
    """
    clock = tracer.clock
    if hasattr(clock, "advance_to"):
        clock.advance_to(max(clock.now(), start_seconds + total))
    tracer.add_span(
        "iteration", start_seconds, total, category="train", depth=0,
        args={"iteration": iteration},
    )


def trace_phases(
    tracer: Tracer, phase_seconds: Dict[str, float], start_seconds: float,
    depth: int, track: int = 0,
) -> None:
    """Back-to-back phase spans starting at ``start_seconds``."""
    cursor = start_seconds
    for phase, seconds in phase_seconds.items():
        tracer.add_span(phase, cursor, seconds, category="phase", track=track, depth=depth)
        cursor += seconds


def run_esca(
    coster: IterationCoster,
    rng: np.random.Generator,
    tokens: TokenList,
    num_documents: int,
    vocabulary_size: int,
) -> Tuple[np.ndarray, SparseDocTopicMatrix, list, float]:
    """The ESCA training loop: ``(B, A, iteration records, wall seconds)``.

    The chunk layouts are resampled in global stream order with one RNG
    stream, so every cost attribution trains the bit-identical model.
    """
    watch = stopwatch()
    params = coster.config.params
    working_tokens = tokens.copy()
    if (working_tokens.topics < 0).any():
        working_tokens.randomize_topics(params.num_topics, rng)
    layouts = coster.layout(working_tokens, num_documents)
    config = coster.config

    doc_topic = rebuild_doc_topic(layouts, num_documents, params.num_topics)
    all_tokens = gather_layout_tokens(layouts)
    word_topic = coster.count_word_topic(layouts, all_tokens, vocabulary_size)

    history: list = []
    cumulative = 0.0
    for iteration in range(1, config.num_iterations + 1):
        # ------------------------------ E-step ------------------------------ #
        # B̂ is prepared where it is read, so no word side outlives the
        # E-step: the M-step below recounts B with neither the stale
        # word side nor the old B alive, and the last iteration prepares
        # none that nothing would read.
        word_side = WordSide.prepare(word_topic, params.alpha, params.beta)
        del word_topic
        doc_branch_tokens = 0
        for layout in layouts:
            result = esca_estep(
                layout.tokens, doc_topic, word_side, rng, backend=config.kernel_backend
            )
            layout.tokens.topics = result.new_topics
            doc_branch_tokens += result.doc_branch_tokens
        del word_side

        # ------------------------------ M-step ------------------------------ #
        doc_topic = rebuild_doc_topic(layouts, num_documents, params.num_topics)
        all_tokens = gather_layout_tokens(layouts)
        word_topic = coster.count_word_topic(layouts, all_tokens, vocabulary_size)

        # --------------------------- Model quality -------------------------- #
        log_likelihood: Optional[float] = None
        if iteration % config.evaluate_every == 0 or iteration == config.num_iterations:
            log_likelihood = sparse_training_likelihood(
                all_tokens, doc_topic, word_topic, params
            ).per_token

        # ------------------------- Simulated timing ------------------------- #
        record = coster.charge(
            iteration, cumulative, layouts, doc_topic, vocabulary_size, log_likelihood,
            doc_branch_tokens / max(all_tokens.num_tokens, 1),
        )
        cumulative = record.cumulative_simulated_seconds
        history.append(record)

    wall_seconds = watch.elapsed()
    if coster.tracer.enabled:
        # One wall-domain span alongside the simulated ones: the
        # measured cost of producing this simulated run.
        coster.tracer.add_span(
            "fit", 0.0, wall_seconds, category="train", domain=DOMAIN_WALL, depth=0,
            args={"iterations": config.num_iterations},
        )
    return word_topic, doc_topic, history, wall_seconds


@dataclass
class SingleDeviceCoster:
    """One device: ``B`` counted once over the gathered stream, every phase charged to it."""

    config: SaberLDAConfig
    tracer: Tracer
    metrics: MetricsRegistry
    profiler: Profiler = field(init=False)

    def __post_init__(self) -> None:
        self.profiler = Profiler(CostModel(self.config.device))

    def layout(self, tokens: TokenList, num_documents: int) -> List[ChunkLayout]:
        return build_layout(tokens, num_documents, self.config)

    def count_word_topic(
        self, layouts: List[ChunkLayout], tokens: TokenList, vocabulary_size: int
    ) -> np.ndarray:
        return count_by_word_topic(tokens, vocabulary_size, self.config.params.num_topics)

    def charge(
        self,
        iteration: int,
        start_seconds: float,
        layouts: List[ChunkLayout],
        doc_topic: SparseDocTopicMatrix,
        vocabulary_size: int,
        log_likelihood: Optional[float],
        doc_branch_fraction: float,
    ) -> IterationRecord:
        config = self.config
        stats = WorkloadStats.measure(
            layouts, doc_topic, config.params.num_topics, vocabulary_size, config.device
        )
        cost = cost_iteration_phases(stats, config)
        for phase, seconds in cost.phase_seconds.items():
            self.profiler.record(phase, cost.phase_traffic[phase], seconds)
        iteration_seconds = sum(cost.phase_seconds.values())
        if self.tracer.enabled:
            trace_iteration(self.tracer, iteration, start_seconds, iteration_seconds)
            trace_phases(self.tracer, cost.phase_seconds, start_seconds, depth=1)
        self.profiler.record_iteration(iteration_seconds)
        self.metrics.counter("train.iterations").inc()
        self.metrics.counter("train.simulated_seconds").inc(iteration_seconds)
        for phase, seconds in cost.phase_seconds.items():
            self.metrics.counter(f"train.phase.{phase}_seconds").inc(seconds)
        return IterationRecord(
            iteration=iteration,
            phase_seconds=cost.phase_seconds,
            simulated_seconds=iteration_seconds,
            cumulative_simulated_seconds=start_seconds + iteration_seconds,
            log_likelihood_per_token=log_likelihood,
            mean_doc_nnz=doc_topic.mean_row_nnz(),
            doc_branch_fraction=doc_branch_fraction,
        )


@dataclass
class SaberLDATrainer:
    """Trains LDA with the SaberLDA system on a simulated GPU.

    The heavy per-token mathematics are executed with the vectorised
    functional E-step (statistically identical to the warp kernel, which
    is BSP); the per-phase cost on the configured device is charged by the
    workload analyser.  The functional M-step rebuild uses the vectorised
    sort-based path for both rebuild configurations — SSC and the global
    sort produce identical matrices by construction (verified in the test
    suite) and differ only in cost, which is what the config switch
    changes.
    """

    config: SaberLDAConfig
    #: Disabled by default.  Pass ``Tracer(SimClock())`` to record one
    #: span per iteration with its phase breakdown as children, all on
    #: the *simulated* clock (the cumulative seconds the records carry),
    #: plus one wall-domain ``fit`` span from the run's stopwatch.
    tracer: Tracer = field(default_factory=null_tracer)
    metrics: MetricsRegistry = field(default_factory=null_metrics)
    _rng: np.random.Generator = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self._rng = np.random.default_rng(self.config.seed)

    def fit(
        self,
        tokens: TokenList,
        num_documents: int,
        vocabulary_size: int,
        vocabulary=None,
    ) -> TrainingResult:
        """Run the configured number of iterations and return the trained model."""
        config = self.config
        coster = SingleDeviceCoster(config, self.tracer, self.metrics)
        word_topic, doc_topic, history, wall_seconds = run_esca(
            coster, self._rng, tokens, num_documents, vocabulary_size
        )
        model = LDAModel(
            word_topic_counts=word_topic,
            params=config.params,
            vocabulary=vocabulary,
            metadata={
                "system": "SaberLDA",
                "device": config.device.name,
                "num_iterations": config.num_iterations,
                "num_chunks": config.num_chunks,
                "num_workers": config.num_workers,
                "seed": config.seed,
            },
        )
        return TrainingResult(
            model=model,
            doc_topic=doc_topic,
            history=history,
            profiler=coster.profiler,
            config=config,
            num_tokens=tokens.num_tokens,
            wall_seconds=wall_seconds,
        )


def train_saberlda(
    tokens: TokenList,
    num_documents: int,
    vocabulary_size: int,
    config: SaberLDAConfig,
    vocabulary=None,
    tracer: Optional[Tracer] = None,
    metrics: Optional[MetricsRegistry] = None,
) -> TrainingResult:
    """Convenience wrapper: construct a trainer and fit it."""
    trainer = SaberLDATrainer(
        config=config,
        tracer=tracer if tracer is not None else null_tracer(),
        metrics=metrics if metrics is not None else null_metrics(),
    )
    return trainer.fit(tokens, num_documents, vocabulary_size, vocabulary)
