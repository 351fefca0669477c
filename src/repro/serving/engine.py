"""The inference engine: fold-in execution plus simulated batch cost.

The engine is the serving counterpart of the trainer's E-step: it runs
the real fold-in mathematics for every document of a micro-batch and
charges the batch on the same roofline cost model the trainer uses, so
serving latency and training throughput are measured in one currency.

Per batch the engine charges:

* **sampling** — one PDOW pass over the batch's tokens per Gibbs sweep,
  costed with the trainer's own :func:`~repro.saberlda.costing.sampling_traffic`
  (the batch chunk is word-major, so the access pattern is identical);
* **pre-processing** — only the per-word sampler structures *built
  during this batch* (the frozen ``B̂`` makes every other word's
  structure reusable; training pays this for all ``V`` words every
  iteration, serving amortises it across the query stream);
* **transfer** — query tokens in, topic mixtures out, over PCIe.

The numeric results are deterministic per request id (see
:func:`~repro.serving.foldin.request_rng`), independent of how requests
were batched.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from ..core.model import LDAModel
from ..core.serialization import load_model
from ..kernels.backend import KernelBackend
from ..gpusim.cost_model import CostModel
from ..gpusim.device import GTX_1080, DeviceSpec
from ..gpusim.memory import MemoryTraffic
from ..gpusim.occupancy import LaunchConfig, occupancy_efficiency
from ..gpusim.profiler import PHASE_PREPROCESSING, PHASE_SAMPLING, PHASE_TRANSFER
from ..saberlda.config import PreprocessKind, SaberLDAConfig
from ..saberlda.costing import (
    WorkloadStats,
    _hot_token_fraction,
    preprocessing_traffic,
    sampling_shared_bytes,
    sampling_traffic,
)
from .foldin import FoldInResult, FrozenModelState, request_rng
from .scheduler import InferenceBatch

#: Bytes of one streamed query token (word id + document offset).
_TOKEN_IN_BYTES = 8
#: Bytes of one returned mixture entry (float32 theta).
_THETA_OUT_BYTES = 4


@dataclass(frozen=True)
class BatchExecution:
    """One executed batch: per-request results plus its simulated cost."""

    batch: InferenceBatch
    results: List[FoldInResult]
    phase_seconds: Dict[str, float]
    samplers_built: int

    @property
    def seconds(self) -> float:
        """Total simulated batch time."""
        return sum(self.phase_seconds.values())

    @property
    def tokens_per_second(self) -> float:
        """Simulated token throughput of the batch (per sweep-pass token)."""
        if self.seconds <= 0:
            return 0.0
        return self.batch.num_tokens / self.seconds


@dataclass
class InferenceEngine:
    """Executes micro-batches against one frozen model on one device.

    Build with :meth:`from_model` or :meth:`from_checkpoint`; the
    checkpoint path may be a plain archive, a row-sharded or a
    column-sharded manifest — :func:`~repro.core.serialization.load_model`
    auto-detects and reassembles, so serving never needs to know which
    parallelism mode trained the model.
    """

    state: FrozenModelState
    device: DeviceSpec = field(default=GTX_1080)
    num_sweeps: int = 15
    seed: int = 0
    threads_per_block: int = 256

    def __post_init__(self) -> None:
        if self.num_sweeps < 1:
            raise ValueError("num_sweeps must be >= 1")
        # The costing formulas read the layout switches off a trainer
        # config; serving is always PDOW over the batch chunk.
        self._cost_config = SaberLDAConfig(
            params=self.state.model.params,
            device=self.device,
            threads_per_block=self.threads_per_block,
            preprocess=self.state.bank.kind,
        )

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    @classmethod
    def from_model(
        cls,
        model: LDAModel,
        device: DeviceSpec = GTX_1080,
        num_sweeps: int = 15,
        seed: int = 0,
        preprocess: PreprocessKind = PreprocessKind.WARY_TREE,
        sampler_capacity: int = 4096,
        backend: Union[KernelBackend, str] = KernelBackend.VECTORIZED,
        **overrides,
    ) -> "InferenceEngine":
        """Freeze a trained model and wrap it in an engine.

        ``backend`` picks the fold-in kernel execution
        (:class:`~repro.kernels.KernelBackend`); results are
        bit-identical either way, ``vectorized`` is simply faster.
        """
        state = FrozenModelState.prepare(
            model, kind=preprocess, sampler_capacity=sampler_capacity, backend=backend
        )
        return cls(
            state=state, device=device, num_sweeps=num_sweeps, seed=seed, **overrides
        )

    @classmethod
    def from_checkpoint(cls, path: str, **kwargs) -> "InferenceEngine":
        """Load any checkpoint layout (plain / sharded / mmap directory)."""
        return cls.from_model(load_model(path), **kwargs)

    @classmethod
    def from_mmap_checkpoint(
        cls,
        path: str,
        device: DeviceSpec = GTX_1080,
        num_sweeps: int = 15,
        seed: int = 0,
        preprocess: PreprocessKind = PreprocessKind.WARY_TREE,
        sampler_capacity: int = 4096,
        backend: Union[KernelBackend, str] = KernelBackend.VECTORIZED,
        mmap_mode: "str | None" = "r",
        **overrides,
    ) -> "InferenceEngine":
        """Serve an mmap checkpoint without loading or recomputing the model.

        The frozen ``phi`` / ``phi_cdf`` / ``prior_mass`` are opened
        straight off the checkpoint's raw ``.npy`` members (read-only
        memory maps by default) — the constructor worker processes use,
        so every worker shares the parent's single on-disk copy.
        Results are bit-identical to :meth:`from_checkpoint`.
        """
        state = FrozenModelState.from_mmap_checkpoint(
            path,
            kind=preprocess,
            sampler_capacity=sampler_capacity,
            backend=backend,
            mmap_mode=mmap_mode,
        )
        return cls(
            state=state, device=device, num_sweeps=num_sweeps, seed=seed, **overrides
        )

    @property
    def model(self) -> LDAModel:
        """The frozen model being served."""
        return self.state.model

    @property
    def cost_config(self) -> SaberLDAConfig:
        """The costing configuration the engine charges batches with.

        Exposed for the pool (:mod:`~repro.serving.pool`), which re-costs
        a batch per topic shard through the same formulas.
        """
        return self._cost_config

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #
    def infer_request(self, word_ids: Sequence[int], request_id: int) -> FoldInResult:
        """Fold in one document outside any batch (identical result in a batch)."""
        return self.infer_requests([word_ids], [request_id])[0]

    def infer_requests(
        self, documents: Sequence[Sequence[int]], request_ids: Sequence[int]
    ) -> List[FoldInResult]:
        """Fold in a batch of documents with one fold-in call.

        Document ``i`` draws from ``request_rng(seed, request_ids[i])``,
        so each result is the one the request gets alone.
        """
        rngs = [request_rng(self.seed, request_id) for request_id in request_ids]
        return self.state.fold_in(documents, rngs, num_sweeps=self.num_sweeps)

    def execute(self, batch: InferenceBatch) -> BatchExecution:
        """Run fold-in for every request of the batch and cost the pass."""
        build_mark = self.state.bank.begin_batch()
        results = self.infer_requests(
            [request.word_ids for request in batch.requests],
            [request.request_id for request in batch.requests],
        )
        built = self.state.bank.builds_since(build_mark)
        phase_seconds = self._batch_phase_seconds(batch, results, built)
        return BatchExecution(
            batch=batch,
            results=results,
            phase_seconds=phase_seconds,
            samplers_built=built,
        )

    # ------------------------------------------------------------------ #
    # Costing
    # ------------------------------------------------------------------ #
    def batch_stats(
        self, batch: InferenceBatch, results: List[FoldInResult]
    ) -> WorkloadStats:
        """Workload statistics of one sweep-pass over the batch chunk.

        Public because the pool derives per-shard costs from the same
        measurement (``num_topics`` narrowed to the shard width, exactly
        as the topic-parallel trainer re-costs a device's slice).
        """
        vocabulary_size = self.state.model.vocabulary_size
        num_topics = self.state.model.num_topics
        doc_nnz = [int((result.doc_topic_counts > 0).sum()) for result in results]
        total_nnz = float(sum(doc_nnz))
        mean_nnz = total_nnz / max(len(doc_nnz), 1)
        term_frequencies = batch.tokens.tokens_per_word(vocabulary_size)
        return WorkloadStats(
            num_tokens=batch.num_tokens,
            num_documents=batch.num_documents,
            vocabulary_size=vocabulary_size,
            num_topics=num_topics,
            mean_doc_nnz=mean_nnz,
            total_doc_nnz=total_nnz,
            distinct_chunk_words=float(batch.distinct_words()),
            hot_token_fraction=_hot_token_fraction(
                term_frequencies, num_topics, self.device
            ),
            chunk_token_counts=[batch.num_tokens],
        )

    def _batch_phase_seconds(
        self, batch: InferenceBatch, results: List[FoldInResult], built: int
    ) -> Dict[str, float]:
        return cost_batch_phases(
            self.batch_stats(batch, results),
            num_sweeps=self.num_sweeps,
            built_words=built,
            config=self._cost_config,
        )


def cost_batch_phases(
    stats: WorkloadStats,
    num_sweeps: int,
    built_words: int,
    config: SaberLDAConfig,
) -> Dict[str, float]:
    """Simulated phase seconds of one serving micro-batch.

    ``stats`` describes a single sweep-pass over the batch chunk (the
    engine measures it, the analytic projection derives it); sampling is
    charged once per Gibbs sweep, pre-processing only for the
    ``built_words`` per-word structures constructed during the batch,
    and the transfer covers query tokens in plus theta mixtures out.
    Shared with :func:`repro.evaluation.serving.project_serving_throughput`
    so the measured engine and the full-scale projection cannot drift.
    """
    device = config.device
    cost_model = CostModel(device)
    shared = min(
        sampling_shared_bytes(
            stats.num_topics, config.threads_per_block, stats.mean_doc_nnz
        ),
        device.shared_memory_per_sm,
    )
    launch = LaunchConfig(config.threads_per_block, shared)
    efficiency = max(occupancy_efficiency(launch, device), 1e-3)
    sampling = cost_model.kernel_time(
        sampling_traffic(stats, config, device), efficiency
    )

    preprocess_seconds = 0.0
    if built_words > 0:
        # Charge only the structures built this batch: the same
        # per-word formulas as training, over `built_words` rows of B̂.
        build_stats = WorkloadStats(
            num_tokens=0,
            num_documents=0,
            vocabulary_size=built_words,
            num_topics=stats.num_topics,
            mean_doc_nnz=0.0,
            total_doc_nnz=0.0,
            distinct_chunk_words=0.0,
            hot_token_fraction=0.0,
            chunk_token_counts=[],
        )
        preprocess_seconds = cost_model.kernel_time(
            preprocessing_traffic(build_stats, config, device), 1.0
        ).seconds

    transfers = MemoryTraffic()
    transfers.transfer(float(stats.num_tokens) * _TOKEN_IN_BYTES)
    transfers.transfer(
        float(stats.num_documents) * stats.num_topics * _THETA_OUT_BYTES
    )

    return {
        PHASE_SAMPLING: sampling.seconds * num_sweeps,
        PHASE_PREPROCESSING: preprocess_seconds,
        PHASE_TRANSFER: cost_model.transfer_time(transfers),
    }


def engine_results_digest(results: Sequence[FoldInResult]) -> str:
    """SHA-256 over the concatenated theta bytes — the bit-identity anchor.

    Two serving runs agree on this digest iff every request's mixture
    agrees to the last bit; the acceptance check compares it across
    plain, row-sharded and column-sharded checkpoints of one model.
    """
    import hashlib

    hasher = hashlib.sha256()
    for result in results:
        theta = np.ascontiguousarray(np.asarray(result.theta, dtype=np.float64))
        hasher.update(theta.tobytes())
    return hasher.hexdigest()


def warm_sampler_bank(
    engine: InferenceEngine, word_ids: Sequence[int]
) -> Optional[int]:
    """Pre-build the Problem-2 samplers of the given words (cold-start control).

    Returns how many structures were built.  Benchmarks use this to
    separate steady-state latency from the first-touch build transient.
    On the vectorized W-ary path the words enter the bank's integer LRU
    and no tree is built (:meth:`FrozenModelState.touch_samplers`).
    """
    mark = engine.state.bank.begin_batch()
    engine.state.touch_samplers(np.unique(np.asarray(word_ids, dtype=np.int64)))
    return engine.state.bank.builds_since(mark)
