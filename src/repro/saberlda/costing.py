"""Workload analysis: how much memory traffic each phase of an iteration generates.

The cost model (``repro.gpusim.cost_model``) converts traffic to time;
this module produces the traffic.  Every formula follows the paper's own
accounting of the access patterns:

* **Sampling** (Sec. 3.1.3): with the word-major ordering each token's
  warp streams its document's CSR row of ``A`` from global memory
  (coalesced, two 128-byte lines per 32 entries) and reads ``B̂_v`` from
  shared memory; with the doc-major ordering ``A_d`` is shared-memory
  resident but every token gathers scattered elements of a random row of
  ``B̂``, touching up to a full row of cache lines that mostly miss L2.
* **Count rebuild** (Sec. 3.3): a multi-pass radix sort of the chunk's
  tokens versus SSC's single shuffle pass plus shared-memory segmented
  counting.
* **Pre-processing** (Sec. 3.2.4): per-word alias-table construction is a
  long dependent chain per word; the W-ary tree is one coalesced sweep of
  ``B̂``.
* **Transfer** (Sec. 3.1.2): tokens in, updated topics and ``A`` rows out.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from ..core.count_matrices import SparseDocTopicMatrix
from ..corpus.datasets import DatasetDescriptor
from ..gpusim.device import DeviceSpec
from ..gpusim.memory import MemorySpace, MemoryTraffic
from .config import CountRebuildKind, PreprocessKind, SaberLDAConfig, TokenOrder
from .layout import ChunkLayout

#: Bytes of one CSR entry of A (int32 topic index + int32 count).
_CSR_ENTRY_BYTES = 8
#: Bytes of one token as streamed to the GPU (word id + document offset).
_TOKEN_IN_BYTES = 8
#: Bytes of one topic assignment written back.
_TOPIC_OUT_BYTES = 4
#: Bytes of one float of B / B̂.
_FLOAT_BYTES = 4
#: Alignment overhead of 128-byte aligned CSR rows (Sec. 3.4).
_ROW_ALIGNMENT_OVERHEAD = 1.1


@dataclass(frozen=True)
class WorkloadStats:
    """Shape statistics of one iteration's workload.

    Attributes
    ----------
    num_tokens / num_documents / vocabulary_size / num_topics:
        ``T``, ``D``, ``V`` and ``K``.
    mean_doc_nnz:
        Average number of non-zero topics per document row (``K_d``).
    total_doc_nnz:
        Total non-zeros of ``A``.
    distinct_chunk_words:
        Sum over chunks of the number of distinct words in the chunk —
        the number of ``B̂`` rows loaded into shared memory per iteration.
    hot_token_fraction:
        Fraction of tokens whose word's ``B̂`` row fits in the L2 working
        set (relevant only for the doc-major layout).
    chunk_token_counts:
        Tokens per chunk, used to split transfers across the stream.
    """

    num_tokens: int
    num_documents: int
    vocabulary_size: int
    num_topics: int
    mean_doc_nnz: float
    total_doc_nnz: float
    distinct_chunk_words: float
    hot_token_fraction: float
    chunk_token_counts: Sequence[int]

    # ------------------------------------------------------------------ #
    # Construction helpers
    # ------------------------------------------------------------------ #
    @classmethod
    def measure(
        cls,
        layouts: List[ChunkLayout],
        doc_topic: SparseDocTopicMatrix,
        num_topics: int,
        vocabulary_size: int,
        device: DeviceSpec,
    ) -> "WorkloadStats":
        """Measure the statistics from actual chunk layouts and the current ``A``.

        Documents and the non-zeros of ``A`` are counted over the layouts'
        document ranges: a device that streams only some chunks moves only
        their rows of ``A``, so its transfer and rebuild traffic must not
        be charged on the whole matrix.  ``V`` and ``K`` stay global.
        """
        num_tokens = int(sum(layout.num_tokens for layout in layouts))
        distinct_chunk_words = float(sum(layout.distinct_words() for layout in layouts))
        chunk_token_counts = [layout.num_tokens for layout in layouts]
        chunks = [layout.chunk for layout in layouts]
        num_documents = sum(chunk.num_documents for chunk in chunks)
        total_doc_nnz = sum(
            int(doc_topic.indptr[chunk.doc_stop] - doc_topic.indptr[chunk.doc_start])
            for chunk in chunks
        )

        term_frequencies = np.zeros(vocabulary_size, dtype=np.int64)
        for layout in layouts:
            term_frequencies += layout.tokens.tokens_per_word(vocabulary_size)
        hot_fraction = _hot_token_fraction(term_frequencies, num_topics, device)

        return cls(
            num_tokens=num_tokens,
            num_documents=num_documents,
            vocabulary_size=vocabulary_size,
            num_topics=num_topics,
            mean_doc_nnz=total_doc_nnz / num_documents if num_documents else 0.0,
            total_doc_nnz=float(total_doc_nnz),
            distinct_chunk_words=distinct_chunk_words,
            hot_token_fraction=hot_fraction,
            chunk_token_counts=chunk_token_counts,
        )

    @classmethod
    def from_descriptor(
        cls,
        descriptor: DatasetDescriptor,
        num_topics: int,
        device: DeviceSpec,
        num_chunks: int = 1,
        mean_doc_nnz: Optional[float] = None,
        zipf_exponent: float = 1.05,
    ) -> "WorkloadStats":
        """Analytic statistics for a full-scale published dataset.

        ``mean_doc_nnz`` defaults to the birthday-problem estimate of the
        number of distinct topics a document of the dataset's average
        length touches.
        """
        mean_length = descriptor.tokens_per_document
        if mean_doc_nnz is None:
            mean_doc_nnz = expected_distinct_topics(mean_length, num_topics)
        mean_doc_nnz = float(min(mean_doc_nnz, num_topics, mean_length))

        from ..corpus.zipf import ZipfModel

        probabilities = ZipfModel(descriptor.vocabulary_size, exponent=zipf_exponent).probabilities()
        hot_fraction = _hot_token_fraction_from_probs(probabilities, num_topics, device)

        # Every chunk of a by-document partition sees nearly the full head of
        # the Zipf distribution; the expected number of distinct words per
        # chunk follows from the word-occupancy formula.
        tokens_per_chunk = descriptor.num_tokens / num_chunks
        expected_words_per_chunk = float(
            np.sum(1.0 - np.exp(-probabilities * tokens_per_chunk))
        )
        chunk_token_counts = [int(tokens_per_chunk)] * num_chunks

        return cls(
            num_tokens=descriptor.num_tokens,
            num_documents=descriptor.num_documents,
            vocabulary_size=descriptor.vocabulary_size,
            num_topics=num_topics,
            mean_doc_nnz=mean_doc_nnz,
            total_doc_nnz=mean_doc_nnz * descriptor.num_documents,
            distinct_chunk_words=expected_words_per_chunk * num_chunks,
            hot_token_fraction=hot_fraction,
            chunk_token_counts=chunk_token_counts,
        )


def sampling_shared_bytes(
    num_topics: int, threads_per_block: int, mean_doc_nnz: float
) -> int:
    """Shared memory one sampling block needs (Sec. 3.4).

    The block keeps the current word's ``B̂_v`` row, its W-ary tree levels
    3 and 4, and one product buffer ``P`` per warp; the word-topic count
    row ``B_v`` is accumulated with ``atomicAdd`` directly in global
    memory, so it does not occupy shared memory.
    """
    row_bytes = num_topics * _FLOAT_BYTES
    tree_bytes = int(row_bytes * (1.0 + 1.0 / 32.0)) + 128
    warps = max(1, threads_per_block // 32)
    product_bytes = warps * int(max(mean_doc_nnz, 32.0)) * _FLOAT_BYTES
    return row_bytes + tree_bytes + product_bytes


def expected_distinct_topics(document_length: float, num_topics: int) -> float:
    """Expected number of distinct topics drawn in ``document_length`` samples.

    Documents concentrate on far fewer topics than uniform sampling would
    suggest; the factor 0.35 reflects the concentration of a converged
    Dirichlet(50/K) mixture and is calibrated against the replicas.
    """
    uniform_expectation = num_topics * (1.0 - (1.0 - 1.0 / num_topics) ** document_length)
    return max(1.0, 0.35 * uniform_expectation)


def _hot_token_fraction(
    term_frequencies: np.ndarray, num_topics: int, device: DeviceSpec
) -> float:
    """Fraction of tokens whose word row of ``B̂`` stays resident in L2."""
    total = term_frequencies.sum()
    if total == 0:
        return 0.0
    probabilities = np.sort(term_frequencies / total)[::-1]
    return _hot_token_fraction_from_probs(probabilities, num_topics, device)


def _hot_token_fraction_from_probs(
    sorted_probabilities: np.ndarray, num_topics: int, device: DeviceSpec
) -> float:
    row_bytes = num_topics * _FLOAT_BYTES
    resident_rows = max(1, int(device.l2_capacity_bytes // max(row_bytes, 1)))
    resident_rows = min(resident_rows, len(sorted_probabilities))
    return float(np.sort(sorted_probabilities)[::-1][:resident_rows].sum())


# --------------------------------------------------------------------------- #
# Per-phase traffic
# --------------------------------------------------------------------------- #
def sampling_traffic(
    stats: WorkloadStats, config: SaberLDAConfig, device: DeviceSpec
) -> MemoryTraffic:
    """Traffic of the E-step sampling kernel for one full pass over the corpus."""
    traffic = MemoryTraffic()
    tokens = float(stats.num_tokens)
    mean_nnz = stats.mean_doc_nnz
    num_topics = stats.num_topics
    line = device.cache_line_bytes

    # Token list in, new topic assignments out (always global, coalesced).
    traffic.read(MemorySpace.GLOBAL, tokens * _TOKEN_IN_BYTES)
    traffic.write(MemorySpace.GLOBAL, tokens * _TOPIC_OUT_BYTES)

    if config.token_order is TokenOrder.WORD_MAJOR:
        # Each token's warp streams its document's CSR row (coalesced).
        row_bytes = tokens * mean_nnz * _CSR_ENTRY_BYTES * _ROW_ALIGNMENT_OVERHEAD
        traffic.read(MemorySpace.GLOBAL, row_bytes)
        # Each distinct (chunk, word) pair loads B̂_v into shared memory once.
        traffic.read(MemorySpace.GLOBAL, stats.distinct_chunk_words * num_topics * _FLOAT_BYTES)
        # Everything read from DRAM moves through L2, plus a modest hit rate on
        # re-touched CSR rows of neighbouring tokens of the same document.
        traffic.read(MemorySpace.L2, (row_bytes + tokens * _TOKEN_IN_BYTES) * 1.4)
        # Shared-memory work per token: read B̂ entries, write/read P, two
        # tree-descent cache lines.  The same requests are issued through the
        # unified L1/texture path.
        traffic.read(MemorySpace.SHARED, tokens * (3 * mean_nnz * _FLOAT_BYTES + 2 * line))
        traffic.write(MemorySpace.SHARED, tokens * mean_nnz * _FLOAT_BYTES)
        traffic.read(MemorySpace.L1, tokens * (2 * mean_nnz * _FLOAT_BYTES + 2 * line))
    else:
        # Doc-major: A_d is loaded into shared memory once per document...
        traffic.read(MemorySpace.GLOBAL, stats.total_doc_nnz * _CSR_ENTRY_BYTES)
        # ...but every token gathers scattered entries of a random row of B̂.
        row_lines = np.ceil(num_topics * _FLOAT_BYTES / line)
        lines_touched = float(min(mean_nnz, row_lines))
        bytes_per_token = lines_touched * line
        hot = stats.hot_token_fraction
        traffic.read(MemorySpace.GLOBAL, tokens * bytes_per_token * (1.0 - hot))
        traffic.read(MemorySpace.L2, tokens * bytes_per_token * hot)
        traffic.read(MemorySpace.SHARED, tokens * (2 * mean_nnz * _FLOAT_BYTES + 2 * line))
        traffic.write(MemorySpace.SHARED, tokens * mean_nnz * _FLOAT_BYTES)

    # L1 sees roughly the per-token working set once.
    traffic.read(MemorySpace.L1, tokens * mean_nnz * _CSR_ENTRY_BYTES)
    # Warp work: element-wise product + prefix-sum search, 32 entries per step.
    traffic.compute_warp(tokens * max(1.0, 3.0 * mean_nnz / 32.0))
    return traffic


def count_rebuild_traffic(
    stats: WorkloadStats, config: SaberLDAConfig, device: DeviceSpec
) -> MemoryTraffic:
    """Traffic of rebuilding the document-topic matrix ``A`` once per iteration."""
    traffic = MemoryTraffic()
    tokens = float(stats.num_tokens)
    nnz_bytes = stats.total_doc_nnz * _CSR_ENTRY_BYTES

    if config.count_rebuild is CountRebuildKind.GLOBAL_SORT:
        # Radix sort of (doc, topic) keys.  With doc-major ordering the
        # tokens are already grouped by document and only the topic digits
        # need sorting; the word-major ordering must sort on both fields.
        passes = 3 if config.token_order is TokenOrder.DOC_MAJOR else 6
        per_pass_bytes = 2 * (_TOKEN_IN_BYTES + _TOPIC_OUT_BYTES)  # read + write key/payload
        traffic.read(MemorySpace.GLOBAL, tokens * per_pass_bytes * passes / 2)
        traffic.write(MemorySpace.GLOBAL, tokens * per_pass_bytes * passes / 2)
        # Final linear scan producing the CSR rows.
        traffic.read(MemorySpace.GLOBAL, tokens * _TOPIC_OUT_BYTES)
        traffic.write(MemorySpace.GLOBAL, nnz_bytes)
        traffic.compute_warp(tokens * passes / 32.0)
    else:
        # SSC: one shuffle pass (read token + pointer, write token), then the
        # segmented count entirely in shared memory.
        traffic.read(MemorySpace.GLOBAL, tokens * (_TOKEN_IN_BYTES + 4))
        traffic.write(MemorySpace.GLOBAL, tokens * _TOKEN_IN_BYTES)
        traffic.read(MemorySpace.SHARED, tokens * 12)
        traffic.write(MemorySpace.SHARED, tokens * 8)
        traffic.write(MemorySpace.GLOBAL, nnz_bytes)
        traffic.compute_warp(tokens * 4 / 32.0)
    return traffic


def preprocessing_traffic(
    stats: WorkloadStats, config: SaberLDAConfig, device: DeviceSpec
) -> MemoryTraffic:
    """Traffic of the M-step pre-processing: B̂, Q and the per-word sampling structures."""
    traffic = MemoryTraffic()
    matrix_bytes = float(stats.vocabulary_size) * stats.num_topics * _FLOAT_BYTES

    # Word-topic count update (atomicAdd into B) and B̂ = normalise(B).
    traffic.read(MemorySpace.GLOBAL, float(stats.num_tokens) * _TOPIC_OUT_BYTES)
    traffic.write(MemorySpace.GLOBAL, float(stats.num_tokens) * _FLOAT_BYTES)
    traffic.read(MemorySpace.GLOBAL, matrix_bytes)
    traffic.write(MemorySpace.GLOBAL, matrix_bytes)

    if config.preprocess is PreprocessKind.ALIAS_TABLE:
        # One sequential build per word: a K-step dependent chain whose
        # worklist pops/pushes and table writes hit unpredictable positions,
        # so every step costs a handful of uncoalesced cache-line
        # transactions and cannot be vectorised across the warp.
        steps = float(stats.vocabulary_size) * stats.num_topics
        traffic.dependent_chain(steps, parallelism=float(stats.vocabulary_size))
        traffic.random_read(MemorySpace.GLOBAL, 8.0, device, count=int(steps * 2))
        traffic.write(MemorySpace.GLOBAL, steps * device.cache_line_bytes)
        traffic.compute_scalar(steps)
    else:
        # W-ary tree: one coalesced read of B̂ and one coalesced write of the
        # (slightly larger) tree levels, fully warp-parallel.
        traffic.read(MemorySpace.GLOBAL, matrix_bytes)
        traffic.write(MemorySpace.GLOBAL, matrix_bytes * (1.0 + 1.0 / 32.0))
        traffic.compute_warp(float(stats.vocabulary_size) * stats.num_topics / 32.0)
    return traffic


def transfer_traffic(stats: WorkloadStats, config: SaberLDAConfig) -> MemoryTraffic:
    """Host<->device traffic of streaming every chunk once."""
    traffic = MemoryTraffic()
    tokens = float(stats.num_tokens)
    nnz_bytes = stats.total_doc_nnz * _CSR_ENTRY_BYTES
    traffic.transfer(tokens * _TOKEN_IN_BYTES)      # token list in
    traffic.transfer(tokens * _TOPIC_OUT_BYTES)     # new assignments out
    traffic.transfer(2.0 * nnz_bytes)               # A rows in and out
    return traffic


def per_chunk_transfer_bytes(stats: WorkloadStats, config: SaberLDAConfig) -> List[float]:
    """Split the iteration's transfer bytes across chunks proportionally to their tokens."""
    total = transfer_traffic(stats, config).host_device_bytes
    counts = np.asarray(stats.chunk_token_counts, dtype=np.float64)
    if counts.sum() == 0:
        return [0.0 for _ in counts]
    return list(total * counts / counts.sum())
