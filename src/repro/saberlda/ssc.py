"""Shuffle and Segmented Count (SSC) — rebuilding the sparse matrix A (Sec. 3.3, Fig. 8).

After the E-step of a chunk the document-topic counts must be rebuilt.
The naïve approach sorts all of the chunk's tokens by (document, topic)
in global memory; SSC avoids the global sort:

1. **Shuffle** — tokens are placed into document-grouped order using a
   pointer array precomputed from the (fixed) document ids, one global
   read and one global write per token;
2. **Segmented count** — for each document segment (small enough for
   shared memory): radix-sort the topics, take adjacent differences,
   prefix-sum them to obtain each distinct topic's output slot, and
   scatter (topic, count) pairs.

The trainer rebuilds ``A`` with :func:`rebuild_doc_topic_sort`: SSC and
the global sort produce the same matrix, and the configuration switch
changes only the cost, which ``repro.saberlda.costing`` charges.  The
lane-faithful SSC functions (radix sort, segmented count,
:func:`rebuild_doc_topic_ssc`) are run by the tests only, which check
them against the sort-based rebuild.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from ..core.count_matrices import SparseDocTopicMatrix
from ..core.tokens import TokenList
from .layout import ChunkLayout


# --------------------------------------------------------------------------- #
# Shared-memory radix sort (step 1 of Fig. 8)
# --------------------------------------------------------------------------- #
def radix_sort_shared(values: np.ndarray, radix_bits: int = 8) -> np.ndarray:
    """LSD radix sort of non-negative integers, as a block would run it in shared memory.

    The sort proceeds in ``radix_bits``-wide digit passes; each pass builds
    a digit histogram, prefix-sums it, and scatters the values — the same
    counting-sort passes a CUDA block performs with shared-memory
    histograms.
    """
    values = np.asarray(values, dtype=np.int64)
    if values.size == 0:
        return values.copy()
    if (values < 0).any():
        raise ValueError("radix sort requires non-negative values")
    max_value = int(values.max())
    radix = 1 << radix_bits
    sorted_values = values.copy()
    shift = 0
    while (max_value >> shift) > 0 or shift == 0:
        digits = (sorted_values >> shift) & (radix - 1)
        histogram = np.bincount(digits, minlength=radix)
        offsets = np.zeros(radix, dtype=np.int64)
        np.cumsum(histogram[:-1], out=offsets[1:])
        output = np.empty_like(sorted_values)
        cursor = offsets.copy()
        for value, digit in zip(sorted_values, digits, strict=True):
            output[cursor[digit]] = value
            cursor[digit] += 1
        sorted_values = output
        shift += radix_bits
        if (max_value >> shift) == 0:
            break
    return sorted_values


# --------------------------------------------------------------------------- #
# Segmented count (steps 2-3 of Fig. 8)
# --------------------------------------------------------------------------- #
def segmented_count(topics: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Count occurrences of each distinct topic in one document segment.

    Follows Fig. 8 exactly: radix-sort the topic values, mark positions
    where the value changes (adjacent difference), prefix-sum the marks to
    get each distinct value's output slot, then scatter keys and bump the
    matching counters.

    Returns ``(keys, counts)`` with keys in ascending order.
    """
    topics = np.asarray(topics, dtype=np.int64)
    if topics.size == 0:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)

    sorted_topics = radix_sort_shared(topics)

    # d[0] = 0, d[i] = (a[i] != a[i-1])
    difference = np.zeros(len(sorted_topics), dtype=np.int64)
    difference[1:] = (sorted_topics[1:] != sorted_topics[:-1]).astype(np.int64)

    # p[i] = p[i-1] + d[i]  (order number of each value)
    order_numbers = np.cumsum(difference)
    num_keys = int(order_numbers[-1]) + 1

    # k[p[i]] = a[i]; c[p[i]] += 1
    keys = np.zeros(num_keys, dtype=np.int64)
    counts = np.zeros(num_keys, dtype=np.int64)
    keys[order_numbers] = sorted_topics
    np.add.at(counts, order_numbers, 1)
    return keys, counts


# --------------------------------------------------------------------------- #
# Shuffle (the pointer-array placement)
# --------------------------------------------------------------------------- #
def shuffle_to_document_order(layout: ChunkLayout) -> TokenList:
    """Place the chunk's tokens into document-grouped order via the precomputed pointers."""
    tokens = layout.tokens
    pointers = layout.shuffle_pointers
    doc_ids = np.empty_like(tokens.doc_ids)
    word_ids = np.empty_like(tokens.word_ids)
    topics = np.empty_like(tokens.topics)
    doc_ids[pointers] = tokens.doc_ids
    word_ids[pointers] = tokens.word_ids
    topics[pointers] = tokens.topics
    return TokenList(doc_ids, word_ids, topics)


# --------------------------------------------------------------------------- #
# Full rebuild algorithms
# --------------------------------------------------------------------------- #
@dataclass
class ChunkDocTopicRows:
    """The rebuilt CSR rows of one chunk's documents (re-based to the chunk)."""

    doc_start: int
    doc_stop: int
    matrix: SparseDocTopicMatrix


def rebuild_doc_topic_ssc(layout: ChunkLayout, num_topics: int) -> ChunkDocTopicRows:
    """Rebuild the chunk's rows of ``A`` with shuffle + segmented count."""
    chunk = layout.chunk
    shuffled = shuffle_to_document_order(layout)
    num_docs = chunk.num_documents

    indptr = np.zeros(num_docs + 1, dtype=np.int64)
    indices_parts: List[np.ndarray] = []
    values_parts: List[np.ndarray] = []

    # Document segments are contiguous in the shuffled list.
    local_docs = shuffled.doc_ids - chunk.doc_start
    boundaries = np.flatnonzero(np.diff(local_docs)) + 1
    starts = np.concatenate([[0], boundaries]) if shuffled.num_tokens else np.zeros(0, dtype=int)
    stops = (
        np.concatenate([boundaries, [shuffled.num_tokens]])
        if shuffled.num_tokens
        else np.zeros(0, dtype=int)
    )

    row_nnz = np.zeros(num_docs, dtype=np.int64)
    per_doc: dict = {}
    for start, stop in zip(starts, stops, strict=True):
        doc_local = int(local_docs[start])
        keys, counts = segmented_count(shuffled.topics[start:stop])
        per_doc[doc_local] = (keys.astype(np.int32), counts.astype(np.int32))
        row_nnz[doc_local] = len(keys)

    np.cumsum(row_nnz, out=indptr[1:])
    for doc_local in range(num_docs):
        if doc_local in per_doc:
            keys, counts = per_doc[doc_local]
            indices_parts.append(keys)
            values_parts.append(counts)

    indices = np.concatenate(indices_parts) if indices_parts else np.zeros(0, dtype=np.int32)
    values = np.concatenate(values_parts) if values_parts else np.zeros(0, dtype=np.int32)
    matrix = SparseDocTopicMatrix(
        num_documents=num_docs,
        num_topics=num_topics,
        indptr=indptr,
        indices=indices,
        values=values,
    )
    return ChunkDocTopicRows(chunk.doc_start, chunk.doc_stop, matrix)


def rebuild_doc_topic_sort(layout: ChunkLayout, num_topics: int) -> ChunkDocTopicRows:
    """Naïve rebuild: global sort of the chunk tokens by (document, topic) then a linear scan."""
    chunk = layout.chunk
    tokens = layout.tokens
    num_docs = chunk.num_documents
    if tokens.num_tokens == 0:
        return ChunkDocTopicRows(
            chunk.doc_start, chunk.doc_stop, SparseDocTopicMatrix.empty(num_docs, num_topics)
        )
    local_docs = tokens.doc_ids - chunk.doc_start
    keys = local_docs.astype(np.int64) * num_topics + tokens.topics.astype(np.int64)
    sorted_keys = np.sort(keys)
    uniq, counts = np.unique(sorted_keys, return_counts=True)
    docs = (uniq // num_topics).astype(np.int64)
    topic_ids = (uniq % num_topics).astype(np.int32)
    row_lengths = np.bincount(docs, minlength=num_docs)
    indptr = np.zeros(num_docs + 1, dtype=np.int64)
    np.cumsum(row_lengths, out=indptr[1:])
    matrix = SparseDocTopicMatrix(
        num_documents=num_docs,
        num_topics=num_topics,
        indptr=indptr,
        indices=topic_ids,
        values=counts.astype(np.int32),
    )
    return ChunkDocTopicRows(chunk.doc_start, chunk.doc_stop, matrix)


def merge_chunk_rows(
    chunk_rows: List[ChunkDocTopicRows], num_documents: int, num_topics: int
) -> SparseDocTopicMatrix:
    """Stack the per-chunk CSR rows back into the corpus-wide matrix ``A``."""
    chunk_rows = sorted(chunk_rows, key=lambda rows: rows.doc_start)
    indptr = np.zeros(num_documents + 1, dtype=np.int64)
    indices_parts: List[np.ndarray] = []
    values_parts: List[np.ndarray] = []
    for rows in chunk_rows:
        matrix = rows.matrix
        row_lengths = np.diff(matrix.indptr)
        indptr[rows.doc_start + 1 : rows.doc_stop + 1] = row_lengths
        indices_parts.append(matrix.indices)
        values_parts.append(matrix.values)
    np.cumsum(indptr, out=indptr)
    indices = np.concatenate(indices_parts) if indices_parts else np.zeros(0, dtype=np.int32)
    values = np.concatenate(values_parts) if values_parts else np.zeros(0, dtype=np.int32)
    return SparseDocTopicMatrix(
        num_documents=num_documents,
        num_topics=num_topics,
        indptr=indptr,
        indices=indices,
        values=values,
    )
