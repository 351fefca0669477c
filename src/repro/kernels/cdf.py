"""Shared CDF-sampling primitives of both kernel backends.

These are the batched forms of the paper's prefix-sum search (Sec. 2.3):
given inclusive prefix sums of non-negative weights and uniforms in
``[0, 1)``, locate each scaled target in its row.  The helpers live here
— not in ``estep.py`` or ``foldin.py`` — because training and serving
sample from the same two CDF shapes (per-token document rows, per-word
``B̂`` rows) and must agree bit-for-bit.

Exactness contract: every helper returns ``min(#{j : cdf[j] < target},
K - 1)`` with ``target = u * cdf[-1]`` computed element-wise.  That is
the value the reference loops produce, whether they count with a dense
comparison or with ``np.searchsorted(..., side="left")`` — the two are
interchangeable on non-decreasing rows, which lets each caller pick the
cheaper one without changing a single sampled topic.
"""

from __future__ import annotations

import numpy as np

#: Cap on the elements a dense row-gather may materialise at once; prior
#: draws over wide CDFs are processed in blocks (or per word) below this.
DENSE_BLOCK_ELEMENTS = 1 << 22

#: Row width at or below which a blocked dense comparison beats the
#: batched binary search (gathers are contiguous and K is cache-sized).
DENSE_ROW_WIDTH = 512


def sample_rows_from_cdf(cdf_rows: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    """Vectorised prefix-sum search: one sample per row of ``cdf_rows``."""
    totals = cdf_rows[:, -1]
    targets = uniforms * totals
    indices = (cdf_rows < targets[:, None]).sum(axis=1)
    return np.minimum(indices, cdf_rows.shape[1] - 1)


def sample_from_word_cdf(
    cdf: np.ndarray,
    word_ids: np.ndarray,
    uniforms: np.ndarray,
    block_elements: int = DENSE_BLOCK_ELEMENTS,
) -> np.ndarray:
    """One Problem-2 draw per token against the shared ``V x K`` CDF matrix.

    Equivalent to ``sample_rows_from_cdf(cdf[word_ids], uniforms)`` but
    never materialises the full token-by-``K`` gather: narrow CDFs go
    through a blocked dense comparison, wide CDFs through one batched
    binary search over all draws at once (:func:`search_rows`).
    """
    word_ids = np.asarray(word_ids, dtype=np.int64)
    num_draws = word_ids.shape[0]
    out = np.empty(num_draws, dtype=np.int64)
    if num_draws == 0:
        return out
    num_topics = cdf.shape[1]

    if num_topics <= DENSE_ROW_WIDTH:
        step = max(1, block_elements // num_topics)
        for start in range(0, num_draws, step):
            stop = min(start + step, num_draws)
            out[start:stop] = sample_rows_from_cdf(
                cdf[word_ids[start:stop]], uniforms[start:stop]
            )
        return out

    targets = uniforms * cdf[word_ids, num_topics - 1]
    return search_rows(cdf.reshape(-1), word_ids * num_topics, num_topics, targets)


def search_rows(
    flat_cdf: np.ndarray, row_offsets: np.ndarray, widths, targets: np.ndarray
) -> np.ndarray:
    """``min(#{j : row[j] < target}, width - 1)`` per draw, by batched binary search.

    Draw ``i`` searches the non-decreasing row
    ``flat_cdf[row_offsets[i] : row_offsets[i] + widths[i]]`` (``widths``
    is one width for every draw or an array of one per draw).  The count
    is built by binary lifting: from the highest power of two not above
    the widest row down to one, a step is kept when the candidate count
    fits the row and the entry just below it is still below the target.
    That is ``O(log width)`` gathered comparisons per draw and no per-row
    gather; only stored entries are compared against the targets, so the
    result is exactly the dense count's (``searchsorted(row, target,
    "left")``).
    """
    count = np.zeros(len(targets), dtype=np.int64)
    step = 1 << (int(np.max(widths, initial=1)).bit_length() - 1)
    while step:
        candidate = count + step
        keep = flat_cdf.take(row_offsets + np.minimum(candidate, widths) - 1) < targets
        keep &= candidate <= widths
        np.copyto(count, candidate, where=keep)
        step >>= 1
    return np.minimum(count, np.subtract(widths, 1), out=count)


def segment_pick_ranks(
    take_int: np.ndarray,
    rank: np.ndarray,
    segment_firsts: np.ndarray,
    segment_counts: np.ndarray,
) -> tuple:
    """Per-segment pick ranks for a two-branch decision over flat segments.

    ``take_int`` is the 0/1 branch outcome of every token, segments laid
    out contiguously (``segment_firsts``/``segment_counts`` index the
    flat array, ``rank`` is each token's position within its segment).
    Returns ``(doc_rank, prior_rank, ndoc_per_segment)`` — the r-th
    doc-side token of a segment has ``doc_rank == r``, the s-th
    prior-side token ``prior_rank == s``.  This is the uniform-stream
    offset mapping both the E-step and the fold-in sweep rely on for
    bit-identity (a doc-side pick consumes uniform ``base + count + r``,
    a prior-side pick ``base + count + n_doc + s``); keeping it here
    means the two hot paths cannot drift apart.
    """
    running = np.cumsum(take_int)
    before_segment = np.repeat(
        running[segment_firsts] - take_int[segment_firsts], segment_counts
    )
    doc_rank = running - before_segment - 1
    prior_rank = rank - (running - before_segment - take_int)
    ndoc_per_segment = np.add.reduceat(take_int, segment_firsts)
    return doc_rank, prior_rank, ndoc_per_segment


def concat_ranges(range_starts: np.ndarray, range_lengths: np.ndarray) -> np.ndarray:
    """``np.concatenate([arange(s, s + n) for s, n in zip(starts, lengths)])``.

    The segment-flattening primitive of the vectorized backend: it turns
    per-document (or per-run) extents into one contiguous index array
    without a Python loop.  Zero-length ranges are skipped.
    """
    range_starts = np.asarray(range_starts, dtype=np.int64)
    range_lengths = np.asarray(range_lengths, dtype=np.int64)
    total = int(range_lengths.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    ends = np.cumsum(range_lengths)
    offsets = np.repeat(ends - range_lengths, range_lengths)
    return np.arange(total, dtype=np.int64) - offsets + np.repeat(
        range_starts, range_lengths
    )
