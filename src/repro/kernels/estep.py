"""Vectorized E-step kernel: one batched pass over a whole chunk.

The reference E-step (``repro.saberlda.estep``) visits documents in a
Python loop — one product gather, one branch draw and two CDF searches
per document.  This kernel executes the same mathematics chunk-at-once:

* **Uniforms.** The whole chunk's uniforms are drawn in one
  ``rng.random(total)`` call and reach tokens through precomputed stream
  offsets.  Each token of a non-empty document consumes exactly two
  uniforms (branch + pick) and each token of an empty-row document one,
  so every offset is known before any outcome is, and the draw *order*
  matches the reference schedule exactly.
* **Pairs.** Every token of one (document, word) pair has the same
  product row ``P = A_d ⊙ B̂_v``, so the row, its sum and its prefix sum
  are computed once per distinct pair — with one flat ``take`` on
  ``B̂`` — and shared by the pair's tokens.  In ~100-token documents
  over a 5,000-word Zipfian vocabulary a third of the tokens repeat a
  pair.
* **Blocks.** Documents are ordered by their ``A``-row width ``K_d``
  and cut into blocks of consecutive documents.  Inside a block the
  product rows of same-width documents stack into one rectangle per
  width; row-wise ``sum``/``cumsum`` are shape-stable, so the stacked
  reductions reproduce the reference's per-document results bit for
  bit.  Each block runs end to end — mass and CDF per width, then
  branch, per-segment pick ranks, the Problem-1 pick (a binary search
  of the pair's CDF) and the Problem-2 pick
  (:func:`~repro.kernels.cdf.sample_from_word_cdf`) over all of its
  tokens at once — and writes only its own tokens.
* **Threads.** The blocks run on a pool of
  :func:`~repro.kernels.threads.workers_for` threads (one per 2^20
  elements of work, at most one per CPU), created and shut down inside
  the call.  A block holds about a ``2 * workers``-th of the
  chunk: blocks of one width each (a few hundred tokens) would spend
  their time handing the interpreter lock back and forth between many
  short NumPy calls.  No outcome depends on how the chunk is cut or
  which thread ran a block, so every sampled topic is identical for any
  worker count.

The function is deliberately array-in/array-out (no repro imports), so
the package stays dependency-free and both trainers can call it through
the thin dispatch in ``repro.saberlda.estep``.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from . import threads
from .cdf import (
    DENSE_BLOCK_ELEMENTS,
    concat_ranges,
    sample_from_word_cdf,
    search_rows,
    segment_pick_ranks,
)


def esca_estep_vectorized(
    doc_ids: np.ndarray,
    word_ids: np.ndarray,
    doc_indptr: np.ndarray,
    doc_nz_topics: np.ndarray,
    doc_nz_counts: np.ndarray,
    probs: np.ndarray,
    cdf: np.ndarray,
    prior_mass: np.ndarray,
    rng: np.random.Generator,
    block_elements: int = DENSE_BLOCK_ELEMENTS,
) -> tuple:
    """Resample every token of a chunk, bit-identical to the reference loop.

    ``doc_indptr``/``doc_nz_topics``/``doc_nz_counts`` are the CSR arrays
    of the frozen document-topic matrix ``A``; ``probs``/``cdf``/
    ``prior_mass`` the frozen per-word quantities ``B̂``, its row CDFs and
    ``Q_v``.  Returns ``(new_topics, doc_branch_tokens,
    prior_branch_tokens)`` with ``new_topics`` aligned to the input
    token order.
    """
    doc_ids = np.asarray(doc_ids)
    num_tokens = int(doc_ids.shape[0])
    new_topics = np.empty(num_tokens, dtype=np.int32)
    if num_tokens == 0:
        return new_topics, 0, 0

    doc_indptr = np.asarray(doc_indptr, dtype=np.int64)

    # ------------------------------------------------------------------ #
    # Segment the chunk by document (identical grouping to the reference).
    # ------------------------------------------------------------------ #
    order = np.argsort(doc_ids, kind="stable")
    sorted_docs = doc_ids[order]
    boundaries = np.flatnonzero(np.diff(sorted_docs)) + 1
    seg_starts = np.concatenate([[0], boundaries]).astype(np.int64)
    seg_counts = np.diff(np.concatenate([seg_starts, [num_tokens]]))
    seg_docs = np.asarray(sorted_docs[seg_starts], dtype=np.int64)
    seg_nnz = doc_indptr[seg_docs + 1] - doc_indptr[seg_docs]

    words_sorted = np.asarray(word_ids, dtype=np.int64)[order]
    result_sorted = np.empty(num_tokens, dtype=np.int64)

    # ------------------------------------------------------------------ #
    # The whole chunk's uniform stream, with per-segment base offsets.
    # Reference order per document: branch uniforms (one per token), then
    # Problem-1 picks (doc-side tokens, position order), then Problem-2
    # picks; empty-row documents draw one pick per token only.
    # ------------------------------------------------------------------ #
    seg_draws = np.where(seg_nnz > 0, 2 * seg_counts, seg_counts)
    seg_base = np.concatenate([[0], np.cumsum(seg_draws)[:-1]]).astype(np.int64)
    uniforms = rng.random(int(seg_draws.sum()))

    # Empty-row documents: only Problem 2 has mass.
    empty = seg_nnz == 0
    if empty.any():
        positions = concat_ranges(seg_starts[empty], seg_counts[empty])
        result_sorted[positions] = sample_from_word_cdf(
            cdf,
            words_sorted[positions],
            uniforms[concat_ranges(seg_base[empty], seg_counts[empty])],
            block_elements,
        )

    doc_branch_total = 0
    nonempty = np.flatnonzero(~empty)
    if nonempty.size:
        doc_branch_total = _sample_nonempty(
            nonempty, seg_starts, seg_counts, seg_docs, seg_base, seg_nnz,
            doc_indptr, np.asarray(doc_nz_topics), np.asarray(doc_nz_counts),
            probs, cdf, prior_mass, words_sorted, uniforms, result_sorted, block_elements,
        )

    new_topics[order] = result_sorted.astype(np.int32)
    return new_topics, int(doc_branch_total), num_tokens - int(doc_branch_total)


def _sample_nonempty(
    nonempty: np.ndarray,
    seg_starts: np.ndarray,
    seg_counts: np.ndarray,
    seg_docs: np.ndarray,
    seg_base: np.ndarray,
    seg_nnz: np.ndarray,
    doc_indptr: np.ndarray,
    doc_nz_topics: np.ndarray,
    doc_nz_counts: np.ndarray,
    probs: np.ndarray,
    cdf: np.ndarray,
    prior_mass: np.ndarray,
    words_sorted: np.ndarray,
    uniforms: np.ndarray,
    result_sorted: np.ndarray,
    block_elements: int,
) -> int:
    """Sample every token whose document has a non-empty ``A`` row.

    Segments are ordered by row width and cut into blocks; tokens are
    grouped into (document, word) pairs that share one product row.
    Every block runs end to end on the thread pool and writes its
    tokens' topics into ``result_sorted``.  Returns the doc-branch token
    count.
    """
    by_width = nonempty[np.argsort(seg_nnz[nonempty], kind="stable")]
    widths = seg_nnz[by_width]
    counts = seg_counts[by_width]
    num_segments = len(by_width)
    num_words, num_topics = probs.shape

    # Token-level arrays in (width, segment, rank) order.  The r-th
    # token of a segment draws its branch uniform at ``base + r``; its
    # pick uniform sits at ``base + count + r'`` with ``r'`` its rank on
    # the side it takes (prior-side ranks start after the doc side).
    tokens = concat_ranges(seg_starts[by_width], counts)
    rank = concat_ranges(np.zeros(num_segments, dtype=np.int64), counts)
    segrow = np.repeat(np.arange(num_segments, dtype=np.int64), counts)
    words = words_sorted[tokens]
    branch_uniforms = uniforms[np.repeat(seg_base[by_width], counts) + rank]
    pick_base = np.repeat(seg_base[by_width] + counts, counts)
    seg_token_start = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
    seg_row_start = doc_indptr[seg_docs[by_width]]
    token_row_start = seg_row_start[segrow]

    # Distinct (segment, word) pairs, ordered by segment, so the pairs
    # of a block are contiguous; ``pair_of`` maps each token to its pair.
    # A pair's CDF row sits at ``pair_cdf_start`` in its block's buffer
    # (offset by the block's first pair).
    key = segrow * num_words + words
    by_key = np.argsort(key, kind="stable")
    sorted_key = key[by_key]
    first = np.empty(len(key), dtype=bool)
    first[0] = True
    np.not_equal(sorted_key[1:], sorted_key[:-1], out=first[1:])
    pair_of = np.empty(len(key), dtype=np.int64)
    pair_of[by_key] = np.cumsum(first) - 1
    pair_key = sorted_key[first]
    pair_segment = pair_key // num_words
    pair_word = pair_key - pair_segment * num_words
    pair_prior_mass = prior_mass[pair_word]
    pair_row_offset = pair_word * num_topics
    pair_width = widths[pair_segment]
    pair_cdf_start = np.concatenate([[0], np.cumsum(pair_width)]).astype(np.int64)
    seg_pair_start = np.searchsorted(pair_segment, np.arange(num_segments + 1))
    flat_probs = probs.reshape(-1)

    def sample_block(block: Tuple[int, int]) -> int:
        lo, hi = block
        t0, t1 = seg_token_start[lo], seg_token_start[hi]
        p0, p1 = seg_pair_start[lo], seg_pair_start[hi]
        cdf_base = pair_cdf_start[p0]
        mass = np.empty(p1 - p0, dtype=np.float64)
        doc_cdf = np.empty(pair_cdf_start[p1] - cdf_base, dtype=np.float64)

        # Mass and CDF, one width group at a time: the product rows
        # ``P = A_d ⊙ B̂_v`` of the group's pairs stack into one
        # rectangle whose row width matches the reference's
        # per-document arrays, so the pairwise sum tree and every output
        # bit agree.  ``A`` rows are gathered once per segment.
        for g0, g1 in _width_groups(widths, lo, hi):
            width = int(widths[g0])
            q0, q1 = seg_pair_start[g0], seg_pair_start[g1]
            gather = seg_row_start[g0:g1, None] + np.arange(width, dtype=np.int64)
            local = pair_segment[q0:q1] - g0
            index = doc_nz_topics[gather].astype(np.int64).take(local, axis=0)
            index += pair_row_offset[q0:q1, None]
            product = flat_probs.take(index)
            product *= doc_nz_counts[gather].astype(np.float64).take(local, axis=0)
            product.sum(axis=1, out=mass[q0 - p0 : q1 - p0])
            rows = doc_cdf[pair_cdf_start[q0] - cdf_base : pair_cdf_start[q1] - cdf_base]
            np.cumsum(product, axis=1, out=rows.reshape(q1 - q0, width))

        # Branch and per-segment pick ranks.
        pair = pair_of[t0:t1]
        pair_mass = mass[pair - p0]
        take = branch_uniforms[t0:t1] < pair_mass / (pair_mass + pair_prior_mass[pair])
        take_int = take.astype(np.int64)
        doc_rank, prior_rank, ndoc_per_segment = segment_pick_ranks(
            take_int, rank[t0:t1], seg_token_start[lo:hi] - t0, counts[lo:hi]
        )

        # Problem-1 picks: a binary search of each doc-side token's pair CDF.
        selected = np.flatnonzero(take)
        if selected.size:
            picked = pair[selected]
            row_offsets = pair_cdf_start[picked] - cdf_base
            row_widths = pair_width[picked]
            targets = (
                uniforms[pick_base[t0:t1][selected] + doc_rank[selected]]
                * doc_cdf[row_offsets + row_widths - 1]
            )
            picks = search_rows(doc_cdf, row_offsets, row_widths, targets)
            result_sorted[tokens[t0:t1][selected]] = doc_nz_topics[
                token_row_start[t0:t1][selected] + picks
            ]

        # Problem-2 picks against the word CDFs.
        prior_side = np.flatnonzero(~take)
        if prior_side.size:
            prior_uniform = (
                pick_base[t0:t1][prior_side]
                + np.repeat(ndoc_per_segment, counts[lo:hi])[prior_side]
                + prior_rank[prior_side]
            )
            result_sorted[tokens[t0:t1][prior_side]] = sample_from_word_cdf(
                cdf, words[t0:t1][prior_side], uniforms[prior_uniform], block_elements
            )
        return int(selected.size)

    elements = widths * counts
    total = int(elements.sum())
    blocks = _blocks(elements, block_elements, threads.workers_for(total))
    return sum(threads.map_blocks(sample_block, blocks, total))


def _blocks(elements: np.ndarray, block_elements: int, workers: int) -> List[Tuple[int, int]]:
    """``(segment lo, segment hi)`` runs of width-ordered segments.

    ``elements`` is each segment's product work (``width x tokens``).  A
    block closes before it would exceed its budget: about a
    ``2 * workers``-th of the chunk, so every worker gets blocks of long
    NumPy calls, and never more than ``block_elements`` — unless a single
    segment alone is larger.  Segments are never split, so per-segment
    pick ranks stay block-local.
    """
    budget = max(1, min(block_elements, -(-int(elements.sum()) // (2 * workers))))
    blocks = []
    lo = held = 0
    for segment, size in enumerate(elements.tolist()):
        if held and held + size > budget:
            blocks.append((lo, segment))
            lo, held = segment, 0
        held += size
    blocks.append((lo, len(elements)))
    return blocks


def _width_groups(widths: np.ndarray, lo: int, hi: int) -> List[Tuple[int, int]]:
    """``(segment lo, segment hi)`` runs of equal width within ``[lo, hi)``."""
    bounds = (np.flatnonzero(np.diff(widths[lo:hi])) + 1 + lo).tolist()
    return list(zip([lo] + bounds, bounds + [hi], strict=True))
