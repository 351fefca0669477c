"""Vectorized fold-in kernel: every Gibbs sweep over a whole micro-batch.

Serving's fold-in (``repro.serving.foldin``) answers a batch of unseen
documents against a frozen ``B̂``.  Its semantics are the E-step's:
every sweep resamples each token against the document counts frozen at
the start of the sweep.  This kernel runs one pass per sweep over every
document of the batch at once, with the bits of the per-document
reference loop:

* **Streams.** Each document owns its generator (serving keys it by
  request id) and draws from it exactly as a lone fold-in would: ``N_d``
  uniforms in sweep 0, then ``2 N_d`` per sweep (branch + pick).  The
  draws land in one buffer at the document's token offset, so batch
  composition never moves a request's stream.
* **Runs.** Tokens are grouped into ``(document, word)`` runs in global
  ``(document, word)`` order — the PDOW order of a one-document chunk,
  per document.  Token ``t`` of run ``r`` consumes branch uniform
  ``2 start_r + rank_t`` and a pick uniform after the run's branch
  block (doc-side picks of a run before its prior-side picks).
* **Widths.** Product rows ``P = n_d ⊙ B̂_v`` are grouped by their
  document's width ``K_d``, so the pairwise ``sum`` and the ``cumsum``
  of each row see the reference's row shape and give its bits.
* **Picks.** All doc-side picks of a sweep are one
  :func:`~repro.kernels.cdf.search_rows` call (targets scaled by the
  run's pairwise mass, as the reference does), or one dense count when
  every row has the same width, as in a batch of one document; all
  prior-side picks are one :func:`~repro.kernels.cdf.sample_from_word_cdf`
  call.
* **Counts.** Document counts are carried between sweeps as one CSR
  array, built by a ``np.unique`` over ``document * K + topic``.

The kernel also reports the sampler-bank touches the reference would
make — every run in sweep 0, then each run that drew at least one
prior-side token — in per-document replay order, so the caller can keep
its LRU and build accounting identical without building any sampler.

Array-in/array-out (no repro imports), like ``estep.py``.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

from .cdf import sample_from_word_cdf, search_rows, segment_pick_ranks


class FoldInSweeps(NamedTuple):
    """The outcome of :func:`fold_in_sweeps` for a batch of ``D`` documents.

    ``topics[doc_offsets[d]:doc_offsets[d + 1]]`` are document ``d``'s
    final assignments in query order; ``count_topics``/``count_values``
    sliced by ``count_indptr`` are its non-zero topic counts (ascending
    topic).  ``touched_words`` is the bank-touch sequence, document by
    document, sweep by sweep, run by run.
    """

    topics: np.ndarray
    doc_offsets: np.ndarray
    count_indptr: np.ndarray
    count_topics: np.ndarray
    count_values: np.ndarray
    touched_words: np.ndarray


def fold_in_sweeps(
    documents: Sequence[np.ndarray],
    probs: np.ndarray,
    cdf: np.ndarray,
    prior_mass: np.ndarray,
    rngs: Sequence[np.random.Generator],
    num_sweeps: int,
) -> FoldInSweeps:
    """Run ``num_sweeps`` fold-in sweeps over every document of a batch.

    ``documents`` are int64 word-id arrays (validated by the caller),
    ``rngs`` one generator per document; ``probs``/``cdf``/``prior_mass``
    are the frozen ``B̂``, its row prefix sums and ``Q_v``.  Empty
    documents draw nothing and touch nothing.
    """
    num_docs = len(documents)
    num_words, num_topics = probs.shape
    lengths = np.fromiter((len(doc) for doc in documents), dtype=np.int64, count=num_docs)
    doc_offsets = np.zeros(num_docs + 1, dtype=np.int64)
    np.cumsum(lengths, out=doc_offsets[1:])
    num_tokens = int(doc_offsets[-1])
    if num_tokens == 0:
        empty = np.empty(0, dtype=np.int64)
        return FoldInSweeps(
            np.empty(0, dtype=np.int32), doc_offsets,
            np.zeros(num_docs + 1, dtype=np.int64), empty, empty, empty,
        )

    # Runs of equal (document, word) in global (document, word) order;
    # documents stay contiguous, so a token's document is unchanged.
    token_doc = np.repeat(np.arange(num_docs, dtype=np.int64), lengths)
    key = token_doc * num_words + np.concatenate(documents)
    order = np.argsort(key, kind="stable")
    sorted_key = key[order]
    first = np.empty(num_tokens, dtype=bool)
    first[0] = True
    np.not_equal(sorted_key[1:], sorted_key[:-1], out=first[1:])
    token_run = np.cumsum(first) - 1
    run_starts = np.flatnonzero(first)
    run_lengths = np.append(run_starts[1:], num_tokens) - run_starts
    run_docs = token_doc[run_starts]
    run_next_docs = run_docs + 1
    sorted_words = sorted_key - token_doc * num_words
    run_words = sorted_words[run_starts]
    run_prior_mass = prior_mass[run_words]

    # Per-token stream offsets, fixed across sweeps (2 uniforms/token).
    rank = np.arange(num_tokens, dtype=np.int64) - run_starts[token_run]
    branch_idx = 2 * run_starts[token_run] + rank
    pick_base = (2 * run_starts + run_lengths)[token_run]
    topic_key = token_doc * num_topics
    doc_bounds = np.arange(num_docs + 1, dtype=np.int64) * num_topics
    flat_probs = probs.reshape(-1)

    uniforms = np.empty(2 * num_tokens, dtype=np.float64)
    streams = [
        (rng, int(start), int(stop))
        for rng, start, stop in zip(rngs, doc_offsets[:-1], doc_offsets[1:], strict=True)
        if stop > start
    ]

    def draw(per_token: int) -> np.ndarray:
        for rng, start, stop in streams:
            rng.random(out=uniforms[per_token * start : per_token * stop])
        return uniforms[: per_token * num_tokens]

    # Sweep 0: no document counts yet, only Problem 2 has mass.
    chosen = sample_from_word_cdf(cdf, sorted_words, draw(1))
    touched = [np.ones(len(run_starts), dtype=bool)]

    for _ in range(1, num_sweeps):
        count_indptr, count_topics, count_values = _doc_counts(
            topic_key + chosen, doc_bounds, num_topics
        )
        sweep_uniforms = draw(2)
        run_row = count_indptr[run_docs]
        run_width = count_indptr[run_next_docs] - run_row
        doc_mass, doc_cdf, run_cdf_start, one_width = _product_rows(
            run_words, run_width, run_row, count_topics,
            count_values.astype(np.float64), flat_probs, num_topics,
        )
        ratio = doc_mass / (doc_mass + run_prior_mass)
        take_doc = sweep_uniforms[branch_idx] < ratio[token_run]
        doc_rank, prior_rank, ndoc_per_run = segment_pick_ranks(
            take_doc.astype(np.int64), rank, run_starts, run_lengths
        )

        chosen = np.empty(num_tokens, dtype=np.int64)
        doc_side = np.flatnonzero(take_doc)
        if doc_side.size:
            runs = token_run[doc_side]
            targets = sweep_uniforms[pick_base[doc_side] + doc_rank[doc_side]] * doc_mass[runs]
            if one_width:
                # A dense count over equal-width rows: fewer NumPy calls, same count.
                rows = doc_cdf.reshape(-1, one_width)[runs]
                picks = np.minimum((rows < targets[:, None]).sum(axis=1), one_width - 1)
            else:
                picks = search_rows(doc_cdf, run_cdf_start[runs], run_width[runs], targets)
            chosen[doc_side] = count_topics[run_row[runs] + picks]
        prior_side = np.flatnonzero(~take_doc)
        if prior_side.size:
            prior_idx = (
                pick_base[prior_side]
                + ndoc_per_run[token_run[prior_side]]
                + prior_rank[prior_side]
            )
            chosen[prior_side] = sample_from_word_cdf(
                cdf, sorted_words[prior_side], sweep_uniforms[prior_idx]
            )
        touched.append(ndoc_per_run < run_lengths)

    count_indptr, count_topics, count_values = _doc_counts(
        topic_key + chosen, doc_bounds, num_topics
    )
    topics = np.empty(num_tokens, dtype=np.int32)
    topics[order] = chosen
    # Replay order: document by document, then sweep by sweep.
    _sweep, touched_runs = np.nonzero(np.stack(touched))
    touched_runs = touched_runs[np.argsort(run_docs[touched_runs], kind="stable")]
    return FoldInSweeps(
        topics, doc_offsets, count_indptr, count_topics, count_values,
        run_words[touched_runs],
    )


def _doc_counts(keys: np.ndarray, doc_bounds: np.ndarray, num_topics: int) -> tuple:
    """CSR ``(indptr, topics, counts)`` of ``document * K + topic`` keys.

    ``doc_bounds`` is ``arange(D + 1) * K``, the first key of each document.
    """
    unique_keys, counts = np.unique(keys, return_counts=True)
    return np.searchsorted(unique_keys, doc_bounds), unique_keys % num_topics, counts


def _product_rows(
    run_words: np.ndarray,
    run_width: np.ndarray,
    run_row: np.ndarray,
    count_topics: np.ndarray,
    count_values: np.ndarray,
    flat_probs: np.ndarray,
    num_topics: int,
) -> tuple:
    """Each run's doc-side mass and CDF row over its document's non-zero topics.

    Rows are laid out width by width: the rows of one width stack into
    a rectangle whose row-wise ``sum``/``cumsum`` are the reference's
    per-document results bit for bit.  Returns ``(doc_mass, doc_cdf,
    run_cdf_start, one_width)``: ``doc_mass`` and ``run_cdf_start`` are
    indexed by run, row ``r`` sits at ``doc_cdf[run_cdf_start[r] :
    run_cdf_start[r] + run_width[r]]``, and ``one_width`` is the common
    width when every row has it (rows then in run order), else 0.
    """
    if run_width.min() == run_width.max():
        # One width (always so for a batch of one document): one rectangle.
        width = int(run_width[0])
        entry = run_row[:, None] + np.arange(width)
        product = flat_probs.take(run_words[:, None] * num_topics + count_topics[entry])
        product *= count_values[entry]
        starts = np.arange(0, product.size, width, dtype=np.int64)
        return product.sum(axis=1), np.cumsum(product, axis=1).reshape(-1), starts, width

    by_width = np.argsort(run_width, kind="stable")
    widths = run_width[by_width]
    row_start = np.zeros(len(widths) + 1, dtype=np.int64)
    np.cumsum(widths, out=row_start[1:])
    total = int(row_start[-1])
    entry = np.repeat(run_row[by_width] - row_start[:-1], widths)
    entry += np.arange(total, dtype=np.int64)
    row_base = np.repeat(run_words[by_width] * num_topics, widths)
    product = flat_probs.take(row_base + count_topics[entry])
    product *= count_values[entry]

    mass = np.empty(len(widths), dtype=np.float64)
    doc_cdf = np.empty(total, dtype=np.float64)
    bounds = (np.flatnonzero(widths[1:] != widths[:-1]) + 1).tolist()
    starts = row_start.tolist()
    for lo, hi in zip([0, *bounds], [*bounds, len(widths)], strict=True):
        a, b = starts[lo], starts[hi]
        rect = product[a:b].reshape(hi - lo, -1)
        rect.sum(axis=1, out=mass[lo:hi])
        np.cumsum(rect, axis=1, out=doc_cdf[a:b].reshape(hi - lo, -1))

    doc_mass = np.empty_like(mass)
    doc_mass[by_width] = mass
    run_cdf_start = np.empty(len(widths), dtype=np.int64)
    run_cdf_start[by_width] = row_start[:-1]
    return doc_mass, doc_cdf, run_cdf_start, 0
