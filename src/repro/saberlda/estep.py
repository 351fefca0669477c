"""ESCA E-step (the functional counterpart of the warp kernel).

ESCA is bulk-synchronous: during the E-step every token reads the *frozen*
matrices ``A`` and ``B̂`` (Alg. 1), so the statistical result does not
depend on the order in which tokens are visited.  The trainer therefore
runs the sampling mathematics with NumPy — exactly the same two-branch
decomposition as Alg. 2 — while the layout-dependent *cost* of the pass
is charged separately by ``repro.saberlda.costing``.  The lane-exact
warp kernel in ``repro.saberlda.kernels`` is validated against this
reference in the test suite.

:func:`esca_estep` dispatches between two executions of the same
mathematics (see :class:`repro.kernels.KernelBackend`): the *reference*
per-document loop implemented below — the draw-schedule spec — and the
chunk-at-once *vectorized* kernel in ``repro.kernels.estep``, which is
bit-identical to it and what :func:`esca_estep`, both trainers and the
ESCA (CPU) baseline run by default.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from ..core.count_matrices import SparseDocTopicMatrix
from ..core.tokens import TokenList
from ..kernels.backend import KernelBackend, resolve_backend
from ..kernels.cdf import sample_rows_from_cdf
from ..kernels.estep import esca_estep_vectorized
from ..kernels.threads import map_blocks

#: Elements of ``B̂`` one :meth:`WordSide.prepare` block covers: a few
#: blocks per worker thread (10 at V = 5,000, K = 1,000), each large
#: enough that its passes, not the per-block dispatch, dominate.
WORD_SIDE_BLOCK_ELEMENTS = 1 << 19


@dataclass
class WordSide:
    """Per-word quantities prepared once per iteration (the M-step's pre-processing).

    Attributes
    ----------
    probs:
        ``B̂`` — the ``V x K`` word-topic probability matrix (Eq. 2).
    cdf:
        Row-wise inclusive prefix sums of ``B̂`` — the functional stand-in
        for the per-word W-ary trees (Problem 2 sampling).
    prior_mass:
        ``Q_v = alpha * sum_k B̂_vk`` for every word.
    """

    probs: np.ndarray
    cdf: np.ndarray
    prior_mass: np.ndarray

    @classmethod
    def prepare(cls, word_topic_counts: np.ndarray, alpha: float, beta: float) -> "WordSide":
        """Compute ``B̂``, its per-row CDF and the prior masses from the counts ``B``.

        The column totals ``sum_v B_vk`` of Eq. (2) are summed over the
        integer counts: integer sums are exact, so they equal the float64
        totals of :func:`~repro.core.count_matrices.normalize_word_topic`
        bit for bit without a float copy of ``B`` (float counts are
        summed as float64, as that function does).  Rows are then
        normalised, prefix-summed and row-summed in independent blocks
        of :data:`WORD_SIDE_BLOCK_ELEMENTS` on the kernel thread pool
        (:func:`repro.kernels.threads.map_blocks`).  Every row sees the
        same operations and reduction shape as in the whole-matrix
        formula, so the result is identical for any worker count.
        """
        counts = np.asarray(word_topic_counts)
        num_words, num_topics = counts.shape
        if np.issubdtype(counts.dtype, np.integer):
            totals = counts.sum(axis=0)
        else:
            totals = counts.sum(axis=0, dtype=np.float64)
        column_totals = totals + num_words * beta
        probs = np.empty((num_words, num_topics), dtype=np.float64)
        cdf = np.empty_like(probs)
        prior_mass = np.empty(num_words, dtype=np.float64)

        def fill(rows: slice) -> None:
            block = probs[rows]
            np.add(counts[rows], beta, out=block)
            np.divide(block, column_totals, out=block)
            np.cumsum(block, axis=1, out=cdf[rows])
            np.sum(block, axis=1, out=prior_mass[rows])
            prior_mass[rows] *= alpha

        step = max(1, WORD_SIDE_BLOCK_ELEMENTS // num_topics)
        map_blocks(fill, [slice(lo, lo + step) for lo in range(0, num_words, step)], probs.size)
        return cls(probs=probs, cdf=cdf, prior_mass=prior_mass)

    @property
    def num_topics(self) -> int:
        """``K``."""
        return int(self.probs.shape[1])


@dataclass
class EStepResult:
    """Output of one E-step over a token list."""

    new_topics: np.ndarray
    doc_branch_tokens: int
    prior_branch_tokens: int

    @property
    def doc_branch_fraction(self) -> float:
        """Fraction of tokens resolved on the document (Problem 1) side."""
        total = self.doc_branch_tokens + self.prior_branch_tokens
        if total == 0:
            return 0.0
        return self.doc_branch_tokens / total


def esca_estep(
    tokens: TokenList,
    doc_topic: SparseDocTopicMatrix,
    word_side: WordSide,
    rng: np.random.Generator,
    backend: Union[KernelBackend, str] = KernelBackend.VECTORIZED,
) -> EStepResult:
    """Resample every token's topic with the sparsity-aware decomposition.

    Returns the new topic assignments aligned with ``tokens`` (the input
    list is not modified).  ``backend`` selects the execution — the
    chunk-at-once :func:`~repro.kernels.estep.esca_estep_vectorized`
    kernel (the default, as in :class:`~repro.saberlda.config.SaberLDAConfig`),
    or the reference per-document loop below, which it is bit-identical
    to (same uniforms, same draw order, same reduction shapes).
    """
    if resolve_backend(backend) is KernelBackend.VECTORIZED:
        new_topics, doc_branch, prior_branch = esca_estep_vectorized(
            tokens.doc_ids,
            tokens.word_ids,
            doc_topic.indptr,
            doc_topic.indices,
            doc_topic.values,
            word_side.probs,
            word_side.cdf,
            word_side.prior_mass,
            rng,
        )
        return EStepResult(
            new_topics=new_topics,
            doc_branch_tokens=doc_branch,
            prior_branch_tokens=prior_branch,
        )
    num_tokens = tokens.num_tokens
    new_topics = np.empty(num_tokens, dtype=np.int32)
    if num_tokens == 0:
        return EStepResult(new_topics, 0, 0)

    doc_branch_total = 0

    # Group token positions by document so each document is one vectorised batch.
    order = np.argsort(tokens.doc_ids, kind="stable")
    sorted_docs = tokens.doc_ids[order]
    boundaries = np.flatnonzero(np.diff(sorted_docs)) + 1
    starts = np.concatenate([[0], boundaries])
    stops = np.concatenate([boundaries, [num_tokens]])

    for start, stop in zip(starts, stops, strict=True):
        positions = order[start:stop]
        doc_id = int(sorted_docs[start])
        words = tokens.word_ids[positions]
        count = len(positions)

        nz_topics, nz_counts = doc_topic.row(doc_id)
        prior_mass = word_side.prior_mass[words]

        if len(nz_topics) == 0:
            # Empty document row: only Problem 2 has mass.
            chosen = sample_rows_from_cdf(word_side.cdf[words], rng.random(count))
            new_topics[positions] = chosen.astype(np.int32)
            continue

        # Problem 1 weights: P = A_d ⊙ B̂_v restricted to the non-zero topics.
        product = word_side.probs[words][:, nz_topics] * nz_counts.astype(np.float64)[None, :]
        doc_mass = product.sum(axis=1)

        take_doc_side = rng.random(count) < doc_mass / (doc_mass + prior_mass)
        doc_branch_total += int(take_doc_side.sum())

        result = np.empty(count, dtype=np.int64)

        if take_doc_side.any():
            doc_cdf = np.cumsum(product[take_doc_side], axis=1)
            picks = sample_rows_from_cdf(doc_cdf, rng.random(int(take_doc_side.sum())))
            result[take_doc_side] = nz_topics[picks]

        prior_side = ~take_doc_side
        if prior_side.any():
            cdf_rows = word_side.cdf[words[prior_side]]
            result[prior_side] = sample_rows_from_cdf(
                cdf_rows, rng.random(int(prior_side.sum()))
            )

        new_topics[positions] = result.astype(np.int32)

    return EStepResult(
        new_topics=new_topics,
        doc_branch_tokens=doc_branch_total,
        prior_branch_tokens=num_tokens - doc_branch_total,
    )
