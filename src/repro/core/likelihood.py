"""Model-quality metrics: log-likelihood of held-out and training data.

The paper assesses model quality by the *hold-out log-likelihood per
token* using the partially-observed-document approach of Wallach et
al. [19]: each held-out document is split into an *observed* half, used
to estimate the document's topic mixture, and an *evaluation* half, whose
per-token log-likelihood is reported.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .count_matrices import SparseDocTopicMatrix, count_by_word_topic, normalize_word_topic
from .hyperparams import LDAHyperParams
from .tokens import TokenList

#: Cap on the elements one block of a likelihood pass materialises: a
#: document's ``tokens x K_d`` gather in the training likelihood, the
#: ``tokens x K`` responsibilities of the held-out fold-in.
LIKELIHOOD_BLOCK_ELEMENTS = 1 << 20


@dataclass(frozen=True)
class LikelihoodResult:
    """Log-likelihood summary.

    Attributes
    ----------
    total_log_likelihood:
        Sum of per-token log probabilities.
    num_tokens:
        Number of tokens the likelihood was evaluated on.
    """

    total_log_likelihood: float
    num_tokens: int

    @property
    def per_token(self) -> float:
        """Average log-likelihood per token (the metric of Figs. 11 and 12)."""
        if self.num_tokens == 0:
            return 0.0
        return self.total_log_likelihood / self.num_tokens

    @property
    def perplexity(self) -> float:
        """``exp(-per_token)`` — lower is better."""
        return float(np.exp(-self.per_token))


def document_topic_distributions(
    doc_topic_counts: np.ndarray, alpha: float
) -> np.ndarray:
    """Posterior-mean per-document topic distributions ``theta``.

    ``theta[d, k] = (A[d, k] + alpha) / (N_d + K * alpha)``.
    """
    counts = np.asarray(doc_topic_counts, dtype=np.float64)
    num_topics = counts.shape[1]
    totals = counts.sum(axis=1, keepdims=True) + num_topics * alpha
    return (counts + alpha) / totals


def training_log_likelihood(
    tokens: TokenList,
    doc_topic: SparseDocTopicMatrix,
    word_topic_counts: np.ndarray,
    params: LDAHyperParams,
) -> LikelihoodResult:
    """Per-token log-likelihood of the *training* tokens under the current model.

    A token's probability is ``p(w | d) = sum_k theta[d, k] * phi[w, k]``
    with the smoothed mixture ``theta = (A + alpha) / (N_d + K * alpha)``
    and ``phi = B_hat`` (Eq. 2).  Splitting off theta's prior mass gives

        ``p(w | d) = (sum_{k in A_d} A[d, k] * phi[w, k] + alpha * sum_k phi[w, k])
        / (N_d + K * alpha)``

    — the same split the E-step samples from (``WordSide.prior_mass``) —
    so a token costs ``K_d`` gathered products instead of ``K``.  Tokens
    are grouped by document and each document gathers its tokens' ``phi``
    entries at its own non-zero topics only, at most
    :data:`LIKELIHOOD_BLOCK_ELEMENTS` at a time; no ``N x K`` or
    ``D x K`` array is built.
    """
    if tokens.num_tokens == 0:
        return LikelihoodResult(0.0, 0)
    phi = normalize_word_topic(word_topic_counts, params.beta)  # V x K, columns sum to 1
    num_topics = phi.shape[1]
    flat_phi = phi.reshape(-1)
    indptr = doc_topic.indptr.tolist()
    counts = doc_topic.values.astype(np.float64)

    order = np.argsort(tokens.doc_ids, kind="stable")
    doc_ids = tokens.doc_ids[order]
    word_ids = tokens.word_ids[order]
    doc_bounds = np.searchsorted(doc_ids, np.arange(doc_topic.num_documents + 1)).tolist()
    phi_rows = word_ids.astype(np.int64) * num_topics
    doc_side = np.zeros(tokens.num_tokens)
    for doc in range(doc_topic.num_documents):
        first, last = indptr[doc], indptr[doc + 1]
        topics, row_counts = doc_topic.indices[first:last], counts[first:last]
        step = max(1, LIKELIHOOD_BLOCK_ELEMENTS // max(last - first, 1))
        for start in range(doc_bounds[doc], doc_bounds[doc + 1], step):
            stop = min(start + step, doc_bounds[doc + 1])
            np.einsum(
                "tk,k->t",
                flat_phi[phi_rows[start:stop, None] + topics],
                row_counts,
                out=doc_side[start:stop],
            )

    prior_side = params.alpha * phi.sum(axis=1)[word_ids]
    token_probs = (doc_side + prior_side) / (
        doc_topic.row_totals()[doc_ids] + num_topics * params.alpha
    )
    token_probs = np.maximum(token_probs, 1e-300)
    return LikelihoodResult(float(np.log(token_probs).sum()), tokens.num_tokens)


def split_heldout_documents(
    tokens: TokenList, rng: np.random.Generator, observed_fraction: float = 0.5
) -> Tuple[TokenList, TokenList]:
    """Split each document's tokens into observed / evaluation halves.

    Used by the partially-observed-document estimator: the observed half
    infers the document's topic mixture, the evaluation half is scored.
    """
    if not 0.0 < observed_fraction < 1.0:
        raise ValueError("observed_fraction must be in (0, 1)")
    mask = rng.random(tokens.num_tokens) < observed_fraction
    # Guarantee at least one observed token per non-empty document so the
    # mixture estimate is never purely the prior.
    for d in np.unique(tokens.doc_ids):
        doc_positions = np.nonzero(tokens.doc_ids == d)[0]
        if not mask[doc_positions].any():
            mask[doc_positions[0]] = True
    return tokens.select(mask), tokens.select(~mask)


def heldout_log_likelihood(
    heldout: TokenList,
    word_topic_counts: np.ndarray,
    params: LDAHyperParams,
    rng: np.random.Generator,
    observed_fraction: float = 0.5,
    num_fold_in_iterations: int = 20,
) -> LikelihoodResult:
    """Hold-out log-likelihood with the partially-observed-document approach.

    The word-topic model (``B``) is frozen.  For every held-out document we
    run a short fold-in loop: repeatedly re-estimate the document mixture
    from the observed half and resample soft responsibilities, then score
    the evaluation half under the resulting mixture.
    """
    if heldout.num_tokens == 0:
        return LikelihoodResult(0.0, 0)
    observed, evaluation = split_heldout_documents(heldout, rng, observed_fraction)
    num_documents = max(heldout.num_documents, 1)
    num_topics = params.num_topics
    phi = normalize_word_topic(word_topic_counts, params.beta)  # V x K

    # Soft fold-in (EM on theta with phi fixed), the observed tokens in
    # blocks so no n_obs x K responsibility array is ever built.
    block = max(1, LIKELIHOOD_BLOCK_ELEMENTS // num_topics)
    theta = np.full((num_documents, num_topics), 1.0 / num_topics)
    for _ in range(num_fold_in_iterations):
        expected_counts = np.zeros_like(theta)
        for start in range(0, observed.num_tokens, block):
            stop = start + block
            docs = observed.doc_ids[start:stop]
            resp = theta[docs] * phi[observed.word_ids[start:stop]]
            resp /= np.maximum(resp.sum(axis=1, keepdims=True), 1e-300)
            np.add.at(expected_counts, docs, resp)
        theta = document_topic_distributions(expected_counts, params.alpha)

    eval_probs = np.empty(evaluation.num_tokens)
    for start in range(0, evaluation.num_tokens, block):
        stop = start + block
        eval_probs[start:stop] = np.einsum(
            "tk,tk->t",
            theta[evaluation.doc_ids[start:stop]],
            phi[evaluation.word_ids[start:stop]],
            optimize=True,
        )
    eval_probs = np.maximum(eval_probs, 1e-300)
    return LikelihoodResult(float(np.log(eval_probs).sum()), evaluation.num_tokens)


def log_likelihood_from_tokens(
    tokens: TokenList,
    num_documents: int,
    vocabulary_size: int,
    params: LDAHyperParams,
) -> LikelihoodResult:
    """Convenience wrapper: rebuild both count matrices and score the training set."""
    doc_topic = SparseDocTopicMatrix.from_tokens(tokens, num_documents, params.num_topics)
    word_topic = count_by_word_topic(tokens, vocabulary_size, params.num_topics)
    return training_log_likelihood(tokens, doc_topic, word_topic, params)
