"""Tests for the log-likelihood metrics."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.likelihood as likelihood_module
from repro.core import (
    LDAHyperParams,
    SparseDocTopicMatrix,
    TokenList,
    count_by_doc_topic_dense,
    count_by_word_topic,
    heldout_log_likelihood,
    log_likelihood_from_tokens,
    normalize_word_topic,
    split_heldout_documents,
    training_log_likelihood,
)
from repro.core.likelihood import LikelihoodResult, document_topic_distributions


def dense_training_log_likelihood(tokens, doc_topic_counts, word_topic_counts, params):
    """Oracle: ``sum_k theta[d, k] * phi[w, k]`` over all K, from a dense ``A``."""
    if tokens.num_tokens == 0:
        return LikelihoodResult(0.0, 0)
    theta = document_topic_distributions(doc_topic_counts, params.alpha)
    phi = normalize_word_topic(word_topic_counts, params.beta)
    token_probs = np.einsum(
        "tk,tk->t", theta[tokens.doc_ids], phi[tokens.word_ids], optimize=True
    )
    token_probs = np.maximum(token_probs, 1e-300)
    return LikelihoodResult(float(np.log(token_probs).sum()), tokens.num_tokens)


def unblocked_heldout_log_likelihood(
    heldout, word_topic_counts, params, rng, observed_fraction=0.5, num_fold_in_iterations=20
):
    """Oracle: the held-out estimator with full ``n_obs x K`` responsibility arrays."""
    observed, evaluation = split_heldout_documents(heldout, rng, observed_fraction)
    num_documents = max(heldout.num_documents, 1)
    num_topics = params.num_topics
    phi = normalize_word_topic(word_topic_counts, params.beta)
    theta = np.full((num_documents, num_topics), 1.0 / num_topics)
    obs_phi = phi[observed.word_ids]
    for _ in range(num_fold_in_iterations):
        resp = theta[observed.doc_ids] * obs_phi
        resp /= np.maximum(resp.sum(axis=1, keepdims=True), 1e-300)
        expected_counts = np.zeros_like(theta)
        np.add.at(expected_counts, observed.doc_ids, resp)
        theta = document_topic_distributions(expected_counts, params.alpha)
    eval_probs = np.einsum(
        "tk,tk->t", theta[evaluation.doc_ids], phi[evaluation.word_ids], optimize=True
    )
    eval_probs = np.maximum(eval_probs, 1e-300)
    return LikelihoodResult(float(np.log(eval_probs).sum()), evaluation.num_tokens)


@st.composite
def scored_corpora(draw):
    """A shuffled token list with empty, single-token and one-topic documents."""
    num_topics = draw(st.integers(1, 8))
    vocabulary_size = draw(st.integers(1, 12))
    lengths = draw(st.lists(st.integers(0, 12), min_size=1, max_size=6))
    lengths += [0, 1]  # always one empty and one single-token document
    doc_ids = np.repeat(np.arange(len(lengths)), lengths)
    num_tokens = len(doc_ids)
    word_ids = np.array(
        draw(st.lists(st.integers(0, vocabulary_size - 1), min_size=num_tokens,
                      max_size=num_tokens)),
        dtype=np.int64,
    )
    topics = np.array(
        draw(st.lists(st.integers(0, num_topics - 1), min_size=num_tokens,
                      max_size=num_tokens)),
        dtype=np.int64,
    )
    # One document whose tokens all share a single topic.
    one_topic_doc = draw(st.integers(0, len(lengths) - 1))
    topics[doc_ids == one_topic_doc] = draw(st.integers(0, num_topics - 1))
    order = np.array(draw(st.permutations(range(num_tokens))), dtype=np.int64)
    tokens = TokenList(doc_ids[order], word_ids[order], topics[order])
    params = LDAHyperParams(
        num_topics=num_topics,
        alpha=draw(st.floats(0.01, 5.0)),
        beta=draw(st.floats(0.001, 1.0)),
    )
    return tokens, len(lengths), vocabulary_size, params


class TestLikelihoodResult:
    def test_per_token(self):
        result = LikelihoodResult(total_log_likelihood=-100.0, num_tokens=50)
        assert result.per_token == pytest.approx(-2.0)

    def test_empty(self):
        result = LikelihoodResult(0.0, 0)
        assert result.per_token == 0.0

    def test_perplexity(self):
        result = LikelihoodResult(total_log_likelihood=-np.log(8.0), num_tokens=1)
        assert result.perplexity == pytest.approx(8.0)


class TestDocumentTopicDistributions:
    def test_rows_sum_to_one(self, rng):
        counts = rng.integers(0, 10, size=(5, 4))
        theta = document_topic_distributions(counts, alpha=0.1)
        np.testing.assert_allclose(theta.sum(axis=1), np.ones(5))

    def test_empty_document_is_uniform(self):
        theta = document_topic_distributions(np.zeros((1, 4)), alpha=0.5)
        np.testing.assert_allclose(theta[0], np.full(4, 0.25))


class TestTrainingLikelihood:
    def test_bounded_above_by_zero(self, tiny_tokens, params):
        params = LDAHyperParams(num_topics=3, alpha=0.1, beta=0.01)
        doc_topic = SparseDocTopicMatrix.from_tokens(tiny_tokens, 3, 3)
        word_topic = count_by_word_topic(tiny_tokens, 5, 3)
        result = training_log_likelihood(tiny_tokens, doc_topic, word_topic, params)
        assert result.per_token < 0.0

    def test_better_than_uniform_model(self, small_corpus):
        params = LDAHyperParams.paper_defaults(6)
        result = log_likelihood_from_tokens(
            small_corpus.tokens,
            small_corpus.num_documents,
            small_corpus.vocabulary_size,
            params,
        )
        uniform = -np.log(small_corpus.vocabulary_size)
        assert result.per_token > uniform

    def test_empty_tokens(self, params):
        result = training_log_likelihood(
            TokenList.empty(), SparseDocTopicMatrix.empty(0, 8), np.zeros((5, 8)), params
        )
        assert result.num_tokens == 0


class TestSparseMatchesDenseOracle:
    @given(corpus=scored_corpora(), block_elements=st.sampled_from([1, 3, 1 << 20]))
    @settings(max_examples=200, deadline=None)
    def test_sparse_equals_dense_oracle(self, corpus, block_elements):
        tokens, num_documents, vocabulary_size, params = corpus
        num_topics = params.num_topics
        word_topic = count_by_word_topic(tokens, vocabulary_size, num_topics)
        doc_topic = SparseDocTopicMatrix.from_tokens(tokens, num_documents, num_topics)
        with mock.patch.object(likelihood_module, "LIKELIHOOD_BLOCK_ELEMENTS", block_elements):
            sparse = training_log_likelihood(tokens, doc_topic, word_topic, params)
        dense = dense_training_log_likelihood(
            tokens, count_by_doc_topic_dense(tokens, num_documents, num_topics),
            word_topic, params,
        )
        assert sparse.num_tokens == dense.num_tokens
        assert sparse.total_log_likelihood == pytest.approx(dense.total_log_likelihood, rel=1e-12)

    def test_trained_corpus_matches_dense_oracle(self, medium_corpus):
        params = LDAHyperParams(num_topics=10, alpha=0.1, beta=0.01)
        tokens = medium_corpus.tokens
        num_documents = medium_corpus.num_documents
        word_topic = count_by_word_topic(tokens, medium_corpus.vocabulary_size, 10)
        sparse = training_log_likelihood(
            tokens, SparseDocTopicMatrix.from_tokens(tokens, num_documents, 10),
            word_topic, params,
        )
        dense = dense_training_log_likelihood(
            tokens, count_by_doc_topic_dense(tokens, num_documents, 10), word_topic, params
        )
        assert sparse.per_token == pytest.approx(dense.per_token, rel=1e-12)


class TestHeldout:
    def test_split_preserves_tokens(self, small_corpus, rng):
        observed, evaluation = split_heldout_documents(small_corpus.tokens, rng)
        assert observed.num_tokens + evaluation.num_tokens == small_corpus.num_tokens

    def test_split_fraction_respected_roughly(self, small_corpus, rng):
        observed, _evaluation = split_heldout_documents(
            small_corpus.tokens, rng, observed_fraction=0.7
        )
        fraction = observed.num_tokens / small_corpus.num_tokens
        assert 0.6 < fraction < 0.8

    def test_split_rejects_bad_fraction(self, small_corpus, rng):
        with pytest.raises(ValueError):
            split_heldout_documents(small_corpus.tokens, rng, observed_fraction=1.5)

    def test_heldout_likelihood_is_finite_and_negative(self, small_corpus, rng):
        params = LDAHyperParams.paper_defaults(6)
        word_topic = count_by_word_topic(
            small_corpus.tokens, small_corpus.vocabulary_size, 6
        )
        result = heldout_log_likelihood(small_corpus.tokens, word_topic, params, rng)
        assert np.isfinite(result.per_token)
        assert result.per_token < 0.0

    def test_heldout_improves_with_trained_counts(self, small_corpus, rng):
        """A model trained on the data should beat a model with shuffled word ids."""
        params = LDAHyperParams.paper_defaults(6)
        trained = count_by_word_topic(small_corpus.tokens, small_corpus.vocabulary_size, 6)
        shuffled_tokens = small_corpus.tokens.copy()
        shuffled_tokens.word_ids = rng.permutation(shuffled_tokens.word_ids)
        shuffled = count_by_word_topic(shuffled_tokens, small_corpus.vocabulary_size, 6)
        good = heldout_log_likelihood(
            small_corpus.tokens, trained, params, np.random.default_rng(0)
        )
        bad = heldout_log_likelihood(
            small_corpus.tokens, shuffled, params, np.random.default_rng(0)
        )
        assert good.per_token > bad.per_token

    @pytest.mark.parametrize("block_elements", [6, 1 << 20])
    def test_blocked_matches_unblocked(self, small_corpus, monkeypatch, block_elements):
        """Blocking the fold-in over observed tokens changes no result."""
        monkeypatch.setattr(likelihood_module, "LIKELIHOOD_BLOCK_ELEMENTS", block_elements)
        params = LDAHyperParams.paper_defaults(6)
        word_topic = count_by_word_topic(small_corpus.tokens, small_corpus.vocabulary_size, 6)
        blocked = heldout_log_likelihood(
            small_corpus.tokens, word_topic, params, np.random.default_rng(3)
        )
        oracle = unblocked_heldout_log_likelihood(
            small_corpus.tokens, word_topic, params, np.random.default_rng(3)
        )
        assert blocked.num_tokens == oracle.num_tokens
        assert blocked.total_log_likelihood == pytest.approx(
            oracle.total_log_likelihood, rel=1e-12
        )
