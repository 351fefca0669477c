"""Tests for the vectorised ESCA E-step."""

import numpy as np
import pytest

from repro.core import (
    LDAHyperParams,
    SparseDocTopicMatrix,
    count_by_doc_topic_dense,
    count_by_word_topic,
)
from repro.saberlda import WordSide, esca_estep
from repro.sampling import exact_token_distribution


@pytest.fixture
def prepared(tiny_tokens):
    params = LDAHyperParams(num_topics=3, alpha=0.5, beta=0.01)
    doc_topic = SparseDocTopicMatrix.from_tokens(tiny_tokens, 3, 3)
    word_topic = count_by_word_topic(tiny_tokens, 5, 3)
    word_side = WordSide.prepare(word_topic, params.alpha, params.beta)
    return params, doc_topic, word_side


class TestWordSide:
    def test_probs_columns_sum_to_one(self, prepared):
        _params, _doc_topic, word_side = prepared
        np.testing.assert_allclose(word_side.probs.sum(axis=0), np.ones(3))

    def test_cdf_is_rowwise_cumsum(self, prepared):
        _params, _doc_topic, word_side = prepared
        np.testing.assert_allclose(word_side.cdf, np.cumsum(word_side.probs, axis=1))

    def test_prior_mass_formula(self, prepared):
        params, _doc_topic, word_side = prepared
        np.testing.assert_allclose(
            word_side.prior_mass, params.alpha * word_side.probs.sum(axis=1)
        )

    def test_num_topics(self, prepared):
        assert prepared[2].num_topics == 3


class TestEStep:
    def test_output_alignment_and_range(self, prepared, tiny_tokens, rng):
        _params, doc_topic, word_side = prepared
        result = esca_estep(tiny_tokens, doc_topic, word_side, rng)
        assert len(result.new_topics) == tiny_tokens.num_tokens
        assert result.new_topics.min() >= 0
        assert result.new_topics.max() < 3

    def test_input_tokens_unmodified(self, prepared, tiny_tokens, rng):
        _params, doc_topic, word_side = prepared
        before = tiny_tokens.topics.copy()
        esca_estep(tiny_tokens, doc_topic, word_side, rng)
        np.testing.assert_array_equal(tiny_tokens.topics, before)

    def test_branch_fractions_sum(self, prepared, tiny_tokens, rng):
        _params, doc_topic, word_side = prepared
        result = esca_estep(tiny_tokens, doc_topic, word_side, rng)
        assert result.doc_branch_tokens + result.prior_branch_tokens == tiny_tokens.num_tokens
        assert 0.0 <= result.doc_branch_fraction <= 1.0

    def test_empty_token_list(self, prepared, rng):
        from repro.core import TokenList

        _params, doc_topic, word_side = prepared
        result = esca_estep(TokenList.empty(), doc_topic, word_side, rng)
        assert len(result.new_topics) == 0

    def test_vectorized_backend_matches_reference(self, prepared, tiny_tokens, rng_seed):
        _params, doc_topic, word_side = prepared
        reference = esca_estep(
            tiny_tokens, doc_topic, word_side,
            np.random.default_rng(rng_seed), backend="reference",
        )
        vectorized = esca_estep(
            tiny_tokens, doc_topic, word_side,
            np.random.default_rng(rng_seed), backend="vectorized",
        )
        np.testing.assert_array_equal(reference.new_topics, vectorized.new_topics)
        assert reference.doc_branch_tokens == vectorized.doc_branch_tokens

    def test_unknown_backend_is_rejected(self, prepared, tiny_tokens, rng):
        _params, doc_topic, word_side = prepared
        with pytest.raises(ValueError, match="kernel backend"):
            esca_estep(tiny_tokens, doc_topic, word_side, rng, backend="warp")

    def test_samples_exact_conditional_distribution(self, prepared, tiny_tokens):
        """Repeatedly resampling one corpus must match Eq. (1) marginally per token."""
        params, doc_topic, word_side = prepared
        num_repeats = 4000
        counts = np.zeros((tiny_tokens.num_tokens, 3))
        rng = np.random.default_rng(99)
        for _ in range(num_repeats):
            result = esca_estep(tiny_tokens, doc_topic, word_side, rng)
            counts[np.arange(tiny_tokens.num_tokens), result.new_topics] += 1
        empirical = counts / num_repeats

        dense_doc_topic = count_by_doc_topic_dense(tiny_tokens, 3, 3)
        for position, (d, v, _k) in enumerate(tiny_tokens):
            expected = exact_token_distribution(
                dense_doc_topic[d].astype(float), word_side.probs[v], params.alpha
            )
            np.testing.assert_allclose(empirical[position], expected, atol=0.035)

    def test_iterating_improves_likelihood(self, medium_corpus):
        """A few ESCA iterations must increase the training log-likelihood."""
        from repro.core import training_log_likelihood

        # A small alpha keeps documents sparse; 50/K would be ~5 for K=10 and
        # wash out the document signal entirely.
        params = LDAHyperParams(num_topics=10, alpha=0.1, beta=0.01)
        rng = np.random.default_rng(0)
        tokens = medium_corpus.unassigned_copy()
        tokens.randomize_topics(10, rng)

        def likelihood() -> float:
            doc_topic = SparseDocTopicMatrix.from_tokens(
                tokens, medium_corpus.num_documents, 10
            )
            word_topic = count_by_word_topic(tokens, medium_corpus.vocabulary_size, 10)
            return training_log_likelihood(tokens, doc_topic, word_topic, params).per_token

        initial = likelihood()
        for _ in range(5):
            doc_topic = SparseDocTopicMatrix.from_tokens(
                tokens, medium_corpus.num_documents, 10
            )
            word_topic = count_by_word_topic(tokens, medium_corpus.vocabulary_size, 10)
            word_side = WordSide.prepare(word_topic, params.alpha, params.beta)
            tokens.topics = esca_estep(tokens, doc_topic, word_side, rng).new_topics
        assert likelihood() > initial + 0.05
