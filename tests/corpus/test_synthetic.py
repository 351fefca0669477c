"""Tests for the synthetic corpus generators."""

import numpy as np
import pytest

from repro.corpus import ZipfModel, fit_zipf_exponent, generate_lda_corpus, generate_zipf_corpus
from repro.corpus.synthetic import _document_lengths


def dense_lda_draws(num_documents, vocabulary_size, num_topics, mean_document_length, seed):
    """Oracle: the generator's inverse-CDF draws as dense ``u > cdf`` comparisons."""
    rng = np.random.default_rng(seed)
    alpha = min(0.2, 50.0 / num_topics)
    zipf_base = ZipfModel(vocabulary_size, exponent=1.05).probabilities()
    topic_word = rng.dirichlet(zipf_base * vocabulary_size * 0.05 + 1e-3, size=num_topics)
    doc_topic = rng.dirichlet(np.full(num_topics, alpha), size=num_documents)
    lengths = _document_lengths(num_documents, mean_document_length, rng)
    doc_ids = np.repeat(np.arange(num_documents, dtype=np.int32), lengths)
    u = rng.random(len(doc_ids))
    topics = (u[:, None] > np.cumsum(doc_topic, axis=1)[doc_ids]).sum(axis=1)
    topics = np.minimum(topics, num_topics - 1)
    u = rng.random(len(doc_ids))
    word_ids = (u[:, None] > np.cumsum(topic_word, axis=1)[topics]).sum(axis=1)
    word_ids = np.minimum(word_ids, vocabulary_size - 1)
    return doc_ids, word_ids, topics


class TestLdaCorpus:
    def test_dimensions(self, small_corpus):
        assert small_corpus.num_documents == 60
        assert small_corpus.vocabulary_size == 150
        assert small_corpus.num_tokens > 0

    def test_mean_document_length_close_to_requested(self):
        corpus = generate_lda_corpus(200, 500, 10, mean_document_length=80, seed=3)
        assert 60 < corpus.tokens_per_document < 100

    def test_ground_truth_shapes(self, small_corpus):
        assert small_corpus.true_topic_word.shape == (6, 150)
        assert small_corpus.true_doc_topic.shape == (60, 6)

    def test_ground_truth_distributions_normalised(self, small_corpus):
        np.testing.assert_allclose(small_corpus.true_topic_word.sum(axis=1), np.ones(6))
        np.testing.assert_allclose(small_corpus.true_doc_topic.sum(axis=1), np.ones(60))

    def test_topics_assigned_within_range(self, small_corpus):
        assert small_corpus.tokens.topics.min() >= 0
        assert small_corpus.tokens.topics.max() < 6

    def test_word_ids_within_vocabulary(self, small_corpus):
        assert small_corpus.tokens.word_ids.max() < 150

    def test_deterministic_for_same_seed(self):
        first = generate_lda_corpus(20, 50, 4, 30, seed=42)
        second = generate_lda_corpus(20, 50, 4, 30, seed=42)
        np.testing.assert_array_equal(first.tokens.word_ids, second.tokens.word_ids)

    def test_different_seeds_differ(self):
        first = generate_lda_corpus(20, 50, 4, 30, seed=1)
        second = generate_lda_corpus(20, 50, 4, 30, seed=2)
        assert not np.array_equal(first.tokens.word_ids, second.tokens.word_ids)

    @pytest.mark.parametrize(
        "shape", [(40, 300, 7, 30, 1), (25, 2000, 12, 50, 2)], ids=["V300", "V2000"]
    )
    def test_matches_dense_inverse_cdf_oracle(self, shape):
        corpus = generate_lda_corpus(*shape)
        doc_ids, word_ids, topics = dense_lda_draws(*shape)
        np.testing.assert_array_equal(corpus.tokens.doc_ids, doc_ids)
        np.testing.assert_array_equal(corpus.tokens.word_ids, word_ids)
        np.testing.assert_array_equal(corpus.tokens.topics, topics)

    def test_term_frequencies_are_heavy_tailed(self):
        corpus = generate_lda_corpus(300, 2000, 20, 100, seed=5)
        frequencies = corpus.tokens.tokens_per_word(corpus.vocabulary_size)
        assert fit_zipf_exponent(frequencies) > 0.5

    def test_unassigned_copy_clears_topics(self, small_corpus):
        copy = small_corpus.unassigned_copy()
        assert (copy.topics == -1).all()
        assert (small_corpus.tokens.topics >= 0).all()

    def test_summary_mentions_dimensions(self, small_corpus):
        summary = small_corpus.summary()
        assert "D=60" in summary
        assert "V=150" in summary


class TestZipfCorpus:
    def test_no_topic_structure(self):
        corpus = generate_zipf_corpus(50, 200, 40, seed=9)
        assert corpus.true_topic_word is None
        assert (corpus.tokens.topics == -1).all()

    def test_document_sparsity_is_realistic(self):
        """A document's topic support after LDA generation stays well below K."""
        corpus = generate_lda_corpus(100, 500, 50, mean_document_length=60, seed=13)
        from repro.core import SparseDocTopicMatrix

        matrix = SparseDocTopicMatrix.from_tokens(corpus.tokens, corpus.num_documents, 50)
        assert matrix.mean_row_nnz() < 35

    def test_minimum_document_length(self):
        corpus = generate_zipf_corpus(30, 100, 2.0, seed=1)
        assert corpus.tokens.tokens_per_document(30).min() >= 2
