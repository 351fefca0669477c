"""Memory envelope of training: O(V*K + N*K_d), never O(N*K).

The tracemalloc peak of one fixed ``SaberLDATrainer.fit`` must stay
under a budget derived from the Table 2 memory model.  The shape has
N*K far above V*K, so a step that materialises a tokens-by-topics array
(e.g. a dense likelihood gathering ``theta[doc_ids]``) blows the budget
by several times instead of passing unnoticed.
"""

import tracemalloc

from repro.corpus import DatasetDescriptor, generate_lda_corpus
from repro.evaluation import memory_footprint
from repro.kernels import threads
from repro.saberlda import SaberLDAConfig, SaberLDATrainer

NUM_TOPICS = 1_000
#: ~40k tokens over V=2,000: N*K is 20x V*K.
CORPUS_SPEC = dict(
    num_documents=400, vocabulary_size=2_000, num_topics=50, mean_document_length=100, seed=3
)
#: The model counts 4-byte entries and two V x K matrices (B, B-hat);
#: the trainer keeps 8-byte entries (x2) and up to four V x K arrays
#: alive at once (x4): B, B-hat, its row CDF, and the previous
#: iteration's word side or the likelihood's B-hat.
ENVELOPE_FACTOR = 8


def test_fit_peak_stays_within_memory_model_budget():
    _assert_fit_peak_within_budget()


def test_fit_peak_with_four_workers_stays_within_memory_model_budget(monkeypatch):
    """Blocks in flight on four threads at once still fit the same budget."""
    monkeypatch.setattr(threads, "worker_count", lambda: 4)
    monkeypatch.setattr(threads, "MIN_PARALLEL_ELEMENTS", 1)
    _assert_fit_peak_within_budget()


def _assert_fit_peak_within_budget():
    corpus = generate_lda_corpus(**CORPUS_SPEC)
    config = SaberLDAConfig.paper_defaults(
        NUM_TOPICS, num_iterations=2, num_chunks=2, seed=1, evaluate_every=1
    )
    tokens = corpus.unassigned_copy()
    descriptor = DatasetDescriptor(
        "envelope", corpus.num_documents, corpus.num_tokens, corpus.vocabulary_size
    )
    # nnz(A) <= min(D * K, N): the model's own bound, no measured K_d needed.
    footprint = memory_footprint(descriptor, NUM_TOPICS)
    budget = ENVELOPE_FACTOR * (
        footprint.word_topic_dense_bytes
        + footprint.token_list_bytes
        + footprint.doc_topic_sparse_bytes
    )
    # The shape must discriminate: one N x K float64 array is twice the budget.
    assert corpus.num_tokens * NUM_TOPICS * 8 > 2 * budget

    tracemalloc.start()
    try:
        SaberLDATrainer(config).fit(tokens, corpus.num_documents, corpus.vocabulary_size)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= budget, f"fit peak {peak / 2**20:.1f} MB > budget {budget / 2**20:.1f} MB"
