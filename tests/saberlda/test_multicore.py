"""The trainer's thread pools: worker-count invariant, and gone when ``fit`` returns.

``SaberLDATrainer.fit`` fans its E-step and word-side blocks out to
thread pools that each call creates and shuts down.  A process that
trains and then forks (the serving worker pool forks by default) must
not carry a pool thread into the child, and importing the package must
not pay for ``concurrent.futures`` at all.  Blocks write disjoint parts
of shared output arrays, so a run with more workers than cores and a
tiny switch interval must still reproduce the one-worker result.
"""

import concurrent.futures
import os
import subprocess
import sys
import threading

import numpy as np
import pytest

import repro
from repro.core import SparseDocTopicMatrix, count_by_word_topic, word_topic_digest
from repro.corpus import generate_lda_corpus
from repro.kernels import threads
from repro.saberlda import SaberLDAConfig, SaberLDATrainer, WordSide, esca_estep
from repro.saberlda import estep as estep_module


@pytest.fixture(scope="module")
def corpus():
    return generate_lda_corpus(
        num_documents=80, vocabulary_size=400, num_topics=12, mean_document_length=50, seed=4
    )


def _fit(corpus):
    config = SaberLDAConfig.paper_defaults(
        64, num_iterations=2, num_chunks=2, seed=6, evaluate_every=1
    )
    return SaberLDATrainer(config).fit(
        corpus.unassigned_copy(), corpus.num_documents, corpus.vocabulary_size
    )


@pytest.fixture
def force_workers(monkeypatch):
    """Force a worker count and let every fan-out use the pool."""

    def force(count: int) -> None:
        monkeypatch.setattr(threads, "worker_count", lambda: count)
        monkeypatch.setattr(threads, "MIN_PARALLEL_ELEMENTS", 1)

    return force


def test_fit_is_identical_at_one_and_four_workers(corpus, force_workers):
    force_workers(1)
    single = _fit(corpus)
    force_workers(4)
    pooled = _fit(corpus)
    assert word_topic_digest(pooled.model.word_topic_counts) == word_topic_digest(
        single.model.word_topic_counts
    )
    assert pooled.final_log_likelihood() == single.final_log_likelihood()
    assert [r.doc_branch_fraction for r in pooled.history] == [
        r.doc_branch_fraction for r in single.history
    ]


def test_fit_leaves_no_pool_thread_behind(corpus, force_workers, monkeypatch):
    pools = []

    class CountingExecutor(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            pools.append(self)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", CountingExecutor)
    force_workers(4)
    before = threading.active_count()
    _fit(corpus)
    assert pools, "the fit never fanned out, so the check would be vacuous"
    assert threading.active_count() == before


def test_blocks_survive_thread_stress(corpus, force_workers, monkeypatch):
    """More workers than cores and a tiny switch interval lose no block's writes."""
    tokens = corpus.unassigned_copy()
    tokens.randomize_topics(64, np.random.default_rng(1))
    doc_topic = SparseDocTopicMatrix.from_tokens(tokens, corpus.num_documents, 64)
    counts = count_by_word_topic(tokens, corpus.vocabulary_size, 64)
    monkeypatch.setattr(estep_module, "WORD_SIDE_BLOCK_ELEMENTS", 64)

    def run():
        word_side = WordSide.prepare(counts, 0.5, 0.01)
        result = esca_estep(tokens, doc_topic, word_side, np.random.default_rng(2))
        return word_side, result

    force_workers(1)
    expected_side, expected = run()
    force_workers(8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            word_side, result = run()
            assert word_side.cdf.tobytes() == expected_side.cdf.tobytes()
            assert word_side.prior_mass.tobytes() == expected_side.prior_mass.tobytes()
            assert np.array_equal(result.new_topics, expected.new_topics)
            assert result.doc_branch_tokens == expected.doc_branch_tokens
    finally:
        sys.setswitchinterval(interval)


def test_importing_the_package_does_not_load_concurrent_futures():
    src = os.path.dirname(os.path.dirname(repro.__file__))
    code = (
        "import sys, repro, repro.saberlda, repro.serving, repro.kernels\n"
        "print('concurrent.futures' in sys.modules)"
    )
    done = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    assert done.stdout.strip() == "False"
