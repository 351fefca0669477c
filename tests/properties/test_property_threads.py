"""Property-based tests (hypothesis): the multi-core hot path is worker-count invariant.

The E-step kernel and ``WordSide.prepare`` split their work into blocks
that run on a short-lived thread pool.  Every block writes disjoint
output and keeps the reduction shapes of the unblocked formula, so each
sampled topic, each branch count, the RNG's end state and every ``B̂``
bit must be the same for 1, 2 or 4 workers and for any block size — and
equal to the reference loop and the whole-matrix formula.

Worker counts are forced by patching ``repro.kernels.threads.worker_count``,
together with the minimum-work threshold, so small inputs really fan out.
"""

from contextlib import contextmanager
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import TokenList
from repro.core.count_matrices import (
    SparseDocTopicMatrix,
    count_by_word_topic,
    normalize_word_topic,
)
from repro.kernels import DENSE_BLOCK_ELEMENTS, KernelBackend, threads
from repro.kernels.estep import esca_estep_vectorized
from repro.saberlda import estep as estep_module
from repro.saberlda.estep import WordSide, esca_estep

WORKER_COUNTS = (1, 2, 4)

seeds = st.integers(min_value=0, max_value=2**31 - 1)

#: Few words per document, so most tokens repeat a (document, word) pair.
repeated_pair_shapes = st.tuples(
    st.integers(min_value=1, max_value=8),   # documents
    st.integers(min_value=1, max_value=6),   # vocabulary
    # Topics: K = 1, narrow rows, and rows wide enough (>= 8) that a
    # changed reduction shape would change the pairwise sums.
    st.one_of(st.integers(min_value=1, max_value=6), st.sampled_from([17, 40])),
    st.integers(min_value=0, max_value=150), # tokens (includes empty chunks)
)


@contextmanager
def forced_workers(count: int):
    """Run the hot path on ``count`` threads, whatever the input size."""
    with mock.patch.object(threads, "worker_count", lambda: count), mock.patch.object(
        threads, "MIN_PARALLEL_ELEMENTS", 1
    ):
        yield


def word_side_oracle(counts: np.ndarray, alpha: float, beta: float) -> tuple:
    """The whole-matrix formula: ``B̂`` from a float copy of ``B``, then its CDF and ``Q``."""
    probs = normalize_word_topic(counts, beta)
    return probs, np.cumsum(probs, axis=1), alpha * probs.sum(axis=1)


def _pair_heavy_chunk(shape, seed):
    """A chunk whose documents repeat few words; some ``A`` rows are emptied.

    Half the chunks are word-ordered, as the trainer's PDOW layout lays
    them out, the rest keep a random token order.
    """
    num_documents, vocabulary_size, num_topics, num_tokens = shape
    rng = np.random.default_rng(seed)
    doc_ids = rng.integers(0, num_documents, num_tokens).astype(np.int32)
    word_ids = rng.integers(0, vocabulary_size, num_tokens).astype(np.int32)
    if seed % 2 == 0:
        order = np.argsort(word_ids, kind="stable")
        doc_ids, word_ids = doc_ids[order], word_ids[order]
    topics = rng.integers(0, num_topics, num_tokens).astype(np.int32)
    tokens = TokenList(doc_ids, word_ids, topics)

    counted = rng.random(num_documents) > 0.3
    keep = counted[doc_ids] if num_tokens else np.zeros(0, dtype=bool)
    if keep.any():
        doc_topic = SparseDocTopicMatrix.from_tokens(
            TokenList(doc_ids[keep], word_ids[keep], topics[keep]),
            num_documents,
            num_topics,
        )
    else:
        doc_topic = SparseDocTopicMatrix.empty(num_documents, num_topics)
    word_side = WordSide.prepare(
        count_by_word_topic(tokens, vocabulary_size, num_topics), 0.5, 0.01
    )
    return tokens, doc_topic, word_side


def _run_kernel(tokens, doc_topic, word_side, seed, block_elements):
    rng = np.random.default_rng(seed)
    new_topics, doc_branch, prior_branch = esca_estep_vectorized(
        tokens.doc_ids, tokens.word_ids,
        doc_topic.indptr, doc_topic.indices, doc_topic.values,
        word_side.probs, word_side.cdf, word_side.prior_mass,
        rng, block_elements,
    )
    return new_topics, doc_branch, prior_branch, rng.random()


class TestEStepWorkerInvariance:
    @given(
        shape=repeated_pair_shapes,
        seed=seeds,
        block_elements=st.sampled_from([1, 3, DENSE_BLOCK_ELEMENTS]),
    )
    @settings(max_examples=40, deadline=None)
    def test_every_worker_count_matches_the_reference_loop(
        self, shape, seed, block_elements
    ):
        tokens, doc_topic, word_side = _pair_heavy_chunk(shape, seed)
        reference_rng = np.random.default_rng(seed + 1)
        reference = esca_estep(
            tokens, doc_topic, word_side, reference_rng, KernelBackend.REFERENCE
        )
        expected = (
            reference.new_topics,
            reference.doc_branch_tokens,
            reference.prior_branch_tokens,
            reference_rng.random(),  # the next draw reveals the stream position
        )
        for workers in WORKER_COUNTS:
            with forced_workers(workers):
                got = _run_kernel(tokens, doc_topic, word_side, seed + 1, block_elements)
            assert np.array_equal(got[0], expected[0]), workers
            assert got[1:] == expected[1:], workers


class TestWordSideWorkerInvariance:
    @given(
        shape=st.tuples(
            st.integers(min_value=1, max_value=60), st.integers(min_value=1, max_value=12)
        ),
        high=st.sampled_from([1, 50, 10**6]),
        integer_counts=st.booleans(),
        block_elements=st.sampled_from([1, 7, estep_module.WORD_SIDE_BLOCK_ELEMENTS]),
        seed=seeds,
    )
    @settings(max_examples=40, deadline=None)
    def test_prepare_equals_the_whole_matrix_formula(
        self, shape, high, integer_counts, block_elements, seed
    ):
        rng = np.random.default_rng(seed)
        if integer_counts:
            counts = rng.integers(0, high + 1, size=shape)
        else:
            counts = rng.random(shape) * high
        probs, cdf, prior_mass = word_side_oracle(counts, 0.3, 0.01)
        for workers in WORKER_COUNTS:
            with forced_workers(workers), mock.patch.object(
                estep_module, "WORD_SIDE_BLOCK_ELEMENTS", block_elements
            ):
                word_side = WordSide.prepare(counts, 0.3, 0.01)
            assert word_side.probs.tobytes() == probs.tobytes(), workers
            assert word_side.cdf.tobytes() == cdf.tobytes(), workers
            assert word_side.prior_mass.tobytes() == prior_mass.tobytes(), workers
