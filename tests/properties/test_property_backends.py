"""Property-based tests (hypothesis): vectorized kernels ≡ reference kernels.

The vectorized backend's whole contract is *bit-identity*: same
uniforms, same draw order, same floating-point reduction shapes as the
reference loops, on any input.  These properties drive both backends
with random corpora, random seeds and both sampling problems — through
the adversarial shapes the chunk-flattening index arithmetic must
survive: empty documents (empty ``A`` rows *and* empty queries),
single-token documents, ``K = 1``, duplicated words, unsorted document
ids and LRU-bank capacity pressure — and assert exact equality of every
sampled topic, every theta byte and every bank counter.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import LDAHyperParams, LDAModel, TokenList
from repro.core.count_matrices import SparseDocTopicMatrix, count_by_word_topic
from repro.kernels import (
    KernelBackend,
    sample_from_word_cdf,
    sample_rows_from_cdf,
)
from repro.saberlda.config import PreprocessKind
from repro.saberlda.estep import WordSide, esca_estep
from repro.sampling.wary_tree import WaryTree
from repro.serving.foldin import FrozenModelState

# --------------------------------------------------------------------- #
# Strategies
# --------------------------------------------------------------------- #

corpus_shapes = st.tuples(
    st.integers(min_value=1, max_value=20),  # documents
    st.integers(min_value=1, max_value=40),  # vocabulary
    st.integers(min_value=1, max_value=9),   # topics (includes K = 1)
    st.integers(min_value=0, max_value=200), # tokens (includes empty chunks)
)

seeds = st.integers(min_value=0, max_value=2**31 - 1)

#: Query documents: empty, single-token and longer (with repeated words).
queries = st.lists(
    st.integers(min_value=0, max_value=29), min_size=0, max_size=60
).map(lambda ids: np.asarray(ids, dtype=np.int64))


def _random_estep_inputs(shape, seed):
    """A random chunk + frozen matrices, with some documents' rows emptied.

    Dropping a random subset of documents from the counted matrix (but
    not the token stream) exercises the empty-``A``-row branch exactly
    as a fresh chunk meeting an unseen document does.
    """
    num_documents, vocabulary_size, num_topics, num_tokens = shape
    rng = np.random.default_rng(seed)
    doc_ids = np.sort(rng.integers(0, num_documents, num_tokens)).astype(np.int32)
    if seed % 3 == 0:
        doc_ids = rng.permutation(doc_ids).astype(np.int32)
    word_ids = rng.integers(0, vocabulary_size, num_tokens).astype(np.int32)
    topics = rng.integers(0, num_topics, num_tokens).astype(np.int32)
    tokens = TokenList(doc_ids, word_ids, topics)

    counted = rng.random(num_documents) > 0.25
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


class TestEStepBackendEquivalence:
    @given(shape=corpus_shapes, seed=seeds)
    @settings(max_examples=40, deadline=None)
    def test_vectorized_estep_is_bit_identical(self, shape, seed):
        tokens, doc_topic, word_side = _random_estep_inputs(shape, seed)
        reference = esca_estep(
            tokens, doc_topic, word_side,
            np.random.default_rng(seed + 1), KernelBackend.REFERENCE,
        )
        vectorized = esca_estep(
            tokens, doc_topic, word_side,
            np.random.default_rng(seed + 1), KernelBackend.VECTORIZED,
        )
        assert np.array_equal(reference.new_topics, vectorized.new_topics)
        assert reference.doc_branch_tokens == vectorized.doc_branch_tokens
        assert reference.prior_branch_tokens == vectorized.prior_branch_tokens

    @given(shape=corpus_shapes, seed=seeds)
    @settings(max_examples=20, deadline=None)
    def test_backends_leave_the_rng_in_the_same_state(self, shape, seed):
        """Both backends consume exactly the same number of uniforms."""
        tokens, doc_topic, word_side = _random_estep_inputs(shape, seed)
        states = []
        for backend in KernelBackend:
            rng = np.random.default_rng(seed + 2)
            esca_estep(tokens, doc_topic, word_side, rng, backend)
            states.append(rng.random())  # next draw reveals the stream position
        assert states[0] == states[1]


def _fold_in_model(num_topics, vocabulary_size, seed):
    rng = np.random.default_rng(seed)
    counts = rng.integers(0, 4, size=(vocabulary_size, num_topics))
    return LDAModel(
        word_topic_counts=counts, params=LDAHyperParams.paper_defaults(num_topics)
    )


class TestFoldInBackendEquivalence:
    @given(
        query=queries,
        num_topics=st.sampled_from([1, 2, 7, 33]),
        kind=st.sampled_from(list(PreprocessKind)),
        num_sweeps=st.integers(min_value=1, max_value=6),
        capacity=st.sampled_from([1, 4, 4096]),
        seed=seeds,
    )
    @settings(max_examples=40, deadline=None)
    def test_vectorized_fold_in_is_bit_identical(
        self, query, num_topics, kind, num_sweeps, capacity, seed
    ):
        model = _fold_in_model(num_topics, 30, seed)
        results = {}
        banks = {}
        for backend in KernelBackend:
            state = FrozenModelState.prepare(
                model, kind=kind, sampler_capacity=capacity, backend=backend
            )
            [results[backend]] = state.fold_in(
                [query], [np.random.default_rng(seed + 3)], num_sweeps=num_sweeps
            )
            banks[backend] = state.bank
        reference = results[KernelBackend.REFERENCE]
        vectorized = results[KernelBackend.VECTORIZED]
        assert np.array_equal(reference.topics, vectorized.topics)
        assert np.array_equal(reference.doc_topic_counts, vectorized.doc_topic_counts)
        assert reference.theta.tobytes() == vectorized.theta.tobytes()
        # The bank must evolve identically too (same touches, same LRU
        # evictions): its build accounting feeds the batch cost model.
        for counter in ("builds", "hits", "evictions", "construction_steps"):
            assert getattr(banks[KernelBackend.REFERENCE], counter) == getattr(
                banks[KernelBackend.VECTORIZED], counter
            ), counter


class TestSamplerPrimitiveEquivalence:
    @given(
        weights=st.lists(
            st.floats(min_value=0.0, max_value=100.0), min_size=1, max_size=200
        ),
        seed=seeds,
    )
    @settings(max_examples=60, deadline=None)
    def test_wary_tree_vectorized_batch_matches_scalar_descent(self, weights, seed):
        weights = np.asarray(weights)
        if weights.sum() <= 0:
            weights[0] = 1.0
        tree = WaryTree.build(weights)
        uniforms = np.random.default_rng(seed).random(64)
        assert np.array_equal(
            tree.sample_batch(uniforms), tree.sample_batch_vectorized(uniforms)
        )

    @given(
        vocabulary_size=st.integers(min_value=1, max_value=12),
        num_topics=st.sampled_from([1, 3, 512, 513, 700]),
        num_draws=st.integers(min_value=0, max_value=120),
        seed=seeds,
    )
    @settings(max_examples=30, deadline=None)
    def test_word_cdf_sampler_matches_dense_oracle(
        self, vocabulary_size, num_topics, num_draws, seed
    ):
        """Both strategy branches equal the dense row-gather oracle."""
        rng = np.random.default_rng(seed)
        weights = rng.random((vocabulary_size, num_topics))
        weights[rng.random(weights.shape) < 0.3] = 0.0  # flat CDF stretches
        weights[:, -1] += 1e-9  # keep every row's total positive
        cdf = np.cumsum(weights, axis=1)
        word_ids = rng.integers(0, vocabulary_size, num_draws)
        uniforms = rng.random(num_draws)
        assert np.array_equal(
            sample_from_word_cdf(cdf, word_ids, uniforms),
            sample_rows_from_cdf(cdf[word_ids], uniforms)
            if num_draws
            else np.empty(0, dtype=np.int64),
        )
