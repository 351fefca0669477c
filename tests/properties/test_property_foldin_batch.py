"""Property-based tests (hypothesis): batched fold-in ≡ per-document fold-in.

``FrozenModelState.fold_in`` folds a whole micro-batch per call; on the
vectorized W-ary path every sweep is one pass over all documents, and
the sampler bank is kept as an integer LRU fed by a replay of the
touches.  The contract is that none of this is observable: each
document's theta, counts and topics equal a reference-backend fold-in
of that document alone, bit for bit, and the bank ends with the same
counters and the same LRU order — across empty, single-token and
repeated-word documents, the last word id and bank capacities far below
the batch's distinct words.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import LDAHyperParams, LDAModel
from repro.kernels import KernelBackend
from repro.kernels.foldin import _product_rows
from repro.saberlda.config import PreprocessKind
from repro.serving import FrozenModelState, InferenceEngine, request_rng, warm_sampler_bank

VOCABULARY_SIZE = 30
LAST_WORD = VOCABULARY_SIZE - 1
BANK_COUNTERS = ("builds", "hits", "evictions", "construction_steps")

#: Word ids with the last id drawn often (the ``V - 1`` edge).
word_ids = st.one_of(st.just(LAST_WORD), st.integers(min_value=0, max_value=LAST_WORD))

#: One batch: 1-16 documents, each empty, a single token or longer with
#: repeated words.
batches = st.lists(
    st.lists(word_ids, min_size=0, max_size=40).map(
        lambda ids: np.asarray(ids, dtype=np.int64)
    ),
    min_size=1,
    max_size=16,
)

seeds = st.integers(min_value=0, max_value=2**31 - 1)


def _model(num_topics, seed):
    counts = np.random.default_rng(seed).integers(0, 4, size=(VOCABULARY_SIZE, num_topics))
    return LDAModel(word_topic_counts=counts, params=LDAHyperParams.paper_defaults(num_topics))


def _assert_batch_matches_reference(model, documents, kind, capacity, num_sweeps, seed):
    batched = FrozenModelState.prepare(
        model, kind=kind, sampler_capacity=capacity, backend=KernelBackend.VECTORIZED
    )
    reference = FrozenModelState.prepare(
        model, kind=kind, sampler_capacity=capacity, backend=KernelBackend.REFERENCE
    )
    results = batched.fold_in(
        documents,
        [request_rng(seed, index) for index in range(len(documents))],
        num_sweeps=num_sweeps,
    )
    assert len(results) == len(documents)
    for index, (document, result) in enumerate(zip(documents, results, strict=True)):
        [alone] = reference.fold_in([document], [request_rng(seed, index)], num_sweeps)
        assert result.theta.tobytes() == alone.theta.tobytes()
        assert np.array_equal(result.doc_topic_counts, alone.doc_topic_counts)
        assert result.topics.dtype == alone.topics.dtype
        assert np.array_equal(result.topics, alone.topics)
        assert result.num_sweeps == alone.num_sweeps
    for counter in BANK_COUNTERS:
        assert getattr(batched.bank, counter) == getattr(reference.bank, counter), counter
    assert list(batched.bank._samplers) == list(reference.bank._samplers)  # LRU order


class TestBatchedFoldIn:
    @given(
        documents=batches,
        num_topics=st.sampled_from([1, 2, 7, 33, 600]),
        kind=st.sampled_from(list(PreprocessKind)),
        num_sweeps=st.integers(min_value=1, max_value=6),
        capacity=st.sampled_from([1, 3, 8, 4096]),
        seed=seeds,
    )
    @settings(max_examples=60, deadline=None)
    def test_batch_equals_per_document_reference(
        self, documents, num_topics, kind, num_sweeps, capacity, seed
    ):
        _assert_batch_matches_reference(
            _model(num_topics, seed), documents, kind, capacity, num_sweeps, seed
        )

    @pytest.mark.parametrize("capacity", [1, 2, 4096])
    def test_edge_documents(self, capacity):
        """Empty, single-token, repeated-word and last-word documents in one batch."""
        documents = [
            np.array([], dtype=np.int64),
            np.array([LAST_WORD]),
            np.array([3, 3, 3, 3]),
            np.array([], dtype=np.int64),
            np.array([LAST_WORD, 0, LAST_WORD, 5, 0, LAST_WORD]),
            np.array([7]),
        ]
        _assert_batch_matches_reference(
            _model(9, 4), documents, PreprocessKind.WARY_TREE, capacity, 8, 11
        )

    def test_all_empty_batch(self):
        state = FrozenModelState.prepare(_model(5, 0))
        results = state.fold_in(
            [[], []], [request_rng(0, 0), request_rng(0, 1)], num_sweeps=3
        )
        for result in results:
            assert result.theta.tobytes() == np.full(5, 1.0 / 5).tobytes()
            assert result.num_tokens == 0
        assert state.bank.builds == 0 and state.bank.hits == 0

    def test_needs_one_generator_per_document(self):
        state = FrozenModelState.prepare(_model(5, 0))
        with pytest.raises(ValueError, match="one generator per document"):
            state.fold_in([[1, 2], [3]], [request_rng(0, 0)])

    def test_rejects_out_of_range_words_anywhere_in_the_batch(self):
        state = FrozenModelState.prepare(_model(5, 0))
        with pytest.raises(ValueError, match="vocabulary_size"):
            state.fold_in([[1, 2], [VOCABULARY_SIZE]], [request_rng(0, 0), request_rng(0, 1)])

    @given(seed=seeds, position=st.integers(min_value=0, max_value=15))
    @settings(max_examples=15, deadline=None)
    def test_request_alone_equals_request_in_a_shuffled_batch(self, seed, position):
        """Batch composition never moves a request's result."""
        rng = np.random.default_rng(seed)
        model = _model(33, seed)
        documents = [
            rng.integers(0, VOCABULARY_SIZE, int(rng.integers(0, 50))) for _ in range(16)
        ]
        request_ids = [int(value) for value in rng.permutation(1000)[:16]]
        alone = InferenceEngine.from_model(model, num_sweeps=5, seed=seed).infer_request(
            documents[position], request_ids[position]
        )
        order = rng.permutation(16)
        batch = InferenceEngine.from_model(model, num_sweeps=5, seed=seed).infer_requests(
            [documents[index] for index in order], [request_ids[index] for index in order]
        )
        inside = batch[int(np.flatnonzero(order == position)[0])]
        assert inside.theta.tobytes() == alone.theta.tobytes()
        assert np.array_equal(inside.doc_topic_counts, alone.doc_topic_counts)
        assert np.array_equal(inside.topics, alone.topics)


class TestIntegerLRU:
    def test_warm_up_builds_no_trees_but_charges_the_builds(self):
        model = _model(40, 2)
        engine = InferenceEngine.from_model(model)
        reference = InferenceEngine.from_model(model, backend=KernelBackend.REFERENCE)
        words = [4, 9, 4, LAST_WORD, 0]
        assert warm_sampler_bank(engine, words) == warm_sampler_bank(reference, words) == 4
        for counter in BANK_COUNTERS:
            assert getattr(engine.state.bank, counter) == getattr(reference.state.bank, counter)
        assert list(engine.state.bank._samplers) == list(reference.state.bank._samplers)
        assert all(tree is None for tree in engine.state.bank._samplers.values())

    def test_touched_word_builds_its_tree_on_demand_without_a_second_charge(self):
        state = FrozenModelState.prepare(_model(40, 2))
        state.bank.touch(np.array([6]))
        steps = state.bank.construction_steps
        tree = state.bank.sampler(6)
        assert tree.construction_steps == steps
        assert (state.bank.builds, state.bank.hits) == (1, 1)
        assert state.bank.sampler(6) is tree

    def test_touch_is_wary_only(self):
        state = FrozenModelState.prepare(_model(4, 2), kind=PreprocessKind.ALIAS_TABLE)
        with pytest.raises(ValueError, match="W-ary"):
            state.bank.touch(np.array([1]))


class TestProductRows:
    """The kernel's stacked product rows keep the per-document row shape.

    Outcome equality rarely notices a last-bit change in a run's mass
    (a uniform must land in the gap), so the mass and CDF rows are pinned
    directly against the per-document reference arithmetic, over widths
    that cross NumPy's pairwise-summation block sizes.
    """

    @given(
        widths=st.lists(st.integers(min_value=1, max_value=300), min_size=1, max_size=8),
        seed=seeds,
    )
    @settings(max_examples=40, deadline=None)
    def test_rows_match_the_per_document_bits(self, widths, seed):
        rng = np.random.default_rng(seed)
        num_words, num_topics = 50, 400
        probs = rng.random((num_words, num_topics))
        topics = [np.sort(rng.choice(num_topics, width, replace=False)) for width in widths]
        values = [rng.integers(1, 20, width).astype(np.float64) for width in widths]
        indptr = np.concatenate([[0], np.cumsum(widths)]).astype(np.int64)
        run_docs = np.repeat(np.arange(len(widths)), rng.integers(1, 5, len(widths)))
        run_words = rng.integers(0, num_words, len(run_docs))
        run_row = indptr[run_docs]
        run_width = indptr[run_docs + 1] - run_row
        mass, doc_cdf, starts, _one_width = _product_rows(
            run_words, run_width, run_row, np.concatenate(topics),
            np.concatenate(values), probs.reshape(-1), num_topics,
        )
        for doc, width in enumerate(widths):
            runs = np.flatnonzero(run_docs == doc)
            product = probs[run_words[runs][:, None], topics[doc][None, :]] * values[doc][None, :]
            assert mass[runs].tobytes() == product.sum(axis=1).tobytes()
            rows = doc_cdf[starts[runs][:, None] + np.arange(width)]
            assert rows.tobytes() == np.cumsum(product, axis=1).tobytes()
