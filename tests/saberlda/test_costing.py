"""Tests for the workload analyser and per-phase traffic formulas."""

import pytest

from repro.core import SparseDocTopicMatrix
from repro.corpus import NYTIMES, nytimes_replica
from repro.gpusim import GTX_1080, MemorySpace
from repro.saberlda import (
    CountRebuildKind,
    PreprocessKind,
    SaberLDAConfig,
    TokenOrder,
    WorkloadStats,
    build_layout,
    count_rebuild_traffic,
    expected_distinct_topics,
    preprocessing_traffic,
    sampling_traffic,
    transfer_traffic,
)
from repro.saberlda.costing import per_chunk_transfer_bytes, sampling_shared_bytes
from repro.saberlda.projection import cost_iteration_phases


@pytest.fixture(scope="module")
def measured_stats():
    corpus = nytimes_replica(num_documents=80, vocabulary_size=500, seed=3)
    config = SaberLDAConfig.paper_defaults(50, num_chunks=3)
    layouts = build_layout(corpus.tokens, corpus.num_documents, config)
    doc_topic = SparseDocTopicMatrix.from_tokens(corpus.tokens, corpus.num_documents, 50)
    stats = WorkloadStats.measure(layouts, doc_topic, 50, corpus.vocabulary_size, GTX_1080)
    return stats, config, corpus


class TestWorkloadStats:
    def test_measured_token_count(self, measured_stats):
        stats, _config, corpus = measured_stats
        assert stats.num_tokens == corpus.num_tokens

    def test_mean_doc_nnz_bounded_by_topics(self, measured_stats):
        stats, _config, _corpus = measured_stats
        assert 1.0 <= stats.mean_doc_nnz <= 50

    def test_hot_fraction_in_unit_interval(self, measured_stats):
        stats, _config, _corpus = measured_stats
        assert 0.0 <= stats.hot_token_fraction <= 1.0

    def test_distinct_chunk_words_at_least_vocabulary_coverage(self, measured_stats):
        stats, _config, corpus = measured_stats
        assert stats.distinct_chunk_words >= len(set(corpus.tokens.word_ids.tolist()))

    def test_chunk_subset_counts_only_its_document_ranges(self, measured_stats):
        """A device streaming some chunks is charged only their rows of A."""
        _stats, config, corpus = measured_stats
        layouts = build_layout(corpus.tokens, corpus.num_documents, config)
        doc_topic = SparseDocTopicMatrix.from_tokens(corpus.tokens, corpus.num_documents, 50)
        chunk = layouts[1].chunk
        stats = WorkloadStats.measure(
            layouts[1:2], doc_topic, 50, corpus.vocabulary_size, GTX_1080
        )
        shard_nnz = doc_topic.slice_documents(chunk.doc_start, chunk.doc_stop).num_nonzeros
        assert stats.num_documents == chunk.num_documents
        assert stats.total_doc_nnz == float(shard_nnz)
        assert stats.mean_doc_nnz == shard_nnz / chunk.num_documents
        assert stats.num_tokens == layouts[1].num_tokens

    def test_from_descriptor_full_scale(self):
        stats = WorkloadStats.from_descriptor(NYTIMES, 1000, GTX_1080, num_chunks=3)
        assert stats.num_tokens == NYTIMES.num_tokens
        assert stats.mean_doc_nnz <= 1000
        assert len(stats.chunk_token_counts) == 3

    def test_expected_distinct_topics_monotone_in_length(self):
        assert expected_distinct_topics(500, 1000) > expected_distinct_topics(50, 1000)

    def test_expected_distinct_topics_bounded(self):
        assert expected_distinct_topics(100, 1000) <= 1000


class TestSamplingTraffic:
    def test_word_major_cheaper_than_doc_major_at_full_scale(self):
        """At NYTimes scale (B̂ >> L2), PDOW must beat the doc-major order (Sec. 3.1.3)."""
        stats = WorkloadStats.from_descriptor(NYTIMES, 1000, GTX_1080, num_chunks=3)
        word_major = SaberLDAConfig.paper_defaults(1000, token_order=TokenOrder.WORD_MAJOR)
        doc_major = SaberLDAConfig.paper_defaults(1000, token_order=TokenOrder.DOC_MAJOR)
        word_bytes = sampling_traffic(stats, word_major, GTX_1080).bytes_at(MemorySpace.GLOBAL)
        doc_bytes = sampling_traffic(stats, doc_major, GTX_1080).bytes_at(MemorySpace.GLOBAL)
        assert word_bytes < doc_bytes

    def test_traffic_scales_with_tokens(self, measured_stats):
        stats, config, _corpus = measured_stats
        traffic = sampling_traffic(stats, config, GTX_1080)
        assert traffic.bytes_at(MemorySpace.GLOBAL) > stats.num_tokens * 8


class TestRebuildTraffic:
    def test_ssc_cheaper_than_sort(self, measured_stats):
        stats, config, _corpus = measured_stats
        ssc = count_rebuild_traffic(
            stats, config.with_overrides(count_rebuild=CountRebuildKind.SSC), GTX_1080
        )
        sort = count_rebuild_traffic(
            stats, config.with_overrides(count_rebuild=CountRebuildKind.GLOBAL_SORT), GTX_1080
        )
        assert ssc.bytes_at(MemorySpace.GLOBAL) < sort.bytes_at(MemorySpace.GLOBAL)

    def test_sort_slower_on_word_major_order(self, measured_stats):
        """Fig. 9: the doc-topic rebuild is more expensive under PDOW than doc-major."""
        stats, config, _corpus = measured_stats
        sort_config = config.with_overrides(count_rebuild=CountRebuildKind.GLOBAL_SORT)
        word_major = count_rebuild_traffic(stats, sort_config, GTX_1080)
        doc_major = count_rebuild_traffic(
            stats, sort_config.with_overrides(token_order=TokenOrder.DOC_MAJOR), GTX_1080
        )
        assert word_major.bytes_at(MemorySpace.GLOBAL) > doc_major.bytes_at(MemorySpace.GLOBAL)


class TestPreprocessingTraffic:
    def test_wary_tree_much_cheaper_than_alias(self):
        """Fig. 9 G1->G2: the W-ary tree removes ~98% of the pre-processing time."""
        from repro.gpusim import CostModel

        stats = WorkloadStats.from_descriptor(NYTIMES, 1000, GTX_1080, num_chunks=3)
        alias_config = SaberLDAConfig.paper_defaults(1000, preprocess=PreprocessKind.ALIAS_TABLE)
        tree_config = SaberLDAConfig.paper_defaults(1000, preprocess=PreprocessKind.WARY_TREE)
        model = CostModel(GTX_1080)
        alias_time = model.kernel_time(preprocessing_traffic(stats, alias_config, GTX_1080))
        tree_time = model.kernel_time(preprocessing_traffic(stats, tree_config, GTX_1080))
        assert tree_time.seconds < 0.1 * alias_time.seconds


class TestTransfer:
    def test_transfer_covers_tokens_and_rows(self, measured_stats):
        stats, config, _corpus = measured_stats
        traffic = transfer_traffic(stats, config)
        assert traffic.host_device_bytes > stats.num_tokens * 12

    def test_per_chunk_split_sums_to_total(self, measured_stats):
        stats, config, _corpus = measured_stats
        per_chunk = per_chunk_transfer_bytes(stats, config)
        assert sum(per_chunk) == pytest.approx(transfer_traffic(stats, config).host_device_bytes)


class TestSharedBytesAndProjection:
    def test_shared_bytes_grow_with_topics(self):
        assert sampling_shared_bytes(10_000, 256, 130) > sampling_shared_bytes(1000, 256, 130)

    def test_cost_iteration_has_all_phases(self, measured_stats):
        stats, config, _corpus = measured_stats
        cost = cost_iteration_phases(stats, config)
        assert set(cost.phase_seconds) == {"sampling", "a_update", "preprocessing", "transfer"}
        assert cost.total_seconds > 0

    def test_async_workers_hide_transfer(self):
        stats = WorkloadStats.from_descriptor(NYTIMES, 1000, GTX_1080, num_chunks=6)
        sync_config = SaberLDAConfig.paper_defaults(
            1000, num_chunks=6, asynchronous=False, num_workers=1
        )
        async_config = SaberLDAConfig.paper_defaults(1000, num_chunks=6, num_workers=4)
        sync_cost = cost_iteration_phases(stats, sync_config)
        async_cost = cost_iteration_phases(stats, async_config)
        assert async_cost.phase_seconds["transfer"] < sync_cost.phase_seconds["transfer"]
