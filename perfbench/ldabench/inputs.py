"""Seeded inputs of every workload, owned by the benchmark.

Everything here depends on NumPy alone, never on the program under test:
a later change to the program's own corpus generator must not shift the
benchmark's inputs.  Every draw comes from one ``numpy.random.Generator``
keyed by ``(seed, stream)``, so the same seed gives the same inputs
byte for byte and each input family has its own independent stream.

Words are drawn per topic with ``searchsorted`` over the topic's CDF,
which needs O(V·K_gen + N) memory; the dense "token x vocabulary"
comparison the program's generator uses would need O(N·V).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import List

import numpy as np

#: Exponent of the Zipfian word-frequency base measure.
ZIPF_EXPONENT = 1.05

# Independent RNG streams, one per input family.
_STREAM_TRAIN = 1
_STREAM_MODEL = 2
_STREAM_QUERIES = 3
_STREAM_ARRIVALS = 4


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([int(seed), stream]))


def zipf_probabilities(vocabulary_size: int, exponent: float = ZIPF_EXPONENT) -> np.ndarray:
    """Zipfian probabilities over word ranks ``1..V``."""
    weights = 1.0 / np.arange(1, vocabulary_size + 1, dtype=np.float64) ** exponent
    return weights / weights.sum()


def _topic_word(rng: np.random.Generator, num_topics: int, vocabulary_size: int) -> np.ndarray:
    """Topic-word distributions with a Zipfian Dirichlet base measure."""
    base = zipf_probabilities(vocabulary_size) * vocabulary_size * 0.05 + 1e-3
    return rng.dirichlet(base, size=num_topics)


def _draw_per_row(
    rng: np.random.Generator, cdfs: np.ndarray, rows: np.ndarray
) -> np.ndarray:
    """For each entry of ``rows`` draw an index from ``cdfs[row]`` (inverse CDF).

    Groups the draws by row and runs one ``searchsorted`` per distinct
    row; ``side="left"`` picks the first index whose CDF reaches ``u``.
    """
    uniforms = rng.random(len(rows))
    drawn = np.empty(len(rows), dtype=np.int32)
    order = np.argsort(rows, kind="stable")
    starts = np.flatnonzero(np.r_[True, np.diff(rows[order]) != 0])
    ends = np.r_[starts[1:], len(rows)]
    last = cdfs.shape[1] - 1
    for start, end in zip(starts, ends, strict=True):
        picked = order[start:end]
        row = rows[picked[0]]
        drawn[picked] = np.minimum(
            np.searchsorted(cdfs[row], uniforms[picked], side="left"), last
        )
    return drawn


@dataclass(frozen=True)
class TrainCorpus:
    """Token arrays of one training workload (topics left unassigned)."""

    doc_ids: np.ndarray
    word_ids: np.ndarray
    num_documents: int
    vocabulary_size: int

    @property
    def num_tokens(self) -> int:
        return int(len(self.word_ids))

    def document_lengths(self) -> np.ndarray:
        return np.bincount(self.doc_ids, minlength=self.num_documents)

    def digest(self) -> str:
        hasher = hashlib.sha256()
        hasher.update(self.doc_ids.tobytes())
        hasher.update(self.word_ids.tobytes())
        return hasher.hexdigest()


def train_corpus(
    seed: int,
    num_documents: int,
    vocabulary_size: int,
    mean_length: float,
    generating_topics: int,
) -> TrainCorpus:
    """Draw a corpus from the LDA generative model.

    Document mixtures use ``alpha = min(0.2, 50 / K_gen)`` so documents
    concentrate on a few topics; lengths are Poisson, at least one token.
    """
    rng = _rng(seed, _STREAM_TRAIN)
    topic_word = _topic_word(rng, generating_topics, vocabulary_size)
    alpha = min(0.2, 50.0 / generating_topics)
    doc_topic = rng.dirichlet(np.full(generating_topics, alpha), size=num_documents)
    lengths = np.maximum(rng.poisson(mean_length, size=num_documents), 1)
    doc_ids = np.repeat(np.arange(num_documents, dtype=np.int32), lengths)
    topics = _draw_per_row(rng, np.cumsum(doc_topic, axis=1), doc_ids)
    word_ids = _draw_per_row(rng, np.cumsum(topic_word, axis=1), topics)
    return TrainCorpus(
        doc_ids=doc_ids,
        word_ids=word_ids,
        num_documents=num_documents,
        vocabulary_size=vocabulary_size,
    )


def model_counts(
    seed: int, vocabulary_size: int, num_topics: int, tokens_per_topic: int
) -> np.ndarray:
    """A ``V x K`` int64 word-topic count matrix shaped like a trained model's.

    Each topic's column is a multinomial sample of ``tokens_per_topic``
    words from a Zipf-based Dirichlet topic, so columns are sparse and
    word frequencies heavy-tailed.
    """
    rng = _rng(seed, _STREAM_MODEL)
    topic_word = _topic_word(rng, num_topics, vocabulary_size)
    counts = np.empty((vocabulary_size, num_topics), dtype=np.int64)
    for topic in range(num_topics):
        counts[:, topic] = rng.multinomial(tokens_per_topic, topic_word[topic])
    return counts


def zipf_queries(
    seed: int, count: int, vocabulary_size: int, mean_length: float
) -> List[np.ndarray]:
    """``count`` distinct Zipfian query documents (int32 word ids)."""
    rng = _rng(seed, _STREAM_QUERIES)
    cdf = np.cumsum(zipf_probabilities(vocabulary_size))
    lengths = np.maximum(rng.poisson(mean_length, size=count), 1)
    words = np.minimum(
        np.searchsorted(cdf, rng.random(int(lengths.sum())), side="left"),
        vocabulary_size - 1,
    ).astype(np.int32)
    queries = np.split(words, np.cumsum(lengths)[:-1])
    seen = {query.tobytes() for query in queries}
    if len(seen) != count:
        raise ValueError("query generator produced a duplicate document")
    return queries


def poisson_schedule(seed: int, rate_qps: float, count: int) -> np.ndarray:
    """Open-loop arrival times (seconds): exponential gaps at ``rate_qps``."""
    rng = _rng(seed, _STREAM_ARRIVALS)
    return np.cumsum(rng.exponential(1.0 / rate_qps, size=count))
