"""Synthetic corpus generation.

Two generators are provided:

* :func:`generate_lda_corpus` draws documents from the LDA generative
  model itself (ground-truth topics exist), which gives convergence
  curves with the same character as real corpora and lets tests check
  topic recovery;
* :func:`generate_zipf_corpus` draws tokens from a plain Zipf
  word-frequency model (no topic structure), used for throughput and
  load-balancing experiments where only the corpus *shape* matters.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ..core.hyperparams import LDAHyperParams
from ..core.tokens import TokenList
from .vocabulary import Vocabulary
from .zipf import ZipfModel


@dataclass
class SyntheticCorpus:
    """A generated corpus with optional ground-truth topic structure.

    Attributes
    ----------
    tokens:
        The token list (topics are the ground-truth assignments when the
        corpus came from the LDA generative model, otherwise ``-1``).
    num_documents / vocabulary_size:
        Corpus dimensions ``D`` and ``V`` (fixed at generation time even
        if some documents or words ended up empty).
    true_topic_word:
        ``K_true x V`` ground-truth topic-word distributions, or ``None``.
    true_doc_topic:
        ``D x K_true`` ground-truth document mixtures, or ``None``.
    vocabulary:
        Synthetic vocabulary with human-readable names.
    """

    tokens: TokenList
    num_documents: int
    vocabulary_size: int
    true_topic_word: Optional[np.ndarray] = None
    true_doc_topic: Optional[np.ndarray] = None
    vocabulary: Vocabulary = field(default_factory=Vocabulary)

    @property
    def num_tokens(self) -> int:
        """``T``."""
        return self.tokens.num_tokens

    @property
    def tokens_per_document(self) -> float:
        """Average document length ``T / D``."""
        if self.num_documents == 0:
            return 0.0
        return self.num_tokens / self.num_documents

    def unassigned_copy(self) -> TokenList:
        """Token list copy with all topic assignments cleared (set to -1)."""
        copy = self.tokens.copy()
        copy.topics = np.full(copy.num_tokens, -1, dtype=np.int32)
        return copy

    def summary(self) -> str:
        """One-line human-readable description."""
        return (
            f"SyntheticCorpus(D={self.num_documents}, T={self.num_tokens}, "
            f"V={self.vocabulary_size}, T/D={self.tokens_per_document:.1f})"
        )


def _document_lengths(
    num_documents: int, mean_length: float, rng: np.random.Generator
) -> np.ndarray:
    """Draw per-document token counts (log-normal, at least 2 tokens each)."""
    sigma = 0.6
    mu = np.log(max(mean_length, 2.0)) - sigma**2 / 2
    lengths = np.exp(rng.normal(mu, sigma, size=num_documents))
    return np.maximum(lengths.round().astype(np.int64), 2)


def generate_lda_corpus(
    num_documents: int,
    vocabulary_size: int,
    num_topics: int,
    mean_document_length: float,
    seed: int = 0,
    params: Optional[LDAHyperParams] = None,
    zipf_exponent: float = 1.05,
) -> SyntheticCorpus:
    """Draw a corpus from the LDA generative model.

    Topic-word distributions are drawn from a Dirichlet whose base measure
    is Zipfian, so the marginal term frequencies are heavy-tailed like real
    text.  Document mixtures are drawn from ``Dirichlet(alpha)``, which
    keeps the per-document topic support sparse — the property SaberLDA's
    O(K_d) sampler exploits.  When ``params`` is omitted the *generation*
    prior uses a small alpha (at most 0.2) regardless of K, because real
    documents concentrate on a few topics; ``50/K`` is a *training* prior
    and would generate unrealistically diffuse documents for small K.

    Both inverse-CDF draws search one CDF row per group of tokens
    (``searchsorted(side="left")`` counts the entries strictly below each
    uniform, as a dense ``u > cdf`` comparison would), so generation never
    builds a tokens-by-``K`` or tokens-by-``V`` array.
    """
    if params is None:
        params = LDAHyperParams(
            num_topics=num_topics, alpha=min(0.2, 50.0 / num_topics), beta=0.01
        )
    rng = np.random.default_rng(seed)

    zipf_base = ZipfModel(vocabulary_size, exponent=zipf_exponent).probabilities()
    topic_word = rng.dirichlet(zipf_base * vocabulary_size * 0.05 + 1e-3, size=num_topics)
    doc_topic = rng.dirichlet(np.full(num_topics, params.alpha), size=num_documents)

    lengths = _document_lengths(num_documents, mean_document_length, rng)
    total_tokens = int(lengths.sum())

    doc_ids = np.repeat(np.arange(num_documents, dtype=np.int32), lengths)
    # Sample topic per token from its document mixture via inverse CDF.
    doc_cdf = np.cumsum(doc_topic, axis=1)
    u = rng.random(total_tokens)
    doc_starts = np.concatenate(([0], np.cumsum(lengths)))
    topics = np.empty(total_tokens, dtype=np.int32)
    for d in range(num_documents):
        lo, hi = doc_starts[d], doc_starts[d + 1]
        topics[lo:hi] = np.searchsorted(doc_cdf[d], u[lo:hi], side="left")
    topics = np.minimum(topics, num_topics - 1)
    # Sample word per token from its topic distribution via inverse CDF.
    word_cdf = np.cumsum(topic_word, axis=1)
    u = rng.random(total_tokens)
    by_topic = np.argsort(topics, kind="stable")
    topic_starts = np.searchsorted(topics[by_topic], np.arange(num_topics + 1))
    word_ids = np.empty(total_tokens, dtype=np.int32)
    for k in range(num_topics):
        positions = by_topic[topic_starts[k] : topic_starts[k + 1]]
        word_ids[positions] = np.searchsorted(word_cdf[k], u[positions], side="left")
    word_ids = np.minimum(word_ids, vocabulary_size - 1)

    tokens = TokenList(doc_ids, word_ids, topics)
    return SyntheticCorpus(
        tokens=tokens,
        num_documents=num_documents,
        vocabulary_size=vocabulary_size,
        true_topic_word=topic_word,
        true_doc_topic=doc_topic,
        vocabulary=Vocabulary.synthetic(vocabulary_size),
    )


def generate_zipf_corpus(
    num_documents: int,
    vocabulary_size: int,
    mean_document_length: float,
    seed: int = 0,
    zipf_exponent: float = 1.05,
) -> SyntheticCorpus:
    """Draw a corpus with Zipfian word frequencies and no topic structure."""
    rng = np.random.default_rng(seed)
    lengths = _document_lengths(num_documents, mean_document_length, rng)
    total_tokens = int(lengths.sum())
    doc_ids = np.repeat(np.arange(num_documents, dtype=np.int32), lengths)
    word_ids = ZipfModel(vocabulary_size, exponent=zipf_exponent).sample_word_ids(
        total_tokens, rng
    )
    tokens = TokenList.from_pairs(doc_ids, word_ids)
    return SyntheticCorpus(
        tokens=tokens,
        num_documents=num_documents,
        vocabulary_size=vocabulary_size,
        vocabulary=Vocabulary.synthetic(vocabulary_size),
    )
