"""Shared infrastructure for the baseline LDA systems the paper compares against.

Every baseline implements the small :class:`BaselineTrainer` interface:
``fit`` runs the real algorithm on a (replica) corpus and records the
training log-likelihood per iteration, and ``iteration_seconds`` costs a
single iteration of the system on a workload (replica-scale or
full-scale), so the convergence harness can place the measured likelihood
trajectory on a simulated time axis — exactly how Figs. 11 and 12 are
reproduced.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from ..core.count_matrices import SparseDocTopicMatrix, count_by_word_topic
from ..core.hyperparams import LDAHyperParams
from ..core.likelihood import training_log_likelihood
from ..core.model import LDAModel
from ..core.tokens import TokenList
from ..saberlda.costing import WorkloadStats


class GpuOutOfMemoryError(RuntimeError):
    """Raised when a (simulated) working set exceeds the device memory.

    The paper reports that BIDMach fails with an out-of-memory error at
    5,000 topics on NYTimes because its document-topic matrix is dense;
    this exception reproduces that failure mode.
    """


@dataclass
class BaselineHistory:
    """Per-iteration log-likelihood trajectory of a baseline run."""

    system: str
    log_likelihood_per_token: List[float] = field(default_factory=list)

    def record(self, value: float) -> None:
        """Append one iteration's per-token log-likelihood."""
        self.log_likelihood_per_token.append(value)

    def final(self) -> Optional[float]:
        """Last recorded value, or ``None`` when empty."""
        return self.log_likelihood_per_token[-1] if self.log_likelihood_per_token else None

    def iterations_to_reach(self, threshold: float) -> Optional[int]:
        """First iteration (1-based) whose likelihood reaches ``threshold``, if any."""
        for index, value in enumerate(self.log_likelihood_per_token, start=1):
            if value >= threshold:
                return index
        return None


@dataclass
class BaselineResult:
    """Output of a baseline run: the model, the trajectory and bookkeeping."""

    model: LDAModel
    history: BaselineHistory
    num_tokens: int
    wall_seconds: float

    def convergence_curve(self, seconds_per_iteration: float) -> List[Tuple[float, float]]:
        """``(cumulative seconds, log-likelihood)`` pairs for a given per-iteration cost."""
        return [
            (seconds_per_iteration * (index + 1), value)
            for index, value in enumerate(self.history.log_likelihood_per_token)
        ]


class BaselineTrainer(abc.ABC):
    """Interface shared by all baseline systems."""

    #: Human-readable system name, as used in Fig. 11's legend.
    system_name: str = "baseline"

    def __init__(self, params: LDAHyperParams, num_iterations: int = 50, seed: int = 0) -> None:
        self.params = params
        self.num_iterations = num_iterations
        self.seed = seed

    # ------------------------------------------------------------------ #
    # Algorithm execution
    # ------------------------------------------------------------------ #
    @abc.abstractmethod
    def fit(
        self, tokens: TokenList, num_documents: int, vocabulary_size: int
    ) -> BaselineResult:
        """Run the real algorithm on the corpus and record the likelihood trajectory."""

    # ------------------------------------------------------------------ #
    # Cost model
    # ------------------------------------------------------------------ #
    @abc.abstractmethod
    def iteration_seconds(self, stats: WorkloadStats) -> float:
        """Simulated seconds one iteration takes on this system for the given workload."""

    # ------------------------------------------------------------------ #
    # Shared helpers
    # ------------------------------------------------------------------ #
    def _evaluate(
        self,
        tokens: TokenList,
        num_documents: int,
        vocabulary_size: int,
    ) -> float:
        """Training log-likelihood per token under the current assignments."""
        doc_topic = SparseDocTopicMatrix.from_tokens(
            tokens, num_documents, self.params.num_topics
        )
        word_topic = count_by_word_topic(tokens, vocabulary_size, self.params.num_topics)
        return training_log_likelihood(tokens, doc_topic, word_topic, self.params).per_token

    def _build_model(
        self, tokens: TokenList, vocabulary_size: int, extra_metadata: Optional[dict] = None
    ) -> LDAModel:
        word_topic = count_by_word_topic(tokens, vocabulary_size, self.params.num_topics)
        metadata = {"system": self.system_name, "num_iterations": self.num_iterations}
        if extra_metadata:
            metadata.update(extra_metadata)
        return LDAModel(word_topic_counts=word_topic, params=self.params, metadata=metadata)

    def _initial_topics(self, tokens: TokenList, rng: np.random.Generator) -> TokenList:
        working = tokens.copy()
        if (working.topics < 0).any():
            working.randomize_topics(self.params.num_topics, rng)
        return working
