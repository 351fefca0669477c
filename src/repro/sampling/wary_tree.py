"""W-ary sampling tree (Sec. 3.2.4) — CPU reference implementation.

The W-ary tree is the paper's replacement for the alias table: a
prefix-sum tree with branching factor ``W`` (the warp width, 32).  Every
level can be built by a full warp in parallel — construction takes
``O(K / W)`` warp steps instead of the alias table's ``O(K)`` sequential
steps — and a sample descends the tree in ``O(log_W K)`` levels, checking
one ``W``-wide cache line per level with a warp vote.

This module is the *functional* reference used by the samplers and the
tests; the lane-exact warp construction/query lives in
``repro.saberlda.tree_builder`` on top of the GPU simulator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from .multinomial import prefix_sum_search


@dataclass
class WaryTree:
    """A W-ary prefix-sum tree over ``K`` non-negative weights.

    Attributes
    ----------
    branching:
        ``W`` — the branching factor (32 on a GPU warp).
    levels:
        ``levels[0]`` is the root level (length <= W) and
        ``levels[-1]`` is the full prefix-sum array of the weights, each
        level padded to a multiple of ``branching``.
    num_outcomes:
        ``K`` — the number of valid leaf outcomes.
    construction_steps:
        Number of W-wide warp steps the construction needs (``ceil(K/W)``
        plus the upper levels) — consumed by the GPU cost model.
    """

    branching: int
    levels: List[np.ndarray]
    num_outcomes: int
    construction_steps: int

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    @classmethod
    def build(cls, weights: np.ndarray, branching: int = 32) -> "WaryTree":
        """Build the tree bottom-up from a weight vector."""
        weights = np.asarray(weights, dtype=np.float64)
        if len(weights) == 0:
            raise ValueError("weights must be non-empty")
        if (weights < 0).any():
            raise ValueError("weights must be non-negative")
        if branching < 2:
            raise ValueError("branching must be >= 2")

        num_outcomes = len(weights)
        prefix = np.cumsum(weights)
        total = float(prefix[-1])

        # Pad each level to a multiple of the branching factor with the level's
        # running total so padded slots never win a vote for x <= total.
        levels: List[np.ndarray] = []
        current = _pad_to_multiple(prefix, branching, total)
        levels.append(current)
        while len(current) > branching:
            upper = current[branching - 1 :: branching]
            current = _pad_to_multiple(upper, branching, total)
            levels.append(current)
        levels.reverse()

        return cls(
            branching=branching,
            levels=levels,
            num_outcomes=num_outcomes,
            construction_steps=wary_construction_steps(num_outcomes, branching),
        )

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    @property
    def num_levels(self) -> int:
        """Number of stored levels (excluding the implicit root scalar)."""
        return len(self.levels)

    def total(self) -> float:
        """Sum of all weights (root value)."""
        return float(self.levels[-1][self.num_outcomes - 1])

    def sample(self, u: float) -> int:
        """Sample an outcome for a uniform ``u`` in ``[0, 1)``.

        Descends level by level: at each level only the ``W`` children of
        the node selected at the previous level are examined, mirroring the
        warp-vote descent of Fig. 6.
        """
        target = u * self.total()
        offset = 0
        for level in self.levels:
            group = level[offset : offset + self.branching]
            child = prefix_sum_search(group, target)
            offset = (offset + child) * self.branching
        leaf_index = offset // self.branching
        return min(leaf_index, self.num_outcomes - 1)

    def sample_batch(self, u: np.ndarray) -> np.ndarray:
        """Sample once per entry of ``u`` (simple loop over :meth:`sample`)."""
        return np.array([self.sample(float(x)) for x in np.asarray(u)], dtype=np.int64)

    def sample_batch_vectorized(self, u: np.ndarray) -> np.ndarray:
        """Batched sampling: one ``searchsorted`` over the full leaf prefix.

        Bit-identical to :meth:`sample_batch`: the level-by-level descent
        of :meth:`sample` selects, at every level, the first group entry
        ``>= target`` — which composes to the first *leaf* prefix entry
        ``>= target`` (every earlier W-block's end, and hence every leaf
        in it, is ``< target``), exactly the flat left-search below.
        Padding slots hold running totals and real slots precede them,
        so ties resolve to the same leaf; the final clamp mirrors
        ``prefix_sum_search``'s round-off guard.  The equivalence is
        pinned by the backend property suite.
        """
        prefix = self.levels[-1][: self.num_outcomes]
        targets = np.asarray(u, dtype=np.float64) * self.total()
        indices = np.searchsorted(prefix, targets, side="left")
        return np.minimum(indices, self.num_outcomes - 1).astype(np.int64)

    def leaf_probabilities(self) -> np.ndarray:
        """Recover the normalised leaf distribution (for testing)."""
        prefix = self.levels[-1][: self.num_outcomes]
        weights = np.diff(np.concatenate([[0.0], prefix]))
        return weights / weights.sum()

    def memory_floats(self) -> int:
        """Number of floats the tree stores — used by the shared-memory budget model."""
        return int(sum(len(level) for level in self.levels))


def _pad_to_multiple(values: np.ndarray, multiple: int, fill: float) -> np.ndarray:
    """Pad a 1-D array to a multiple of ``multiple`` with ``fill``."""
    remainder = len(values) % multiple
    if remainder == 0:
        return values.astype(np.float64, copy=True)
    pad = multiple - remainder
    return np.concatenate([values, np.full(pad, fill)]).astype(np.float64)


def wary_construction_steps(num_outcomes: int, branching: int = 32) -> int:
    """W-wide warp steps to build a tree over ``num_outcomes`` weights.

    ``ceil(K / W)`` steps for the leaf prefix level plus one step per
    ``W`` entries of every upper level — a function of ``K`` and ``W``
    only, so a build can be charged without building the tree.
    """
    groups = -(-num_outcomes // branching)
    steps = groups
    while groups > 1:
        groups = -(-groups // branching)
        steps += groups
    return steps
