"""Fold-in Gibbs inference for unseen documents.

Serving answers "what topics is this new document about?" against a
*frozen* model: the word-topic matrix ``B`` never changes, only the
query document's topic counts do.  The sampler is the ESCA-flavoured
fold-in loop — each sweep resamples every token of the document against
the document counts frozen at the start of the sweep, exactly the
bulk-synchronous semantics of the trainer's E-step — and each token uses
the paper's sparsity-aware decomposition (Alg. 2):

* **Problem 1** (document side) — ``p1(k) ∝ n_dk B̂_vk`` over the
  ``K_d`` non-zero topics of the query document, sampled with the same
  prefix-sum search as training;
* **Problem 2** (prior side) — ``p2(k) ∝ B̂_vk``, answered from a
  per-word pre-processed sampler (:class:`~repro.sampling.alias_table.AliasTable`
  or :class:`~repro.sampling.wary_tree.WaryTree`).  Training rebuilds
  every word's structure each iteration because ``B`` moves; serving's
  ``B`` is frozen, so :class:`WordSamplerBank` builds a word's structure
  the first time a query touches it and keeps the hottest words cached —
  the Zipf head of real query traffic makes the amortised build cost per
  token tiny.

Everything is deterministic given the RNG: tokens are visited in
position order and the draw schedule per token is fixed, so a seeded
fold-in is bit-reproducible — the anchor of the serving golden tests and
of the plain/row-sharded/column-sharded checkpoint equivalence check.

:meth:`FrozenModelState.fold_in` folds a whole micro-batch in one call,
each document with its own generator.  The *vectorized* W-ary execution
(serving's default) runs one pass per sweep over every document of the
batch (:func:`repro.kernels.foldin.fold_in_sweeps`) and answers Problem 2
from the bank's row CDFs, which are bit-identical to each word's tree.
It records the bank touches the per-document loop would make and
replays them, request by request, into the bank's integer LRU
(:meth:`WordSamplerBank.touch`), so the build/hit/eviction counters the
cost model charges evolve exactly as before while no tree is built.  The
*reference* execution (the per-slot loop below) and the alias-table kind
still fold each document in on its own.  Every execution consumes the
same uniforms in the same order and produces identical bits, whatever
the batch holds.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Union

import numpy as np

from ..core.model import LDAModel
from ..kernels.backend import KernelBackend, resolve_backend
from ..kernels.foldin import fold_in_sweeps
from ..sampling.alias_table import AliasTable
from ..sampling.multinomial import sample_sparse_vector
from ..sampling.wary_tree import WaryTree, wary_construction_steps
from ..saberlda.config import PreprocessKind

#: A pre-processed Problem-2 sampler of one word.
WordSampler = Union[AliasTable, WaryTree]


@dataclass
class WordSamplerBank:
    """Lazily built per-word Problem-2 samplers over frozen ``B̂`` rows.

    Attributes
    ----------
    phi:
        The frozen ``V x K`` fold-in matrix (:meth:`LDAModel.fold_in_phi`).
    kind:
        Which pre-processed structure to build per word (the same
        alias-table/W-ary-tree switch the trainer ablates).
    capacity:
        Maximum number of word structures kept resident (LRU eviction) —
        the serving analogue of the shared-memory budget: only the hot
        head of the query vocabulary stays pre-processed.

    The LRU maps word ids to their structures.  A word recorded by
    :meth:`touch` holds ``None`` instead: it is charged and resident
    for the accounting, but its tree is only built if :meth:`sampler`
    asks for it.
    """

    phi: np.ndarray
    kind: PreprocessKind = PreprocessKind.WARY_TREE
    capacity: int = 4096
    builds: int = 0
    hits: int = 0
    evictions: int = 0
    construction_steps: int = 0
    _samplers: "OrderedDict[int, Optional[WordSampler]]" = field(default_factory=OrderedDict)
    #: Reusable uniform buffers (two: the alias table draws a pair of
    #: streams per batch).  Fold-in profiles showed per-call allocation
    #: of the uniform arrays; :meth:`draw` fills these views in place
    #: instead — the drawn values (and the RNG stream) are unchanged.
    _uniform_scratch: list = field(default_factory=list, repr=False)
    #: Lazily built row CDFs of ``phi`` (see :attr:`phi_cdf`).
    _phi_cdf: "np.ndarray | None" = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.capacity < 1:
            raise ValueError("capacity must be >= 1")
        self._uniform_scratch = [np.empty(0, dtype=np.float64) for _ in range(2)]

    @classmethod
    def fresh_replica(
        cls, parent: "WordSamplerBank", share_phi_cdf: bool = False
    ) -> "WordSamplerBank":
        """A cold bank over the parent's frozen ``phi`` (LRU/counters reset).

        The replica's LRU starts empty; a replica that serves the
        vectorized W-ary fold-in fills it through :meth:`touch`, with
        word ids only, never trees.

        With ``share_phi_cdf`` (pass it when the replica will serve the
        vectorized backend), the parent's :attr:`phi_cdf` is built once
        and handed to the replica read-only — ``phi_cdf`` is a pure
        function of the shared ``phi``, so N replicas must never hold N
        copies of the dense ``V x K`` matrix.  The decision is gated
        here on the sampler kind (only the W-ary path samples from it);
        the caller supplies the backend half of the condition.
        """
        replica = cls(phi=parent.phi, kind=parent.kind, capacity=parent.capacity)
        if share_phi_cdf and parent.kind is PreprocessKind.WARY_TREE:
            replica._phi_cdf = parent.phi_cdf
        return replica

    @property
    def phi_cdf(self) -> np.ndarray:
        """Row-wise prefix sums of ``phi``, built once on first use.

        Row ``v`` is bit-identical to the leaf prefix of word ``v``'s
        W-ary tree (both are ``np.cumsum(phi[v])``), so the vectorized
        fold-in can answer every word's Problem-2 draws from this one
        matrix — with exactly the results the per-word trees give —
        while the bank's LRU (:meth:`touch`) keeps the build accounting
        the cost model charges.
        """
        if self._phi_cdf is None:
            self._phi_cdf = np.cumsum(self.phi, axis=1)
        return self._phi_cdf

    def _uniforms(self, count: int, rng: np.random.Generator, slot: int) -> np.ndarray:
        """``count`` uniforms drawn into the preallocated scratch slot.

        The returned view is only valid until the next draw from the
        same slot; callers consume it immediately (``sample_batch``
        returns fresh arrays).
        """
        scratch = self._uniform_scratch[slot]
        if scratch.shape[0] < count:
            capacity = 1 << max(count - 1, 1).bit_length()
            scratch = np.empty(capacity, dtype=np.float64)
            self._uniform_scratch[slot] = scratch
        if count == 0:
            return scratch[:0]
        view = scratch[:count]
        rng.random(out=view)
        return view

    @property
    def resident_words(self) -> int:
        """Number of word structures currently cached."""
        return len(self._samplers)

    def sampler(self, word_id: int) -> WordSampler:
        """The pre-processed sampler of one word, building it on first touch."""
        word_id = int(word_id)
        if word_id in self._samplers:
            self.hits += 1
            self._samplers.move_to_end(word_id)
            cached = self._samplers[word_id]
            if cached is None:
                # Charged when :meth:`touch` recorded it; built on demand.
                cached = self._samplers[word_id] = self._build(word_id)
            return cached
        built = self._build(word_id)
        self.builds += 1
        self.construction_steps += built.construction_steps
        self._samplers[word_id] = built
        if len(self._samplers) > self.capacity:
            self._samplers.popitem(last=False)
            self.evictions += 1
        return built

    def _build(self, word_id: int) -> WordSampler:
        weights = self.phi[word_id]
        if self.kind is PreprocessKind.ALIAS_TABLE:
            return AliasTable.build(weights)
        return WaryTree.build(weights)

    def touch(self, word_ids: np.ndarray) -> None:
        """Replay sampler touches into the LRU as word ids, building nothing.

        Each touch updates the LRU and the counters exactly as
        :meth:`sampler` would: a resident word is a hit and moves to the
        most recent end; a missing word is a build, charged the W-ary
        step count for ``K`` (:func:`wary_construction_steps`), and may
        evict the least recent word.  The vectorized fold-in samples
        from :attr:`phi_cdf`, so it needs the accounting but never the
        tree.  W-ary kind only: an alias table's step count depends on
        its weights.
        """
        if self.kind is not PreprocessKind.WARY_TREE:
            raise ValueError("touch() charges W-ary builds; alias tables must be built")
        samplers, capacity = self._samplers, self.capacity
        move_to_end = samplers.move_to_end
        touches = np.asarray(word_ids, dtype=np.int64).tolist()
        builds = evictions = 0
        for word_id in touches:
            if word_id in samplers:
                move_to_end(word_id)
            else:
                samplers[word_id] = None
                builds += 1
                if len(samplers) > capacity:
                    samplers.popitem(last=False)
                    evictions += 1
        self.hits += len(touches) - builds
        self.builds += builds
        self.evictions += evictions
        self.construction_steps += builds * wary_construction_steps(self.phi.shape[1])

    def draw(
        self,
        word_id: int,
        count: int,
        rng: np.random.Generator,
        backend: KernelBackend = KernelBackend.REFERENCE,
    ) -> np.ndarray:
        """``count`` Problem-2 topic draws for one word (fixed RNG schedule).

        Identical uniforms are consumed in identical order whatever the
        backend; ``vectorized`` only swaps the W-ary tree's per-draw
        descent for the flat batched search (bit-identical results).
        """
        sampler = self.sampler(word_id)
        if isinstance(sampler, AliasTable):
            u1 = self._uniforms(count, rng, 0)
            u2 = self._uniforms(count, rng, 1)
            return sampler.sample_batch(u1, u2)
        uniforms = self._uniforms(count, rng, 0)
        if backend is KernelBackend.VECTORIZED:
            return sampler.sample_batch_vectorized(uniforms)
        return sampler.sample_batch(uniforms)

    def begin_batch(self) -> int:
        """Mark a batch boundary; returns builds so far (pair with :meth:`builds_since`)."""
        return self.builds

    def builds_since(self, mark: int) -> int:
        """Word structures built since ``mark`` — what a batch must be charged for."""
        return self.builds - mark


@dataclass(frozen=True)
class FoldInResult:
    """Inference output for one document.

    Attributes
    ----------
    theta:
        Posterior-mean topic mixture ``(n_k + alpha) / (n + K alpha)``.
    doc_topic_counts:
        Final hard topic counts of the document's tokens.
    topics:
        Final per-token assignments (aligned with the query word ids).
    num_sweeps:
        Gibbs sweeps performed (including the initialisation sweep).
    """

    theta: np.ndarray
    doc_topic_counts: np.ndarray
    topics: np.ndarray
    num_sweeps: int

    @property
    def num_tokens(self) -> int:
        """Length of the query document."""
        return int(len(self.topics))

    def top_topics(self, count: int = 3) -> list:
        """The ``count`` highest-probability topics as ``(topic_id, prob)`` pairs."""
        order = np.argsort(self.theta)[::-1][:count]
        return [(int(k), float(self.theta[k])) for k in order]


def _fold_in_one(
    word_ids: np.ndarray,
    phi: np.ndarray,
    prior_mass: np.ndarray,
    alpha: float,
    bank: WordSamplerBank,
    rng: np.random.Generator,
    num_sweeps: int,
    backend: KernelBackend,
) -> FoldInResult:
    """Fold one document in with the per-document loop.

    Sweep 0 initialises every token from its word's prior-side sampler
    (the document has no counts yet); each later sweep freezes the
    document counts and resamples every token with the two-branch
    decomposition.  Tokens are visited grouped by word in ascending word
    id — the PDOW ordering of a one-document chunk — so the RNG schedule
    is a pure function of the (sorted) query and the generator.
    ``backend`` picks the reference per-slot loop or the vectorized
    per-run one (the alias kind's pair-of-streams draw keeps the runs).
    """
    num_topics = int(phi.shape[1])
    topics = np.empty(len(word_ids), dtype=np.int32)
    counts = np.zeros(num_topics, dtype=np.int64)
    if len(word_ids) == 0:
        theta = np.full(num_topics, 1.0 / num_topics)
        return FoldInResult(theta, counts, topics, num_sweeps)

    # Group token positions into per-word runs once (word-major order).
    order = np.argsort(word_ids, kind="stable")
    sorted_words = word_ids[order]
    boundaries = np.flatnonzero(np.diff(sorted_words)) + 1
    starts = np.concatenate([[0], boundaries])
    stops = np.concatenate([boundaries, [len(word_ids)]])
    runs = [
        (int(sorted_words[start]), order[start:stop])
        for start, stop in zip(starts, stops, strict=True)
    ]

    # Sweep 0: no document counts yet, only Problem 2 has mass.
    for word_id, positions in runs:
        drawn = bank.draw(word_id, len(positions), rng, backend=backend)
        topics[positions] = drawn.astype(np.int32)
        np.add.at(counts, drawn, 1)

    for _ in range(1, num_sweeps):
        frozen = counts  # BSP: every token of the sweep reads these counts
        nz_topics = np.flatnonzero(frozen)
        nz_counts = frozen[nz_topics].astype(np.float64)
        if backend is KernelBackend.VECTORIZED:
            topics = _sweep_vectorized(
                runs, topics, nz_topics, nz_counts, phi, prior_mass, bank, rng
            )
        else:
            topics = _sweep_reference(
                runs, topics, nz_topics, nz_counts, phi, prior_mass, bank, rng
            )
        counts = np.bincount(topics, minlength=num_topics).astype(np.int64)

    totals = len(word_ids) + num_topics * alpha
    theta = (counts + alpha) / totals
    return FoldInResult(theta, counts, topics, num_sweeps)


def _sweep_reference(
    runs: list,
    topics: np.ndarray,
    nz_topics: np.ndarray,
    nz_counts: np.ndarray,
    phi: np.ndarray,
    prior_mass: np.ndarray,
    bank: WordSamplerBank,
    rng: np.random.Generator,
) -> np.ndarray:
    """One BSP fold-in sweep, reference execution (per-slot sampling loop)."""
    new_topics = np.empty_like(topics)
    for word_id, positions in runs:
        run_length = len(positions)
        product = phi[word_id, nz_topics] * nz_counts
        doc_mass = float(product.sum())
        q = float(prior_mass[word_id])
        take_doc = rng.random(run_length) < doc_mass / (doc_mass + q)
        chosen = np.empty(run_length, dtype=np.int64)
        for slot in np.flatnonzero(take_doc):
            chosen[slot] = sample_sparse_vector(nz_topics, product, rng.random())
        prior_slots = np.flatnonzero(~take_doc)
        if len(prior_slots):
            chosen[prior_slots] = bank.draw(word_id, len(prior_slots), rng)
        new_topics[positions] = chosen.astype(np.int32)
    return new_topics


def _sweep_vectorized(
    runs: list,
    topics: np.ndarray,
    nz_topics: np.ndarray,
    nz_counts: np.ndarray,
    phi: np.ndarray,
    prior_mass: np.ndarray,
    bank: WordSamplerBank,
    rng: np.random.Generator,
) -> np.ndarray:
    """One BSP fold-in sweep, vectorized execution.

    The sweep's counts are frozen, so every run shares one set of
    non-zero topics: all ``P = n_d ⊙ B̂_v`` product rows (and their
    prefix sums) are computed in a single stacked gather up front, and
    each run's doc-side slots are resolved with one batched
    ``searchsorted`` against the run's CDF instead of a per-slot Python
    loop.  The run loop itself survives only to keep the RNG consumption
    and sampler-bank touch order identical to the reference.
    """
    run_words = np.fromiter(
        (word_id for word_id, _positions in runs), dtype=np.int64, count=len(runs)
    )
    products = phi[run_words[:, None], nz_topics[None, :]] * nz_counts[None, :]
    doc_masses = products.sum(axis=1)
    cdfs = np.cumsum(products, axis=1)
    width = int(nz_topics.shape[0])

    new_topics = np.empty_like(topics)
    for index, (word_id, positions) in enumerate(runs):
        run_length = len(positions)
        doc_mass = float(doc_masses[index])
        q = float(prior_mass[word_id])
        take_doc = rng.random(run_length) < doc_mass / (doc_mass + q)
        chosen = np.empty(run_length, dtype=np.int64)
        doc_slots = np.flatnonzero(take_doc)
        if len(doc_slots):
            targets = rng.random(len(doc_slots)) * doc_mass
            picks = np.minimum(
                np.searchsorted(cdfs[index], targets, side="left"), width - 1
            )
            chosen[doc_slots] = nz_topics[picks]
        prior_slots = np.flatnonzero(~take_doc)
        if len(prior_slots):
            chosen[prior_slots] = bank.draw(
                word_id, len(prior_slots), rng, backend=KernelBackend.VECTORIZED
            )
        new_topics[positions] = chosen.astype(np.int32)
    return new_topics


@dataclass
class FrozenModelState:
    """Everything the engine pre-computes once per loaded model.

    ``phi`` comes from :meth:`LDAModel.fold_in_phi` (zero-count words
    fall back to the symmetric prior), ``prior_mass`` is ``Q_v`` and the
    bank holds the lazily built per-word samplers.

    ``phi`` (and the bank's ``phi_cdf``) keep their backing — an mmap
    checkpoint's arrays stay ``np.memmap`` — but fold-in indexes plain
    ``ndarray`` views of them, made once here: every index into a
    ``np.memmap`` returns another ``memmap`` and pays the subclass's
    bookkeeping, for the same bytes.
    """

    model: LDAModel
    phi: np.ndarray
    prior_mass: np.ndarray
    bank: WordSamplerBank
    backend: KernelBackend = KernelBackend.VECTORIZED
    _phi_view: np.ndarray = field(init=False, repr=False)
    _prior_mass_view: np.ndarray = field(init=False, repr=False)
    _phi_cdf_view: Optional[np.ndarray] = field(init=False, repr=False, default=None)

    def __post_init__(self) -> None:
        self.backend = resolve_backend(self.backend)
        self._phi_view = self.phi.view(np.ndarray)
        self._prior_mass_view = self.prior_mass.view(np.ndarray)

    @property
    def _replays_touches(self) -> bool:
        """Whether fold-in keeps the bank as an integer LRU (vectorized W-ary)."""
        return (
            self.backend is KernelBackend.VECTORIZED
            and self.bank.kind is PreprocessKind.WARY_TREE
        )

    @classmethod
    def prepare(
        cls,
        model: LDAModel,
        kind: PreprocessKind = PreprocessKind.WARY_TREE,
        sampler_capacity: int = 4096,
        backend: Union[KernelBackend, str] = KernelBackend.VECTORIZED,
    ) -> "FrozenModelState":
        """Freeze a trained model for serving."""
        phi = model.fold_in_phi()
        prior_mass = model.params.alpha * phi.sum(axis=1)
        bank = WordSamplerBank(phi=phi, kind=kind, capacity=sampler_capacity)
        return cls(
            model=model,
            phi=phi,
            prior_mass=prior_mass,
            bank=bank,
            backend=resolve_backend(backend),
        )

    @classmethod
    def from_mmap_checkpoint(
        cls,
        path: str,
        kind: PreprocessKind = PreprocessKind.WARY_TREE,
        sampler_capacity: int = 4096,
        backend: Union[KernelBackend, str] = KernelBackend.VECTORIZED,
        mmap_mode: "str | None" = "r",
    ) -> "FrozenModelState":
        """Open a frozen state over an mmap checkpoint — zero recompute, zero copy.

        The checkpoint (:func:`repro.core.serialization.save_model_mmap`)
        already holds the frozen ``phi``, its row prefix sums and the
        prior mass as raw ``.npy`` members; with the default
        ``mmap_mode="r"`` they are opened as read-only memory maps, so N
        worker processes over the same checkpoint share one physical
        copy of the model through the page cache.  Results are
        bit-identical to :meth:`prepare` on the same model: the stored
        arrays are the same float64 values :meth:`prepare` would
        compute, and the draw schedule never depends on how the arrays
        are backed.
        """
        from ..core.serialization import open_frozen_artifacts

        artifacts = open_frozen_artifacts(path, mmap_mode=mmap_mode)
        if not artifacts.has_serving_artifacts:
            raise ValueError(
                f"mmap checkpoint {path!r} was saved without serving artifacts "
                "(save_model_mmap(..., serving_artifacts=True))"
            )
        bank = WordSamplerBank(
            phi=artifacts.phi, kind=kind, capacity=sampler_capacity
        )
        bank._phi_cdf = artifacts.phi_cdf
        return cls(
            model=artifacts.to_model(),
            phi=artifacts.phi,
            prior_mass=artifacts.prior_mass,
            bank=bank,
            backend=resolve_backend(backend),
        )

    def fold_in(
        self,
        documents: Sequence[Sequence[int]],
        rngs: Sequence[np.random.Generator],
        num_sweeps: int = 15,
    ) -> List[FoldInResult]:
        """Fold a batch of unseen documents in against this frozen state.

        The single fold-in entry point of serving: one call per
        micro-batch, document ``d`` drawing from ``rngs[d]`` only, so
        results never depend on the rest of the batch.  The vectorized
        W-ary execution runs each sweep over the whole batch at once
        (:func:`repro.kernels.foldin.fold_in_sweeps`), samples Problem 2
        from the bank's ``phi_cdf`` and replays the sampler-bank touches
        request by request into the bank's integer LRU
        (:meth:`WordSamplerBank.touch`), so the build counters match a
        per-document fold-in while no tree is built.  The reference
        execution and the alias kind fold each document in on its own
        (:func:`_fold_in_one`).  Every execution consumes the same
        uniforms in the same order, leaves the bank with the same LRU
        order and counters, and produces bit-identical results.
        """
        if num_sweeps < 1:
            raise ValueError("num_sweeps must be >= 1")
        if len(documents) != len(rngs):
            raise ValueError("fold_in needs one generator per document")
        documents = [np.asarray(word_ids, dtype=np.int64) for word_ids in documents]
        vocabulary_size, num_topics = self.phi.shape
        if any(word_ids.size for word_ids in documents):
            every_word = np.concatenate(documents)
            if every_word.min() < 0 or every_word.max() >= vocabulary_size:
                raise ValueError("query word ids must be in [0, vocabulary_size)")
        alpha = self.model.params.alpha
        phi, prior_mass = self._phi_view, self._prior_mass_view
        if not self._replays_touches:
            return [
                _fold_in_one(
                    word_ids, phi, prior_mass, alpha, self.bank, rng, num_sweeps, self.backend
                )
                for word_ids, rng in zip(documents, rngs, strict=True)
            ]

        if self._phi_cdf_view is None:
            self._phi_cdf_view = self.bank.phi_cdf.view(np.ndarray)
        sweeps = fold_in_sweeps(
            documents, phi, self._phi_cdf_view, prior_mass, rngs, num_sweeps
        )
        self.bank.touch(sweeps.touched_words)
        num_docs = len(documents)
        counts = np.zeros((num_docs, num_topics), dtype=np.int64)
        count_docs = np.repeat(np.arange(num_docs), np.diff(sweeps.count_indptr))
        counts[count_docs, sweeps.count_topics] = sweeps.count_values
        lengths = np.diff(sweeps.doc_offsets)
        theta = (counts + alpha) / (lengths + num_topics * alpha)[:, None]
        theta[lengths == 0] = 1.0 / num_topics
        offsets = sweeps.doc_offsets.tolist()
        # Each result owns its arrays: a view would pin the whole batch's.
        return [
            FoldInResult(
                theta[d].copy(),
                counts[d].copy(),
                sweeps.topics[offsets[d] : offsets[d + 1]].copy(),
                num_sweeps,
            )
            for d in range(num_docs)
        ]

    def touch_samplers(self, word_ids: Sequence[int]) -> None:
        """Touch the samplers of ``word_ids`` in order, as fold-in would.

        An integer-LRU replay on the vectorized W-ary path (no tree is
        built), the bank's own sampler builds otherwise.
        """
        if self._replays_touches:
            self.bank.touch(np.asarray(word_ids, dtype=np.int64))
            return
        for word_id in np.asarray(word_ids, dtype=np.int64).tolist():
            self.bank.sampler(word_id)


def request_rng(seed: int, request_id: int) -> np.random.Generator:
    """The per-request deterministic RNG.

    Keyed by ``(seed, request_id)`` only — *not* by batch composition —
    so a request's inferred topics are identical whatever batch the
    scheduler packed it into, and identical across checkpoint layouts of
    the same model.
    """
    return np.random.default_rng(np.random.SeedSequence([int(seed), int(request_id)]))


def fold_in_proximity(result: FoldInResult, reference_counts: np.ndarray, alpha: float) -> float:
    """L1 distance between a fold-in theta and a reference count vector's theta.

    Used by the property tests: folding a *training* document back in
    against its own model should land near the document's training-time
    topic mixture (far nearer than the uniform mixture).
    """
    reference = np.asarray(reference_counts, dtype=np.float64)
    ref_theta = (reference + alpha) / (reference.sum() + len(reference) * alpha)
    return float(np.abs(result.theta - ref_theta).sum())
