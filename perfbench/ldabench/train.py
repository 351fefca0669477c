"""The ``train-tokens`` and ``train-topics`` workloads.

A measured run fits the same seeded corpus repeatedly with a fresh
:class:`~repro.saberlda.SaberLDATrainer` until ``--seconds`` have
passed, checks every fit, and reports medians.  A traced run alternates
untraced and traced fits; the traced ones run with wrappers around the
trainer module's globals (see :data:`TRAINER_LAYERS`).
"""

from __future__ import annotations

import math
import os
import subprocess
import sys
import time
import tracemalloc
from contextlib import contextmanager
from typing import Dict, List

import numpy as np

import repro.saberlda.trainer as trainer_module
from repro.core import LDAHyperParams, TokenList, word_topic_digest
from repro.saberlda import SaberLDAConfig, SaberLDATrainer
from repro.telemetry import Tracer, WallClock, write_chrome_trace

from .inputs import TrainCorpus, train_corpus
from .layers import LayerProbe, LayerTraceError, layer_rows
from .measure import median, own_peak_rss_mb
from .report import RunResult
from .spec import SERVE_LAYER_METRICS, TrainSpec

#: layer -> span names charged to it.  Every span name is a global of
#: ``repro.saberlda.trainer`` (``Class.method`` for its classmethods).
TRAINER_LAYERS: Dict[str, List[str]] = {
    "estep": ["esca_estep"],
    "likelihood": ["sparse_training_likelihood", "training_log_likelihood"],
    "word_side": ["WordSide.prepare"],
    "count_b": ["count_by_word_topic"],
    "layout": ["build_layout", "gather_layout_tokens"],
    "rebuild_a": ["rebuild_doc_topic"],
    "costing": ["WorkloadStats.measure", "cost_iteration_phases"],
}

_SETUP_CODE = """
import time
started = time.perf_counter()
from repro.core import LDAHyperParams
from repro.saberlda import SaberLDAConfig, SaberLDATrainer
SaberLDATrainer(SaberLDAConfig(params=LDAHyperParams.paper_defaults({num_topics}),
    num_chunks={num_chunks}, num_iterations={num_iterations},
    evaluate_every={evaluate_every}, seed={seed}))
print(time.perf_counter() - started)
"""

SETUP_REPEATS = 5


def setup_seconds(spec: TrainSpec, seed: int, src_dir: str) -> List[float]:
    """Package import plus trainer construction, each in a fresh interpreter."""
    code = _SETUP_CODE.format(
        num_topics=spec.num_topics,
        num_chunks=spec.num_chunks,
        num_iterations=spec.num_iterations,
        evaluate_every=spec.evaluate_every,
        seed=seed,
    )
    env = dict(os.environ, PYTHONPATH=src_dir)
    samples = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, "-c", code],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return samples


def make_config(spec: TrainSpec, seed: int) -> SaberLDAConfig:
    return SaberLDAConfig(
        params=LDAHyperParams.paper_defaults(spec.num_topics),
        num_chunks=spec.num_chunks,
        num_iterations=spec.num_iterations,
        evaluate_every=spec.evaluate_every,
        seed=seed,
    )


def log_likelihood_per_token(
    corpus: TrainCorpus, doc_topic: np.ndarray, word_topic: np.ndarray, params
) -> float:
    """Training log-likelihood per token, computed by the benchmark itself.

    ``p(w | d) = sum_k theta_dk * phi_wk`` with the smoothed estimators
    of Eq. (2); tokens go in chunks so no N x K array is ever built.
    """
    doc_topic = np.asarray(doc_topic, dtype=np.float64)
    word_topic = np.asarray(word_topic, dtype=np.float64)
    num_topics = word_topic.shape[1]
    theta = (doc_topic + params.alpha) / (
        doc_topic.sum(axis=1, keepdims=True) + num_topics * params.alpha
    )
    phi = (word_topic + params.beta) / (
        word_topic.sum(axis=0) + word_topic.shape[0] * params.beta
    )
    chunk = max(1, (1 << 20) // num_topics)
    total = 0.0
    for start in range(0, corpus.num_tokens, chunk):
        docs = corpus.doc_ids[start : start + chunk]
        words = corpus.word_ids[start : start + chunk]
        total += float(np.log(np.einsum("tk,tk->t", theta[docs], phi[words])).sum())
    return total / corpus.num_tokens


def random_assignment_ll(corpus: TrainCorpus, spec: TrainSpec, seed: int, params) -> float:
    """Log-likelihood per token of a uniformly random topic assignment."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 99]))
    topics = rng.integers(0, spec.num_topics, size=corpus.num_tokens)
    doc_topic = np.bincount(
        corpus.doc_ids.astype(np.int64) * spec.num_topics + topics,
        minlength=corpus.num_documents * spec.num_topics,
    ).reshape(corpus.num_documents, spec.num_topics)
    word_topic = np.bincount(
        corpus.word_ids.astype(np.int64) * spec.num_topics + topics,
        minlength=corpus.vocabulary_size * spec.num_topics,
    ).reshape(corpus.vocabulary_size, spec.num_topics)
    return log_likelihood_per_token(corpus, doc_topic, word_topic, params)


class FitChecker:
    """Output checks of one seed's fits; each returns the failures it found."""

    def __init__(self, corpus: TrainCorpus, spec: TrainSpec, seed: int) -> None:
        self.corpus = corpus
        self.spec = spec
        self.params = make_config(spec, seed).params
        self.lengths = corpus.document_lengths()
        self.baseline_ll = random_assignment_ll(corpus, spec, seed, self.params)
        self.digest = None
        self.final_ll = None

    def check(self, result) -> List[str]:
        failures = []
        counts = result.model.word_topic_counts
        digest = word_topic_digest(counts)
        if self.digest is None:
            self.digest = digest
        elif digest != self.digest:
            failures.append("word_topic_digest differs between fits of one seed")
        if int(counts.sum()) != self.corpus.num_tokens:
            failures.append(f"sum(B) = {int(counts.sum())} != N = {self.corpus.num_tokens}")
        doc_topic = result.doc_topic
        cumulative = np.concatenate([[0], np.cumsum(doc_topic.values, dtype=np.int64)])
        row_sums = cumulative[doc_topic.indptr[1:]] - cumulative[doc_topic.indptr[:-1]]
        if not np.array_equal(row_sums, self.lengths):
            failures.append("row sums of A differ from the document lengths")
        final = result.final_log_likelihood()
        history = [r.log_likelihood_per_token for r in result.history]
        if final is None or not math.isfinite(final):
            failures.append(f"final log-likelihood {final} is not finite")
            return failures
        if final <= self.baseline_ll:
            failures.append(
                f"final LL {final:.6f} <= random-assignment LL {self.baseline_ll:.6f}"
            )
        if len(history) > 1 and history[0] is not None and final <= history[0]:
            failures.append(f"final LL {final:.6f} <= iteration-1 LL {history[0]:.6f}")
        if self.final_ll is None:
            recomputed = log_likelihood_per_token(
                self.corpus, doc_topic.to_dense(), counts, self.params
            )
            if abs(recomputed - final) > 1e-9 * abs(final):
                failures.append(f"trainer LL {final!r} != recomputed LL {recomputed!r}")
            self.final_ll = final
        elif final != self.final_ll:
            failures.append("final LL differs between fits of one seed")
        return failures


def _fit(spec: TrainSpec, corpus: TrainCorpus, seed: int):
    tokens = TokenList(
        corpus.doc_ids, corpus.word_ids, np.full(corpus.num_tokens, -1, dtype=np.int32)
    )
    trainer = SaberLDATrainer(make_config(spec, seed))
    started = time.perf_counter()
    result = trainer.fit(tokens, corpus.num_documents, corpus.vocabulary_size)
    return result, time.perf_counter() - started


def warm_up(spec: TrainSpec, corpus: TrainCorpus, seed: int):
    """One untimed, checked fit.

    The first fit of a process pays one-off costs (first calls into
    NumPy, the allocator growing its arenas) that later fits do not.
    """
    return _fit(spec, corpus, seed)[0]


def run_measured(
    name: str, spec: TrainSpec, seed: int, seconds: float, src_dir: str
) -> RunResult:
    setup = setup_seconds(spec, seed, src_dir)
    corpus = _corpus(spec, seed)
    checker = FitChecker(corpus, spec, seed)
    notes = checker.check(warm_up(spec, corpus, seed))
    failed = 1 if notes else 0
    fit_seconds: List[float] = []
    began = time.perf_counter()
    while len(fit_seconds) < 2 or time.perf_counter() - began < seconds:
        result, elapsed = _fit(spec, corpus, seed)
        fit_seconds.append(elapsed)
        failures = checker.check(result)
        if failures:
            failed += 1
            notes.extend(failures)
        del result  # free the model before the next fit allocates its own
    work = corpus.num_tokens * spec.num_iterations
    final_ll = checker.final_ll if checker.final_ll is not None else float("nan")
    run = RunResult(workload=name, attempted=len(fit_seconds) + 1, failed=failed, notes=notes)
    run.add("throughput_per_s", median([work / s for s in fit_seconds]), len(fit_seconds))
    run.add("latency_p50_ms", median(fit_seconds) * 1e3, len(fit_seconds))
    run.add("peak_rss_mb", own_peak_rss_mb(), 1)
    run.add("neg_ll_per_token", -final_ll, 1)
    run.add("setup_s", median(setup), len(setup))
    run.info.update(tokens=corpus.num_tokens, fit_seconds=fit_seconds, setup_seconds=setup)
    return run


def _corpus(spec: TrainSpec, seed: int) -> TrainCorpus:
    return train_corpus(
        seed,
        spec.num_documents,
        spec.vocabulary_size,
        spec.mean_length,
        spec.generating_topics,
    )


class _PeakWindow:
    """tracemalloc peak (bytes) of each window it opens."""

    def __init__(self) -> None:
        self.peaks: List[int] = []

    @contextmanager
    def __call__(self):
        tracemalloc.start()
        try:
            yield
        finally:
            self.peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()


def install_trainer_probe(probe: LayerProbe, peak: _PeakWindow) -> None:
    """Wrap ``SaberLDATrainer.fit`` and every layer global of the trainer module."""
    probe.wrap(SaberLDATrainer, "fit", "fit")
    for names in TRAINER_LAYERS.values():
        for name in names:
            owner_name, dot, method = name.partition(".")
            if dot:
                owner = vars(trainer_module).get(owner_name)
                if owner is None:
                    raise LayerTraceError(f"cannot trace {name}: no global {owner_name}")
            else:
                owner, method = trainer_module, name
            around = peak if name == "sparse_training_likelihood" else None
            probe.wrap(owner, method, name, around=around)


def _traced_fit(spec: TrainSpec, corpus: TrainCorpus, seed: int, clock: WallClock):
    """One fit under the layer probe: result, seconds, layer rows and spans."""
    tracer = Tracer(clock)
    peak = _PeakWindow()
    with LayerProbe(tracer) as probe:
        install_trainer_probe(probe, peak)
        result, elapsed = _fit(spec, corpus, seed)
    probe.require_calls(["fit"] + [name for names in TRAINER_LAYERS.values() for name in names])
    [root] = [span for span in tracer.spans if span.name == "fit"]
    rows, residual = layer_rows(tracer.spans, root, TRAINER_LAYERS)
    rows["other"] = residual + rows.pop("unassigned")
    rows["fit"] = root.duration_seconds
    rows["likelihood_calls"] = probe.calls["sparse_training_likelihood"]
    rows["likelihood_peak_mb"] = max(peak.peaks) / 2**20
    return result, elapsed, rows, tracer.spans


def run_traced(name: str, spec: TrainSpec, seed: int, seconds: float, out_dir: str) -> RunResult:
    corpus = _corpus(spec, seed)
    checker = FitChecker(corpus, spec, seed)
    notes = checker.check(warm_up(spec, corpus, seed))
    failed = 1 if notes else 0
    clock = WallClock()
    plain: List[float] = []
    traced: List[float] = []
    per_fit: List[Dict[str, float]] = []
    began = time.perf_counter()
    while len(traced) < 2 or time.perf_counter() - began < seconds:
        # Alternate which side of a pair runs first, so neither side
        # always inherits the other's freshly released memory.
        for traced_side in (False, True) if len(plain) % 2 == 0 else (True, False):
            if traced_side:
                result, elapsed, rows, spans = _traced_fit(spec, corpus, seed, clock)
                traced_result = result
                traced.append(elapsed)
                per_fit.append(rows)
            else:
                result, elapsed = _fit(spec, corpus, seed)
                plain.append(elapsed)
            failures = checker.check(result)
            if failures:
                failed += 1
                notes.extend(failures)

    write_chrome_trace(
        os.path.join(out_dir, f"{name}-seed{seed}-trace.json"),
        spans,
        metadata={"workload": name, "seed": seed},
    )
    iterations = spec.num_iterations
    history = traced_result.history
    layer = {key: median([rows[key] for rows in per_fit]) for key in per_fit[0]}
    run = RunResult(
        workload=name, attempted=len(plain) + len(traced) + 1, failed=failed, notes=notes
    )
    samples = len(per_fit)
    run.add("estep.s", layer["estep"], samples)
    run.add("estep.tokens_per_s", corpus.num_tokens * iterations / layer["estep"], samples)
    run.add("estep.doc_branch_frac", float(np.mean([r.doc_branch_fraction for r in history])), 1)
    run.add("estep.mean_doc_nnz", float(np.mean([r.mean_doc_nnz for r in history])), 1)
    run.add("likelihood.s", layer["likelihood"], samples)
    run.add("likelihood.calls", layer["likelihood_calls"], samples)
    run.add("likelihood.peak_mb", layer["likelihood_peak_mb"], samples)
    run.add("likelihood.dense_bytes", corpus.num_tokens * spec.num_topics * 8 * 2, 1)
    run.add("word_side.s", layer["word_side"], samples)
    # WordSide holds B-hat and its row CDF (V x K float64 each) and Q (V).
    vocabulary, topics = spec.vocabulary_size, spec.num_topics
    run.add("word_side.bytes", (2 * vocabulary * topics + vocabulary) * 8, 1)
    run.add("count_b.s", layer["count_b"], samples)
    run.add("layout.s", layer["layout"], samples)
    run.add("rebuild_a.s", layer["rebuild_a"], samples)
    run.add("costing.s", layer["costing"], samples)
    run.add("costing.sim_s", traced_result.simulated_seconds / iterations, 1)
    run.add("trainer.other_s", layer["other"], samples)
    run.add("trainer.fit_s", layer["fit"], samples)
    run.add("trainer.layer_coverage_frac", 1.0 - layer["other"] / layer["fit"], samples)
    for metric in SERVE_LAYER_METRICS:
        run.add(metric, 0.0, 0)
    run.add("trace.overhead_frac", median(traced) / median(plain) - 1.0, len(traced))
    run.info["layer_share_of_fit"] = {
        key: layer[key] / layer["fit"] for key in list(TRAINER_LAYERS) + ["other"]
    }
    run.info["untraced_fit_seconds"] = plain
    run.info["traced_fit_seconds"] = traced
    return run
