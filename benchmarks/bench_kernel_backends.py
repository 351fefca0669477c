"""Kernel backends — measured wall-clock of reference vs vectorized sampling.

Every other benchmark in this directory reports *simulated* seconds from
the roofline model; this one measures the real thing.  The vectorized
backend replaces the Python-level loops of the two sampling hot paths —
the trainer's per-document E-step loop and serving's per-slot fold-in
loop — with batched NumPy kernels that are bit-identical to the
reference (asserted here on every cell).  The sweep reports wall-clock
tokens/sec for both backends across corpus sizes x K for

* the **training E-step** (one full ``esca_estep`` pass over a chunk),
* the **serving fold-in** (a warmed frozen state folding a query stream
  in, one ``FrozenModelState.fold_in`` call per micro-batch).

Results seed the ``BENCH_*`` trajectory: the JSON twin is
``benchmarks/results/BENCH_kernels.json``, uploaded by CI's perf-smoke
job, which gates on vectorized >= reference throughput (a loose 1.0x
floor — the >= 5x headline is asserted in full runs only, where timing
noise is amortised).

Run with::

    PYTHONPATH=src python benchmarks/bench_kernel_backends.py [--tiny]
        [--assert-floor SPEEDUP]
"""

import argparse
import os

import numpy as np

from repro.bench import emit_json_report, emit_report, format_table, wall_clock
from repro.bench.reporting import results_dir
from repro.core import LDAHyperParams, LDAModel
from repro.core.count_matrices import SparseDocTopicMatrix, count_by_word_topic
from repro.corpus import generate_lda_corpus
from repro.kernels import KernelBackend
from repro.saberlda.estep import WordSide, esca_estep
from repro.serving import FrozenModelState
from repro.serving.foldin import request_rng
from repro.telemetry import (
    MetricsRegistry,
    Tracer,
    WallClock,
    write_chrome_trace,
    write_metrics_json,
)

SEED = 2017
BACKENDS = (KernelBackend.REFERENCE, KernelBackend.VECTORIZED)
#: Documents per fold-in call: the serving scheduler's default micro-batch.
FOLDIN_BATCH_DOCS = 16

FULL = {
    "mode": "full",
    # (label, documents, vocabulary, mean document length)
    "corpora": [("small", 120, 300, 50), ("default", 200, 400, 100)],
    "topic_counts": (1_000, 10_000, 100_000),
    "estep_repeat": 3,
    "estep_warmup": 1,
    "num_queries": 20,
    "mean_query_tokens": 150,
    "num_sweeps": 6,
    "foldin_repeat": 3,
    "foldin_warmup": 1,
    # The acceptance headline: measured on the default corpus at the
    # paper's mid-scale K.
    "headline": ("default", 10_000),
    "headline_floor": 5.0,
}

TINY = {
    "mode": "tiny",
    # Sized for CI: small enough for seconds-scale runs, shaped (many
    # short documents) so the vectorized margin over the per-document
    # reference loop dwarfs runner noise.
    "corpora": [("tiny", 150, 150, 15)],
    "topic_counts": (64, 256),
    "estep_repeat": 3,
    "estep_warmup": 1,
    "num_queries": 8,
    "mean_query_tokens": 60,
    "num_sweeps": 4,
    "foldin_repeat": 3,
    "foldin_warmup": 1,
    "headline": ("tiny", 256),
    "headline_floor": None,
}


def _estep_state(corpus_spec, num_topics):
    """Frozen E-step inputs (tokens, A, word side) at the swept K."""
    _label, num_documents, vocabulary_size, mean_length = corpus_spec
    corpus = generate_lda_corpus(
        num_documents=num_documents,
        vocabulary_size=vocabulary_size,
        num_topics=8,
        mean_document_length=mean_length,
        seed=SEED,
    )
    tokens = corpus.tokens.copy()
    tokens.randomize_topics(num_topics, np.random.default_rng(SEED))
    doc_topic = SparseDocTopicMatrix.from_tokens(tokens, num_documents, num_topics)
    params = LDAHyperParams.paper_defaults(num_topics)
    word_topic = count_by_word_topic(tokens, vocabulary_size, num_topics)
    word_side = WordSide.prepare(word_topic, params.alpha, params.beta)
    return tokens, doc_topic, word_side, word_topic, params


def _estep_row(spec, corpus_spec, num_topics, tracer, metrics):
    """Wall-clock one full E-step pass per backend; assert bit-identity.

    The whole (backend, cell) measurement — warmup and repeats — runs
    under one ``estep_cell`` span; the tracer never wraps the timed
    callable itself, so the measured numbers stay untouched.
    """
    tokens, doc_topic, word_side, _word_topic, _params = _estep_state(
        corpus_spec, num_topics
    )
    timings = {}
    outputs = {}
    for backend in BACKENDS:
        def one_pass(backend=backend):
            result = esca_estep(
                tokens, doc_topic, word_side, np.random.default_rng(SEED + 1), backend
            )
            outputs[backend] = result.new_topics
            return result

        with tracer.span(
            "estep_cell",
            category="bench",
            backend=backend.value,
            corpus=corpus_spec[0],
            num_topics=num_topics,
        ):
            timings[backend] = wall_clock(
                one_pass, repeat=spec["estep_repeat"], warmup=spec["estep_warmup"]
            )
        metrics.counter("bench.estep_cells").inc()
        metrics.counter("bench.estep_seconds").inc(timings[backend].best)
    assert np.array_equal(
        outputs[KernelBackend.REFERENCE], outputs[KernelBackend.VECTORIZED]
    ), f"E-step backends diverged at {corpus_spec[0]}, K={num_topics}"
    reference = timings[KernelBackend.REFERENCE].throughput(tokens.num_tokens)
    vectorized = timings[KernelBackend.VECTORIZED].throughput(tokens.num_tokens)
    return {
        "corpus": corpus_spec[0],
        "num_tokens": tokens.num_tokens,
        "num_topics": num_topics,
        "reference_tokens_per_s": reference,
        "vectorized_tokens_per_s": vectorized,
        "speedup": vectorized / reference if reference > 0 else float("nan"),
    }


def _make_queries(spec, vocabulary_size):
    """A Zipf-headed query stream (the fold-in workload)."""
    rng = np.random.default_rng(SEED + 2)
    ranks = np.arange(1, vocabulary_size + 1, dtype=np.float64)
    weights = 1.0 / ranks**1.05
    weights /= weights.sum()
    return [
        rng.choice(vocabulary_size, size=max(3, int(rng.poisson(spec["mean_query_tokens"]))), p=weights)
        for _ in range(spec["num_queries"])
    ]


def _foldin_row(spec, corpus_spec, num_topics, tracer, metrics):
    """Wall-clock a warmed fold-in pass over the query stream per backend."""
    _tokens, _doc_topic, _word_side, word_topic, params = _estep_state(
        corpus_spec, num_topics
    )
    model = LDAModel(word_topic_counts=word_topic, params=params)
    documents = _make_queries(spec, corpus_spec[2])
    num_tokens = int(sum(len(document) for document in documents))
    timings = {}
    outputs = {}
    for backend in BACKENDS:
        state = FrozenModelState.prepare(model, backend=backend)
        # Steady state: no build transient (word ids only on the vectorized path).
        state.touch_samplers(np.unique(np.concatenate(documents)))

        def serve_stream(state=state, backend=backend):
            results = []
            for start in range(0, len(documents), FOLDIN_BATCH_DOCS):
                stop = min(start + FOLDIN_BATCH_DOCS, len(documents))
                results += state.fold_in(
                    documents[start:stop],
                    [request_rng(SEED, index) for index in range(start, stop)],
                    num_sweeps=spec["num_sweeps"],
                )
            outputs[backend] = np.concatenate([result.topics for result in results])
            return results

        with tracer.span(
            "foldin_cell",
            category="bench",
            backend=backend.value,
            corpus=corpus_spec[0],
            num_topics=num_topics,
        ):
            timings[backend] = wall_clock(
                serve_stream, repeat=spec["foldin_repeat"], warmup=spec["foldin_warmup"]
            )
        metrics.counter("bench.foldin_cells").inc()
        metrics.counter("bench.foldin_seconds").inc(timings[backend].best)
    assert np.array_equal(
        outputs[KernelBackend.REFERENCE], outputs[KernelBackend.VECTORIZED]
    ), f"fold-in backends diverged at {corpus_spec[0]}, K={num_topics}"
    # Every sweep is one sampling pass over the stream's tokens.
    sampled_tokens = num_tokens * spec["num_sweeps"]
    reference = timings[KernelBackend.REFERENCE].throughput(sampled_tokens)
    vectorized = timings[KernelBackend.VECTORIZED].throughput(sampled_tokens)
    return {
        "corpus": corpus_spec[0],
        "num_query_tokens": num_tokens,
        "num_topics": num_topics,
        "reference_tokens_per_s": reference,
        "vectorized_tokens_per_s": vectorized,
        "speedup": vectorized / reference if reference > 0 else float("nan"),
    }


def _run(spec, tracer, metrics):
    estep_rows = []
    foldin_rows = []
    for corpus_spec in spec["corpora"]:
        for num_topics in spec["topic_counts"]:
            estep_rows.append(
                _estep_row(spec, corpus_spec, num_topics, tracer, metrics)
            )
            foldin_rows.append(
                _foldin_row(spec, corpus_spec, num_topics, tracer, metrics)
            )
    headline_corpus, headline_topics = spec["headline"]
    headline = {
        "corpus": headline_corpus,
        "num_topics": headline_topics,
        "estep_speedup": _headline(estep_rows, headline_corpus, headline_topics),
        "foldin_speedup": _headline(foldin_rows, headline_corpus, headline_topics),
    }
    return estep_rows, foldin_rows, headline


def _headline(rows, corpus, num_topics):
    for row in rows:
        if row["corpus"] == corpus and row["num_topics"] == num_topics:
            return row["speedup"]
    raise KeyError(f"no row for headline cell ({corpus}, K={num_topics})")


def _build_report(spec, estep_rows, foldin_rows, headline):
    sections = []
    sections.append("E-step (one full pass over the chunk), tokens/sec wall-clock")
    sections.append(
        format_table(
            ["corpus", "tokens", "K", "reference", "vectorized", "speedup"],
            [
                [
                    row["corpus"],
                    row["num_tokens"],
                    row["num_topics"],
                    f"{row['reference_tokens_per_s']:.3g}",
                    f"{row['vectorized_tokens_per_s']:.3g}",
                    f"{row['speedup']:.2f}x",
                ]
                for row in estep_rows
            ],
        )
    )
    sections.append("")
    sections.append(
        "Serving fold-in (warmed bank, per-sweep sampled tokens/sec wall-clock)"
    )
    sections.append(
        format_table(
            ["corpus", "query tokens", "K", "reference", "vectorized", "speedup"],
            [
                [
                    row["corpus"],
                    row["num_query_tokens"],
                    row["num_topics"],
                    f"{row['reference_tokens_per_s']:.3g}",
                    f"{row['vectorized_tokens_per_s']:.3g}",
                    f"{row['speedup']:.2f}x",
                ]
                for row in foldin_rows
            ],
        )
    )
    sections.append("")
    sections.append(
        f"headline ({headline['corpus']}, K={headline['num_topics']}): "
        f"e-step {headline['estep_speedup']:.2f}x, "
        f"fold-in {headline['foldin_speedup']:.2f}x "
        f"(mode={spec['mode']})"
    )
    return "\n".join(sections)


def _check_invariants(spec, estep_rows, foldin_rows, headline, floor=None):
    for row in estep_rows + foldin_rows:
        assert row["reference_tokens_per_s"] > 0
        assert row["vectorized_tokens_per_s"] > 0
    if floor is not None:
        worst = min(row["speedup"] for row in estep_rows + foldin_rows)
        assert worst >= floor, (
            f"vectorized backend fell below the {floor:.2f}x floor: "
            f"worst cell {worst:.2f}x"
        )
    if spec["headline_floor"] is not None:
        for key in ("estep_speedup", "foldin_speedup"):
            assert headline[key] >= spec["headline_floor"], (
                f"headline {key} {headline[key]:.2f}x below the "
                f"{spec['headline_floor']:.1f}x acceptance floor"
            )


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--tiny", action="store_true", help="CI smoke sweep (seconds, not minutes)"
    )
    parser.add_argument(
        "--assert-floor",
        type=float,
        default=None,
        metavar="SPEEDUP",
        help="fail unless every cell's vectorized/reference ratio meets this floor",
    )
    args = parser.parse_args()
    spec = TINY if args.tiny else FULL
    tracer = Tracer(WallClock())
    metrics = MetricsRegistry()
    with tracer.span("bench_kernel_backends", category="bench", mode=spec["mode"]):
        estep_rows, foldin_rows, headline = _run(spec, tracer, metrics)
    report_text = _build_report(spec, estep_rows, foldin_rows, headline)
    emit_report("BENCH_kernels", report_text)
    path = emit_json_report(
        "BENCH_kernels",
        {
            "mode": spec["mode"],
            "estep": estep_rows,
            "foldin": foldin_rows,
            "headline": headline,
            "bit_identical": True,
        },
    )
    trace_path = write_chrome_trace(
        os.path.join(results_dir(), "BENCH_kernels_trace.json"),
        tracer.spans,
        metadata={"bench": "kernel_backends", "mode": spec["mode"]},
    )
    metrics_path = write_metrics_json(
        os.path.join(results_dir(), "BENCH_kernels_metrics.json"),
        metrics,
        metadata={"bench": "kernel_backends", "mode": spec["mode"]},
    )
    _check_invariants(spec, estep_rows, foldin_rows, headline, floor=args.assert_floor)
    print(f"trace artifact: {trace_path}")
    print(f"metrics artifact: {metrics_path}")
    print(f"json report: {path}")
