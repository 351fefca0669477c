"""Tests of the benchmark's own helpers (run with ``PYTHONPATH=src``)."""

from __future__ import annotations

import json
import os
from dataclasses import replace

import numpy as np
import pytest

import repro.saberlda.trainer as trainer_module
from ldabench import inputs, serve, train
from ldabench.layers import LayerProbe, LayerTraceError, layer_rows, self_times
from ldabench.report import RunResult, result_line
from ldabench.spec import (
    END_TO_END,
    EXTRA_WORKLOADS,
    PER_LAYER,
    SERVE,
    TRAIN_WORKLOADS,
    WORKLOADS,
)
from ldabench.spec import check_against_benchmark_json
from repro.telemetry import Span, Tracer, WallClock

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

TINY_TRAIN = replace(
    TRAIN_WORKLOADS["train-tokens"],
    num_documents=60,
    vocabulary_size=80,
    mean_length=20.0,
    generating_topics=4,
    num_topics=8,
    num_chunks=2,
    num_iterations=3,
    evaluate_every=1,
)
TINY_SERVE = replace(
    SERVE,
    vocabulary_size=80,
    num_topics=8,
    model_tokens_per_topic=200,
    query_mean_length=10.0,
    num_workers=1,
    num_sweeps=2,
    open_rate_qps=400.0,
    open_requests=24,
    saturate_round_requests=8,
    saturate_rounds=1,
    setup_repeats=1,
)


def _units(catalogue):
    return {name: entry[0] for name, entry in catalogue.items()}


# ------------------------------------------------------------------ inputs
def test_generator_is_deterministic_per_seed_and_differs_across_seeds():
    first = inputs.train_corpus(5, 40, 100, 20.0, 6)
    again = inputs.train_corpus(5, 40, 100, 20.0, 6)
    other = inputs.train_corpus(6, 40, 100, 20.0, 6)
    assert first.digest() == again.digest()
    assert first.digest() != other.digest()
    assert first.word_ids.max() < 100 and first.num_tokens == first.document_lengths().sum()

    assert np.array_equal(inputs.model_counts(5, 50, 4, 30), inputs.model_counts(5, 50, 4, 30))
    assert not np.array_equal(inputs.model_counts(5, 50, 4, 30), inputs.model_counts(6, 50, 4, 30))
    queries = inputs.zipf_queries(5, 30, 200, 15.0)
    assert [q.tobytes() for q in queries] == [
        q.tobytes() for q in inputs.zipf_queries(5, 30, 200, 15.0)
    ]
    assert queries[0].tobytes() != inputs.zipf_queries(6, 30, 200, 15.0)[0].tobytes()
    schedule = inputs.poisson_schedule(5, 100.0, 50)
    assert np.array_equal(schedule, inputs.poisson_schedule(5, 100.0, 50))
    assert np.all(np.diff(schedule) > 0)


def test_per_row_draws_match_the_dense_inverse_cdf():
    rng = np.random.default_rng(0)
    cdfs = np.cumsum(rng.dirichlet(np.ones(7), size=5), axis=1)
    rows = rng.integers(0, 5, size=400)
    drawn = inputs._draw_per_row(np.random.default_rng(1), cdfs, rows)
    uniforms = np.random.default_rng(1).random(400)
    dense = np.minimum((uniforms[:, None] > cdfs[rows]).sum(axis=1), 6)
    assert np.array_equal(drawn, dense)


# ------------------------------------------------------------------ names
def test_catalogue_matches_benchmark_json():
    assert check_against_benchmark_json(os.path.join(ROOT, "BENCHMARK.json")) == []
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        declared = json.load(handle)
    assert [w["name"] for w in declared["workloads"]] == list(WORKLOADS)
    # An undeclared workload is still a runnable training workload.
    assert set(EXTRA_WORKLOADS).isdisjoint(WORKLOADS)
    assert set(EXTRA_WORKLOADS) <= set(TRAIN_WORKLOADS)
    assert "setup_s" in END_TO_END and END_TO_END["setup_s"][:2] == ("s", "lower")


def test_result_line_refuses_a_metric_set_that_drifts():
    result = RunResult(workload="x", attempted=1, failed=0)
    for name in list(END_TO_END)[:-1]:
        result.add(name, 1.0, 1)
    with pytest.raises(ValueError, match="missing"):
        result_line(result, _units(END_TO_END))


def test_train_runs_print_the_catalogue_names_and_pass_their_checks(tmp_path):
    measured = train.run_measured("tiny", TINY_TRAIN, 3, 0.0, os.path.join(ROOT, "src"))
    line = json.loads(result_line(measured, _units(END_TO_END)))
    assert line["correct"] and line["attempted"] == 3 and line["failed"] == 0
    assert list(line["metrics"]) == list(END_TO_END)
    assert all(entry["value"] > 0 for entry in line["metrics"].values())

    traced = train.run_traced("tiny", TINY_TRAIN, 3, 0.0, str(tmp_path))
    line = json.loads(result_line(traced, _units(PER_LAYER)))
    assert line["correct"] and list(line["metrics"]) == list(PER_LAYER)
    assert (tmp_path / "tiny-seed3-trace.json").exists()
    # The probe put every wrapped attribute back.
    assert not hasattr(trainer_module.esca_estep, "__wrapped__")


def test_serve_runs_print_the_catalogue_names_and_pass_their_checks(tmp_path):
    measured = serve.run_measured(4, 0.0, str(tmp_path), spec=TINY_SERVE)
    line = json.loads(result_line(measured, _units(END_TO_END)))
    assert line["correct"], measured.notes
    assert line["attempted"] == TINY_SERVE.open_requests + 2 * TINY_SERVE.saturate_round_requests
    assert list(line["metrics"]) == list(END_TO_END)

    traced = serve.run_traced(4, 0.0, str(tmp_path), spec=TINY_SERVE)
    line = json.loads(result_line(traced, _units(PER_LAYER)))
    assert line["correct"], traced.notes
    assert line["metrics"]["waterfall.max_residual_ms"]["value"] < 5.0
    assert [p.name for p in tmp_path.iterdir() if p.is_dir()] == []


# ------------------------------------------------------------------ self time
def _span(seq, name, start, duration, depth):
    return Span(name=name, start_seconds=start, duration_seconds=duration, depth=depth, seq=seq)


def test_self_time_rows_plus_residual_sum_to_the_traced_total():
    spans = [
        _span(0, "fit", 0.0, 10.0, 0),
        _span(1, "estep", 1.0, 3.0, 1),
        _span(2, "inner", 1.5, 1.0, 2),
        _span(3, "likelihood", 5.0, 4.0, 1),
        _span(4, "dense", 6.0, 2.5, 2),
        _span(5, "estep", 9.2, 0.5, 1),
    ]
    own = self_times(spans)
    assert own[0] == pytest.approx(10.0 - 3.0 - 4.0 - 0.5)
    assert own[1] == pytest.approx(2.0) and own[3] == pytest.approx(1.5)
    layers = {"estep": ["estep"], "likelihood": ["likelihood", "dense"]}
    rows, residual = layer_rows(spans, spans[0], layers)
    assert rows == pytest.approx({"estep": 2.5, "likelihood": 4.0, "unassigned": 1.0})
    assert sum(rows.values()) + residual == pytest.approx(10.0)


def test_traced_fit_rows_plus_residual_equal_the_fit_span():
    tracer = Tracer(WallClock())
    peak = train._PeakWindow()
    corpus = train._corpus(TINY_TRAIN, 2)
    with LayerProbe(tracer) as probe:
        train.install_trainer_probe(probe, peak)
        train._fit(TINY_TRAIN, corpus, 2)
    [root] = [span for span in tracer.spans if span.name == "fit"]
    rows, residual = layer_rows(tracer.spans, root, train.TRAINER_LAYERS)
    assert rows["unassigned"] == 0.0
    assert sum(rows.values()) + residual == pytest.approx(root.duration_seconds, abs=1e-9)


# ------------------------------------------------------------------ failure paths
def test_a_missing_wrapped_name_fails_and_restores_the_rest(monkeypatch):
    monkeypatch.delattr(trainer_module, "esca_estep")
    with LayerProbe(Tracer(WallClock())) as probe:
        with pytest.raises(LayerTraceError, match="esca_estep"):
            train.install_trainer_probe(probe, train._PeakWindow())
    assert not hasattr(trainer_module.build_layout, "__wrapped__")
    assert not hasattr(trainer_module.SaberLDATrainer.fit, "__wrapped__")


def test_a_layer_with_no_call_fails():
    probe = LayerProbe(Tracer(WallClock()))
    probe.wrap(trainer_module, "gather_layout_tokens", "gather_layout_tokens")
    try:
        with pytest.raises(LayerTraceError, match="gather_layout_tokens"):
            probe.require_calls(["gather_layout_tokens"])
    finally:
        probe.close()

