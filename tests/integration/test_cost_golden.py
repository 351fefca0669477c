"""Golden-file regression of the *simulated cost* of training.

``training_run.json`` pins what training computes; this file pins what
it is charged.  On the same seeded corpus it records, per iteration,
every simulated float both trainers produce: the single device's phase
seconds, and for ``data``/``topic``/``hybrid`` parallelism at 2 and 4
devices the per-device phase seconds plus the ring and all-to-all costs
(before and after overlap).  A refactor of how iterations are costed
must leave every one of them in place.

Regenerate (only when a cost-model change is intentional) with::

    PYTHONPATH=src python tests/integration/test_cost_golden.py --regenerate
"""

import json
import os

import pytest

from repro.corpus import generate_lda_corpus
from repro.distributed import train_distributed
from repro.saberlda import SaberLDAConfig, train_saberlda

GOLDEN_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "golden", "training_costs.json"
)

#: The workload of ``training_run.json``.
CORPUS_SPEC = dict(
    num_documents=40, vocabulary_size=100, num_topics=5, mean_document_length=30, seed=123
)
NUM_TOPICS = 6
NUM_ITERATIONS = 3
NUM_CHUNKS = 4
TRAIN_SEED = 77

#: ``(run name, parallelism, devices)``; ``None`` is the single device.
RUNS = [("single", None, 1)] + [
    (f"{mode}-{devices}", mode, devices)
    for mode in ("data", "topic", "hybrid")
    for devices in (2, 4)
]

_DISTRIBUTED_FIELDS = (
    "per_device_phase_seconds",
    "per_device_seconds",
    "allreduce_seconds",
    "exposed_allreduce_seconds",
    "alltoall_seconds",
    "exposed_alltoall_seconds",
)


def _train(parallelism, devices):
    corpus = generate_lda_corpus(**CORPUS_SPEC)
    config = SaberLDAConfig.paper_defaults(
        NUM_TOPICS, num_iterations=NUM_ITERATIONS, num_chunks=NUM_CHUNKS, seed=TRAIN_SEED
    )
    args = (corpus.unassigned_copy(), corpus.num_documents, corpus.vocabulary_size, config)
    if parallelism is None:
        return train_saberlda(*args)
    return train_distributed(*args, num_devices=devices, parallelism=parallelism)


def _costs(result, parallelism) -> list:
    fields = ("phase_seconds",) if parallelism is None else _DISTRIBUTED_FIELDS
    return [
        {
            "simulated_seconds": record.simulated_seconds,
            "cumulative_simulated_seconds": record.cumulative_simulated_seconds,
            **{name: getattr(record, name) for name in fields},
        }
        for record in result.history
    ]


def _snapshot() -> dict:
    return {
        "format": "saberlda-golden-costs",
        "corpus": CORPUS_SPEC,
        "num_topics": NUM_TOPICS,
        "num_iterations": NUM_ITERATIONS,
        "num_chunks": NUM_CHUNKS,
        "train_seed": TRAIN_SEED,
        "runs": {
            name: _costs(_train(parallelism, devices), parallelism)
            for name, parallelism, devices in RUNS
        },
    }


def regenerate() -> str:
    """Rewrite the golden file from fresh runs (intentional changes only)."""
    with open(GOLDEN_PATH, "w", encoding="utf-8") as handle:
        json.dump(_snapshot(), handle, indent=2)
        handle.write("\n")
    return GOLDEN_PATH


@pytest.fixture(scope="module")
def golden() -> dict:
    with open(GOLDEN_PATH, "r", encoding="utf-8") as handle:
        return json.load(handle)


def _flatten(value, path="") -> dict:
    """``{"0.phase_seconds.sampling": 1.2e-05, ...}``: one entry per float."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return {path: value}
    flat = {}
    for key, item in items:
        flat.update(_flatten(item, f"{path}.{key}" if path else str(key)))
    return flat


@pytest.mark.parametrize(("name", "parallelism", "devices"), RUNS, ids=[run[0] for run in RUNS])
def test_simulated_costs_unchanged(golden, name, parallelism, devices):
    costs = _costs(_train(parallelism, devices), parallelism)
    assert _flatten(costs) == pytest.approx(_flatten(golden["runs"][name]), rel=1e-12)


if __name__ == "__main__":
    import sys

    if "--regenerate" in sys.argv:
        print(f"wrote {regenerate()}")
    else:
        print(__doc__)
