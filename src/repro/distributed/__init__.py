"""repro.distributed — multi-device SaberLDA across a simulated device pool.

SaberLDA as published is a single-GPU system; this subsystem scales the
reproduction past the paper by running the ESCA iteration over ``N``
simulated devices.  The design has three layers:

**Sharding** (:mod:`~repro.distributed.shard`).  Two orthogonal plans:

* *data*: the unit of distribution is the PDOW chunk from
  ``saberlda.layout`` — a chunk owns a contiguous document range, its
  tokens and the matching rows of the document-topic matrix ``A``, so
  whole chunks move to devices without splitting any per-document state.
  :class:`ShardPlanner` packs chunks onto devices with a
  longest-processing-time greedy (largest chunk to the lightest device),
  bounding the token imbalance by the largest single chunk even for
  Zipf-skewed chunk sizes.
* *model*: :class:`TopicShardPlan` partitions the ``K`` topic columns of
  the word-topic matrix ``B`` into contiguous near-equal blocks, one
  owner per block, so a device stores and pre-processes only its
  ``~K/N`` slice — the capacity lever for ``K`` in the hundreds of
  thousands, where replicating ``V x K`` stops fitting a single device.

**Collectives** (:mod:`~repro.distributed.allreduce`).  The only
cross-device state is ``B``: each device counts a partial ``B_d`` during
the M-step and the global matrix is ``B = sum_d B_d`` — exact, because
the counts are integers.  Replicated runs merge with the
bandwidth-optimal ring all-reduce (:class:`RingAllReduce`,
``2(N-1)`` steps of ``|B|/N`` bytes); topic-sharded runs route each
partial column block to its owner with an all-to-all (:class:`AllToAll`,
``N-1`` pairwise rounds of ``|B|/N`` bytes).  Both charge the pool's
:class:`~repro.gpusim.streams.InterconnectSpec` with the alpha-beta
model, and under the asynchronous streaming schedule part of the
collective hides behind the E-step tail — the window derived from the
word-completion times of :mod:`repro.saberlda.scheduling`.

**Cost attribution over one training loop** (:mod:`~repro.distributed.trainer`).
Because ESCA freezes ``A`` and ``B̂`` during the E-step, resampling order
is statistically irrelevant.  :class:`DistributedTrainer` therefore runs
the single-device loop itself (:func:`repro.saberlda.trainer.run_esca`:
chunks in global stream order, one RNG stream), which makes the
``N``-device run *bit-identical* to the sequential trainer at the same
seed in **every** parallelism mode.  What it adds is a
:class:`~repro.distributed.trainer.PoolCoster`: the shard plans, the
per-device partial counts merged through the collectives, and each
device's simulated cost per the mode.  An iteration costs
``max_d(shard phases) + exposed collective``.

Choosing a ``parallelism`` mode (:class:`DistributedTrainer`), and what
each mode hands to serving:

=======================  ==========  ============  ==============  ===========================  =======================
mode                     sampling    preprocess    per-device B    collective                   checkpoint → serving
=======================  ==========  ============  ==============  ===========================  =======================
``"data"``               ``T/N · K`` ``V·K`` (replicated) ``V·K``  ring all-reduce              rows (``axis="rows"``)
``"topic"``              ``T · K/N`` ``V·K/N``     ``V·K/N``       all-to-all                   columns (``axis="columns"``)
``"hybrid"``             ``T/N · K`` ``V·K/N``     ``V·K/N``       all-to-all                   columns (``axis="columns"``)
``serving``              ``T_q · K`` lazy/hot word ``V·K`` frozen  none (one engine, one device)  consumes any of the above
``serving replicated``   ``T_q · K`` lazy/hot word ``V·K`` frozen  none (one batch per lane)    pool of N full engines
``serving topic-shard``  ``T_q · K/N`` lazy, per slice ``V·K/N``   all-to-all (doc counts)      pool of N column owners
=======================  ==========  ============  ==============  ===========================  =======================

Rules of thumb: ``"data"`` when ``B`` fits every device (fastest
sampling split, replicated pre-processing); ``"topic"`` when ``K`` is so
large that even one device's *sampling* working set must shrink (few
documents, huge models); ``"hybrid"`` for the common large-``K`` regime —
data-parallel sampling speed with model-parallel memory and
pre-processing, which strictly dominates ``"data"`` once the replicated
``V x K`` pre-processing or footprint binds.  The serving pool
(:class:`repro.serving.EnginePool`) follows the same fork: *replicate*
engines when the frozen model fits each device and the goal is QPS
(whole micro-batches to the least-loaded lane, throughput ~``N``x);
*topic-shard* engines when ``V x K`` no longer fits — per-engine memory
drops to the widest ``~K/N`` slice and each batch pays the per-document
count all-to-all instead.

**Train → checkpoint → serve.**  Data-parallel runs naturally persist
``B`` as *row* shards (each device owns its vocabulary rows of the
merged matrix), topic-sharded runs as *column* shards (each device owns
its ``TopicShardPlan`` slice and never materialises the full matrix) —
both via :func:`repro.core.serialization.save_sharded_model`, plus the
single-archive :func:`~repro.core.serialization.save_model` for small
models.  Serving does not care which: the online subsystem
(:mod:`repro.serving`) loads any layout through
:func:`repro.core.serialization.load_model`'s manifest auto-detection,
reassembles the full ``B`` once (digest-verified), freezes it, and
answers fold-in queries bit-identically across all three layouts —
see ``examples/online_serving.py`` for the round trip.
"""

from .allreduce import (
    AllReduceCost,
    AllToAll,
    AllToAllCost,
    RingAllReduce,
    exposed_allreduce_seconds,
)
from .shard import (
    DeviceShard,
    ShardPlan,
    ShardPlanner,
    TopicShard,
    TopicShardPlan,
    build_sharded_layout,
    plan_topic_shards,
)
from .trainer import (
    PARALLELISM_MODES,
    DistributedIterationRecord,
    DistributedTrainer,
    DistributedTrainingResult,
    ScalingPoint,
    measure_scaling,
    train_distributed,
)

__all__ = [
    "AllReduceCost",
    "AllToAll",
    "AllToAllCost",
    "DeviceShard",
    "DistributedIterationRecord",
    "DistributedTrainer",
    "DistributedTrainingResult",
    "PARALLELISM_MODES",
    "RingAllReduce",
    "ScalingPoint",
    "ShardPlan",
    "ShardPlanner",
    "TopicShard",
    "TopicShardPlan",
    "build_sharded_layout",
    "exposed_allreduce_seconds",
    "measure_scaling",
    "plan_topic_shards",
    "train_distributed",
]
