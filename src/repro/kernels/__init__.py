"""Sampling-kernel backends shared by training and serving.

The paper's thesis is that LDA throughput lives in the sampling kernels;
this package is where the reproduction makes those kernels *actually*
fast.  It holds

* the :class:`KernelBackend` switch (``reference`` vs ``vectorized``)
  that every hot path — trainer E-step, distributed E-step, serving
  fold-in — resolves through one config knob,
* the shared CDF primitives (:func:`sample_rows_from_cdf`,
  :func:`sample_from_word_cdf`, :func:`search_rows`,
  :func:`concat_ranges`) both backends and both subsystems sample with,
* :func:`esca_estep_vectorized`, the chunk-at-once E-step kernel,
* :func:`fold_in_sweeps`, serving's batch-at-once fold-in kernel, and
* :mod:`~repro.kernels.threads`, the short-lived thread pools that the
  E-step and ``WordSide.prepare`` spread their row blocks over.

The vectorized backend is bit-identical to the reference on every input
— same uniforms, same order, same floating-point reduction shapes — so
switching backends never moves a golden file.  Benchmarked by
``benchmarks/bench_kernel_backends.py`` (``BENCH_kernels.json``).
"""

from .backend import KernelBackend, resolve_backend
from .cdf import (
    DENSE_BLOCK_ELEMENTS,
    concat_ranges,
    sample_from_word_cdf,
    sample_rows_from_cdf,
    search_rows,
    segment_pick_ranks,
)
from .estep import esca_estep_vectorized
from .foldin import FoldInSweeps, fold_in_sweeps

__all__ = [
    "DENSE_BLOCK_ELEMENTS",
    "FoldInSweeps",
    "KernelBackend",
    "concat_ranges",
    "esca_estep_vectorized",
    "fold_in_sweeps",
    "resolve_backend",
    "sample_from_word_cdf",
    "sample_rows_from_cdf",
    "search_rows",
    "segment_pick_ranks",
]
