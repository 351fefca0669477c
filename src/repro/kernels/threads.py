"""Short-lived thread pools for the training hot path.

NumPy releases the GIL inside its gathers, reductions and element-wise
loops, so independent row blocks of one E-step or one word-side
preparation run in parallel on plain threads.  Each call that fans out
creates its pool and shuts it down before it returns: no thread outlives
the call, so a process that trains and then forks (the serving worker
pool forks by default) never carries a pool thread into the child.

Results come back in block order and every block writes disjoint
output, so what a caller computes never depends on the worker count.
"""

from __future__ import annotations

import os
from typing import Callable, List, Sequence, TypeVar

Item = TypeVar("Item")
Result = TypeVar("Result")


def worker_count() -> int:
    """CPUs this process may run on (its affinity mask where the OS has one)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


#: Array elements of work each worker thread must get for it to pay.
#: Below it, starting the pool and handing the interpreter lock between
#: threads that run short NumPy calls cost what the extra cores save.
#: Measured on two cores (``train-tokens`` corpus, fits split into more
#: chunks): E-steps over ~1.6M-element chunks ran no faster on two
#: threads, ~2.4M-element chunks 1.2x faster; a small fit (8,000-token
#: chunks, ``K = 20``) ran 1.5x slower when its E-steps used threads.
MIN_PARALLEL_ELEMENTS = 1 << 20


def workers_for(elements: int) -> int:
    """Threads for ``elements`` of array work: one per :data:`MIN_PARALLEL_ELEMENTS`,
    at most :func:`worker_count`, at least one."""
    return max(1, min(worker_count(), elements // MIN_PARALLEL_ELEMENTS))


def map_blocks(
    function: Callable[[Item], Result], items: Sequence[Item], elements: int
) -> List[Result]:
    """``[function(item) for item in items]``, spread over :func:`workers_for` threads.

    ``elements`` is the array work of all blocks together.  With one
    worker (or one item) the blocks run inline and no thread is started.
    ``concurrent.futures`` is imported only when a pool is needed, so
    importing the package does not pay for it.
    """
    workers = min(workers_for(elements), len(items))
    if workers <= 1:
        return [function(item) for item in items]
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(function, items))
