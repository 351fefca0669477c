"""Small measurement helpers: percentiles, memory, machine fingerprint."""

from __future__ import annotations

import os
import platform
import resource
import sys
from typing import Dict, Sequence, Tuple

import numpy as np


def median(values: Sequence[float]) -> float:
    if len(values) == 0:
        raise ValueError("median of no samples")
    return float(np.median(np.asarray(values, dtype=np.float64)))


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolation percentile ``q`` in [0, 100]."""
    if len(values) == 0:
        raise ValueError("percentile of no samples")
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def own_peak_rss_mb() -> float:
    """Peak resident set of this process (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def process_peak_rss_mb(pid: int) -> float:
    """``VmHWM`` of another live process, in MB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise ValueError(f"no VmHWM for pid {pid}")


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _total_memory_mb() -> float:
    try:
        with open("/proc/meminfo", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("MemTotal:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return float("nan")


def cpu_ticks() -> Tuple[int, int]:
    """Cumulative ``(steal, total)`` CPU ticks from /proc/stat (zeros if absent)."""
    try:
        with open("/proc/stat", encoding="ascii") as handle:
            fields = [int(value) for value in handle.readline().split()[1:]]
    except (OSError, ValueError):
        return 0, 0
    return (fields[7] if len(fields) > 7 else 0), sum(fields[:8])


def fingerprint() -> Dict[str, object]:
    """The machine a result was measured on."""
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "total_memory_mb": round(_total_memory_mb(), 1),
        "platform": platform.platform(),
    }
