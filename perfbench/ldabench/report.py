"""One run's outcome and the lines the command prints."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Dict, List, Tuple


@dataclass
class RunResult:
    """Metrics (value, sample count), operation counts and failure notes."""

    workload: str
    attempted: int
    failed: int
    notes: List[str] = field(default_factory=list)
    metrics: Dict[str, Tuple[float, int]] = field(default_factory=dict)
    info: Dict[str, object] = field(default_factory=dict)

    def add(self, name: str, value: float, samples: int) -> None:
        if name in self.metrics:
            raise ValueError(f"metric {name} reported twice")
        self.metrics[name] = (float(value), int(samples))

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.notes and all(
            math.isfinite(value) for value, _ in self.metrics.values()
        )


def metric_lines(result: RunResult, units: Dict[str, str]) -> List[str]:
    """``name value unit (n=samples)`` for every metric, in catalogue order."""
    lines = []
    for name, unit in units.items():
        value, samples = result.metrics[name]
        lines.append(f"  {name:<30} {value:>16.6g} {unit:<6} (n={samples})")
    return lines


def result_line(result: RunResult, units: Dict[str, str]) -> str:
    """The final JSON line: exactly ``correct``, ``attempted``, ``failed``, ``metrics``."""
    if set(result.metrics) != set(units):
        missing = sorted(set(units) - set(result.metrics))
        extra = sorted(set(result.metrics) - set(units))
        raise ValueError(f"metrics differ from the catalogue: missing {missing}, extra {extra}")
    correct = result.correct
    metrics = {}
    for name, unit in units.items():
        value = result.metrics[name][0]
        metrics[name] = {"value": value if math.isfinite(value) else 0.0, "unit": unit}
    return json.dumps(
        {
            "correct": correct,
            "attempted": int(result.attempted),
            "failed": int(max(result.failed, 0 if correct else 1)),
            "metrics": metrics,
        },
        allow_nan=False,
    )
