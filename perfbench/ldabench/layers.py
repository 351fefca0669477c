"""Outside-in layer tracing: wrappers around the program's public functions.

A :class:`LayerProbe` replaces named attributes (module functions, class
methods, classmethods) with timing wrappers that record one span per
call on a ``repro.telemetry`` tracer, count calls, and hand each call's
arguments, result and monotonic start/end to an optional hook.  Nothing
in the program changes: :meth:`LayerProbe.close` puts every original
attribute back.

A wrapped name that no longer exists raises :class:`LayerTraceError` at
install time, and :meth:`LayerProbe.require_calls` raises when a layer
recorded no call, so a rename in the program cannot silently zero a
layer's row.
"""

from __future__ import annotations

import contextlib
import time
from collections import Counter
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.telemetry import Span, Tracer

#: Called after each wrapped call: ``(args, kwargs, result, start, end)``
#: with ``start``/``end`` read from ``time.monotonic()``.
Hook = Callable[[tuple, dict, object, float, float], None]


class LayerTraceError(RuntimeError):
    """A wrapped name is missing, or a required layer recorded no call."""


class LayerProbe:
    """Installs, records and removes the benchmark's layer wrappers."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.calls: Counter = Counter()
        self._saved: List[Tuple[object, str, object]] = []
        self._depth = 0

    def wrap(
        self,
        owner: object,
        attr: str,
        span: str,
        hook: Optional[Hook] = None,
        around: Optional[Callable[[], contextlib.AbstractContextManager]] = None,
    ) -> None:
        """Time every call of ``owner.attr`` as span ``span``.

        ``around`` is entered inside the span, around the call (e.g. a
        tracemalloc window).  Raises :class:`LayerTraceError` when
        ``owner`` has no attribute ``attr`` of its own.
        """
        raw = vars(owner).get(attr)
        if raw is None:
            owner_name = getattr(owner, "__name__", type(owner).__name__)
            raise LayerTraceError(f"cannot trace {owner_name}.{attr}: no such attribute")
        target = getattr(owner, attr)
        probe = self
        tracer = self.tracer

        def traced(*args, **kwargs):
            probe.calls[span] += 1
            depth = probe._depth
            probe._depth += 1
            begin = tracer.clock.now()
            started = time.monotonic()
            try:
                if around is None:
                    result = target(*args, **kwargs)
                else:
                    with around():
                        result = target(*args, **kwargs)
            finally:
                finished = time.monotonic()
                probe._depth = depth
                tracer.add_span(span, begin, tracer.clock.now() - begin, depth=depth)
            if hook is not None:
                hook(args, kwargs, result, started, finished)
            return result

        traced.__wrapped__ = target
        self._saved.append((owner, attr, raw))
        setattr(owner, attr, traced)

    def require_calls(self, spans: Iterable[str]) -> None:
        """Raise unless every named span recorded at least one call."""
        silent = [span for span in spans if self.calls[span] == 0]
        if silent:
            raise LayerTraceError(f"traced layers recorded no call: {', '.join(silent)}")

    def close(self) -> None:
        """Restore every wrapped attribute (last wrapped first)."""
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    def __enter__(self) -> "LayerProbe":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Self time of each span (by ``seq``): its duration minus its children's.

    Spans must come from one thread, properly nested; a child is the
    next-deeper span whose interval starts inside its parent's.
    """
    ordered = sorted(spans, key=lambda span: (span.start_seconds, span.depth))
    own = {span.seq: span.duration_seconds for span in ordered}
    stack: List[Span] = []
    for span in ordered:
        while stack and (
            stack[-1].depth >= span.depth or span.start_seconds >= stack[-1].end_seconds
        ):
            stack.pop()
        if stack:
            own[stack[-1].seq] -= span.duration_seconds
        stack.append(span)
    return own


def subtree(spans: Sequence[Span], root: Span) -> List[Span]:
    """``root`` and every deeper span that starts inside it."""
    return [
        span
        for span in spans
        if span.seq == root.seq
        or (
            span.depth > root.depth
            and root.start_seconds <= span.start_seconds < root.end_seconds
        )
    ]


def layer_rows(
    spans: Sequence[Span], root: Span, layers: Dict[str, Sequence[str]]
) -> Tuple[Dict[str, float], float]:
    """Wall seconds per layer inside ``root`` plus the residual.

    A layer's row is the summed self time of its span names, so a layer
    nested inside another (say, the dense likelihood inside the sparse
    one) is charged to itself once.  The residual is ``root``'s own self
    time; rows plus residual equal ``root``'s duration plus the self
    time of spans no layer names (reported under ``"unassigned"``).
    """
    inside = subtree(spans, root)
    own = self_times(inside)
    owner = {name: layer for layer, names in layers.items() for name in names}
    rows = {layer: 0.0 for layer in layers}
    rows["unassigned"] = 0.0
    for span in inside:
        if span.seq == root.seq:
            continue
        rows[owner.get(span.name, "unassigned")] += own[span.seq]
    return rows, own[root.seq]
