"""Span-based tracing: ``with tracer.span("mcts.select"): ...``.

A span is a timed region with structured attributes; nesting is tracked
with an explicit stack on the tracer (the library is single-threaded by
design — parallel MCTS workers are separate *processes* with their own
pipelines), so every completed span knows its depth and enclosing span
name without thread-local machinery.

The disabled path matters more than the enabled one here: when the
owning pipeline is off, ``span()`` returns one shared pre-allocated
no-op object whose ``__enter__``/``__exit__`` do nothing — no
allocation, no clock read — which is what keeps instrumented hot loops
cheap with telemetry off.  ``repro bench`` prices that no-op
(``telemetry.span_disabled``, gated by ``benchmarks/baselines.json``).
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, List, Optional

from .events import TelemetryEvent

__all__ = ["Span", "NoopSpan", "NOOP_SPAN", "Tracer"]


class NoopSpan:
    """Shared do-nothing stand-in returned while telemetry is disabled."""

    __slots__ = ()

    def __enter__(self) -> "NoopSpan":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        return None

    def set(self, **attrs: Any) -> "NoopSpan":
        """Discard attributes (API-compatible with :class:`Span`)."""
        return self


#: The singleton every disabled ``span()`` call returns.
NOOP_SPAN = NoopSpan()


class Span:
    """One live timed region; emits a ``span`` event when it exits."""

    __slots__ = ("_tracer", "name", "attrs", "_start", "_depth", "_parent")

    def __init__(self, tracer: "Tracer", name: str, attrs: Dict[str, Any]) -> None:
        self._tracer = tracer
        self.name = name
        self.attrs = attrs
        self._start = 0.0
        self._depth = 0
        self._parent: Optional[str] = None

    def set(self, **attrs: Any) -> "Span":
        """Attach/overwrite attributes; chainable inside the region."""
        self.attrs.update(attrs)
        return self

    def __enter__(self) -> "Span":
        stack = self._tracer._stack
        self._depth = len(stack)
        self._parent = stack[-1] if stack else None
        stack.append(self.name)
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        duration_us = (time.perf_counter() - self._start) * 1e6
        self._tracer._stack.pop()
        self._tracer._complete(self, duration_us)
        return None


class Tracer:
    """Span factory bound to one pipeline's emit function."""

    def __init__(self, emit: Callable[[TelemetryEvent], None]) -> None:
        self._emit = emit
        self._stack: List[str] = []

    def span(self, name: str, **attrs: Any) -> Span:
        """Open a new span (use as a context manager)."""
        return Span(self, name, attrs)

    @property
    def depth(self) -> int:
        """Number of currently open spans."""
        return len(self._stack)

    def _complete(self, span: Span, duration_us: float) -> None:
        self._emit(
            TelemetryEvent(
                kind="span",
                name=span.name,
                seq=-1,  # assigned by the pipeline at emit time
                wall_time=time.time(),
                duration_us=duration_us,
                depth=span._depth,
                parent=span._parent,
                attrs=span.attrs,
            )
        )
