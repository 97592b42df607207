"""The telemetry pipeline and the global default-off switch.

One :class:`Telemetry` object owns a tracer, a metrics registry and a
set of sinks.  The module-level *active* pipeline (default: a shared
:data:`DISABLED` instance) is what instrumented library code talks to:

    from ..telemetry import runtime as telemetry

    tm = telemetry.active()
    with tm.span("mcts.decision", depth=d):
        ...
    tm.inc("mcts.rollouts", stats.rollouts)

Every method on the disabled pipeline is a no-op returning immediately,
so instrumentation points cost one attribute load and one call when
telemetry is off — cheap enough for the bench gate (the enabled/disabled
delta is itself benchmarked as ``telemetry.span_*``).

There is one way to turn telemetry on: :func:`session`, a ``with``
block that installs a pipeline, then flushes and closes it and restores
the previous one on exit (the CLI's ``--trace-out``, the experiments,
the tests).  Components take no pipeline of their own; each reads
:func:`active` when it runs.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import replace
from typing import Any, Dict, Iterator, List, Optional, Union

from .config import TelemetryConfig
from .events import TelemetryEvent
from .metrics import MetricsRegistry, Series
from .sinks import InMemorySink, JsonlSink, Sink
from .tracing import NOOP_SPAN, NoopSpan, Span, Tracer

__all__ = [
    "Telemetry",
    "DisabledTelemetry",
    "DISABLED",
    "active",
    "session",
]


class Telemetry:
    """One live telemetry pipeline (tracer + metrics + sinks)."""

    enabled = True

    def __init__(self, config: Optional[TelemetryConfig] = None) -> None:
        self.config = (
            config if config is not None else TelemetryConfig(enabled=True)
        )
        self.metrics = MetricsRegistry()
        self.tracer = Tracer(self._emit)
        self._seq = 0
        self._memory: Optional[InMemorySink] = None
        self._closed = False
        self.sinks: List[Sink] = []
        if self.config.capture_memory:
            self._memory = InMemorySink(self.config.max_events)
            self.sinks.append(self._memory)
        if self.config.jsonl_path:
            self.sinks.append(JsonlSink(self.config.jsonl_path))

    # ------------------------------------------------------------------ #
    # emission primitives
    # ------------------------------------------------------------------ #

    def _emit(self, event: TelemetryEvent) -> None:
        self._seq += 1
        if event.seq != self._seq:
            event = replace(event, seq=self._seq)
        for sink in self.sinks:
            sink.handle(event)

    def span(self, name: str, **attrs: Any) -> Union[Span, NoopSpan]:
        """A live span; time a region with ``with tm.span(...) as sp:``."""
        return self.tracer.span(name, **attrs)

    def event(self, name: str, **attrs: Any) -> None:
        """Emit an instantaneous ``point`` event."""
        self._emit(
            TelemetryEvent(
                kind="point",
                name=name,
                seq=0,
                wall_time=time.time(),
                attrs=attrs,
            )
        )

    def log(self, name: str, message: str, **attrs: Any) -> None:
        """Emit a ``log`` event (the message rides in ``attrs``)."""
        attrs["message"] = message
        self._emit(
            TelemetryEvent(
                kind="log",
                name=name,
                seq=0,
                wall_time=time.time(),
                attrs=attrs,
            )
        )

    # ------------------------------------------------------------------ #
    # metric helpers (the shapes instrumented code actually calls)
    # ------------------------------------------------------------------ #

    def inc(self, name: str, amount: float = 1) -> None:
        """Increment the counter ``name``."""
        self.metrics.counter(name).inc(amount)

    def gauge(self, name: str, value: float) -> None:
        """Set the gauge ``name``."""
        self.metrics.gauge(name).set(value)

    def observe(self, name: str, value: float) -> None:
        """Record one sample into the histogram ``name``."""
        self.metrics.histogram(name).observe(value)

    def record(self, name: str, step: int, value: float) -> None:
        """Append to the series ``name`` and stream the sample as an event."""
        self.metrics.series(name).record(step, value)
        self._emit(
            TelemetryEvent(
                kind="series",
                name=name,
                seq=0,
                wall_time=time.time(),
                step=step,
                value=float(value),
            )
        )

    # ------------------------------------------------------------------ #
    # lifecycle / access
    # ------------------------------------------------------------------ #

    def events(self) -> List[TelemetryEvent]:
        """Events retained in memory (empty without a memory sink)."""
        return self._memory.events() if self._memory is not None else []

    def flush(self) -> None:
        """Emit one ``metric`` snapshot per registered metric; flush sinks.

        Series are skipped — their samples were already streamed by
        :meth:`record`, and a snapshot would double-count them.
        """
        for name, snapshot in self.metrics.snapshots():
            if snapshot.get("type") == "series":
                continue
            self._emit(
                TelemetryEvent(
                    kind="metric",
                    name=name,
                    seq=0,
                    wall_time=time.time(),
                    value=snapshot.get("total", snapshot.get("value")),
                    attrs=snapshot,
                )
            )
        for sink in self.sinks:
            sink.flush()

    def close(self) -> None:
        """Flush metric snapshots (once) and close every sink."""
        if self._closed:
            return
        self.flush()
        self._closed = True
        for sink in self.sinks:
            sink.close()

    def series_dict(self) -> Dict[str, Series]:
        """Every recorded series, keyed by name."""
        return {
            name: metric
            for name, metric in self.metrics.all_metrics().items()
            if isinstance(metric, Series)
        }


class DisabledTelemetry:
    """The no-op pipeline: every method returns immediately.

    API-compatible with :class:`Telemetry`; the single shared instance
    (:data:`DISABLED`) is what :func:`active` returns by default.
    """

    enabled = False
    sinks: List[Sink] = []

    def span(self, name: str, **attrs: Any) -> NoopSpan:
        """The shared no-op span."""
        return NOOP_SPAN

    def event(self, name: str, **attrs: Any) -> None:
        """Discard."""

    def log(self, name: str, message: str, **attrs: Any) -> None:
        """Discard."""

    def inc(self, name: str, amount: float = 1) -> None:
        """Discard."""

    def gauge(self, name: str, value: float) -> None:
        """Discard."""

    def observe(self, name: str, value: float) -> None:
        """Discard."""

    def record(self, name: str, step: int, value: float) -> None:
        """Discard."""

    def events(self) -> List[TelemetryEvent]:
        """Always empty."""
        return []

    def flush(self) -> None:
        """No-op."""

    def close(self) -> None:
        """No-op."""

    def series_dict(self) -> Dict[str, Series]:
        """Always empty."""
        return {}


#: The shared disabled pipeline.
DISABLED = DisabledTelemetry()

#: Type alias for "any pipeline" — instrumented code accepts either.
TelemetryLike = Union[Telemetry, DisabledTelemetry]

_active: TelemetryLike = DISABLED


def active() -> TelemetryLike:
    """The globally active pipeline (the disabled singleton by default)."""
    return _active


@contextmanager
def session(config: TelemetryConfig) -> Iterator[TelemetryLike]:
    """Activate a pipeline for a ``with`` block; close and restore after.

    The pipeline is flushed and closed on exit (completing the JSONL
    trace, when configured), and the previously active pipeline is
    restored even on error.
    """
    global _active
    previous = _active
    pipeline: TelemetryLike = Telemetry(config) if config.enabled else DISABLED
    _active = pipeline
    try:
        yield pipeline
    finally:
        _active = previous
        pipeline.close()
