"""repro.telemetry — structured tracing + metrics, zero dependencies.

The observability layer behind the instrumented search, training and
serving paths (DESIGN.md Sec. 9).  Quick tour::

    from repro.telemetry import TelemetryConfig, session, active

    with session(TelemetryConfig(enabled=True, jsonl_path="run.jsonl")):
        MctsScheduler(...).plan(request)        # spans + counters land
    # run.jsonl now holds the versioned JSONL trace

    # library code (always on, no-op while disabled):
    tm = active()
    with tm.span("mcts.decision", depth=3):
        ...
    tm.inc("mcts.rollouts")

Offline, ``repro trace summary run.jsonl`` (see
:mod:`repro.telemetry.analyze`) reports span counts, p50/p99 timings and
training-curve series.
"""

from .analyze import (
    LoadedTrace,
    SpanStats,
    TraceSummary,
    load_trace,
    summarize,
    top_spans,
    write_trace,
)
from .config import TelemetryConfig
from .events import SCHEMA_VERSION, TelemetryEvent
from .metrics import Counter, Gauge, Histogram, MetricsRegistry, Series
from .runtime import (
    DISABLED,
    DisabledTelemetry,
    Telemetry,
    active,
    session,
)
from .sinks import InMemorySink, JsonlSink, Sink
from .tracing import NOOP_SPAN, NoopSpan, Span, Tracer

__all__ = [
    "SCHEMA_VERSION",
    "TelemetryConfig",
    "TelemetryEvent",
    "Telemetry",
    "DisabledTelemetry",
    "DISABLED",
    "active",
    "session",
    "Counter",
    "Gauge",
    "Histogram",
    "Series",
    "MetricsRegistry",
    "Sink",
    "InMemorySink",
    "JsonlSink",
    "Span",
    "NoopSpan",
    "NOOP_SPAN",
    "Tracer",
    "LoadedTrace",
    "SpanStats",
    "TraceSummary",
    "load_trace",
    "write_trace",
    "summarize",
    "top_spans",
]
