"""Unit tests for the pipeline runtime, tracing, sinks and activation."""

import json

import pytest

from repro.errors import ConfigError
from repro.telemetry import (
    DISABLED,
    NOOP_SPAN,
    InMemorySink,
    JsonlSink,
    Telemetry,
    TelemetryConfig,
    active,
    session,
)


@pytest.fixture(autouse=True)
def _restore_global_pipeline():
    with session(TelemetryConfig()):
        yield


class TestDisabledPipeline:
    def test_default_active_is_disabled(self):
        assert active() is DISABLED
        assert not active().enabled

    def test_span_is_shared_noop_singleton(self):
        assert DISABLED.span("a", x=1) is NOOP_SPAN
        assert DISABLED.span("b") is NOOP_SPAN

    def test_noop_span_context_and_set(self):
        with DISABLED.span("a") as span:
            assert span.set(foo=1) is span

    def test_metric_calls_discard(self):
        DISABLED.inc("c", 5)
        DISABLED.gauge("g", 1.0)
        DISABLED.observe("h", 2.0)
        DISABLED.record("s", 0, 1.0)
        DISABLED.event("p", k=1)
        DISABLED.log("l", "msg")
        assert DISABLED.events() == []
        assert DISABLED.series_dict() == {}


class TestSpans:
    def test_span_event_has_duration_and_attrs(self):
        tm = Telemetry()
        with tm.span("work", size=3) as span:
            span.set(result=7)
        (event,) = tm.events()
        assert event.kind == "span"
        assert event.name == "work"
        assert event.duration_us is not None and event.duration_us >= 0
        assert event.attrs == {"size": 3, "result": 7}

    def test_nesting_depth_and_parent(self):
        tm = Telemetry()
        with tm.span("outer"):
            with tm.span("inner"):
                assert tm.tracer.depth == 2
        inner, outer = tm.events()
        assert inner.name == "inner" and inner.depth == 1
        assert inner.parent == "outer"
        assert outer.name == "outer" and outer.depth == 0
        assert outer.parent is None

    def test_seq_is_monotonic(self):
        tm = Telemetry()
        for _ in range(3):
            with tm.span("s"):
                pass
        assert [e.seq for e in tm.events()] == [1, 2, 3]


class TestMetricsAndEvents:
    def test_counters_survive_to_flush_snapshot(self):
        tm = Telemetry()
        tm.inc("hits", 2)
        tm.inc("hits")
        tm.flush()
        (metric,) = [e for e in tm.events() if e.kind == "metric"]
        assert metric.name == "hits"
        assert metric.value == 3

    def test_record_streams_series_event_and_registers(self):
        tm = Telemetry()
        tm.record("loss", 0, 0.5)
        tm.record("loss", 1, 0.25)
        series_events = [e for e in tm.events() if e.kind == "series"]
        assert [(e.step, e.value) for e in series_events] == [(0, 0.5), (1, 0.25)]
        assert tm.series_dict()["loss"].values == [0.5, 0.25]

    def test_flush_skips_series_snapshots(self):
        tm = Telemetry()
        tm.record("loss", 0, 0.5)
        tm.flush()
        assert not [
            e
            for e in tm.events()
            if e.kind == "metric" and e.attrs.get("type") == "series"
        ]

    def test_close_is_idempotent(self):
        tm = Telemetry()
        tm.inc("c")
        tm.close()
        events_after_first_close = len(tm.events())
        tm.close()
        assert len(tm.events()) == events_after_first_close


class TestActivation:
    def test_disabled_session_is_the_noop(self):
        with session(TelemetryConfig(enabled=True)):
            with session(TelemetryConfig()) as inner:
                assert inner is DISABLED and active() is DISABLED

    def test_session_installs_and_restores(self):
        with session(TelemetryConfig(enabled=True)) as tm:
            assert active() is tm
            with tm.span("inside"):
                pass
        assert active() is DISABLED

    def test_session_restores_on_error(self):
        with pytest.raises(RuntimeError):
            with session(TelemetryConfig(enabled=True)):
                raise RuntimeError("boom")
        assert active() is DISABLED



class TestSinks:
    def test_in_memory_ring_drops_oldest(self):
        tm = Telemetry(TelemetryConfig(enabled=True, max_events=2))
        for index in range(4):
            tm.event(f"e{index}")
        sink = tm.sinks[0]
        assert isinstance(sink, InMemorySink)
        assert [e.name for e in tm.events()] == ["e2", "e3"]
        assert sink.dropped == 2

    def test_jsonl_sink_writes_header_then_events(self, tmp_path):
        path = tmp_path / "run.jsonl"
        tm = Telemetry(
            TelemetryConfig(enabled=True, jsonl_path=str(path))
        )
        with tm.span("work"):
            pass
        tm.close()
        lines = path.read_text().splitlines()
        header = json.loads(lines[0])
        assert header["kind"] == "header" and header["schema"] == 1
        assert json.loads(lines[1])["name"] == "work"

    def test_jsonl_sink_creates_parent_dirs(self, tmp_path):
        path = tmp_path / "deep" / "nested" / "run.jsonl"
        JsonlSink(path).close()
        assert path.exists()

    def test_registry_type_conflict_propagates(self):
        tm = Telemetry()
        tm.inc("name")
        with pytest.raises(ConfigError):
            tm.gauge("name", 1.0)
