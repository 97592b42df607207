"""Unit tests for the microbenchmark runner."""

import pytest

from repro.bench.runner import (
    REPEATS,
    WARMUP,
    BenchmarkSpec,
    BenchResult,
    BenchRun,
    machine_metadata,
    run_benchmarks,
)
from repro.errors import ConfigError


def counting_spec(name="demo.count", **kwargs):
    """A spec whose thunk just counts invocations into ``calls``."""
    calls = []

    def setup():
        def thunk():
            calls.append(None)

        return thunk

    spec = BenchmarkSpec(name, setup, **kwargs)
    return spec, calls


class TestRunBenchmarks:
    def test_warmup_plus_repeats_invocations(self):
        spec, calls = counting_spec()
        run = run_benchmarks([spec])
        assert len(calls) == WARMUP + REPEATS
        assert run.result("demo.count").repeats == REPEATS

    def test_thunk_ops_attribute_overrides_inner_ops(self):
        def setup():
            def thunk():
                pass

            thunk.ops = 42
            return thunk

        spec = BenchmarkSpec("demo.ops", setup, inner_ops=7)
        run = run_benchmarks([spec])
        assert run.result("demo.ops").inner_ops == 42

    def test_progress_callback_called_per_benchmark(self):
        lines = []
        a, _ = counting_spec("demo.a")
        b, _ = counting_spec("demo.b")
        run_benchmarks([a, b], progress=lines.append)
        assert len(lines) == 2
        assert "demo.a" in lines[0] and "demo.b" in lines[1]


class TestBenchResult:
    def test_from_samples_statistics(self):
        spec, _ = counting_spec("demo.stats")
        # 10 ops per invocation, samples in seconds.
        result = BenchResult.from_samples(spec, [1e-3, 2e-3, 3e-3], inner_ops=10)
        assert result.mean_us == pytest.approx(200.0)
        assert result.median_us == pytest.approx(200.0)
        assert result.min_us == pytest.approx(100.0)
        assert result.max_us == pytest.approx(300.0)
        assert result.stdev_us == pytest.approx(100.0)
        assert result.repeats == 3 and result.inner_ops == 10

    def test_single_sample_has_zero_stdev(self):
        spec, _ = counting_spec("demo.one")
        result = BenchResult.from_samples(spec, [5e-6], inner_ops=1)
        assert result.stdev_us == 0.0


class TestBenchRun:
    def test_result_lookup_unknown_raises(self):
        run = BenchRun(meta={})
        with pytest.raises(ConfigError):
            run.result("missing")


def test_machine_metadata_fields():
    meta = machine_metadata()
    for key in ("timestamp", "platform", "python", "cpu_count"):
        assert key in meta
