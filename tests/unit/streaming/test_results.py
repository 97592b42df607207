"""Unit tests for streaming result metrics and the percentile helper."""

import json

import pytest

from repro.config import ClusterConfig
from repro.online import sjf_ranker
from repro.streaming import (
    PoissonProcess,
    StreamingSimulator,
    layered_job_factory,
    percentile,
)


class TestPercentile:
    def test_nearest_rank(self):
        values = [10, 20, 30, 40]
        assert percentile(values, 50) == 20.0
        assert percentile(values, 51) == 30.0
        assert percentile(values, 99) == 40.0
        assert percentile(values, 100) == 40.0

    def test_zero_maps_to_minimum(self):
        assert percentile([7, 3, 5], 0) == 3.0

    def test_empty_is_zero(self):
        assert percentile([], 99) == 0.0

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            percentile([1], 101)
        with pytest.raises(ValueError):
            percentile([1], -1)


def _run(seed=0):
    arrivals = PoissonProcess(0.1, 25, layered_job_factory(), seed=seed)
    sim = StreamingSimulator(ClusterConfig(capacities=(10, 10), horizon=8))
    return sim.run(arrivals, sjf_ranker)


class TestMetricsDict:
    def test_schema_and_accounting(self):
        result = _run()
        metrics = result.metrics_dict()
        assert metrics["schema"] == 1
        jobs = metrics["jobs"]
        assert jobs["arrivals"] == 25
        assert jobs["admitted"] == jobs["arrivals"] - jobs["rejected"]
        assert jobs["completed"] + jobs["failed"] == jobs["admitted"]
        assert metrics["jct"]["p50"] <= metrics["jct"]["p99"] <= metrics["jct"]["max"]
        assert metrics["horizon"]["span"] >= 1
        assert metrics["horizon"]["cutoff"] == -1

    def test_json_serializable_and_stable(self):
        a = json.dumps(_run().metrics_dict(), sort_keys=True, indent=2)
        b = json.dumps(_run().metrics_dict(), sort_keys=True, indent=2)
        assert a == b

    def test_in_system_series_compressed(self):
        result = _run()
        series = result.in_system
        assert series, "steady run must sample the in-system trajectory"
        times = [t for t, _ in series]
        assert times == sorted(times) and len(times) == len(set(times))
        # compression: no two consecutive samples repeat the same count
        counts = [c for _, c in series]
        assert all(a != b for a, b in zip(counts, counts[1:]))
        assert result.peak_in_system == max(counts)

    def test_report_mentions_headline_numbers(self):
        result = _run()
        text = result.report()
        assert f"arrivals {result.arrivals}" in text
        assert "throughput" in text
