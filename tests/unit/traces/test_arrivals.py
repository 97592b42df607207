"""Unit tests for trace arrival-stream construction."""

import pytest

from repro.errors import ConfigError
from repro.traces import (
    Trace,
    TraceConfig,
    generate_production_trace,
    poisson_arrivals,
    uniform_arrivals,
)


@pytest.fixture(scope="module")
def trace():
    return generate_production_trace(
        TraceConfig(num_jobs=8, runtime_scale=0.2), seed=0
    )


class TestUniformArrivals:
    def test_fixed_spacing(self, trace):
        stream = uniform_arrivals(trace, 15)
        assert [j.arrival_time for j in stream] == [15 * i for i in range(8)]

    def test_zero_spacing_batch(self, trace):
        stream = uniform_arrivals(trace, 0)
        assert all(j.arrival_time == 0 for j in stream)

    def test_graphs_preserved(self, trace):
        stream = uniform_arrivals(trace, 10)
        assert [j.graph for j in stream] == trace.graphs()

    def test_empty_trace_rejected(self):
        with pytest.raises(ConfigError):
            uniform_arrivals(Trace(), 10)

    def test_negative_spacing_rejected(self, trace):
        with pytest.raises(ConfigError):
            uniform_arrivals(trace, -1)


class TestPoissonArrivals:
    def test_monotone_non_negative(self, trace):
        stream = poisson_arrivals(trace, 20.0, seed=0)
        times = [j.arrival_time for j in stream]
        assert all(t >= 0 for t in times)
        assert times == sorted(times)

    def test_seeded_reproducibility(self, trace):
        a = [j.arrival_time for j in poisson_arrivals(trace, 20.0, seed=3)]
        b = [j.arrival_time for j in poisson_arrivals(trace, 20.0, seed=3)]
        assert a == b

    def test_mean_roughly_matches(self):
        big = generate_production_trace(
            TraceConfig(num_jobs=60, runtime_scale=0.1), seed=1
        )
        stream = poisson_arrivals(big, 10.0, seed=2)
        span = stream[-1].arrival_time - stream[0].arrival_time
        mean_gap = span / (len(stream) - 1)
        assert 6.0 <= mean_gap <= 15.0

    def test_invalid_mean_rejected(self, trace):
        with pytest.raises(ConfigError):
            poisson_arrivals(trace, 0.0)

    def test_runs_through_the_simulator(self, trace):
        from repro.online import OnlineSimulator, fifo_ranker

        stream = poisson_arrivals(trace, 30.0, seed=0)
        result = OnlineSimulator().run(stream, fifo_ranker)
        assert len(result.outcomes) == len(trace)
