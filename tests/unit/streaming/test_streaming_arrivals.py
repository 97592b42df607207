"""Unit tests for repro.streaming arrival processes and spec parsing."""

import pytest

from repro.errors import ConfigError
from repro.online.results import ArrivingJob
from repro.streaming import (
    PoissonProcess,
    TraceArrivals,
    UniformProcess,
    layered_job_factory,
    parse_arrival_spec,
    streaming_workload,
)


class TestPoissonProcess:
    def test_deterministic_for_seed(self):
        a = PoissonProcess(0.2, 30, layered_job_factory(), seed=5)
        b = PoissonProcess(0.2, 30, layered_job_factory(), seed=5)
        ja, jb = list(a.jobs()), list(b.jobs())
        assert [j.arrival_time for j in ja] == [j.arrival_time for j in jb]
        assert all(x.graph == y.graph for x, y in zip(ja, jb))

    def test_restartable(self):
        process = PoissonProcess(0.2, 20, layered_job_factory(), seed=1)
        first = list(process.jobs())
        again = list(process.jobs())
        assert [j.arrival_time for j in first] == [j.arrival_time for j in again]
        assert all(x.graph == y.graph for x, y in zip(first, again))

    def test_seed_changes_stream(self):
        a = list(PoissonProcess(0.2, 30, layered_job_factory(), seed=0).jobs())
        b = list(PoissonProcess(0.2, 30, layered_job_factory(), seed=1).jobs())
        assert [j.arrival_time for j in a] != [j.arrival_time for j in b]

    def test_nondecreasing_times_and_count(self):
        jobs = list(PoissonProcess(0.8, 100, layered_job_factory(), seed=3).jobs())
        assert len(jobs) == 100
        times = [j.arrival_time for j in jobs]
        assert times == sorted(times)

    def test_rate_controls_density(self):
        slow = list(PoissonProcess(0.01, 50, layered_job_factory(), seed=2).jobs())
        fast = list(PoissonProcess(1.0, 50, layered_job_factory(), seed=2).jobs())
        assert slow[-1].arrival_time > fast[-1].arrival_time

    def test_invalid_parameters(self):
        with pytest.raises(ConfigError):
            PoissonProcess(0.0, 10, layered_job_factory())
        with pytest.raises(ConfigError):
            PoissonProcess(0.5, 0, layered_job_factory())

    @pytest.mark.parametrize("rate", [1e-320, float("nan")])
    def test_rate_without_a_finite_mean_gap_is_refused(self, rate):
        with pytest.raises(ConfigError, match="arrival rate=.* no finite mean gap"):
            PoissonProcess(rate, 3, layered_job_factory())

    def test_arrival_past_2_63_slots_is_refused(self):
        process = PoissonProcess(1e-300, 3, layered_job_factory())
        with pytest.raises(ConfigError, match=r"arrival rate=1e-300 .* not below 2\*\*63"):
            list(process.jobs())

    def test_task_id_bound_from_factory(self):
        factory = layered_job_factory(streaming_workload(num_tasks=5))
        process = PoissonProcess(0.5, 10, factory, seed=0)
        assert process.task_id_bound == 5
        for job in process.jobs():
            assert max(job.graph.task_ids) < 5


class TestUniformProcess:
    def test_fixed_spacing(self):
        jobs = list(UniformProcess(7, 5, layered_job_factory(), seed=0).jobs())
        assert [j.arrival_time for j in jobs] == [0, 7, 14, 21, 28]

    def test_zero_interarrival_is_a_burst(self):
        jobs = list(UniformProcess(0, 4, layered_job_factory(), seed=0).jobs())
        assert [j.arrival_time for j in jobs] == [0, 0, 0, 0]


class TestTraceArrivals:
    def test_sorts_by_time_then_index(self):
        factory = layered_job_factory()
        g0, g1, g2 = (factory(i, seed) for i, seed in enumerate((3, 4, 5)))
        process = TraceArrivals(
            [ArrivingJob(9, g0), ArrivingJob(2, g1), ArrivingJob(2, g2)]
        )
        jobs = list(process.jobs())
        assert [j.arrival_time for j in jobs] == [2, 2, 9]
        assert jobs[0].graph == g1 and jobs[1].graph == g2

    def test_bound_covers_all_graphs(self):
        factory = layered_job_factory(streaming_workload(num_tasks=6))
        process = TraceArrivals([ArrivingJob(0, factory(0, 9))])
        assert process.task_id_bound == 1 + max(
            next(iter(process.jobs())).graph.task_ids
        )

    def test_empty_rejected(self):
        with pytest.raises(ConfigError):
            TraceArrivals([])


class TestParseArrivalSpec:
    def test_poisson_spec(self):
        process = parse_arrival_spec("poisson:rate=0.05,n=40", seed=3)
        assert isinstance(process, PoissonProcess)
        assert process.rate == 0.05 and process.num_jobs == 40
        assert process.seed == 3

    def test_uniform_spec(self):
        process = parse_arrival_spec("uniform:interarrival=12,n=6")
        assert isinstance(process, UniformProcess)
        assert process.interarrival == 12 and process.num_jobs == 6

    def test_trace_spec(self, tmp_path):
        from repro.traces.synthetic import TraceConfig, generate_production_trace

        trace = generate_production_trace(TraceConfig(num_jobs=4), seed=0)
        path = tmp_path / "trace.json"
        trace.save(path)
        process = parse_arrival_spec(f"trace:path={path},mean=10", seed=1)
        assert isinstance(process, TraceArrivals)
        assert len(list(process.jobs())) == 4

    @pytest.mark.parametrize(
        "spec",
        [
            "warp:rate=1,n=5",  # unknown kind
            "poisson:n=5",  # missing rate
            "poisson:rate=0.1",  # missing n
            "poisson:rate=0.1,n=5,extra=1",  # leftover option
            "poisson:rate=abc,n=5",  # bad number
            "uniform:interarrival",  # not key=value
            "trace:mean=10",  # missing path
        ],
    )
    def test_bad_specs_rejected(self, spec):
        with pytest.raises(ConfigError):
            parse_arrival_spec(spec)

    def test_trace_with_both_mean_and_interarrival_names_both(self, tmp_path):
        from repro.traces.synthetic import TraceConfig, generate_production_trace

        path = tmp_path / "trace.json"
        generate_production_trace(TraceConfig(num_jobs=2), seed=0).save(path)
        spec = f"trace:path={path},mean=5,interarrival=3"
        with pytest.raises(ConfigError) as error:
            parse_arrival_spec(spec)
        assert str(error.value) == (
            f"arrival spec {spec!r}: needs exactly one of 'mean' and 'interarrival'"
        )

    def test_factory_without_bound_rejected(self):
        def factory(index, seed):  # pragma: no cover - never called
            raise AssertionError

        with pytest.raises(ConfigError):
            parse_arrival_spec("poisson:rate=0.1,n=5", factory)
