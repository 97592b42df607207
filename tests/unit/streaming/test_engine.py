"""Unit tests for the steady-state streaming engine."""

import pytest

from repro.config import ClusterConfig
from repro.errors import ConfigError
from repro.online import sjf_ranker, tetris_ranker
from repro.online.results import ArrivingJob, verify_execution
from repro.streaming import (
    AdmissionConfig,
    PoissonProcess,
    StreamingSimulator,
    TraceArrivals,
    UniformProcess,
    layered_job_factory,
    streaming_workload,
)

CLUSTER = ClusterConfig(capacities=(10, 10), horizon=8)


def _poisson(rate=0.1, n=30, seed=0):
    return PoissonProcess(rate, n, layered_job_factory(), seed=seed)


class TestSteadyRun:
    def test_unbounded_admits_everything(self):
        result = StreamingSimulator(CLUSTER).run(_poisson(), sjf_ranker)
        assert result.arrivals == 30
        assert result.admitted == 30 and not result.rejected
        assert result.online.completed_jobs == 30
        assert result.queueing_delays == (0,) * 30

    def test_determinism(self):
        a = StreamingSimulator(CLUSTER).run(_poisson(seed=4), sjf_ranker)
        b = StreamingSimulator(CLUSTER).run(_poisson(seed=4), sjf_ranker)
        assert a == b
        assert a.metrics_dict() == b.metrics_dict()

    def test_executed_schedules_verify(self):
        arrivals = _poisson(rate=0.2, n=20, seed=2)
        result = StreamingSimulator(CLUSTER).run(arrivals, tetris_ranker)
        jobs = list(arrivals.jobs())
        reports = verify_execution(result.online, jobs, CLUSTER.capacities)
        assert len(reports) == 20
        assert all(report.violations == () for report in reports)

    def test_empty_stream_rejected(self):
        class Empty:
            task_id_bound = 8

            def jobs(self):
                return iter(())

        with pytest.raises(ConfigError):
            StreamingSimulator(CLUSTER).run(Empty(), sjf_ranker)


class TestBoundedAdmission:
    def test_backpressure_queues_and_rejects(self):
        # A burst of simultaneous arrivals against max_concurrent=2 and a
        # backlog of 2 must queue two jobs and shed the rest.
        factory = layered_job_factory(streaming_workload(num_tasks=4))
        arrivals = TraceArrivals(
            [ArrivingJob(0, factory(i, i)) for i in range(8)]
        )
        admission = AdmissionConfig(max_concurrent=2, max_queue=2)
        result = StreamingSimulator(CLUSTER).run(
            arrivals, sjf_ranker, admission=admission
        )
        assert result.arrivals == 8
        assert result.admitted == 4
        assert len(result.rejected) == 4
        assert all(r.reason == "backpressure" for r in result.rejected)
        assert result.admitted + len(result.rejected) == result.arrivals
        # the two backlogged jobs waited for a slot
        assert sum(1 for d in result.queueing_delays if d > 0) == 2

    def test_in_system_never_exceeds_limits(self):
        admission = AdmissionConfig(max_concurrent=3, max_queue=5)
        result = StreamingSimulator(CLUSTER).run(
            _poisson(rate=0.5, n=40, seed=1), sjf_ranker, admission=admission
        )
        # in-system counts active plus backlog, so the hard ceiling is
        # max_concurrent + max_queue.
        assert result.peak_in_system <= 3 + 5
        assert result.admitted + len(result.rejected) == result.arrivals

    def test_queueing_delay_reflects_wait(self):
        admission = AdmissionConfig(max_concurrent=1)
        result = StreamingSimulator(CLUSTER).run(
            UniformProcess(0, 3, layered_job_factory(), seed=0),
            sjf_ranker,
            admission=admission,
        )
        assert result.admitted == 3
        delays = sorted(result.queueing_delays)
        assert delays[0] == 0 and delays[-1] > 0


class TestHorizon:
    def test_cutoff_sheds_late_arrivals(self):
        arrivals = UniformProcess(10, 10, layered_job_factory(), seed=0)
        result = StreamingSimulator(CLUSTER).run(
            arrivals, sjf_ranker, horizon=35
        )
        assert result.horizon_cutoff == 35
        assert result.admitted < 10
        assert result.rejected and all(
            r.reason == "horizon" for r in result.rejected
        )
        assert result.admitted + len(result.rejected) == result.arrivals
        assert all(r.arrival_time > 35 for r in result.rejected)

    def test_generous_horizon_changes_nothing(self):
        base = StreamingSimulator(CLUSTER).run(_poisson(seed=3), sjf_ranker)
        capped = StreamingSimulator(CLUSTER).run(
            _poisson(seed=3), sjf_ranker, horizon=10**6
        )
        assert capped.horizon_cutoff == -1
        assert capped.online == base.online


class TestFaults:
    def test_faulty_run_completes_with_retries(self):
        from repro.faults import parse_fault_spec

        faults = parse_fault_spec(
            "crashes=2,transient=0.05", CLUSTER.capacities, horizon=400, seed=9
        )
        result = StreamingSimulator(CLUSTER).run(
            _poisson(rate=0.2, n=15, seed=5), sjf_ranker, faults=faults
        )
        metrics = result.metrics_dict()
        assert metrics["faults"]["crashes"] == result.online.crashes
        jobs = metrics["jobs"]
        assert jobs["completed"] + jobs["failed"] == jobs["admitted"] == 15
