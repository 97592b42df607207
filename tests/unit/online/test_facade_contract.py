"""What each simulator facade owns on top of the one shared run loop.

``OnlineSimulator``, ``StreamingSimulator`` and
``FederatedStreamingSimulator`` are configurations of
``repro.online.engine.ShardedEngine``; these tests pin the behaviour
that differs between them and that no equivalence suite can see, because
after the merge "closed batch == streaming == 1-shard federation" holds
by construction.
"""

from collections import Counter

import pytest

from repro.config import ClusterConfig, WorkloadConfig
from repro.dag.generators import random_layered_dag
from repro.dag.graph import TaskGraph
from repro.dag.task import Task
from repro.errors import CapacityError, ConfigError, EnvironmentStateError
from repro.federation import FederatedStreamingSimulator, ShardSpec
from repro.online import ArrivingJob, OnlineSimulator, fifo_ranker, sjf_ranker
from repro.streaming import AdmissionConfig, StreamingSimulator, TraceArrivals
from repro.telemetry import TelemetryConfig, session

CLUSTER = ClusterConfig(capacities=(10, 10), horizon=8)
WORKLOAD = WorkloadConfig(
    num_tasks=6, max_runtime=5, max_demand=4, runtime_mean=3.0, demand_mean=2.0
)


def batch(n=6, gap=1):
    return [
        ArrivingJob(gap * i, random_layered_dag(WORKLOAD, seed=40 + i))
        for i in range(n)
    ]


def event_names(run):
    with session(TelemetryConfig(enabled=True, max_events=100_000)) as tm:
        run()
        return Counter(event.name for event in tm.events())


class TestTelemetryOnlyWhereAChoiceExisted:
    def test_closed_batch_announces_no_admission_or_route(self):
        names = event_names(lambda: OnlineSimulator(CLUSTER).run(batch(), sjf_ranker))
        assert names["online.job"] == 6
        assert not any(
            name.startswith(("streaming.", "federation.")) for name in names
        )

    def test_unbounded_stream_matches_the_closed_batch_stream(self):
        names = event_names(
            lambda: StreamingSimulator(CLUSTER).run(TraceArrivals(batch()), sjf_ranker)
        )
        assert set(names) == {"online.job", "streaming.run"}

    def test_bounded_stream_announces_admit_queue_and_reject(self):
        names = event_names(
            lambda: StreamingSimulator(CLUSTER).run(
                TraceArrivals(batch(gap=0)),
                sjf_ranker,
                admission=AdmissionConfig(max_concurrent=1, max_queue=2),
            )
        )
        assert names["streaming.admit"] == 3
        assert names["streaming.queue"] == 2
        assert names["streaming.reject"] == 3
        assert names["federation.route"] == 0

    def test_two_shards_announce_one_route_per_job(self):
        specs = [ShardSpec((5, 5), sjf_ranker), ShardSpec((5, 5), sjf_ranker)]
        names = event_names(
            lambda: FederatedStreamingSimulator(specs).run(TraceArrivals(batch()))
        )
        assert names["federation.route"] == 6
        assert names["streaming.admit"] == 0  # unbounded shards: no decision

    def test_one_shard_federation_has_nothing_to_route(self):
        names = event_names(
            lambda: FederatedStreamingSimulator([ShardSpec((10, 10), sjf_ranker)]).run(
                TraceArrivals(batch())
            )
        )
        assert set(names) == {"online.job", "federation.run"}


class TestInfeasibleJob:
    stream = [
        ArrivingJob(0, random_layered_dag(WORKLOAD, seed=1)),
        ArrivingJob(1, TaskGraph([Task(0, 2, (11, 1))])),
    ]

    def test_fatal_for_the_closed_batch(self):
        with pytest.raises(CapacityError, match="exceeds capacity 10"):
            OnlineSimulator(CLUSTER).run(self.stream, fifo_ranker)

    def test_dimension_mismatch_is_a_config_error(self):
        flat = [ArrivingJob(0, TaskGraph([Task(0, 1, (1,))]))]
        with pytest.raises(ConfigError, match="1 resource dims, cluster has 2"):
            OnlineSimulator(CLUSTER).run(flat, fifo_ranker)

    def test_shed_by_the_open_system(self):
        arrivals = TraceArrivals(self.stream)
        result = StreamingSimulator(CLUSTER).run(arrivals, fifo_ranker)
        (rejected,) = result.rejected
        assert (rejected.index, rejected.arrival_time) == (1, 1)
        assert "exceeds capacity 10" in rejected.reason
        assert result.arrivals == 2 and result.admitted == 1

    def test_the_reason_names_the_task_by_its_label(self):
        from repro.online.workload import infeasible_reason

        named = TaskGraph([Task(0, 1, (1, 1)), Task(1, 2, (3, 11), name="reduce-1")])
        assert infeasible_reason(named, (10, 10)) == (
            "reduce-1: demand 11 for resource 1 exceeds capacity 10"
        )
        unnamed = TaskGraph([Task(7, 2, (11, 1))])
        assert infeasible_reason(unnamed, (10, 10)) == (
            "task-7: demand 11 for resource 0 exceeds capacity 10"
        )
        assert infeasible_reason(named, (10, 11)) is None

    def test_check_feasible_names_the_first_task_that_never_fits(self):
        # The graph's peak demand (12, 12) comes from two tasks; the error
        # names the first of them in topological order, with its own
        # demand, as a walk over every task would.
        from repro.online.workload import check_feasible

        graph = TaskGraph(
            [Task(0, 1, (12, 1), name="late"), Task(1, 1, (1, 12), name="early")],
            [(1, 0)],
        )
        assert graph.peak_demand == (12, 12)
        with pytest.raises(CapacityError) as raised:
            check_feasible(graph, (10, 10))
        assert str(raised.value) == (
            "early: demand 12 for resource 1 exceeds capacity 10"
        )
        check_feasible(graph, (12, 12))


class TestClosedBatchIndices:
    def test_unsorted_batch_keeps_stream_positions(self):
        jobs = batch(3, gap=4)
        shuffled = [jobs[2], jobs[0], jobs[1]]
        result = OnlineSimulator(CLUSTER).run(shuffled, sjf_ranker)
        assert [o.arrival_time for o in result.outcomes] == [8, 0, 4]
        by_arrival = OnlineSimulator(CLUSTER).run(jobs, sjf_ranker)
        assert result.makespan == by_arrival.makespan
        assert sorted(o.jct for o in result.outcomes) == sorted(
            o.jct for o in by_arrival.outcomes
        )


class TestStepCap:
    """Each facade passes its own ``max_steps``; the error is the loop's."""

    def test_online(self):
        with pytest.raises(EnvironmentStateError, match="exceeded step cap"):
            OnlineSimulator(CLUSTER, max_steps=2).run(batch(), sjf_ranker)

    def test_streaming(self):
        with pytest.raises(EnvironmentStateError, match="exceeded step cap"):
            StreamingSimulator(CLUSTER, max_steps=2).run(
                TraceArrivals(batch()), sjf_ranker
            )

    def test_federation(self):
        specs = [ShardSpec((5, 5), sjf_ranker), ShardSpec((5, 5), sjf_ranker)]
        with pytest.raises(EnvironmentStateError, match="exceeded step cap"):
            FederatedStreamingSimulator(specs, max_steps=2).run(TraceArrivals(batch()))

    def test_defaults_differ_by_facade(self):
        assert OnlineSimulator().max_steps == 1_000_000
        assert StreamingSimulator().max_steps == 5_000_000
        federation = FederatedStreamingSimulator([ShardSpec((5, 5), sjf_ranker)])
        assert federation.max_steps == 5_000_000
