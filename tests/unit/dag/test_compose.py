"""Unit tests for job composition (union, serialization, barriers)."""

import pytest

from repro.dag import (
    Task,
    TaskGraph,
    chain_dag,
    disjoint_union,
    fork_join_dag,
    serialize_jobs,
    with_barrier_task,
)
from repro.dag.compose import relabel
from repro.errors import GraphError
from repro.schedulers import ScheduleRequest


@pytest.fixture
def jobs():
    return [chain_dag([2, 3]), fork_join_dag(2, demand=(1, 1))]


class TestRelabel:
    def test_shifts_ids_and_edges(self):
        graph = chain_dag([1, 1])
        tasks, edges = relabel(graph, 10)
        assert [t.task_id for t in tasks] == [10, 11]
        assert edges == [(10, 11)]

    def test_preserves_payload(self):
        graph = chain_dag([5], demands=[(3, 4)])
        tasks, _ = relabel(graph, 7)
        assert tasks[0].runtime == 5
        assert tasks[0].demands == (3, 4)

    def test_negative_offset_rejected(self):
        with pytest.raises(GraphError):
            relabel(chain_dag([1]), -1)


class TestDisjointUnion:
    def test_sizes_add_up(self, jobs):
        union = disjoint_union(jobs)
        assert union.num_tasks == sum(j.num_tasks for j in jobs)
        assert union.num_edges == sum(j.num_edges for j in jobs)

    def test_no_cross_edges(self, jobs):
        union = disjoint_union(jobs)
        first_size = jobs[0].num_tasks
        for up, down in union.edges():
            assert (up < first_size) == (down < first_size)

    def test_critical_path_is_max(self, jobs):
        union = disjoint_union(jobs)
        assert union.critical_path_length() == max(
            j.critical_path_length() for j in jobs
        )

    def test_empty_rejected(self):
        with pytest.raises(GraphError):
            disjoint_union([])

    def test_mixed_dimensionality_rejected(self):
        one = TaskGraph([Task(0, 1, (1,))])
        two = TaskGraph([Task(0, 1, (1, 1))])
        with pytest.raises(GraphError):
            disjoint_union([one, two])

    def test_single_job_roundtrip(self):
        job = chain_dag([1, 2, 3])
        assert disjoint_union([job]) == job


class TestSerializeJobs:
    def test_barrier_edges_added(self, jobs):
        serial = serialize_jobs(jobs)
        first = jobs[0]
        expected_extra = len(first.sinks()) * len(jobs[1].sources())
        assert serial.num_edges == sum(j.num_edges for j in jobs) + expected_extra

    def test_critical_path_is_sum(self, jobs):
        serial = serialize_jobs(jobs)
        assert serial.critical_path_length() == sum(
            j.critical_path_length() for j in jobs
        )

    def test_second_job_sources_depend_on_first_sinks(self, jobs):
        serial = serialize_jobs(jobs)
        offset = jobs[0].num_tasks
        for source in jobs[1].sources():
            parents = serial.parents(source + offset)
            assert set(parents) >= set(jobs[0].sinks())

    def test_three_jobs_chain(self):
        jobs = [chain_dag([1]), chain_dag([2]), chain_dag([3])]
        serial = serialize_jobs(jobs)
        assert serial.critical_path_length() == 6
        assert list(serial.topological_order()) == [0, 1, 2]


class TestBarrierTask:
    def test_single_sink_afterwards(self):
        graph = disjoint_union([chain_dag([1]), chain_dag([2])])
        barriered = with_barrier_task(graph)
        assert len(barriered.sinks()) == 1
        assert barriered.num_tasks == graph.num_tasks + 1

    def test_barrier_depends_on_all_old_sinks(self):
        graph = disjoint_union([chain_dag([1]), chain_dag([2])])
        barriered = with_barrier_task(graph)
        barrier = barriered.sinks()[0]
        assert set(barriered.parents(barrier)) == set(graph.sinks())

    def test_zero_demand_default(self):
        barriered = with_barrier_task(chain_dag([1]))
        barrier = barriered.sinks()[0]
        assert barriered.task(barrier).demands == (0, 0)

    def test_schedulable_end_to_end(self):
        """A composed + barriered workload runs through the env fine."""
        from repro.config import ClusterConfig, EnvConfig
        from repro.metrics import validate_schedule
        from repro.schedulers import make_scheduler

        workload = with_barrier_task(
            disjoint_union([chain_dag([2, 1]), fork_join_dag(2, demand=(2, 2))])
        )
        env_config = EnvConfig(
            cluster=ClusterConfig(capacities=(10, 10), horizon=8)
        )
        schedule = make_scheduler("tetris", env_config).plan(ScheduleRequest(workload))
        validate_schedule(schedule, workload, (10, 10))
