"""Stress and edge-case integration tests (failure injection included)."""

import numpy as np
import pytest

from repro.config import ClusterConfig, EnvConfig, MctsConfig, WorkloadConfig
from repro.dag import (
    Task,
    TaskGraph,
    chain_dag,
    disjoint_union,
    independent_tasks_dag,
    random_layered_dag,
)
from repro.env import PROCESS, SchedulingEnv
from repro.errors import CapacityError
from repro.mcts import MctsScheduler
from repro.metrics import validate_schedule
from repro.schedulers import ScheduleRequest, make_scheduler


class TestNarrowVisibilityWindow:
    """max_ready=1: the scheduler sees a single task at a time."""

    def test_all_baselines_complete(self, small_random_graph):
        env_config = EnvConfig(
            cluster=ClusterConfig(capacities=(10, 10), horizon=8),
            max_ready=1,
            process_until_completion=True,
        )
        for name in ("tetris", "sjf", "cp", "fifo"):
            schedule = make_scheduler(name, env_config).plan(
                ScheduleRequest(small_random_graph)
            )
            validate_schedule(schedule, small_random_graph, (10, 10))

    def test_mcts_completes(self, small_random_graph):
        env_config = EnvConfig(
            cluster=ClusterConfig(capacities=(10, 10), horizon=8),
            max_ready=1,
            process_until_completion=True,
        )
        scheduler = MctsScheduler(
            MctsConfig(initial_budget=10, min_budget=3), env_config, seed=0
        )
        schedule = scheduler.plan(ScheduleRequest(small_random_graph))
        validate_schedule(schedule, small_random_graph, (10, 10))


class TestWideGraphsAndBacklog:
    def test_hundred_independent_tasks_through_small_window(self):
        graph = independent_tasks_dag([1] * 100, demands=[(1, 1)] * 100)
        env_config = EnvConfig(
            cluster=ClusterConfig(capacities=(10, 10), horizon=8),
            max_ready=5,
            process_until_completion=True,
        )
        schedule = make_scheduler("tetris", env_config).plan(ScheduleRequest(graph))
        validate_schedule(schedule, graph, (10, 10))
        # 100 unit tasks, 10 concurrently (CPU-bound): exactly 10 slots.
        assert schedule.makespan == 10

    def test_backlog_never_starves(self):
        """Every backlogged task eventually runs (completeness check)."""
        graph = independent_tasks_dag(
            list(range(1, 41)), demands=[(2, 2)] * 40
        )
        env_config = EnvConfig(
            cluster=ClusterConfig(capacities=(10, 10), horizon=8),
            max_ready=3,
            process_until_completion=True,
        )
        schedule = make_scheduler("sjf", env_config).plan(ScheduleRequest(graph))
        validate_schedule(schedule, graph, (10, 10))


class TestDegenerateTasks:
    def test_zero_demand_tasks_schedule_concurrently(self):
        graph = independent_tasks_dag([5] * 6, demands=[(0, 0)] * 6)
        env_config = EnvConfig(
            cluster=ClusterConfig(capacities=(10, 10), horizon=8),
            process_until_completion=True,
        )
        schedule = make_scheduler("tetris", env_config).plan(ScheduleRequest(graph))
        validate_schedule(schedule, graph, (10, 10))
        assert schedule.makespan == 5  # all six run at once

    def test_full_cluster_tasks_serialize(self):
        graph = independent_tasks_dag([2] * 4, demands=[(10, 10)] * 4)
        env_config = EnvConfig(
            cluster=ClusterConfig(capacities=(10, 10), horizon=8),
            process_until_completion=True,
        )
        schedule = make_scheduler("tetris", env_config).plan(ScheduleRequest(graph))
        validate_schedule(schedule, graph, (10, 10))
        assert schedule.makespan == 8

    def test_single_task_graph(self):
        graph = TaskGraph([Task(0, 7, (3, 3))])
        env_config = EnvConfig(
            cluster=ClusterConfig(capacities=(10, 10), horizon=8),
            process_until_completion=True,
        )
        for name in ("tetris", "graphene", "optimal"):
            schedule = make_scheduler(name, env_config).plan(ScheduleRequest(graph))
            assert schedule.makespan == 7

    def test_oversized_task_fails_fast_everywhere(self):
        graph = TaskGraph([Task(0, 1, (99, 1))])
        env_config = EnvConfig(
            cluster=ClusterConfig(capacities=(10, 10), horizon=8)
        )
        with pytest.raises(CapacityError):
            make_scheduler("tetris", env_config).plan(ScheduleRequest(graph))
        with pytest.raises(CapacityError):
            MctsScheduler(
                MctsConfig(initial_budget=5, min_budget=2), env_config
            ).plan(ScheduleRequest(graph))


class TestDeepChains:
    def test_eighty_task_chain_is_serial_for_everyone(self):
        runtimes = [1 + (i % 3) for i in range(80)]
        graph = chain_dag(runtimes, demands=[(1, 1)] * 80)
        env_config = EnvConfig(
            cluster=ClusterConfig(capacities=(10, 10), horizon=8),
            process_until_completion=True,
        )
        expected = sum(runtimes)
        for name in ("tetris", "sjf", "cp", "graphene", "heft"):
            schedule = make_scheduler(name, env_config).plan(ScheduleRequest(graph))
            assert schedule.makespan == expected


class TestBatchWorkloads:
    def test_union_of_trace_jobs_schedules(self):
        from repro.traces import TraceConfig, generate_production_trace

        trace = generate_production_trace(
            TraceConfig(num_jobs=3, runtime_scale=0.1), seed=5
        )
        batch = disjoint_union(trace.graphs())
        env_config = EnvConfig(process_until_completion=True)
        schedule = make_scheduler("tetris", env_config).plan(ScheduleRequest(batch))
        validate_schedule(schedule, batch, env_config.cluster.capacities)
        # Batch completion is bounded below by the slowest job alone.
        slowest = max(
            make_scheduler("tetris", env_config).plan(ScheduleRequest(g)).makespan
            for g in trace.graphs()
        )
        assert schedule.makespan >= slowest

    def test_serialized_batch_is_sum_like(self):
        jobs = [chain_dag([2, 2], demands=[(2, 2)] * 2) for _ in range(3)]
        from repro.dag import serialize_jobs

        batch = serialize_jobs(jobs)
        env_config = EnvConfig(
            cluster=ClusterConfig(capacities=(10, 10), horizon=8),
            process_until_completion=True,
        )
        schedule = make_scheduler("tetris", env_config).plan(ScheduleRequest(batch))
        assert schedule.makespan == 12  # strict barriers: 3 x 4 slots


class TestLargePaperScaleGraphSanity:
    def test_100_task_dag_all_schedulers_feasible(self):
        graph = random_layered_dag(WorkloadConfig(), seed=77)
        env_config = EnvConfig(process_until_completion=True)
        makespans = {}
        for name in ("tetris", "sjf", "cp", "graphene", "heft", "lpt", "fifo"):
            schedule = make_scheduler(name, env_config).plan(ScheduleRequest(graph))
            validate_schedule(schedule, graph, env_config.cluster.capacities)
            makespans[name] = schedule.makespan
        from repro.dag import makespan_lower_bound

        bound = makespan_lower_bound(graph, env_config.cluster.capacities)
        assert all(m >= bound for m in makespans.values())
        spread = max(makespans.values()) / min(makespans.values())
        assert spread < 2.0  # sane heuristics stay within 2x of each other
