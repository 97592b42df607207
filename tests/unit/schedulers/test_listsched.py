"""Unit tests for the classic list-scheduling rules (HEFT/LPT/FIFO)."""

import pytest

from repro.config import ClusterConfig, EnvConfig
from repro.dag import Task, TaskGraph, independent_tasks_dag
from repro.env import PROCESS, SchedulingEnv
from repro.metrics import validate_schedule
from repro.schedulers import ScheduleRequest, greedy_policy, make_scheduler


def env_for(graph, capacities=(10, 10)):
    return SchedulingEnv(
        graph,
        EnvConfig(
            cluster=ClusterConfig(capacities=capacities, horizon=8),
            max_ready=8,
            process_until_completion=True,
        ),
    )


class TestHeft:
    def test_prefers_higher_upward_rank(self):
        tasks = [Task(0, 1, (1, 1)), Task(1, 1, (1, 1)), Task(2, 9, (1, 1))]
        graph = TaskGraph(tasks, [(0, 2)])
        env = env_for(graph)
        policy = greedy_policy("heft")
        policy.begin_episode(env)
        assert policy.select(env) == 0  # rank 10 > rank 1

    def test_mean_rank_breaks_ties(self):
        # 0 and 1 both have rank 1 + 5 = 6, but 1's children are heavier
        # on average (one child of rank 5 vs two children of ranks 5, 1).
        tasks = [
            Task(0, 1, (1, 1)),
            Task(1, 1, (1, 1)),
            Task(2, 5, (1, 1)),
            Task(3, 5, (1, 1)),
            Task(4, 1, (1, 1)),
        ]
        graph = TaskGraph(tasks, [(0, 2), (0, 4), (1, 3)])
        env = env_for(graph)
        policy = greedy_policy("heft")
        policy.begin_episode(env)
        assert policy.select(env) == 1

    def test_processes_when_blocked(self):
        graph = independent_tasks_dag([2, 2], demands=[(8, 8), (8, 8)])
        env = env_for(graph)
        policy = greedy_policy("heft")
        policy.begin_episode(env)
        env.step(policy.select(env))
        assert policy.select(env) == PROCESS

    def test_lazy_rank_computation(self):
        graph = independent_tasks_dag([1, 2], demands=[(1, 1)] * 2)
        env = env_for(graph)
        assert greedy_policy("heft").select(env) in (0, 1)  # no begin_episode call


class TestLpt:
    def test_longest_first(self):
        graph = independent_tasks_dag([2, 9, 5], demands=[(1, 1)] * 3)
        env = env_for(graph)
        assert greedy_policy("lpt").select(env) == 1

    def test_tie_by_id(self):
        graph = independent_tasks_dag([4, 4], demands=[(1, 1)] * 2)
        env = env_for(graph)
        assert greedy_policy("lpt").select(env) == 0


class TestFifo:
    def test_takes_first_fitting(self):
        graph = independent_tasks_dag([1, 1, 1], demands=[(8, 8), (2, 2), (2, 2)])
        env = env_for(graph)
        env.step(greedy_policy("fifo").select(env))  # starts task 0
        # Task 0 hogs most of the cluster; the first fitting slot is task 1.
        assert env.visible_ready()[greedy_policy("fifo").select(env)] == 1


class TestRegistryIntegration:
    @pytest.mark.parametrize("name", ["heft", "lpt", "fifo"])
    def test_feasible_via_registry(self, name, small_random_graph):
        env_config = EnvConfig(
            cluster=ClusterConfig(capacities=(10, 10), horizon=8), max_ready=8
        )
        schedule = make_scheduler(name, env_config).plan(ScheduleRequest(small_random_graph))
        validate_schedule(schedule, small_random_graph, (10, 10))
        assert schedule.scheduler == name

    def test_heft_serial_chain(self):
        from repro.dag import chain_dag

        env_config = EnvConfig(
            cluster=ClusterConfig(capacities=(10, 10), horizon=8)
        )
        graph = chain_dag([2, 3, 4], demands=[(1, 1)] * 3)
        schedule = make_scheduler("heft", env_config).plan(ScheduleRequest(graph))
        assert schedule.makespan == 9
