"""Unit tests for the greedy baseline policies."""

import pytest

from repro.config import ClusterConfig, EnvConfig
from repro.dag import Task, TaskGraph, chain_dag, independent_tasks_dag
from repro.env import PROCESS, SchedulingEnv
from repro.schedulers import (
    GreedyPolicy,
    RandomPolicy,
    greedy_policy,
    run_policy,
)
from repro.schedulers.rules import plan_priority_ranker, sjf_ranker


def priority_list(order):
    return GreedyPolicy(plan_priority_ranker([order]), "priority-list")


def env_for(graph, capacities=(10, 10), until_completion=True):
    return SchedulingEnv(
        graph,
        EnvConfig(
            cluster=ClusterConfig(capacities=capacities, horizon=8),
            max_ready=6,
            process_until_completion=until_completion,
        ),
    )


class TestRandomPolicy:
    def test_selects_legal_actions_only(self, small_random_graph):
        env = env_for(small_random_graph)
        policy = RandomPolicy(seed=0)
        for _ in range(20):
            if env.done:
                break
            action = policy.select(env)
            assert action in env.legal_actions()
            env.step(action)

    def test_work_conserving_never_processes_when_fitting(self):
        graph = independent_tasks_dag([1, 1], demands=[(1, 1), (1, 1)])
        env = env_for(graph)
        policy = RandomPolicy(seed=0, work_conserving=True)
        assert policy.select(env) != PROCESS

    @pytest.mark.parametrize("work_conserving", [True, False])
    def test_single_candidate_is_taken_without_a_draw(self, work_conserving):
        env = env_for(chain_dag([2, 3]))
        policy = RandomPolicy(seed=3, work_conserving=work_conserving)
        before = policy._rng.bit_generator.state
        assert policy.select(env) == 0  # the chain head is the only move
        env.step(0)
        assert policy.select(env) == PROCESS  # nothing else is ready
        assert policy._rng.bit_generator.state == before

    def test_seeded_reproducibility(self, small_random_graph):
        def play(seed):
            env = env_for(small_random_graph)
            return run_policy(env, RandomPolicy(seed=seed)).makespan

        assert play(7) == play(7)


class TestSjfPolicy:
    def test_picks_shortest_fitting(self):
        graph = independent_tasks_dag([9, 2, 5], demands=[(1, 1)] * 3)
        env = env_for(graph)
        assert greedy_policy("sjf").select(env) == 1  # index of runtime-2 task

    def test_tie_broken_by_id(self):
        graph = independent_tasks_dag([3, 3], demands=[(1, 1)] * 2)
        env = env_for(graph)
        assert greedy_policy("sjf").select(env) == 0

    def test_processes_when_nothing_fits(self):
        graph = independent_tasks_dag([2, 2], demands=[(8, 8), (8, 8)])
        env = env_for(graph)
        env.step(0)
        assert greedy_policy("sjf").select(env) == PROCESS

    def test_full_episode_is_feasible(self, small_random_graph):
        env = env_for(small_random_graph)
        schedule = run_policy(env, greedy_policy("sjf"))
        assert schedule.makespan > 0
        assert schedule.scheduler == "sjf"


class TestCriticalPathPolicy:
    def test_prefers_higher_blevel(self):
        # Task 0 heads a long chain; task 1 is a short independent task.
        tasks = [Task(0, 1, (1, 1)), Task(1, 1, (1, 1)), Task(2, 9, (1, 1))]
        graph = TaskGraph(tasks, [(0, 2)])
        env = env_for(graph)
        assert greedy_policy("cp").select(env) == 0

    def test_ties_broken_by_children(self):
        tasks = [
            Task(0, 2, (1, 1)),               # b-level 2, 0 children
            Task(1, 1, (1, 1)),               # b-level 2, 1 child
            Task(2, 1, (1, 1)),
        ]
        graph = TaskGraph(tasks, [(1, 2)])
        env = env_for(graph)
        assert greedy_policy("cp").select(env) == 1

    def test_works_without_begin_episode(self):
        graph = independent_tasks_dag([1, 2], demands=[(1, 1)] * 2)
        env = env_for(graph)
        policy = greedy_policy("cp")
        assert policy.select(env) in (0, 1)


class TestPriorityListPolicy:
    def test_follows_given_order(self):
        graph = independent_tasks_dag([1, 1, 1], demands=[(1, 1)] * 3)
        env = env_for(graph)
        policy = priority_list([2, 0, 1])
        assert policy.select(env) == 2

    def test_missing_tasks_rank_last(self):
        graph = independent_tasks_dag([1, 1], demands=[(1, 1)] * 2)
        env = env_for(graph)
        policy = priority_list([1])
        assert policy.select(env) == 1

    def test_respects_capacity(self):
        graph = independent_tasks_dag([2, 1], demands=[(8, 8), (1, 1)])
        env = env_for(graph)
        policy = priority_list([0, 1])
        env.step(policy.select(env))  # starts 0
        # 0 occupies almost everything; priority says 0 first but only 1 fits.
        assert policy.select(env) == 0  # index 0 now refers to task 1
        assert env.visible_ready() == [1]


class TestRunPolicy:
    def test_produces_complete_schedule(self, small_random_graph):
        env = env_for(small_random_graph)
        schedule = run_policy(env, greedy_policy("sjf"))
        assert schedule.num_tasks == small_random_graph.num_tasks
        assert schedule.wall_time >= 0.0

    def test_step_cap_raises(self, small_random_graph):
        class StallPolicy(GreedyPolicy):
            pass

        env = env_for(small_random_graph)
        from repro.errors import EnvironmentStateError

        with pytest.raises(EnvironmentStateError, match="exceeded"):
            run_policy(env, StallPolicy(sjf_ranker, "stall"), max_steps=1)
