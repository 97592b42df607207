"""Unit tests for the Tetris packing baseline."""

import pytest

from repro.config import ClusterConfig, EnvConfig
from repro.dag import independent_tasks_dag, motivating_example
from repro.dag.examples import MOTIVATING_CAPACITY, MOTIVATING_T
from repro.env import PROCESS, SchedulingEnv
from repro.metrics import validate_schedule
from repro.schedulers import TetrisPolicy, run_policy
from repro.schedulers.rules import alignment_score


def env_for(graph, capacities=(10, 10)):
    return SchedulingEnv(
        graph,
        EnvConfig(
            cluster=ClusterConfig(capacities=capacities, horizon=8),
            max_ready=8,
            process_until_completion=True,
        ),
    )


class TestAlignmentScore:
    def test_dot_product(self):
        assert alignment_score((2, 3), (10, 10)) == 50

    def test_prefers_aligned_demands(self):
        free = (10, 2)
        cpu_heavy = alignment_score((5, 1), free)
        mem_heavy = alignment_score((1, 5), free)
        assert cpu_heavy > mem_heavy


class TestTetrisPolicy:
    def test_picks_highest_score(self):
        graph = independent_tasks_dag(
            [1, 1, 1], demands=[(1, 1), (5, 5), (3, 3)]
        )
        env = env_for(graph)
        assert TetrisPolicy().select(env) == 1

    def test_tie_broken_by_id(self):
        graph = independent_tasks_dag([1, 1], demands=[(2, 2), (2, 2)])
        env = env_for(graph)
        assert TetrisPolicy().select(env) == 0

    def test_score_uses_current_free_capacity(self):
        # After starting the CPU hog, the memory-leaning task scores higher.
        graph = independent_tasks_dag(
            [3, 1, 1], demands=[(8, 1), (2, 1), (1, 8)]
        )
        env = env_for(graph)
        env.step(TetrisPolicy().select(env))  # starts task 0 (score 90)
        # free = (2, 9): task 1 scores 2*2+1*9=13, task 2 scores 1*2+8*9=74.
        choice = TetrisPolicy().select(env)
        visible = env.visible_ready()
        assert visible[choice] == 2

    def test_processes_when_nothing_fits(self):
        graph = independent_tasks_dag([2, 2], demands=[(8, 8), (8, 8)])
        env = env_for(graph)
        env.step(0)
        assert TetrisPolicy().select(env) == PROCESS

    def test_fails_on_motivating_example(self):
        """The Fig. 3 story: Tetris lands at 3T where the optimum is 2T."""
        graph = motivating_example()
        env = SchedulingEnv(
            graph,
            EnvConfig(
                cluster=ClusterConfig(
                    capacities=MOTIVATING_CAPACITY, horizon=20
                ),
                process_until_completion=True,
            ),
        )
        schedule = run_policy(env, TetrisPolicy())
        validate_schedule(schedule, graph, MOTIVATING_CAPACITY)
        assert schedule.makespan == 3 * MOTIVATING_T
