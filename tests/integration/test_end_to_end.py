"""End-to-end integration: train -> checkpoint -> Spear -> beat baselines."""

import numpy as np
import pytest

from repro.config import EnvConfig, MctsConfig, WorkloadConfig
from repro.core import SpearScheduler, build_spear
from repro.dag.generators import random_layered_dag
from repro.metrics import validate_schedule, win_rate
from repro.mcts import MctsScheduler
from repro.rl import load_checkpoint, save_checkpoint
from repro.schedulers import ScheduleRequest, make_scheduler


@pytest.fixture(scope="module")
def eval_graphs():
    workload = WorkloadConfig(num_tasks=18)
    return [random_layered_dag(workload, seed=500 + i) for i in range(4)]


class TestCheckpointDeployment:
    def test_reloaded_network_schedules_identically(
        self, tiny_training_setup, eval_graphs, tmp_path
    ):
        network, env_config, _, _ = tiny_training_setup
        path = tmp_path / "net.npz"
        save_checkpoint(network, path)
        restored = load_checkpoint(path)

        config = MctsConfig(initial_budget=20, min_budget=5)
        original = SpearScheduler(network, config, env_config, seed=9)
        reloaded = SpearScheduler(restored, config, env_config, seed=9)
        for graph in eval_graphs[:2]:
            assert (
                original.plan(ScheduleRequest(graph)).makespan
                == reloaded.plan(ScheduleRequest(graph)).makespan
            )


class TestSpearVsBaselines:
    def test_spear_competitive_on_random_dags(
        self, tiny_training_setup, eval_graphs
    ):
        """Spear (tiny network, small budget) must beat or match the mean
        of the weakest baselines and stay feasible everywhere."""
        network, env_config, _, _ = tiny_training_setup
        capacities = env_config.cluster.capacities
        spear = build_spear(
            network, MctsConfig(initial_budget=40, min_budget=10), env_config, seed=0
        )

        makespans = {"spear": [], "sjf": [], "random": [], "tetris": []}
        for graph in eval_graphs:
            for name in ("sjf", "random", "tetris"):
                schedule = make_scheduler(name, env_config).plan(ScheduleRequest(graph))
                validate_schedule(schedule, graph, capacities)
                makespans[name].append(schedule.makespan)
            schedule = spear.plan(ScheduleRequest(graph))
            validate_schedule(schedule, graph, capacities)
            makespans["spear"].append(schedule.makespan)

        mean = {k: float(np.mean(v)) for k, v in makespans.items()}
        assert mean["spear"] <= mean["sjf"] + 1
        assert mean["spear"] <= mean["random"] + 1

    def test_search_beats_its_own_rollout_policy(
        self, tiny_training_setup, eval_graphs
    ):
        """Adding MCTS on top of the network should never hurt on average:
        Spear's makespan is the best over many guided rollouts."""
        from repro.rl import NetworkPolicy
        from repro.schedulers.base import PolicyScheduler

        network, env_config, _, _ = tiny_training_setup
        greedy = PolicyScheduler(
            lambda: NetworkPolicy(network, mode="greedy"), env_config
        )
        spear = build_spear(
            network, MctsConfig(initial_budget=40, min_budget=10), env_config, seed=1
        )
        greedy_mean = np.mean(
            [greedy.plan(ScheduleRequest(g)).makespan for g in eval_graphs]
        )
        spear_mean = np.mean([spear.plan(ScheduleRequest(g)).makespan for g in eval_graphs])
        assert spear_mean <= greedy_mean


class TestMctsBudgetMonotonicity:
    def test_more_budget_never_hurts_much(self, eval_graphs):
        """Mean makespan with a 10x budget must be <= the tiny-budget mean
        plus a small noise allowance (the Fig. 7(a) trend)."""
        env_config = EnvConfig(process_until_completion=True)
        small = MctsScheduler(
            MctsConfig(initial_budget=5, min_budget=2), env_config, seed=3
        )
        large = MctsScheduler(
            MctsConfig(initial_budget=60, min_budget=15), env_config, seed=3
        )
        small_mean = np.mean([small.plan(ScheduleRequest(g)).makespan for g in eval_graphs])
        large_mean = np.mean([large.plan(ScheduleRequest(g)).makespan for g in eval_graphs])
        assert large_mean <= small_mean + 2


class TestTraceEndToEnd:
    def test_trace_jobs_schedule_feasibly_with_all_schedulers(
        self, tiny_training_setup
    ):
        from repro.traces import TraceConfig, generate_production_trace

        network, env_config, _, _ = tiny_training_setup
        capacities = env_config.cluster.capacities
        trace = generate_production_trace(
            TraceConfig(num_jobs=3, runtime_scale=0.15), seed=11
        )
        spear = build_spear(
            network, MctsConfig(initial_budget=10, min_budget=5), env_config, seed=0
        )
        for job in trace:
            for scheduler in (
                make_scheduler("graphene", env_config),
                make_scheduler("tetris", env_config),
                spear,
            ):
                schedule = scheduler.plan(ScheduleRequest(job.graph))
                validate_schedule(schedule, job.graph, capacities)
