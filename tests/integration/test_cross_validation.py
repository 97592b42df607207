"""Cross-validation between independent subsystems.

Two implementations of "the same thing" must agree:

* the online simulator with a single job arriving at t=0 vs the offline
  environment executor under the same rule, on four fixed 10-task DAGs
  and a small cluster (random DAGs up to 100 tasks and closed batches:
  ``tests/property/test_online_offline_differential.py``);
* the network policy's empirical sampling frequencies vs the distribution
  the network reports;
* Graphene's virtual makespan vs the online execution of its own order on
  an empty cluster (the virtual plan ignores dependencies, so online can
  only be equal or later for dependency-free jobs).
"""

import numpy as np
import pytest

from repro.config import ClusterConfig, EnvConfig
from repro.dag import independent_tasks_dag
from repro.dag.generators import random_layered_dag
from repro.config import WorkloadConfig
from repro.env import SchedulingEnv
from repro.online import ArrivingJob, OnlineSimulator, fifo_ranker, sjf_ranker, tetris_ranker
from repro.schedulers import ScheduleRequest, greedy_policy, run_policy


def workload(seed, num_tasks=10):
    config = WorkloadConfig(
        num_tasks=num_tasks, max_runtime=5, max_demand=7,
        runtime_mean=3, runtime_std=1, demand_mean=4, demand_std=2,
    )
    return random_layered_dag(config, seed=seed)


class TestOnlineVsOffline:
    """A single job at t=0 must behave identically in both simulators."""

    @pytest.mark.parametrize(
        "ranker,name",
        [(fifo_ranker, "fifo"), (sjf_ranker, "sjf"), (tetris_ranker, "tetris")],
    )
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_single_job_makespans_agree(self, ranker, name, seed):
        graph = workload(seed)
        capacities = (10, 10)

        online = OnlineSimulator(
            ClusterConfig(capacities=capacities, horizon=8)
        ).run([ArrivingJob(0, graph)], ranker)

        env = SchedulingEnv(
            graph,
            EnvConfig(
                cluster=ClusterConfig(capacities=capacities, horizon=8),
                max_ready=graph.num_tasks,  # online has no backlog window
                process_until_completion=True,
            ),
        )
        offline = run_policy(env, greedy_policy(name))
        assert online.makespan == offline.makespan
        assert online.executed[0].as_dict() == offline.as_dict()


class TestSamplingDistribution:
    def test_network_policy_samples_match_reported_probabilities(
        self, tiny_training_setup
    ):
        from repro.rl import NetworkPolicy

        network, env_config, graphs, _ = tiny_training_setup
        env = SchedulingEnv(graphs[0], env_config)
        policy = NetworkPolicy(network, mode="sample", seed=0)
        policy.begin_episode(env)
        probs = policy.action_probabilities(env)

        draws = 3000
        counts = {action: 0 for action in probs}
        for _ in range(draws):
            counts[policy.select(env)] += 1
        for action, p in probs.items():
            observed = counts[action] / draws
            # Three-sigma band of the binomial proportion.
            sigma = (p * (1 - p) / draws) ** 0.5
            assert abs(observed - p) <= max(3.5 * sigma, 0.02)


class TestGrapheneVirtualVsOnline:
    def test_dependency_free_virtual_makespan_is_achievable(self):
        """Without dependencies the virtual space-time plan is a real
        schedule, so executing the derived order reproduces its makespan
        exactly."""
        from repro.schedulers import GrapheneScheduler

        graph = independent_tasks_dag(
            [3, 4, 2, 5, 1], demands=[(4, 3), (5, 5), (2, 2), (6, 4), (3, 3)]
        )
        env_config = EnvConfig(
            cluster=ClusterConfig(capacities=(10, 10), horizon=8),
            max_ready=8,
        )
        scheduler = GrapheneScheduler(env_config=env_config)
        best_virtual = min(
            plan.virtual_makespan
            for plan in scheduler.candidate_plans(graph)
        )
        executed = scheduler.plan(ScheduleRequest(graph)).makespan
        assert executed <= best_virtual + 1  # online pass can only tie or
        # improve (it re-packs greedily); the +1 covers rounding at window
        # boundaries in backward plans.
