"""Unit tests for Spear: network-guided MCTS."""

import pytest

from repro.config import ClusterConfig, EnvConfig, MctsConfig
from repro.core import NetworkExpansion, NetworkRollout, SpearScheduler, build_spear
from repro.dag import chain_dag
from repro.env import SchedulingEnv
from repro.metrics import validate_schedule
from repro.schedulers.base import ScheduleRequest


class TestGuidancePolicies:
    def test_expansion_orders_by_probability(self, tiny_training_setup, small_random_graph):
        network, env_config, _, _ = tiny_training_setup
        env = SchedulingEnv(small_random_graph, env_config)
        expansion = NetworkExpansion(network)
        actions = env.expansion_actions()
        ordered = expansion.prioritize(env, actions)
        assert sorted(ordered) == sorted(actions)

        from repro.rl import NetworkPolicy

        probs = NetworkPolicy(network, mode="greedy").action_probabilities(env)
        priorities = [probs.get(a, 0.0) for a in ordered]
        assert priorities == sorted(priorities, reverse=True)

    def test_rollout_terminates_with_makespan(self, tiny_training_setup, small_random_graph):
        network, env_config, _, _ = tiny_training_setup
        env = SchedulingEnv(small_random_graph, env_config)
        rollout = NetworkRollout(network, seed=0)
        makespan = rollout.rollout(env)
        assert env.done
        assert makespan == env.makespan

    def test_greedy_rollout_mode_deterministic(self, tiny_training_setup, small_random_graph):
        network, env_config, _, _ = tiny_training_setup
        a = NetworkRollout(network, mode="greedy").rollout(
            SchedulingEnv(small_random_graph, env_config)
        )
        b = NetworkRollout(network, mode="greedy").rollout(
            SchedulingEnv(small_random_graph, env_config)
        )
        assert a == b


class TestSpearScheduler:
    def test_schedules_feasibly(self, tiny_training_setup, small_random_graph):
        network, env_config, _, _ = tiny_training_setup
        spear = SpearScheduler(
            network,
            MctsConfig(initial_budget=15, min_budget=5),
            env_config,
            seed=0,
        )
        schedule = spear.plan(ScheduleRequest(small_random_graph))
        validate_schedule(
            schedule, small_random_graph, env_config.cluster.capacities
        )
        assert schedule.scheduler == "spear"

    def test_chain_forced_makespan(self, tiny_training_setup):
        network, env_config, _, _ = tiny_training_setup
        graph = chain_dag([2, 3], demands=[(2, 2), (2, 2)])
        spear = SpearScheduler(
            network, MctsConfig(initial_budget=10, min_budget=5), env_config, seed=0
        )
        assert spear.plan(ScheduleRequest(graph)).makespan == 5

    def test_build_spear_convenience(self, tiny_training_setup, small_random_graph):
        network, env_config, _, _ = tiny_training_setup
        spear = build_spear(
            network, MctsConfig(initial_budget=10, min_budget=5), env_config, seed=1
        )
        assert isinstance(spear, SpearScheduler)
        schedule = spear.plan(ScheduleRequest(small_random_graph))
        assert schedule.num_tasks == small_random_graph.num_tasks

    def test_statistics_available(self, tiny_training_setup, small_random_graph):
        network, env_config, _, _ = tiny_training_setup
        spear = SpearScheduler(
            network, MctsConfig(initial_budget=10, min_budget=5), env_config, seed=0
        )
        spear.plan(ScheduleRequest(small_random_graph))
        assert spear.last_statistics.rollouts > 0

    def test_never_worse_than_pure_policy(self, tiny_training_setup, small_random_graph):
        """Searching with the network must not lose to... the search's own
        rollouts: Spear's result is bounded by the best rollout it saw, so
        it beats or matches the greedy network policy on average; here we
        check a single instance with a fixed seed."""
        from repro.rl import NetworkPolicy
        from repro.schedulers.base import PolicyScheduler

        network, env_config, _, _ = tiny_training_setup
        greedy = PolicyScheduler(
            lambda: NetworkPolicy(network, mode="greedy"), env_config, name="drl"
        ).plan(ScheduleRequest(small_random_graph))
        spear = SpearScheduler(
            network, MctsConfig(initial_budget=30, min_budget=10), env_config, seed=0
        ).plan(ScheduleRequest(small_random_graph))
        assert spear.makespan <= greedy.makespan + 2  # small slack: sampling noise
