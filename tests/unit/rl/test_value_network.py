"""Unit tests for the value network and its training pipeline."""

import numpy as np
import pytest

from repro.config import ClusterConfig, EnvConfig
from repro.dag import chain_dag
from repro.dag.generators import random_layered_dag
from repro.config import WorkloadConfig
from repro.errors import ConfigError
from repro.rl import ValueNetwork, collect_value_dataset, train_value_network
from repro.schedulers import ScheduleRequest, SjfPolicy


@pytest.fixture
def env_config():
    return EnvConfig(
        cluster=ClusterConfig(capacities=(10, 10), horizon=6),
        max_ready=4,
        process_until_completion=True,
    )


@pytest.fixture
def graphs():
    workload = WorkloadConfig(
        num_tasks=8, max_runtime=4, max_demand=6,
        runtime_mean=2, runtime_std=1, demand_mean=3, demand_std=2,
    )
    return [random_layered_dag(workload, seed=s) for s in range(3)]


class TestValueNetwork:
    def test_prediction_shape_and_nonnegative(self, rng):
        net = ValueNetwork(5, hidden_sizes=(8,), seed=0)
        predictions = net.predict(rng.normal(size=(4, 5)))
        assert predictions.shape == (4,)
        assert np.all(predictions >= 0)

    def test_invalid_construction(self):
        with pytest.raises(ConfigError):
            ValueNetwork(0)
        with pytest.raises(ConfigError):
            ValueNetwork(5, hidden_sizes=())

    def test_wrong_input_width_rejected(self, rng):
        net = ValueNetwork(5, seed=0)
        with pytest.raises(ConfigError):
            net.predict(rng.normal(size=(2, 7)))

    def test_fit_reduces_loss(self, rng):
        net = ValueNetwork(3, hidden_sizes=(16, 8), seed=0)
        states = rng.normal(size=(200, 3))
        targets = 10 + 5 * states[:, 0] + states[:, 1] ** 2
        losses = net.fit(states, targets, epochs=40, seed=1)
        assert losses[-1] < losses[0]

    def test_fit_learns_a_linear_map_well(self, rng):
        net = ValueNetwork(2, hidden_sizes=(32,), seed=0)
        states = rng.normal(size=(400, 2))
        targets = 20 + 3 * states[:, 0] - 2 * states[:, 1]
        net.fit(states, targets, epochs=150, learning_rate=3e-3, seed=1)
        predictions = net.predict(states)
        correlation = np.corrcoef(predictions, targets)[0, 1]
        assert correlation > 0.9

    def test_misaligned_rejected(self, rng):
        net = ValueNetwork(3, seed=0)
        with pytest.raises(ConfigError):
            net.fit(rng.normal(size=(4, 3)), [1.0, 2.0])

    def test_num_parameters(self):
        net = ValueNetwork(4, hidden_sizes=(8,), seed=0)
        # (4*8 + 8) + (8*1 + 1) = 40 + 9 = 49
        assert net.num_parameters() == 49


class TestValueDataset:
    def test_targets_are_remaining_makespans(self, env_config):
        graph = chain_dag([2, 3], demands=[(2, 2), (2, 2)])
        states, targets = collect_value_dataset(
            [graph], SjfPolicy, env_config
        )
        # Serial 5-slot schedule: first decision sees remaining 5 and the
        # last decision happens at the final completion boundary.
        assert targets[0] == 5
        assert np.all(targets > 0)
        assert len(states) == len(targets)

    def test_multiple_episodes(self, env_config, graphs):
        states, targets = collect_value_dataset(
            graphs, SjfPolicy, env_config, episodes_per_graph=2
        )
        single_states, _ = collect_value_dataset(
            graphs, SjfPolicy, env_config, episodes_per_graph=1
        )
        assert len(states) == 2 * len(single_states)

    def test_train_value_network_end_to_end(self, env_config, graphs):
        net = train_value_network(
            graphs, SjfPolicy, env_config, epochs=30, seed=0
        )
        states, targets = collect_value_dataset(graphs, SjfPolicy, env_config)
        predictions = net.predict(states)
        # On its own training distribution the regressor must correlate.
        correlation = np.corrcoef(predictions, targets)[0, 1]
        assert correlation > 0.5


class TestTruncatedRollout:
    def test_truncated_rollout_estimates(self, tiny_training_setup, graphs):
        from repro.core import TruncatedRollout
        from repro.env import SchedulingEnv

        network, env_config, train_graphs, _ = tiny_training_setup
        value_net = train_value_network(
            train_graphs[:3], SjfPolicy, env_config, epochs=15, seed=0
        )
        rollout = TruncatedRollout(network, value_net, depth_limit=3, seed=0)
        env = SchedulingEnv(graphs[0], env_config)
        estimate = rollout.rollout(env)
        assert estimate >= 1

    def test_full_playout_when_depth_suffices(self, tiny_training_setup):
        from repro.core import TruncatedRollout
        from repro.env import SchedulingEnv

        network, env_config, train_graphs, _ = tiny_training_setup
        value_net = train_value_network(
            train_graphs[:2], SjfPolicy, env_config, epochs=5, seed=0
        )
        graph = chain_dag([1, 1], demands=[(1, 1)] * 2)
        rollout = TruncatedRollout(network, value_net, depth_limit=100, seed=0)
        env = SchedulingEnv(graph, env_config)
        assert rollout.rollout(env) == 2  # exact: episode actually finished

    def test_invalid_depth_rejected(self, tiny_training_setup):
        from repro.core import TruncatedRollout

        network, _, _, _ = tiny_training_setup
        with pytest.raises(ValueError):
            TruncatedRollout(network, None, depth_limit=0)

    def test_spear_with_truncated_rollout(self, tiny_training_setup, graphs):
        """The full extension: MCTS + policy expansion + truncated rollout."""
        from repro.config import MctsConfig
        from repro.core import NetworkExpansion, TruncatedRollout
        from repro.mcts import MctsScheduler
        from repro.metrics import validate_schedule

        network, env_config, train_graphs, _ = tiny_training_setup
        value_net = train_value_network(
            train_graphs[:3], SjfPolicy, env_config, epochs=15, seed=0
        )
        scheduler = MctsScheduler(
            MctsConfig(initial_budget=10, min_budget=3),
            env_config,
            expansion=NetworkExpansion(network),
            rollout=TruncatedRollout(network, value_net, depth_limit=5, seed=0),
            seed=0,
            name="spear-truncated",
        )
        schedule = scheduler.plan(ScheduleRequest(graphs[0]))
        validate_schedule(schedule, graphs[0], env_config.cluster.capacities)