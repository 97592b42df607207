"""Unit tests for the configuration dataclasses."""

import pytest

from repro.config import (
    ClusterConfig,
    EnvConfig,
    GrapheneConfig,
    MctsConfig,
    NetworkConfig,
    TrainingConfig,
    WorkloadConfig,
)
from repro.errors import ConfigError


class TestClusterConfig:
    def test_defaults_match_paper(self):
        cfg = ClusterConfig()
        assert cfg.capacities == (20, 20)
        assert cfg.horizon == 20
        assert cfg.num_resources == 2

    def test_rejects_empty_capacities(self):
        with pytest.raises(ConfigError):
            ClusterConfig(capacities=())

    def test_rejects_non_positive_capacity(self):
        with pytest.raises(ConfigError):
            ClusterConfig(capacities=(10, 0))

    def test_rejects_non_positive_horizon(self):
        with pytest.raises(ConfigError):
            ClusterConfig(horizon=0)

    def test_single_resource_allowed(self):
        assert ClusterConfig(capacities=(5,)).num_resources == 1


class TestWorkloadConfig:
    def test_defaults_match_paper(self):
        cfg = WorkloadConfig()
        assert cfg.num_tasks == 100
        assert (cfg.min_width, cfg.max_width) == (2, 5)
        assert cfg.max_runtime == 20
        assert cfg.max_demand == 20

    def test_rejects_inverted_width_range(self):
        with pytest.raises(ConfigError):
            WorkloadConfig(min_width=5, max_width=2)

    def test_rejects_zero_tasks(self):
        with pytest.raises(ConfigError):
            WorkloadConfig(num_tasks=0)

    def test_rejects_bad_edge_probability(self):
        with pytest.raises(ConfigError):
            WorkloadConfig(edge_probability=1.5)

    def test_rejects_negative_std(self):
        with pytest.raises(ConfigError):
            WorkloadConfig(runtime_std=-1)


class TestMctsConfig:
    def test_defaults_match_paper(self):
        cfg = MctsConfig()
        assert cfg.initial_budget == 1000
        assert cfg.min_budget == 100
        assert cfg.use_expansion_filters
        assert cfg.use_budget_decay
        assert cfg.use_max_value_ucb

    def test_rejects_zero_budget(self):
        with pytest.raises(ConfigError):
            MctsConfig(initial_budget=0)

    def test_rejects_zero_min_budget(self):
        with pytest.raises(ConfigError):
            MctsConfig(min_budget=0)

    def test_rejects_non_positive_exploration(self):
        with pytest.raises(ConfigError):
            MctsConfig(exploration_scale=0.0)


class TestNetworkConfig:
    def test_defaults_match_paper(self):
        cfg = NetworkConfig()
        assert cfg.hidden_sizes == (256, 32, 32)
        assert cfg.max_ready == 15
        assert cfg.num_actions == 16

    def test_rejects_empty_hidden(self):
        with pytest.raises(ConfigError):
            NetworkConfig(hidden_sizes=())

    def test_rejects_zero_width_layer(self):
        with pytest.raises(ConfigError):
            NetworkConfig(hidden_sizes=(256, 0))


class TestTrainingConfig:
    def test_defaults_match_paper(self):
        cfg = TrainingConfig()
        assert cfg.learning_rate == pytest.approx(1e-4)
        assert cfg.rho == pytest.approx(0.9)
        assert cfg.eps == pytest.approx(1e-9)
        assert cfg.rollouts_per_example == 20
        assert cfg.num_examples == 144
        assert cfg.example_num_tasks == 25
        assert cfg.epochs == 7000

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"learning_rate": 0},
            {"rho": 1.0},
            {"eps": 0},
            {"rollouts_per_example": 0},
            {"batch_size": 0},
            {"entropy_bonus": -0.1},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ConfigError):
            TrainingConfig(**kwargs)


class TestGrapheneConfig:
    def test_defaults_match_paper(self):
        cfg = GrapheneConfig()
        assert cfg.thresholds == (0.2, 0.4, 0.6, 0.8)

    def test_rejects_empty_thresholds(self):
        with pytest.raises(ConfigError):
            GrapheneConfig(thresholds=())

    def test_rejects_out_of_range_threshold(self):
        with pytest.raises(ConfigError):
            GrapheneConfig(thresholds=(0.0,))
        with pytest.raises(ConfigError):
            GrapheneConfig(thresholds=(1.5,))


class TestEnvConfig:
    def test_defaults(self):
        cfg = EnvConfig()
        assert cfg.max_ready == 15
        assert not cfg.process_until_completion
        assert cfg.include_graph_features

    def test_rejects_zero_window(self):
        with pytest.raises(ConfigError):
            EnvConfig(max_ready=0)

