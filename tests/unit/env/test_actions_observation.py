"""Unit tests for action encoding and observation building."""

import numpy as np
import pytest

from repro.config import ClusterConfig, EnvConfig
from repro.dag import Task, TaskGraph, chain_dag, independent_tasks_dag
from repro.env import (
    PROCESS,
    ObservationBuilder,
    SchedulingEnv,
    observation_size,
)


class TestActions:
    def test_process_constant(self):
        assert PROCESS == -1


@pytest.fixture
def obs_config():
    return EnvConfig(
        cluster=ClusterConfig(capacities=(10, 10), horizon=6), max_ready=4
    )


class TestObservationSize:
    def test_formula(self, obs_config):
        # 2 resources x horizon 6 + 4 slots x (2 demands + 3 scalars +
        # 2 b-loads) + 2 globals = 12 + 28 + 2 = 42.
        assert observation_size(obs_config) == 42

    def test_explicit_resources(self, obs_config):
        # 1 x 6 + 4 x (1 demand + 3 scalars + 1 b-load) + 2 = 28.
        assert observation_size(obs_config, num_resources=1) == 28


class TestObservationBuilder:
    def test_size_matches_build(self, obs_config, chain3):
        builder = ObservationBuilder(chain3, obs_config)
        env = SchedulingEnv(chain3, obs_config)
        obs = builder.build(env)
        assert obs.shape == (builder.size,)
        assert builder.size == observation_size(obs_config)

    def test_values_in_unit_range(self, obs_config, small_random_graph):
        builder = ObservationBuilder(small_random_graph, obs_config)
        env = SchedulingEnv(small_random_graph, obs_config)
        # Drive a few steps and check normalization along the way.
        for _ in range(6):
            if env.done:
                break
            obs = builder.build(env)
            assert np.all(obs >= 0.0)
            assert np.all(obs <= 1.0 + 1e-9)
            env.step(env.legal_actions()[0])

    def test_cluster_image_tracks_running(self, obs_config, chain3):
        builder = ObservationBuilder(chain3, obs_config)
        env = SchedulingEnv(chain3, obs_config)
        image = builder.cluster_image(env)
        assert np.all(image == 0)
        env.step(0)  # runtime 2, demands (2, 1)
        image = builder.cluster_image(env)
        assert image[0, 0] == pytest.approx(0.2)
        assert image[0, 1] == pytest.approx(0.2)
        assert image[0, 2] == pytest.approx(0.0)  # remaining runtime only 2
        assert image[1, 0] == pytest.approx(0.1)

    def test_image_clamps_to_horizon(self, obs_config):
        graph = chain_dag([50], demands=[(2, 2)])
        builder = ObservationBuilder(graph, obs_config)
        env = SchedulingEnv(graph, obs_config)
        env.step(0)
        image = builder.cluster_image(env)
        assert image.shape == (2, 6)
        assert np.all(image[0] == pytest.approx(0.2))

    def test_task_features_layout(self, obs_config):
        tasks = [Task(0, 4, (5, 2)), Task(1, 2, (1, 1))]
        graph = TaskGraph(tasks, [(0, 1)])
        builder = ObservationBuilder(graph, obs_config)
        features = builder.task_features(0)
        # demands normalized by capacity
        assert features[0] == pytest.approx(0.5)
        assert features[1] == pytest.approx(0.2)
        # runtime normalized by max runtime (4)
        assert features[2] == pytest.approx(1.0)
        # b-level of task 0 is 6 == critical path -> 1.0
        assert features[3] == pytest.approx(1.0)
        # children count normalized by max (1)
        assert features[4] == pytest.approx(1.0)

    def test_empty_slots_zero(self, obs_config, chain3):
        builder = ObservationBuilder(chain3, obs_config)
        env = SchedulingEnv(chain3, obs_config)
        obs = builder.build(env)
        image_len = 2 * obs_config.cluster.horizon
        per_task = 7
        block = obs[image_len : image_len + obs_config.max_ready * per_task]
        block = block.reshape(obs_config.max_ready, per_task)
        # Only one ready task -> slots 1..3 all zero.
        assert np.all(block[1:] == 0)
        assert np.any(block[0] > 0)

    def test_graph_features_ablated(self, chain3):
        config = EnvConfig(
            cluster=ClusterConfig(capacities=(10, 10), horizon=6),
            max_ready=4,
            include_graph_features=False,
        )
        builder = ObservationBuilder(chain3, config)
        features = builder.task_features(0)
        # b-level, children, b-loads zeroed; demands + runtime remain.
        assert features[3] == 0.0
        assert features[4] == 0.0
        assert np.all(features[5:] == 0.0)
        assert features[0] > 0

    def test_global_scalars(self, obs_config):
        graph = independent_tasks_dag([1] * 8, demands=[(1, 1)] * 8)
        builder = ObservationBuilder(graph, obs_config)
        env = SchedulingEnv(graph, obs_config)
        obs = builder.build(env)
        backlog_norm, finished_norm = obs[-2], obs[-1]
        assert backlog_norm == pytest.approx(4 / 8)  # 8 ready, 4 visible
        assert finished_norm == 0.0
