"""Unit tests for the network policy adapter and trajectory recording."""

import numpy as np
import pytest

from repro.config import ClusterConfig, EnvConfig, NetworkConfig
from repro.dag import chain_dag, independent_tasks_dag
from repro.env import PROCESS, SchedulingEnv
from repro.env.observation import observation_size
from repro.errors import ConfigError
from repro.rl import NetworkPolicy, PolicyNetwork
from repro.rl.agent import build_action_mask
from repro.rl.trajectories import Trajectory, returns_to_go, rollout_trajectory


@pytest.fixture
def cfg():
    return EnvConfig(
        cluster=ClusterConfig(capacities=(10, 10), horizon=6), max_ready=4
    )


@pytest.fixture
def net(cfg):
    return PolicyNetwork(
        observation_size(cfg),
        NetworkConfig(hidden_sizes=(12, 6), max_ready=cfg.max_ready),
        seed=0,
    )


class TestActionMask:
    def test_layout(self, cfg):
        graph = independent_tasks_dag([2, 2], demands=[(3, 3), (3, 3)])
        env = SchedulingEnv(graph, cfg)
        mask = build_action_mask(env, cfg.max_ready + 1)
        # Two ready tasks fit; PROCESS illegal on an idle cluster.
        assert mask.tolist() == [True, True, False, False, False]

    def test_process_bit_after_start(self, cfg):
        graph = independent_tasks_dag([2, 2], demands=[(3, 3), (3, 3)])
        env = SchedulingEnv(graph, cfg)
        env.step(0)
        mask = build_action_mask(env, cfg.max_ready + 1)
        assert mask[-1]  # PROCESS now legal

    def test_work_conserving_hides_process(self, cfg):
        graph = independent_tasks_dag([2, 2], demands=[(3, 3), (3, 3)])
        env = SchedulingEnv(graph, cfg)
        env.step(0)
        mask = build_action_mask(env, cfg.max_ready + 1, work_conserving=True)
        assert not mask[-1]
        assert mask[0]


class TestNetworkPolicy:
    def test_selects_legal_actions(self, cfg, net, small_random_graph):
        env = SchedulingEnv(small_random_graph, cfg)
        policy = NetworkPolicy(net, mode="sample", seed=0)
        policy.begin_episode(env)
        for _ in range(15):
            if env.done:
                break
            action = policy.select(env)
            assert action in env.legal_actions()
            env.step(action)

    def test_greedy_is_deterministic(self, cfg, net, small_random_graph):
        env = SchedulingEnv(small_random_graph, cfg)
        policy = NetworkPolicy(net, mode="greedy")
        policy.begin_episode(env)
        assert policy.select(env) == policy.select(env)

    def test_action_probabilities_sum_to_one(self, cfg, net, small_random_graph):
        env = SchedulingEnv(small_random_graph, cfg)
        policy = NetworkPolicy(net, mode="greedy")
        probs = policy.action_probabilities(env)
        assert sum(probs.values()) == pytest.approx(1.0)
        assert set(probs) <= set(env.legal_actions()) | {PROCESS}

    def test_unknown_mode_rejected(self, net):
        with pytest.raises(ConfigError):
            NetworkPolicy(net, mode="argmin")

    def test_window_mismatch_rejected(self, net, small_random_graph):
        bad_cfg = EnvConfig(
            cluster=ClusterConfig(capacities=(10, 10), horizon=6), max_ready=9
        )
        env = SchedulingEnv(small_random_graph, bad_cfg)
        policy = NetworkPolicy(net)
        with pytest.raises(ConfigError, match="max_ready"):
            policy.begin_episode(env)

    def test_observation_size_mismatch_rejected(self, cfg, small_random_graph):
        wrong = PolicyNetwork(
            7, NetworkConfig(hidden_sizes=(4,), max_ready=cfg.max_ready), seed=0
        )
        env = SchedulingEnv(small_random_graph, cfg)
        with pytest.raises(ConfigError, match="observation size"):
            NetworkPolicy(wrong).begin_episode(env)


class TestTrajectories:
    def test_rollout_records_every_decision(self, cfg, net):
        graph = chain_dag([2, 1], demands=[(2, 2), (2, 2)])
        env = SchedulingEnv(graph, cfg)
        policy = NetworkPolicy(net, mode="sample", seed=1)
        trajectory = rollout_trajectory(env, policy, max_steps=100)
        assert trajectory.makespan == env.makespan
        assert trajectory.total_reward == -trajectory.makespan
        assert len(trajectory) >= 2  # two schedules + processes
        # A chain never offers a choice: every step is forced, and only
        # the rewards are recorded.
        assert trajectory.decisions == [] and trajectory.states == []

    def test_decisions_carry_their_step_positions(
        self, cfg, net, small_random_graph
    ):
        env = SchedulingEnv(small_random_graph, cfg)
        policy = NetworkPolicy(net, mode="sample", seed=1)
        trajectory = rollout_trajectory(env, policy, max_steps=1000)
        positions = [d.position for d in trajectory.decisions]
        assert positions == sorted(set(positions))
        assert 0 < len(positions) < len(trajectory) == env.steps_taken
        assert all(d.mask.sum() > 1 for d in trajectory.decisions)

    def test_rollout_step_cap(self, cfg, net, small_random_graph):
        from repro.errors import EnvironmentStateError

        env = SchedulingEnv(small_random_graph, cfg)
        policy = NetworkPolicy(net, mode="sample", seed=1)
        with pytest.raises(EnvironmentStateError):
            rollout_trajectory(env, policy, max_steps=1)

    def test_returns_to_go(self, cfg, net):
        graph = chain_dag([2, 1], demands=[(2, 2), (2, 2)])
        env = SchedulingEnv(graph, cfg)
        policy = NetworkPolicy(net, mode="greedy")
        trajectory = rollout_trajectory(env, policy, max_steps=100)
        returns = returns_to_go(trajectory)
        assert returns[0] == trajectory.total_reward
        assert returns[-1] == trajectory.rewards[-1]
        # Monotone non-decreasing (rewards are all <= 0).
        assert all(b >= a for a, b in zip(returns, returns[1:]))

    def test_discounted_returns_to_go(self):
        trajectory = Trajectory([], np.array([-2.0, 0.0, -3.0]), 5)
        assert returns_to_go(trajectory).tolist() == [-5.0, -3.0, -3.0]
        assert returns_to_go(trajectory, 0.5).tolist() == [-2.75, -1.5, -3.0]
