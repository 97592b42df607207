"""Unit tests for PPO with GAE (repro.rl.ppo)."""

import numpy as np
import pytest

from repro.config import EnvConfig, GnnConfig, TrainingConfig, WorkloadConfig
from repro.core.pipeline import (
    default_graph_network,
    default_network,
    training_graphs,
)
from repro.errors import ConfigError
from repro.rl.ppo import PpoTrainer, gae_advantages
from repro.rl.trainer import EpochStats


class TestGaeAdvantages:
    def test_lambda_one_gamma_one_is_return_minus_value(self):
        rewards = np.array([1.0, 2.0, 3.0])
        values = np.array([0.5, 1.0, -0.5])
        adv = gae_advantages(rewards, values, gamma=1.0, lam=1.0)
        returns = np.array([6.0, 5.0, 3.0])
        assert np.allclose(adv, returns - values)

    def test_lambda_zero_is_one_step_td_error(self):
        rewards = np.array([1.0, 2.0, 3.0])
        values = np.array([0.5, 1.0, -0.5])
        gamma = 0.9
        adv = gae_advantages(rewards, values, gamma=gamma, lam=0.0)
        # Terminal state bootstraps zero.
        expected = np.array(
            [
                1.0 + gamma * 1.0 - 0.5,
                2.0 + gamma * -0.5 - 1.0,
                3.0 + gamma * 0.0 + 0.5,
            ]
        )
        assert np.allclose(adv, expected)

    def test_recurrence_matches_direct_sum(self):
        rng = np.random.default_rng(0)
        rewards = rng.normal(size=6)
        values = rng.normal(size=6)
        gamma, lam = 0.95, 0.7
        adv = gae_advantages(rewards, values, gamma=gamma, lam=lam)
        deltas = rewards + gamma * np.append(values[1:], 0.0) - values
        direct = [
            sum(
                (gamma * lam) ** (k - t) * deltas[k]
                for k in range(t, len(deltas))
            )
            for t in range(len(deltas))
        ]
        assert np.allclose(adv, direct)


def _setup(policy="mlp"):
    env_config = EnvConfig(process_until_completion=True)
    training = TrainingConfig(
        num_examples=2,
        example_num_tasks=6,
        rollouts_per_example=2,
        epochs=2,
        batch_size=2,
        ppo_epochs=2,
        ppo_minibatch=8,
    )
    workload = WorkloadConfig(num_tasks=6, max_runtime=8, max_demand=8)
    graphs = training_graphs(training, workload, seed=99)
    if policy == "mlp":
        network = default_network(env_config, seed=13)
    else:
        network = default_graph_network(
            env_config,
            GnnConfig(hidden_size=8, rounds=1, head_hidden=4, global_hidden=8),
            seed=13,
        )
    return network, graphs, env_config, training


class TestPpoTrainer:
    @pytest.mark.parametrize("policy", ["mlp", "gnn"])
    def test_trains_and_moves_parameters(self, policy):
        network, graphs, env_config, training = _setup(policy)
        before = {k: v.copy() for k, v in network.params.items()}
        trainer = PpoTrainer(
            network, graphs, env_config=env_config, training=training, seed=5
        )
        history = trainer.train()
        assert len(history) == training.epochs
        assert all(isinstance(s, EpochStats) for s in history)
        assert all(s.num_trajectories == 4 for s in history)
        moved = max(
            float(np.abs(network.params[k] - before[k]).max()) for k in before
        )
        assert moved > 0.0

    def test_critic_learns_on_model_features(self):
        network, graphs, env_config, training = _setup("mlp")
        trainer = PpoTrainer(
            network, graphs, env_config=env_config, training=training, seed=5
        )
        assert trainer.value_network.input_size == network.value_feature_size
        trainer.train(epochs=1)
        # After one epoch the critic has been fitted to -returns and
        # produces finite predictions.
        features = np.zeros((3, network.value_feature_size))
        assert np.all(np.isfinite(trainer.value_network.predict(features)))

    def test_deterministic_given_seed(self):
        results = []
        for _ in range(2):
            network, graphs, env_config, training = _setup("mlp")
            trainer = PpoTrainer(
                network, graphs, env_config=env_config, training=training,
                seed=21,
            )
            trainer.train(epochs=1)
            results.append(
                {k: v.copy() for k, v in network.params.items()}
            )
        for key in results[0]:
            assert np.array_equal(results[0][key], results[1][key])

    def test_grad_clip_bounds_the_update(self):
        from dataclasses import replace

        network, graphs, env_config, training = _setup("mlp")
        training = replace(training, max_grad_norm=1e-9)
        before = {k: v.copy() for k, v in network.params.items()}
        trainer = PpoTrainer(
            network, graphs, env_config=env_config, training=training, seed=5
        )
        trainer.train(epochs=1)
        # A vanishing clip norm shrinks every gradient to ~0; RMSProp
        # still steps but the per-parameter movement stays tiny and
        # finite.
        for key in before:
            assert np.all(np.isfinite(network.params[key]))

    @pytest.mark.parametrize("policy", ["mlp", "gnn"])
    def test_zero_weights_give_zero_policy_gradient(self, policy):
        """Clipped samples enter the backward pass with weight 0 and must
        contribute exactly no gradient."""
        network, graphs, env_config, training = _setup(policy)
        trainer = PpoTrainer(
            network, graphs, env_config=env_config, training=training, seed=5
        )
        trajectories = trainer.sample_trajectories(graphs[0])
        steps, actions, _ = trainer.flatten_decisions(trajectories)
        grads, _ = network.policy_gradient_steps(
            steps, actions, np.zeros(len(steps))
        )
        for key, grad in grads.items():
            assert np.all(grad == 0.0), key

    @pytest.mark.parametrize("policy", ["mlp", "gnn"])
    def test_weight_function_equals_weight_array(self, policy):
        """A weight function that returns slices of an array gives the
        gradients of that array, byte for byte, and is shown each step's
        chosen-action probability exactly once."""
        network, graphs, env_config, training = _setup(policy)
        trainer = PpoTrainer(
            network, graphs, env_config=env_config, training=training, seed=5
        )
        trajectories = [
            t for graph in graphs for t in trainer.sample_trajectories(graph)
        ]
        steps, actions, _ = trainer.flatten_decisions(trajectories)
        weights = np.random.default_rng(3).normal(size=len(steps))
        seen = np.full(len(steps), np.nan)

        def by_position(positions, chosen):
            assert np.all(np.isnan(seen[positions]))
            seen[positions] = chosen
            return weights[positions]

        from_array, nll_array = network.policy_gradient_steps(
            steps, actions, weights
        )
        from_function, nll_function = network.policy_gradient_steps(
            steps, actions, by_position
        )
        assert nll_array == nll_function
        for key in from_array:
            assert from_array[key].tobytes() == from_function[key].tobytes()
        probs = network.step_probabilities(steps)
        assert np.array_equal(seen, probs[np.arange(len(steps)), actions])

    @pytest.mark.parametrize("policy", ["mlp", "gnn"])
    def test_misaligned_weights_raise_either_way(self, policy):
        network, graphs, env_config, training = _setup(policy)
        trainer = PpoTrainer(
            network, graphs, env_config=env_config, training=training, seed=5
        )
        steps, actions, _ = trainer.flatten_decisions(
            trainer.sample_trajectories(graphs[0])
        )
        with pytest.raises(ConfigError, match="must align"):
            network.policy_gradient_steps(
                steps, actions, np.ones(len(steps) + 1)
            )
        with pytest.raises(ConfigError, match="must align"):
            network.policy_gradient_steps(
                steps, actions, lambda positions, chosen: np.ones(len(positions) + 1)
            )

    def test_critic_fits_the_discounted_return(self, monkeypatch):
        """GAE bootstraps with ``gamma``, so the critic must learn the
        return discounted by that same ``gamma``."""
        from dataclasses import replace

        network, graphs, env_config, training = _setup("mlp")
        gamma = 0.5
        trainer = PpoTrainer(
            network, graphs, env_config=env_config,
            training=replace(training, gamma=gamma), seed=5,
        )
        fit = trainer.value_network.fit
        targets = []

        def spy(features, values, **kwargs):
            targets.append(values)
            return fit(features, values, **kwargs)

        monkeypatch.setattr(trainer.value_network, "fit", spy)
        trajectories = trainer.sample_trajectories(graphs[0])
        trainer._update_batch(trajectories, trainer._advantages(trajectories))
        expected = []
        for trajectory in trajectories:
            rewards = trajectory.rewards.tolist()
            expected += [
                sum(gamma ** (k - t) * rewards[k] for k in range(t, len(rewards)))
                for t in range(len(rewards))
            ]
        assert len(targets) == 1
        assert np.allclose(targets[0], -np.asarray(expected), rtol=0, atol=1e-9)

    def test_pipeline_exposes_ppo(self):
        from repro.core.pipeline import TRAINER_CLASSES, train_spear_network

        assert TRAINER_CLASSES["ppo"] is PpoTrainer
        with pytest.raises(ConfigError, match="unknown training algorithm"):
            train_spear_network(algo="nope")
        with pytest.raises(ConfigError, match="unknown policy family"):
            train_spear_network(policy="transformer")


class TestOneForwardPerMinibatch:
    """The clip rule needs pi(a|s) at the current parameters; it gets it
    from the forward pass of the backward it feeds, not from one of its
    own.  pi_old comes from the recorded rows, so no pass precedes the
    loop."""

    @pytest.mark.parametrize("policy", ["mlp", "gnn"])
    def test_update_batch_forwards_each_minibatch_once(self, policy, monkeypatch):
        network, graphs, env_config, training = _setup(policy)
        trainer = PpoTrainer(
            network, graphs, env_config=env_config, training=training, seed=5
        )
        trajectories = [
            t for graph in graphs for t in trainer.sample_trajectories(graph)
        ]
        advantages = trainer._advantages(trajectories)
        total = sum(len(t) for t in trajectories)

        forward = network.forward_group if policy == "gnn" else network.logits
        backward = network.policy_gradient_steps
        # Forwards are counted per policy_gradient_steps call while one is
        # running ("open") and in "elsewhere" otherwise.
        counts = {"open": None, "elsewhere": 0}
        minibatches = []  # (forwards seen, decisions, graphs) per call

        def spy_forward(*args, **kwargs):
            counts["elsewhere" if counts["open"] is None else "open"] += 1
            return forward(*args, **kwargs)

        def spy_backward(sub, *args):
            counts["open"] = 0
            try:
                return backward(sub, *args)
            finally:
                given = (
                    len({id(step.observation.graph) for step in sub})
                    if policy == "gnn"
                    else 1
                )
                minibatches.append((counts["open"], len(sub), given))
                counts["open"] = None

        monkeypatch.setattr(
            network, "forward_group" if policy == "gnn" else "logits", spy_forward
        )
        monkeypatch.setattr(network, "policy_gradient_steps", spy_backward)
        trainer._update_batch(trajectories, advantages)

        # Minibatches cover every step; one forward each, whatever the
        # number of graphs its decisions come from (an all-forced one
        # needs none).
        assert len(minibatches) == training.ppo_epochs * -(
            -total // training.ppo_minibatch
        )
        assert all(
            forwards == 1 if decisions else forwards <= 1
            for forwards, decisions, _ in minibatches
        )
        if policy == "gnn":
            # ...and a minibatch does span several graphs.
            assert max(given for _, _, given in minibatches) > 1
        # The entropy report after the loop is the one whole-batch pass.
        assert counts["elsewhere"] == 1

    def test_one_loop_for_every_network_kind(self):
        import inspect

        source = inspect.getsource(PpoTrainer)
        assert "hasattr(" not in source and "isinstance(" not in source
