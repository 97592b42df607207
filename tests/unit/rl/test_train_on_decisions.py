"""Training on decisions is training on every step (paper Eq. 3).

The trainers record episodes through the fused playout, which keeps
only the *decisions* (states with more than one candidate action), and
run every policy pass on those rows with the full step count as the
normaliser.  A forced step's masked softmax is exactly one-hot, so every
term it would add — log-probability, entropy, their gradients, PPO's
ratio minus 1 — is exactly 0.  The oracle below is the collection and
update the trainers ran before: a ``select`` -> ``step`` loop that
featurizes and masks every state, and REINFORCE / PPO updates over all
of those rows.  One update on decided rows must equal it to 1e-12
relative (only the float summation order moves).
"""

from typing import Any, List, NamedTuple

import numpy as np
import pytest

from repro.config import EnvConfig, GnnConfig, TrainingConfig, WorkloadConfig
from repro.core.pipeline import (
    default_graph_network,
    default_network,
    training_graphs,
)
from repro.env.actions import PROCESS
from repro.env.observation import ObservationBuilder
from repro.env.scheduling_env import SchedulingEnv
from repro.rl.agent import NetworkPolicyBase, candidate_actions, mask_from_actions
from repro.rl.gnn import GraphObservationBuilder
from repro.rl.modules import policy_entropy
from repro.rl.ppo import PpoTrainer
from repro.rl.reinforce import ReinforceTrainer
from repro.rl.trainer import iterate_minibatches
from repro.rl.trajectories import Trajectory, returns_to_go, rollout_trajectory
from repro.utils.rng import spawn

ENV = EnvConfig(process_until_completion=True)
LIMIT = 10_000
RTOL = 1e-12


def make_network(model: str, seed: int = 7):
    if model == "mlp":
        return default_network(ENV, seed=seed)
    return default_graph_network(
        ENV,
        GnnConfig(hidden_size=8, rounds=2, head_hidden=4, global_hidden=8),
        seed=seed,
    )


def make_graphs(count: int = 2, tasks: int = 10, seed: int = 5):
    return training_graphs(
        TrainingConfig(num_examples=count, example_num_tasks=tasks),
        WorkloadConfig(num_tasks=tasks, max_runtime=10, max_demand=10),
        seed=seed,
    )


# ---------------------------------------------------------------------- #
# the oracle: every step recorded, every step trained on
# ---------------------------------------------------------------------- #


class Row(NamedTuple):
    """One recorded step of the all-row loop."""

    observation: Any
    mask: np.ndarray
    action_index: int
    reward: int


def all_rows_episode(policy, env) -> List[Row]:
    """Featurize, mask and record every state, forced or not; ``select``
    makes the draws the playout makes."""
    builder = policy._ensure_builder(env)
    rows = []
    while not env.done:
        actions = candidate_actions(env, policy.work_conserving)
        observation = builder.build(env)
        mask = mask_from_actions(actions, policy._num_actions(env))
        action = policy.select(env)
        index = len(mask) - 1 if action == PROCESS else action
        rows.append(Row(observation, mask, index, env.step(action).reward))
    return rows


def all_rows_sample(trainer, graph) -> List[List[Row]]:
    """``Trainer.sample_trajectories`` with the all-row loop."""
    return [
        all_rows_episode(
            trainer.make_policy("sample", seed=child),
            SchedulingEnv(graph, trainer.env_config),
        )
        for child in spawn(trainer._rng, trainer.training.rollouts_per_example)
    ]


def all_rows_reinforce(trainer, episodes, advantage_arrays):
    """The REINFORCE update over every step: (grads, nll, entropy)."""
    network = trainer.network
    steps = [row for episode in episodes for row in episode]
    actions = np.asarray([row.action_index for row in steps], dtype=int)
    grads, nll = network.policy_gradient_steps(
        steps, actions, np.concatenate(advantage_arrays)
    )
    bonus = trainer.training.entropy_bonus
    if bonus > 0.0:
        entropy_grads = network.entropy_gradient_steps(steps)
        for key in grads:
            grads[key] -= bonus * entropy_grads[key]
    return grads, nll, policy_entropy(network.step_probabilities(steps))


def all_rows_ppo(trainer, episodes, advantage_arrays):
    """PPO's update over every step; returns (per-minibatch grads,
    per-minibatch surrogate losses, mean entropy)."""
    network = trainer.network
    training = trainer.training
    steps = [row for episode in episodes for row in episode]
    actions = np.asarray([row.action_index for row in steps], dtype=int)
    advantages = np.concatenate(advantage_arrays)
    if training.normalize_advantages and advantages.size > 1:
        advantages = (advantages - advantages.mean()) / (advantages.std() + 1e-8)
    old_probs = network.step_probabilities(steps)
    old_chosen = old_probs[np.arange(len(steps)), actions]
    clip = training.ppo_clip
    all_grads, losses = [], []
    for _ in range(training.ppo_epochs):
        for batch in iterate_minibatches(
            trainer._rng, len(steps), training.ppo_minibatch
        ):
            sub = [steps[i] for i in batch]
            sub_adv = advantages[batch]
            sub_old = old_chosen[batch]
            ratio = np.empty(len(batch))

            def clip_rule(positions, chosen):
                r = chosen / sub_old[positions]
                ratio[positions] = r
                adv = sub_adv[positions]
                active = ~(
                    ((adv > 0) & (r > 1.0 + clip)) | ((adv < 0) & (r < 1.0 - clip))
                )
                return np.where(active, adv * r, 0.0)

            grads, _ = network.policy_gradient_steps(sub, actions[batch], clip_rule)
            surrogate = np.minimum(
                ratio * sub_adv, np.clip(ratio, 1.0 - clip, 1.0 + clip) * sub_adv
            )
            losses.append(float(-surrogate.mean()))
            if training.entropy_bonus > 0.0:
                entropy_grads = network.entropy_gradient_steps(sub)
                for key in grads:
                    grads[key] -= training.entropy_bonus * entropy_grads[key]
            all_grads.append({key: value.copy() for key, value in grads.items()})
            trainer.apply_gradients(grads)
    returns = np.concatenate(
        [returns_to_go_of(episode, training.gamma) for episode in episodes]
    )
    trainer.value_network.fit(
        network.value_features([row.observation for row in steps]),
        -returns,
        epochs=training.value_epochs,
        batch_size=training.ppo_minibatch,
        learning_rate=training.value_learning_rate,
        seed=trainer._rng,
        max_grad_norm=training.max_grad_norm,
    )
    entropy = policy_entropy(network.step_probabilities(steps))
    return all_grads, losses, entropy


def returns_to_go_of(episode: List[Row], gamma: float) -> np.ndarray:
    rewards = np.asarray([row.reward for row in episode], dtype=np.float64)
    return returns_to_go(Trajectory([], rewards, 0), gamma)


# ---------------------------------------------------------------------- #
# comparison helpers
# ---------------------------------------------------------------------- #


def assert_close(got, want, what: str, scale=None) -> None:
    """``|got - want| <= RTOL * scale`` entrywise; ``scale`` defaults to
    the largest ``|want|``."""
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    if scale is None:
        scale = float(np.abs(want).max(initial=0.0))
    error = float(np.abs(got - want).max(initial=0.0))
    assert error <= RTOL * scale, f"{what}: |error| {error:.3g} vs scale {scale:.3g}"


def assert_same_grads(got, want, what: str) -> None:
    """Relative to the gradient's largest entry: a bias whose gradient
    sums to ~0 by cancellation (the GNN's ``head.c``) has no scale of
    its own."""
    assert sorted(got) == sorted(want)
    scale = max(float(np.abs(value).max()) for value in want.values())
    for key in want:
        assert_close(got[key], want[key], f"{what} {key}", scale)


def twin_trainers(cls, model, training, seed=11):
    """Two trainers with equal parameters, critics and generators."""
    graphs = make_graphs()
    first, second = (
        cls(make_network(model), graphs, ENV, training, seed=seed) for _ in range(2)
    )
    return graphs, first, second


def check_same_episodes(trajectories, episodes) -> None:
    """The recorded trajectories are the all-row episodes' decisions."""
    assert len(trajectories) == len(episodes)
    for trajectory, episode in zip(trajectories, episodes):
        assert trajectory.rewards.tolist() == [row.reward for row in episode]
        decided = [
            (position, row.action_index)
            for position, row in enumerate(episode)
            if row.mask.sum() > 1
        ]
        assert [(d.position, d.action_index) for d in trajectory.decisions] == decided
        # ...and some steps were forced, or the comparison is empty.
        assert 0 < len(decided) < len(episode)


# ---------------------------------------------------------------------- #
# collection
# ---------------------------------------------------------------------- #


@pytest.mark.parametrize("mode", ["sample", "greedy"])
@pytest.mark.parametrize("model", ["mlp", "gnn"])
def test_recorded_trajectory_is_the_select_step_loop(model, mode):
    network = make_network(model)
    for index, graph in enumerate(make_graphs(count=3)):
        policy = network.make_policy(mode, seed=index)
        twin = network.make_policy(mode, seed=index)
        env = SchedulingEnv(graph, ENV)
        episode = all_rows_episode(twin, env)
        trajectory = rollout_trajectory(SchedulingEnv(graph, ENV), policy, LIMIT)
        check_same_episodes([trajectory], [episode])
        assert trajectory.makespan == env.makespan == -trajectory.total_reward
        assert policy._rng.bit_generator.state == twin._rng.bit_generator.state


@pytest.mark.parametrize("model", ["mlp", "gnn"])
def test_every_state_recording_keeps_the_all_row_observations(model):
    network = make_network(model)
    graph = make_graphs(count=1)[0]
    trajectory = rollout_trajectory(
        SchedulingEnv(graph, ENV), network.make_policy("sample", seed=3), LIMIT, True
    )
    episode = all_rows_episode(
        network.make_policy("sample", seed=3), SchedulingEnv(graph, ENV)
    )
    assert len(trajectory.states) == len(episode)
    got = network.value_features(trajectory.states)
    want = network.value_features([row.observation for row in episode])
    assert got.tobytes() == want.tobytes()
    for decision in trajectory.decisions:
        assert decision.observation is trajectory.states[decision.position]


def count_builds(monkeypatch, builder_cls):
    calls = []
    build = builder_cls.build

    def counting(self, env):
        calls.append(1)
        return build(self, env)

    monkeypatch.setattr(builder_cls, "build", counting)
    return calls


def decision_keys(monkeypatch):
    """The ``(state_key, candidates)`` of every decision looked up."""
    keys = []
    lookup = NetworkPolicyBase._memoized

    def keyed(self, builder, env, actions):
        keys.append((builder.state_key(env), tuple(actions)))
        return lookup(self, builder, env, actions)

    monkeypatch.setattr(NetworkPolicyBase, "_memoized", keyed)
    return keys


def test_reinforce_featurizes_each_distinct_decision_once(monkeypatch):
    """One rollout group builds one observation per distinct
    ``(state_key, candidates)`` and none for a forced move."""
    training = TrainingConfig(rollouts_per_example=6, batch_size=2)
    trainer = ReinforceTrainer(make_network("mlp"), make_graphs(), ENV, training, seed=0)
    builds = count_builds(monkeypatch, ObservationBuilder)
    keys = decision_keys(monkeypatch)
    trajectories = trainer.sample_trajectories(trainer.graphs[0])
    decisions = sum(len(t.decisions) for t in trajectories)
    assert len(keys) == decisions
    assert len(builds) == len(set(keys)) < decisions


def test_a_critic_builds_forced_states_and_distinct_decisions(monkeypatch):
    """A critic reads every state: each forced one is built, and each
    distinct decision once per rollout group."""
    training = TrainingConfig(rollouts_per_example=6, batch_size=2)
    trainer = PpoTrainer(make_network("gnn"), make_graphs(), ENV, training, seed=0)
    builds = count_builds(monkeypatch, GraphObservationBuilder)
    keys = decision_keys(monkeypatch)
    trajectories = trainer.sample_trajectories(trainer.graphs[0])
    assert all(len(t.states) == len(t) for t in trajectories)
    forced = sum(len(t) - len(t.decisions) for t in trajectories)
    assert len(keys) == sum(len(t.decisions) for t in trajectories)
    assert len(builds) == forced + len(set(keys)) < forced + len(keys)


# ---------------------------------------------------------------------- #
# one update, decided rows against all rows
# ---------------------------------------------------------------------- #


@pytest.mark.parametrize("model", ["mlp", "gnn"])
def test_reinforce_update_on_decisions_equals_all_rows(model, monkeypatch):
    training = TrainingConfig(
        rollouts_per_example=3, batch_size=2, entropy_bonus=0.01
    )
    graphs, trainer, oracle = twin_trainers(ReinforceTrainer, model, training)
    trajectories = [t for g in graphs for t in trainer.sample_trajectories(g)]
    episodes = [e for g in graphs for e in all_rows_sample(oracle, g)]
    check_same_episodes(trajectories, episodes)
    advantages = trainer._advantages(trajectories)

    applied = []
    monkeypatch.setattr(trainer, "apply_gradients", applied.append)
    entropy, nll = trainer._update_batch(trajectories, advantages)
    want_grads, want_nll, want_entropy = all_rows_reinforce(
        oracle, episodes, advantages
    )
    (grads,) = applied
    assert_same_grads(grads, want_grads, "REINFORCE grad")
    assert_close(nll, want_nll, "NLL")
    assert_close(entropy, want_entropy, "mean entropy")


@pytest.mark.parametrize("model", ["mlp", "gnn"])
def test_ppo_update_on_decisions_equals_all_rows(model, monkeypatch):
    # A tight clip and a large step, so the clip binds on some samples.
    training = TrainingConfig(
        learning_rate=2e-3,
        rollouts_per_example=2,
        batch_size=2,
        ppo_clip=0.02,
        ppo_epochs=2,
        ppo_minibatch=16,
        entropy_bonus=0.01,
    )
    graphs, trainer, oracle = twin_trainers(PpoTrainer, model, training)
    trajectories = [
        t for g in graphs for t in trainer.sample_trajectories(g)
    ]
    episodes = [e for g in graphs for e in all_rows_sample(oracle, g)]
    check_same_episodes(trajectories, episodes)
    advantages = trainer._advantages(trajectories)
    assert trainer._rng.bit_generator.state == oracle._rng.bit_generator.state

    applied = []
    apply = trainer.apply_gradients

    def record(grads):
        applied.append({key: value.copy() for key, value in grads.items()})
        apply(grads)

    monkeypatch.setattr(trainer, "apply_gradients", record)
    entropy, loss = trainer._update_batch(trajectories, advantages)
    want_grads, want_losses, want_entropy = all_rows_ppo(
        oracle, episodes, advantages
    )
    assert len(applied) == len(want_grads) > 2
    for index, (grads, want) in enumerate(zip(applied, want_grads)):
        assert_same_grads(grads, want, f"minibatch {index}")
    assert_close(loss, np.mean(want_losses), "surrogate loss")
    assert_close(entropy, want_entropy, "mean entropy")
    # The critic saw the same states and targets.
    for key, value in oracle.value_network.params.items():
        assert_close(trainer.value_network.params[key], value, f"critic {key}")
    assert trainer._rng.bit_generator.state == oracle._rng.bit_generator.state


def test_an_all_forced_batch_is_a_zero_update():
    """A chain never offers a choice: no row is forwarded, the gradient
    is exactly zero and the optimizer still takes its step."""
    from repro.dag import chain_dag

    graph = chain_dag([2, 3, 1], demands=[(2, 2)] * 3)
    training = TrainingConfig(rollouts_per_example=2, entropy_bonus=0.01)
    for cls in (ReinforceTrainer, PpoTrainer):
        trainer = cls(make_network("mlp"), [graph], ENV, training, seed=0)
        applied = []
        trainer.apply_gradients = applied.append
        trajectories = trainer.sample_trajectories(graph)
        assert all(not t.decisions for t in trajectories)
        entropy, loss = trainer._update_batch(
            trajectories, trainer._advantages(trajectories)
        )
        assert applied and all(
            not np.any(grad) for grads in applied for grad in grads.values()
        )
        assert entropy == 0.0 and np.isfinite(loss)
