"""One policy memo per rollout group: exact, bounded, and released.

``Trainer.sample_trajectories`` installs one memo on the policies of a
graph's rollouts.  The reference is the collection as it was before the
memo: every rollout on a freshly constructed environment with a policy
that evaluates every decision afresh.  Both sides must record the same
bytes and leave every generator in the same state.
"""

import numpy as np
import pytest

import repro.rl.agent as agent_module
from repro.config import (
    EnvConfig,
    GnnConfig,
    TelemetryConfig,
    TrainingConfig,
    WorkloadConfig,
)
from repro.core.pipeline import (
    default_graph_network,
    default_network,
    training_graphs,
)
from repro.env.scheduling_env import SchedulingEnv
from repro.errors import EnvironmentStateError
from repro.rl.agent import NetworkPolicyBase
from repro.rl.ppo import PpoTrainer
from repro.rl.reinforce import ReinforceTrainer
from repro.rl.trajectories import rollout_trajectory
from repro.telemetry import session
from repro.utils.rng import spawn

ENV = EnvConfig(process_until_completion=True)
CASES = [(ReinforceTrainer, "mlp"), (PpoTrainer, "gnn")]
GRAPHS = 3


def make_network(model: str, seed: int = 7):
    if model == "mlp":
        return default_network(ENV, seed=seed)
    return default_graph_network(
        ENV,
        GnnConfig(hidden_size=8, rounds=2, head_hidden=4, global_hidden=8),
        seed=seed,
    )


def make_trainer(cls, model, rollouts=4, max_steps=10_000):
    training = TrainingConfig(
        num_examples=GRAPHS,
        example_num_tasks=12,
        rollouts_per_example=rollouts,
        batch_size=2,
        ppo_epochs=1,
        value_epochs=1,
        max_episode_steps=max_steps,
    )
    graphs = training_graphs(
        training,
        WorkloadConfig(num_tasks=12, max_runtime=10, max_demand=10),
        seed=5,
    )
    return cls(make_network(model), graphs, ENV, training, seed=11)


def keep_policies(monkeypatch, trainer):
    """Every policy ``trainer.make_policy`` returns, in order."""
    policies = []
    make_policy = trainer.make_policy

    def making(mode, seed=None):
        policies.append(make_policy(mode, seed=seed))
        return policies[-1]

    monkeypatch.setattr(trainer, "make_policy", making)
    return policies


def unmemoized_sample(trainer, graph):
    """The collection before the memo: a fresh environment and a policy
    without a memo per rollout."""
    policies = [
        trainer.make_policy("sample", seed=child)
        for child in spawn(trainer._rng, trainer.training.rollouts_per_example)
    ]
    trajectories = [
        rollout_trajectory(
            SchedulingEnv(graph, trainer.env_config),
            policy,
            trainer.training.max_episode_steps,
            every_state=trainer.has_critic,
        )
        for policy in policies
    ]
    return trajectories, policies


def observation_bytes(observation):
    if isinstance(observation, np.ndarray):
        return observation.tobytes()
    return (
        observation.graph,
        observation.static_table.tobytes(),
        observation.node_state.tobytes(),
        observation.globals_vec.tobytes(),
        observation.ready,
    )


def assert_same_collection(got, want):
    assert len(got) == len(want)
    for mine, theirs in zip(got, want):
        assert mine.makespan == theirs.makespan
        assert mine.rewards.tobytes() == theirs.rewards.tobytes()
        assert len(mine.decisions) == len(theirs.decisions)
        for a, b in zip(mine.decisions, theirs.decisions):
            assert observation_bytes(a.observation) == observation_bytes(
                b.observation
            )
            assert a.mask.tobytes() == b.mask.tobytes()
            assert (a.action_index, a.position) == (b.action_index, b.position)
        assert [observation_bytes(s) for s in mine.states] == [
            observation_bytes(s) for s in theirs.states
        ]


def check_memo_equals_no_memo(cls, model, monkeypatch):
    trainer = make_trainer(cls, model)
    reference = make_trainer(cls, model)
    policies = keep_policies(monkeypatch, trainer)
    for graph in trainer.graphs:
        start = len(policies)
        got = trainer.sample_trajectories(graph)
        want, want_policies = unmemoized_sample(reference, graph)
        assert_same_collection(got, want)
        for policy, twin in zip(policies[start:], want_policies):
            assert policy._rng.bit_generator.state == twin._rng.bit_generator.state
        assert (
            trainer._rng.bit_generator.state == reference._rng.bit_generator.state
        )
    return trainer


@pytest.mark.parametrize("cls, model", CASES)
def test_memo_on_equals_memo_off(cls, model, monkeypatch):
    trainer = check_memo_equals_no_memo(cls, model, monkeypatch)
    assert trainer._policy_evaluations > trainer._policy_memo_hits > 0


@pytest.mark.parametrize("cls, model", CASES)
def test_memo_on_equals_memo_off_while_evicting(cls, model, monkeypatch):
    sizes = []
    lookup = NetworkPolicyBase._memoized

    def watching(self, builder, env, actions):
        row = lookup(self, builder, env, actions)
        sizes.append(len(self.memo.rows))
        return row

    monkeypatch.setattr(agent_module, "_MEMO_CAP", 4)
    monkeypatch.setattr(NetworkPolicyBase, "_memoized", watching)
    check_memo_equals_no_memo(cls, model, monkeypatch)
    # Each group starts empty; more single-row memos than groups means
    # the cap evicted.
    assert max(sizes) == 4 and sizes.count(1) > GRAPHS


@pytest.mark.parametrize("cls, model", CASES)
def test_memo_is_released_after_the_group(cls, model, monkeypatch):
    trainer = make_trainer(cls, model)
    policies = keep_policies(monkeypatch, trainer)
    trainer.sample_trajectories(trainer.graphs[0])
    assert policies and all(policy.memo is None for policy in policies)
    memo = trainer.memo
    assert not memo.rows and memo.evaluations == memo.hits == 0


@pytest.mark.parametrize("cls, model", CASES)
def test_memo_is_released_when_the_group_raises(cls, model, monkeypatch):
    # Too few steps to finish an episode, enough to make decisions.
    trainer = make_trainer(cls, model, max_steps=8)
    policies = keep_policies(monkeypatch, trainer)
    filled = []
    lookup = NetworkPolicyBase._memoized

    def watching(self, builder, env, actions):
        row = lookup(self, builder, env, actions)
        filled.append(len(self.memo.rows))
        return row

    monkeypatch.setattr(NetworkPolicyBase, "_memoized", watching)
    with pytest.raises(EnvironmentStateError):
        trainer.sample_trajectories(trainer.graphs[0])
    assert filled and filled[-1] > 0, "the group had filled the memo"
    assert policies and all(policy.memo is None for policy in policies)
    memo = trainer.memo
    assert not memo.rows and memo.evaluations == memo.hits == 0


@pytest.mark.parametrize("cls, model", CASES)
def test_an_epochs_lookups_and_hits_reach_the_trace(cls, model, monkeypatch):
    trainer = make_trainer(cls, model)
    lookups = []
    lookup = NetworkPolicyBase._memoized

    def counting(self, builder, env, actions):
        memo = self.memo
        hits = memo.hits
        row = lookup(self, builder, env, actions)
        lookups.append(memo.hits - hits)
        return row

    monkeypatch.setattr(NetworkPolicyBase, "_memoized", counting)
    with session(TelemetryConfig(enabled=True)) as tm:
        trainer.train_epoch(0)
        first = (len(lookups), sum(lookups))
        trainer.train_epoch(1)
        counter = tm.metrics.counter
        evaluations = counter(f"{cls.algo}.policy_evaluations").total
        hits = counter(f"{cls.algo}.policy_memo_hits").total
    assert len(lookups) > sum(lookups) > 0
    assert (evaluations, hits) == (len(lookups), sum(lookups))
    # Each epoch adds its own counts, not a running total.
    assert (trainer._policy_evaluations, trainer._policy_memo_hits) == (
        len(lookups) - first[0],
        sum(lookups) - first[1],
    )
