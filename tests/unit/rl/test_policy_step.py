"""The fused single-state policy step against the step it replaced.

``select`` and the trainers' recording playout skip the network (and,
unless a critic asks for every state, observation and mask) in states
with exactly one candidate action.  The reference policies below keep
the old step — featurize, batch-form masked softmax,
``Generator.choice``, in *every* state — and the observation as the
concatenation it used to be; whole episodes must agree action for
action, decision for decision, and end on the same RNG state.
"""

import numpy as np
import pytest

from repro.config import ClusterConfig, EnvConfig, GnnConfig, NetworkConfig, WorkloadConfig
from repro.core import NetworkExpansion, NetworkRollout
from repro.core.pipeline import default_graph_network, default_network
from repro.dag.generators import chain_dag, random_layered_dag
from repro.env.actions import PROCESS
from repro.env.observation import ObservationBuilder
from repro.env.scheduling_env import SchedulingEnv
from repro.errors import ConfigError
from repro.rl.gnn import GraphObservationBuilder
from repro.rl.modules import masked_softmax
from repro.rl.trajectories import rollout_trajectory

CLUSTER = ClusterConfig(capacities=(10, 10), horizon=8)
WORKLOAD = WorkloadConfig(
    num_tasks=14, max_runtime=5, max_demand=6,
    runtime_mean=3, runtime_std=1, demand_mean=3, demand_std=2,
)
GRAPH_SEEDS = (3, 17, 42)


def env_config() -> EnvConfig:
    return EnvConfig(cluster=CLUSTER, max_ready=5, process_until_completion=True)


def make_network(model: str):
    if model == "mlp":
        return default_network(
            env_config(), NetworkConfig(hidden_sizes=(16, 8), max_ready=5), seed=7
        )
    return default_graph_network(
        env_config(),
        GnnConfig(hidden_size=8, rounds=2, head_hidden=4, global_hidden=4),
        seed=7,
    )


# ---------------------------------------------------------------------- #
# the step as it was before it was fused
# ---------------------------------------------------------------------- #


def reference_observation(builder: ObservationBuilder, env) -> np.ndarray:
    """``ObservationBuilder.build`` as a concatenation of fresh parts."""
    capacities = builder.config.cluster.capacities
    horizon = builder.config.cluster.horizon
    image = np.zeros((len(capacities), horizon), dtype=np.float64)
    now = env.cluster.now
    for entry in env.cluster.running_tasks():
        remaining = min(entry.finish_time - now, horizon)
        if remaining <= 0:
            continue
        for r, demand in enumerate(entry.demands):
            image[r, :remaining] += demand
    image = image / np.asarray(capacities, dtype=np.float64)[:, None]
    per_task = builder.graph.num_resources * 2 + 3
    block = np.zeros((builder.config.max_ready, per_task), dtype=np.float64)
    for slot, tid in enumerate(env.visible_ready()):
        block[slot] = builder.task_features(tid)
    tail = np.asarray(
        [
            env.backlog_size / max(1, builder.graph.num_tasks),
            env.num_finished / builder.graph.num_tasks,
        ],
        dtype=np.float64,
    )
    return np.concatenate([image.ravel(), block.ravel(), tail])


def reference_mask(env, num_actions: int, work_conserving: bool) -> np.ndarray:
    mask = np.zeros(num_actions, dtype=bool)
    actions = (
        env.expansion_actions(work_conserving=True)
        if work_conserving
        else env.legal_actions()
    )
    for action in actions:
        mask[num_actions - 1 if action == PROCESS else action] = True
    return mask


class ReferencePolicy:
    """Observe, forward and ``rng.choice`` in every state, forced or not."""

    def __init__(self, network, graph, config, mode, seed, work_conserving):
        self.network = network
        self.mode = mode
        self.work_conserving = work_conserving
        self.rng = np.random.default_rng(seed)
        self.mlp = network.kind == "policy_mlp"
        self.builder = (
            ObservationBuilder(graph, config)
            if self.mlp
            else GraphObservationBuilder(graph, config)
        )

    def step(self, env):
        if self.mlp:
            width = self.network.num_actions
            observation = reference_observation(self.builder, env)
            mask = reference_mask(env, width, self.work_conserving)
            probs = self.network.probabilities(
                observation[None, :], mask[None, :]
            )[0]
        else:
            width = len(env.visible_ready()) + 1
            observation = self.builder.build(env)
            mask = reference_mask(env, width, self.work_conserving)
            logits = self.network.forward_group(
                *self.network.batch_inputs([observation])
            )
            probs = masked_softmax(logits, mask[None, :])[0]
        if self.mode == "greedy":
            index = int(np.argmax(probs))
        else:
            index = int(self.rng.choice(len(probs), p=probs))
        action = PROCESS if index == width - 1 else index
        return action, observation, mask, index


def assert_same_observation(got, expected, mlp: bool) -> None:
    if mlp:
        assert got.dtype == expected.dtype
        assert got.tobytes() == expected.tobytes()
    else:
        assert got.node_state.tobytes() == expected.node_state.tobytes()
        assert got.globals_vec.tobytes() == expected.globals_vec.tobytes()
        assert got.ready == expected.ready
        assert np.array_equal(got.static_table, expected.static_table)


# ---------------------------------------------------------------------- #


@pytest.mark.parametrize("work_conserving", [True, False])
# The "with_trace" id dates from when trainers recorded through a
# per-step ``select_with_trace``; the cases now hold the recording
# playout to the reference and keep their ids.
@pytest.mark.parametrize("traced", [False, True], ids=["select", "with_trace"])
# The "object" id segment dates from when an "array" environment ran the
# same cases beside it; it stays so the surviving cases keep their ids.
@pytest.mark.parametrize("config", [pytest.param(env_config(), id="object")])
@pytest.mark.parametrize("mode", ["sample", "greedy"])
@pytest.mark.parametrize("model", ["mlp", "gnn"])
def test_episodes_match_the_unfused_step(
    model, mode, config, traced, work_conserving
):
    network = make_network(model)
    forced = unforced = 0
    for graph_seed in GRAPH_SEEDS:
        graph = random_layered_dag(WORKLOAD, seed=graph_seed)
        policy = network.make_policy(
            mode=mode, seed=graph_seed, work_conserving=work_conserving
        )
        reference = ReferencePolicy(
            network, graph, config, mode, graph_seed, work_conserving
        )
        env = SchedulingEnv(graph, config)
        twin = SchedulingEnv(graph, config)
        if traced:
            trajectory = rollout_trajectory(env, policy, 10_000)
        decided = []  # (position, reference step) of every unforced state
        rewards = []
        while not twin.done:
            candidates = (
                twin.expansion_actions(work_conserving=True)
                if work_conserving
                else twin.legal_actions()
            )
            if len(candidates) == 1:
                forced += 1
            else:
                unforced += 1
            expected = reference.step(twin)
            if len(candidates) > 1:
                decided.append((len(rewards), expected))
            if not traced:
                action = policy.select(env)
                assert action == expected[0] and isinstance(action, int)
                env.step(action)
            rewards.append(twin.step(expected[0]).reward)
        if traced:
            assert trajectory.rewards.tolist() == rewards
            assert len(trajectory.decisions) == len(decided)
            for decision, (position, expected) in zip(
                trajectory.decisions, decided
            ):
                assert decision.position == position
                assert_same_observation(
                    decision.observation, expected[1], model == "mlp"
                )
                assert decision.mask.dtype == bool
                assert np.array_equal(decision.mask, expected[2])
                index = decision.action_index
                assert index == expected[3] and isinstance(index, int)
        assert env.makespan == twin.makespan
        assert (
            policy._rng.bit_generator.state == reference.rng.bit_generator.state
        )
    # The comparison means something only if both kinds of state occurred.
    assert forced > 0 and unforced > 0


class CountingCalls:
    """Count calls of a bound method through an instance attribute."""

    def __init__(self, owner, name):
        self.calls = 0
        self._inner = getattr(owner, name)
        setattr(owner, name, self)

    def __call__(self, *args, **kwargs):
        self.calls += 1
        return self._inner(*args, **kwargs)


def play(policy, env):
    """Run an episode; returns (steps, steps with > 1 candidate)."""
    steps = unforced = 0
    while not env.done:
        candidates = env.expansion_actions(work_conserving=True)
        steps += 1
        unforced += len(candidates) > 1
        env.step(policy.select(env))
    return steps, unforced


@pytest.mark.parametrize("model", ["mlp", "gnn"])
def test_forced_moves_skip_forward_and_featurization(model):
    network = make_network(model)
    forward_name = "logits" if model == "mlp" else "forward_group"
    graph = random_layered_dag(WORKLOAD, seed=GRAPH_SEEDS[0])
    config = env_config()

    policy = network.make_policy(mode="sample", seed=0)
    env = SchedulingEnv(graph, config)
    builds = CountingCalls(policy._ensure_builder(env), "build")
    forwards = CountingCalls(network, forward_name)
    steps, unforced = play(policy, env)
    assert 0 < unforced < steps
    assert forwards.calls == unforced
    assert builds.calls == unforced

    # Recording for a trainer featurizes the decisions only, unless a
    # critic asks for every state; a forced move never forwards.
    for every_state in (False, True):
        policy = network.make_policy(mode="sample", seed=0)
        env = SchedulingEnv(graph, config)
        builds = CountingCalls(policy._ensure_builder(env), "build")
        before = forwards.calls
        trajectory = rollout_trajectory(env, policy, 10_000, every_state)
        assert forwards.calls - before == len(trajectory.decisions) == unforced
        assert builds.calls == (steps if every_state else unforced)
        assert len(trajectory.states) == (steps if every_state else 0)


@pytest.mark.parametrize("model", ["mlp", "gnn"])
def test_greedy_mode_never_draws(model):
    policy = make_network(model).make_policy(mode="greedy", seed=5)
    before = policy._rng.bit_generator.state
    play(
        policy,
        SchedulingEnv(random_layered_dag(WORKLOAD, seed=GRAPH_SEEDS[1]), env_config()),
    )
    assert policy._rng.bit_generator.state == before


def test_forced_sampled_move_draws_exactly_one_uniform():
    # A chain's first state has one ready task and nothing running.
    env = SchedulingEnv(chain_dag([2, 3], demands=[(2, 1)] * 2), env_config())
    assert env.expansion_actions(work_conserving=True) == [0]
    policy = make_network("mlp").make_policy(mode="sample", seed=11)
    twin = np.random.default_rng(11)
    assert policy.select(env) == 0
    twin.random()
    assert policy._rng.bit_generator.state == twin.bit_generator.state


def test_forced_move_still_validates_the_environment():
    """The builder checks (window and input size) run before the
    short-circuit, so a mismatched env fails even in a forced state."""
    narrow = EnvConfig(cluster=CLUSTER, max_ready=4, process_until_completion=True)
    env = SchedulingEnv(chain_dag([2, 3], demands=[(2, 1)] * 2), narrow)
    assert len(env.expansion_actions(work_conserving=True)) == 1
    policy = make_network("mlp").make_policy(mode="sample", seed=0)
    with pytest.raises(ConfigError, match="max_ready"):
        policy.select(env)
    with pytest.raises(ConfigError, match="max_ready"):
        rollout_trajectory(env, policy, 100)


def test_prioritize_returns_at_once_for_a_single_candidate():
    network = make_network("mlp")
    forwards = CountingCalls(network, "logits")
    expansion = NetworkExpansion(network)
    env = SchedulingEnv(random_layered_dag(WORKLOAD, seed=GRAPH_SEEDS[0]), env_config())
    single = [0]
    ordered = expansion.prioritize(env, single)
    assert ordered == [0] and ordered is not single
    assert expansion.prioritize(env, []) == []
    assert forwards.calls == 0
    candidates = env.expansion_actions(work_conserving=True)
    assert len(candidates) > 1
    assert sorted(expansion.prioritize(env, candidates)) == sorted(candidates)
    assert forwards.calls == 1


def test_network_rollout_matches_reference_stream():
    """NetworkRollout is the fused step in a loop: same makespans and
    same generator state as the unfused step over several rollouts."""
    network = make_network("mlp")
    config = env_config()
    graph = random_layered_dag(WORKLOAD, seed=GRAPH_SEEDS[2])
    rollout = NetworkRollout(network, seed=23)
    reference = ReferencePolicy(network, graph, config, "sample", 23, True)
    for _ in range(4):
        env = SchedulingEnv(graph, config)
        while not env.done:
            env.step(reference.step(env)[0])
        assert rollout.rollout(SchedulingEnv(graph, config)) == env.makespan
    assert (
        rollout._policy._rng.bit_generator.state
        == reference.rng.bit_generator.state
    )
