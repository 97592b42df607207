"""Batched leaf evaluation must be indistinguishable from sequential.

:class:`PolicyEvaluator` is MCTS's batched inference path: one network
forward scores a whole wave of leaf states.  These tests drive random
mid-episode state batches and assert the batched distributions match the
per-state policy adapters (``NetworkPolicy`` / ``GraphNetworkPolicy``)
action-for-action, and that batched greedy rollouts reproduce sequential
greedy rollouts exactly.
"""

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from repro.config import ClusterConfig, EnvConfig, GnnConfig, WorkloadConfig
from repro.core.pipeline import default_graph_network, default_network
from repro.dag.generators import random_layered_dag
from repro.env.scheduling_env import SchedulingEnv
from repro.errors import ConfigError
from repro.rl.agent import NetworkPolicy
from repro.rl.evaluator import PolicyEvaluator
from repro.rl.gnn import GraphNetworkPolicy


def make_config(max_ready=6):
    return EnvConfig(
        cluster=ClusterConfig(capacities=(10, 10), horizon=8),
        max_ready=max_ready,
        process_until_completion=True,
    )


def make_graph(seed, num_tasks):
    workload = WorkloadConfig(
        num_tasks=num_tasks,
        max_runtime=6,
        max_demand=8,
        runtime_mean=3,
        runtime_std=2,
        demand_mean=4,
        demand_std=2,
    )
    return random_layered_dag(workload, seed=seed)


def state_batch(graph, config, seed, count=12):
    """Clones spread along one random work-conserving episode."""
    env = SchedulingEnv(graph, config)
    rng = np.random.default_rng(seed)
    lanes = [env.clone()]
    sim = env.clone()
    while not sim.done and len(lanes) < count:
        actions = sim.expansion_actions(work_conserving=True)
        sim.step(actions[int(rng.integers(0, len(actions)))])
        if not sim.done:
            lanes.append(sim.clone())
    return lanes


def make_network(kind, config, seed):
    if kind == "mlp":
        return default_network(config, seed=seed)
    return default_graph_network(
        config,
        GnnConfig(hidden_size=8, rounds=1, head_hidden=4, global_hidden=8),
        seed=seed,
    )


def sequential_policy(kind, network):
    if kind == "mlp":
        return NetworkPolicy(network, mode="greedy", work_conserving=True)
    return GraphNetworkPolicy(network, mode="greedy", work_conserving=True)


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    num_tasks=st.integers(4, 16),
    kind=st.sampled_from(["mlp", "gnn"]),
)
def test_batched_distributions_match_sequential(seed, num_tasks, kind):
    graph = make_graph(seed, num_tasks)
    config = make_config()
    lanes = state_batch(graph, config, seed)
    network = make_network(kind, config, seed)
    evaluator = PolicyEvaluator(network, config, graph)
    batched = evaluator.action_probabilities(lanes)
    policy = sequential_policy(kind, network)
    for env, dist in zip(lanes, batched):
        expected = policy.action_probabilities(env)
        assert set(dist) == set(expected)
        for action, p in expected.items():
            assert dist[action] == pytest.approx(p, rel=1e-12, abs=1e-12)


@settings(max_examples=10, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    kind=st.sampled_from(["mlp", "gnn"]),
)
def test_batched_greedy_rollouts_match_sequential(seed, kind):
    graph = make_graph(seed, 10)
    config = make_config()
    lanes = state_batch(graph, config, seed, count=6)
    network = make_network(kind, config, seed)
    evaluator = PolicyEvaluator(network, config, graph)
    limit = 10_000
    batched = evaluator.rollout_many(lanes, limit, mode="greedy")
    policy = sequential_policy(kind, network)
    for env, makespan in zip(lanes, batched):
        sim = env.clone()
        while not sim.done:
            sim.step(policy.select(sim))
        assert sim.makespan == makespan
    # The input lanes were never mutated.
    assert all(not env.done or env.makespan in batched for env in lanes)


class TestEvaluatorValidation:
    def test_rollout_many_does_not_mutate_inputs(self):
        config = make_config()
        graph = make_graph(3, 8)
        lanes = state_batch(graph, config, 3, count=4)
        snapshots = [(env.now, env.num_finished) for env in lanes]
        network = make_network("mlp", config, 3)
        evaluator = PolicyEvaluator(network, config, graph)
        evaluator.rollout_many(lanes, 10_000, mode="sample", rng=7)
        assert snapshots == [(env.now, env.num_finished) for env in lanes]

    def test_unknown_model_kind_rejected(self):
        config = make_config()
        graph = make_graph(1, 6)

        class Strange:
            kind = "policy_quantum"

        with pytest.raises(ConfigError, match="cannot batch-evaluate"):
            PolicyEvaluator(Strange(), config, graph)

    def test_mlp_window_mismatch_rejected(self):
        config = make_config(max_ready=6)
        network = default_network(make_config(max_ready=3), seed=0)
        with pytest.raises(ConfigError):
            PolicyEvaluator(network, config, make_graph(1, 6))

    def test_gnn_resource_mismatch_rejected(self):
        config = make_config()
        network = default_graph_network(
            EnvConfig(cluster=ClusterConfig(capacities=(5, 5, 5))),
            GnnConfig(hidden_size=4, rounds=1, head_hidden=2, global_hidden=4),
            seed=0,
        )
        with pytest.raises(ConfigError):
            PolicyEvaluator(network, config, make_graph(1, 6))

    def test_empty_batch(self):
        config = make_config()
        network = default_network(config, seed=0)
        evaluator = PolicyEvaluator(network, config, make_graph(1, 6))
        assert evaluator.distributions([]) == []
