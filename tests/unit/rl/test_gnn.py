"""Unit tests for the scale-invariant graph policy (repro.rl.gnn)."""

import numpy as np
import pytest

from repro.config import ClusterConfig, EnvConfig, GnnConfig, WorkloadConfig
from repro.dag.generators import random_layered_dag
from repro.dag.graph import TaskGraph
from repro.dag.task import Task
from repro.env.observation import ObservationBuilder
from repro.env.scheduling_env import SchedulingEnv
from repro.errors import ConfigError
from repro.rl.gnn import (
    GraphNetworkPolicy,
    GraphObservation,
    GraphObservationBuilder,
    GraphPolicyNetwork,
)

SMALL_GNN = GnnConfig(hidden_size=8, rounds=2, head_hidden=4, global_hidden=8)


def forward(network, graph, static, node_states, globals_vec, ready_lists, **kw):
    """Padded logits of ``B`` states of one graph, as one batch."""
    observations = [
        GraphObservation(graph, static, node_states[b], globals_vec[b], tuple(r))
        for b, r in enumerate(ready_lists)
    ]
    return network.forward_group(*network.batch_inputs(observations), **kw)


def _graph(num_tasks=10, seed=0):
    return random_layered_dag(
        WorkloadConfig(num_tasks=num_tasks, max_runtime=10, max_demand=10),
        seed=seed,
    )


def _env(graph):
    return SchedulingEnv(graph, EnvConfig(process_until_completion=True))


class TestObservationBuilder:
    def test_static_table_is_the_window_rows_in_id_order(self):
        graph = _graph(num_tasks=12, seed=3)
        config = EnvConfig()
        builder = GraphObservationBuilder(graph, config)
        window = ObservationBuilder(graph, config)
        ids = sorted(graph.task_ids)
        assert [builder.index_of[tid] for tid in ids] == list(range(len(ids)))
        for i, tid in enumerate(ids):
            assert builder.static_table[i].tobytes() == (
                window.task_features(tid).tobytes()
            )

    def test_mismatched_cluster_rejected(self):
        config = EnvConfig(cluster=ClusterConfig(capacities=(20, 20, 20)))
        with pytest.raises(ConfigError, match="resources"):
            GraphObservationBuilder(_graph(seed=1), config)


class TestPermutationInvariance:
    def test_scores_follow_a_task_relabeling(self, rng):
        """Relabeling the DAG's task ids permutes the per-node scores and
        leaves the global (PROCESS) score unchanged."""
        base = _graph(num_tasks=12, seed=4)
        n = base.num_tasks
        perm = rng.permutation(n)
        tasks = [base.task(tid) for tid in sorted(t.task_id for t in base)]
        relabeled = TaskGraph(
            [
                Task(int(perm[t.task_id]), t.runtime, t.demands)
                for t in tasks
            ],
            [
                (int(perm[u]), int(perm[v]))
                for u in (t.task_id for t in tasks)
                for v in base.children(u)
            ],
        )
        config = EnvConfig()
        b1 = GraphObservationBuilder(base, config)
        b2 = GraphObservationBuilder(relabeled, config)
        static1, static2 = b1.static_table, b2.static_table
        # Dense index i of the base graph maps to this dense index of the
        # relabeled one.
        ids1 = sorted(base.task_ids)
        to2 = np.array([b2.index_of[int(perm[ids1[i]])] for i in range(n)])
        assert np.allclose(static2[to2], static1)

        network = GraphPolicyNetwork(base.num_resources, SMALL_GNN, seed=7)
        batch = 3
        node_state1 = rng.normal(size=(batch, n, 5))
        node_state2 = np.empty_like(node_state1)
        node_state2[:, to2] = node_state1
        globals_vec = rng.normal(size=(batch, base.num_resources + 3))
        ready1 = [[0, 3, 5], [1], [2, 4]]
        ready2 = [[int(to2[i]) for i in ready] for ready in ready1]
        logits1 = forward(
            network, base, static1, node_state1, globals_vec, ready1
        )
        logits2 = forward(
            network, relabeled, static2, node_state2, globals_vec, ready2
        )
        assert np.allclose(logits1, logits2, rtol=1e-10, atol=1e-10)


class TestScaleInvariance:
    def test_parameter_count_is_independent_of_dag_size(self):
        network = GraphPolicyNetwork(2, SMALL_GNN, seed=0)
        count = network.num_parameters
        for num_tasks in (5, 40):
            env = _env(_graph(num_tasks=num_tasks, seed=num_tasks))
            policy = GraphNetworkPolicy(network, mode="greedy")
            while not env.done:
                env.step(policy.select(env))
            assert env.makespan > 0
        assert network.num_parameters == count

    def test_no_visibility_window(self):
        """A ready set wider than any MLP window still scores directly."""
        network = GraphPolicyNetwork(2, SMALL_GNN, seed=1)
        graph = _graph(num_tasks=30, seed=9)
        static = GraphObservationBuilder(graph, EnvConfig()).static_table
        ready = [list(range(25))]
        logits = forward(
            network,
            graph,
            static,
            np.zeros((1, 30, 5)),
            np.zeros((1, 5)),
            ready,
        )
        assert logits.shape == (1, 26)


class TestGradients:
    def test_backward_matches_finite_differences(self, rng):
        network = GraphPolicyNetwork(2, SMALL_GNN, seed=3)
        graph = _graph(num_tasks=8, seed=2)
        static = GraphObservationBuilder(graph, EnvConfig()).static_table
        node_state = rng.normal(size=(2, 8, 5))
        globals_vec = rng.normal(size=(2, 5))
        ready = [[0, 2], [1, 3, 4]]
        masks = np.array(
            [[True, True, True, False], [True, False, True, True]]
        )
        actions = np.array([0, 2])

        def nll():
            logits = forward(
                network, graph, static, node_state, globals_vec, ready
            )
            from repro.rl.modules import masked_softmax

            probs = masked_softmax(logits, masks)
            chosen = probs[np.arange(2), actions]
            return -float(np.log(chosen).sum()) / 2

        from repro.rl.modules import masked_softmax

        logits = forward(
            network, graph, static, node_state, globals_vec, ready,
            keep_cache=True,
        )
        probs = masked_softmax(logits, masks)
        dlogits = probs.copy()
        dlogits[np.arange(2), actions] -= 1.0
        dlogits /= 2
        grads = network.backward_group(dlogits)
        eps = 1e-6
        for key in ["enc.W", "mp0.Wc", "mp1.Wp", "glob.W", "head.Wn",
                    "head.w", "proc.W", "proc.c"]:
            flat = network.params[key].ravel()
            index = int(rng.integers(0, flat.size))
            flat[index] += eps
            up = nll()
            flat[index] -= 2 * eps
            down = nll()
            flat[index] += eps
            fd = (up - down) / (2 * eps)
            assert grads[key].ravel()[index] == pytest.approx(
                fd, rel=1e-4, abs=1e-8
            ), key

    def test_backward_without_cache_raises(self):
        network = GraphPolicyNetwork(2, SMALL_GNN, seed=0)
        with pytest.raises(ConfigError, match="no cached forward"):
            network.backward_group(np.zeros((1, 2)))


class TestGraphNetworkPolicy:
    def test_action_probabilities_sum_to_one(self):
        network = GraphPolicyNetwork(2, SMALL_GNN, seed=5)
        env = _env(_graph(seed=1))
        policy = GraphNetworkPolicy(network, mode="sample", seed=0)
        probs = policy.action_probabilities(env)
        assert sum(probs.values()) == pytest.approx(1.0)
        legal = set(env.expansion_actions(work_conserving=True))
        assert set(probs) <= legal

    def test_greedy_select_is_argmax(self):
        network = GraphPolicyNetwork(2, SMALL_GNN, seed=5)
        env = _env(_graph(seed=1))
        policy = GraphNetworkPolicy(network, mode="greedy")
        probs = policy.action_probabilities(env)
        best = max(sorted(probs), key=lambda a: probs[a])
        assert policy.select(env) == best

    def test_episode_completes_with_sampling(self):
        network = GraphPolicyNetwork(2, SMALL_GNN, seed=5)
        env = _env(_graph(seed=2))
        policy = GraphNetworkPolicy(network, mode="sample", seed=3)
        steps = 0
        while not env.done:
            env.step(policy.select(env))
            steps += 1
            assert steps < 10_000
        assert env.makespan > 0

    def test_resource_mismatch_rejected(self):
        network = GraphPolicyNetwork(3, SMALL_GNN, seed=0)
        env = _env(_graph(seed=1))
        policy = GraphNetworkPolicy(network)
        with pytest.raises(ConfigError, match="resources"):
            policy.begin_episode(env)

    def test_unknown_mode_rejected(self):
        network = GraphPolicyNetwork(2, SMALL_GNN, seed=0)
        with pytest.raises(ConfigError, match="mode"):
            GraphNetworkPolicy(network, mode="beam")


class TestParams:
    def test_get_set_roundtrip(self, rng):
        a = GraphPolicyNetwork(2, SMALL_GNN, seed=1)
        b = GraphPolicyNetwork(2, SMALL_GNN, seed=2)
        b.set_params(a.get_params())
        for key in a.params:
            assert np.array_equal(a.params[key], b.params[key])

    def test_missing_parameter_rejected(self):
        network = GraphPolicyNetwork(2, SMALL_GNN, seed=1)
        params = network.get_params()
        params.pop("enc.W")
        with pytest.raises(ConfigError, match="missing parameter"):
            network.set_params(params)

    def test_shape_mismatch_rejected(self):
        network = GraphPolicyNetwork(2, SMALL_GNN, seed=1)
        params = network.get_params()
        params["enc.W"] = np.zeros((2, 2))
        with pytest.raises(ConfigError):
            network.set_params(params)

    def test_invalid_num_resources(self):
        with pytest.raises(ConfigError):
            GraphPolicyNetwork(0)
