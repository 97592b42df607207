"""One graph-policy pass per step batch, against the per-graph passes.

``GraphPolicyNetwork`` runs a batch of states as one forward and one
backward pass over the disjoint union of their graphs.  The oracle below
is the pass it replaced: states grouped by graph, each group stacked as
``(B, N, F)`` and run through a forward and a backward of its own, the
groups' gradients summed.  The union must give the oracle's logits bit
for bit on one state (so collection and every GNN-guided plan are
unchanged) and its gradients, NLL and probabilities to 1e-12 relative on
any batch; only the float summation order moves.  PPO's ``pi_old`` is
read from the recorded rows, which must equal the batched recompute.
"""

from dataclasses import replace
from typing import Any, Dict, List, NamedTuple

import numpy as np
import pytest

from repro.config import EnvConfig, GnnConfig, TrainingConfig, WorkloadConfig
from repro.core.pipeline import default_graph_network, default_network
from repro.dag.generators import (
    chain_dag,
    independent_tasks_dag,
    random_layered_dag,
)
from repro.dag.mapreduce import mapreduce_dag
from repro.env.scheduling_env import SchedulingEnv
from repro.rl.modules import EdgeList, entropy_dlogits, masked_softmax
from repro.rl.ppo import PpoTrainer
from repro.rl.trajectories import rollout_trajectory

ENV = EnvConfig(process_until_completion=True)
RTOL = 1e-12


def make_network(seed: int = 7):
    return default_graph_network(
        ENV,
        GnnConfig(hidden_size=8, rounds=2, head_hidden=4, global_hidden=8),
        seed=seed,
    )


def mixed_graphs():
    """One node, no edges, a MapReduce shuffle and layered DAGs of 8 to
    120 tasks."""
    return [
        independent_tasks_dag([3]),
        independent_tasks_dag([2, 4, 1, 3, 5]),
        mapreduce_dag([2, 3, 1, 4], [2, 3]),
        *(
            random_layered_dag(
                WorkloadConfig(num_tasks=n, max_runtime=10, max_demand=10),
                seed=n,
            )
            for n in (8, 25, 120)
        ),
    ]


class Row(NamedTuple):
    """A step as the step-batch interface reads it."""

    observation: Any
    mask: np.ndarray


def state_pool(network) -> List[Any]:
    """Every state of one sampled episode on each mixed graph."""
    states = []
    for seed, graph in enumerate(mixed_graphs()):
        states += rollout_trajectory(
            SchedulingEnv(graph, ENV),
            network.make_policy("sample", seed=seed),
            10_000,
            every_state=True,
        ).states
    return states


def random_rows(rng, states, count: int) -> List[Row]:
    """``count`` states drawn with replacement, each with a random mask
    that keeps at least one action legal."""
    rows = []
    for index in rng.integers(0, len(states), size=count):
        observation = states[index]
        mask = rng.random(len(observation.ready) + 1) < 0.6
        mask[rng.integers(0, mask.shape[0])] = True
        rows.append(Row(observation, mask))
    return rows


def legal_actions(rng, rows) -> np.ndarray:
    return np.asarray([rng.choice(np.flatnonzero(row.mask)) for row in rows])


# ---------------------------------------------------------------------- #
# the oracle: one forward and one backward per graph group
# ---------------------------------------------------------------------- #


def group_forward(network, graph, static_table, node_states, globals_vec, ready_lists):
    """The per-graph forward: ``(padded logits, cache)`` for ``B`` states
    of one graph stacked as ``(B, N, F)``."""
    p = network.params
    batch, n, _ = node_states.shape
    edges = EdgeList.from_graph(graph)
    static = np.broadcast_to(static_table, (batch, n, static_table.shape[1]))
    x = np.concatenate([static, node_states], axis=2)
    enc_pre = x @ p["enc.W"] + p["enc.b"]
    h = np.maximum(enc_pre, 0.0)
    rounds = []
    for k in range(network.config.rounds):
        children = edges.aggregate_children(h)
        parents = edges.aggregate_parents(h)
        z = (
            h @ p[f"mp{k}.Ws"]
            + children @ p[f"mp{k}.Wc"]
            + parents @ p[f"mp{k}.Wp"]
            + p[f"mp{k}.b"]
        )
        rounds.append((h, children, parents, z))
        h = np.maximum(z, 0.0)
    pooled = h.mean(axis=1)
    g_in = np.concatenate([pooled, globals_vec], axis=1)
    g_pre = g_in @ p["glob.W"] + p["glob.b"]
    g = np.maximum(g_pre, 0.0)
    q_pre = h @ p["head.Wn"] + (g @ p["head.Wg"])[:, None, :] + p["head.b"]
    q = np.maximum(q_pre, 0.0)
    scores = (q @ p["head.w"])[:, :, 0] + p["head.c"][0]
    proc_pre = g @ p["proc.W"] + p["proc.b"]
    proc = np.maximum(proc_pre, 0.0)
    pscores = (proc @ p["proc.w"])[:, 0] + p["proc.c"][0]
    width = max(len(r) for r in ready_lists) + 1
    logits = np.zeros((batch, width), dtype=np.float64)
    for b, ready in enumerate(ready_lists):
        if ready:
            logits[b, : len(ready)] = scores[b, list(ready)]
        logits[b, len(ready)] = pscores[b]
    cache = dict(
        edges=edges, x=x, enc_pre=enc_pre, rounds=rounds, h=h, g_in=g_in,
        g_pre=g_pre, g=g, q_pre=q_pre, q=q, proc_pre=proc_pre, proc=proc,
        ready_lists=[list(r) for r in ready_lists], n=n,
    )
    return logits, cache


def group_backward(network, c, dlogits) -> Dict[str, np.ndarray]:
    """The per-graph backward of :func:`group_forward`."""
    p = network.params
    ready_lists = c["ready_lists"]
    batch = dlogits.shape[0]
    n = c["n"]
    hidden = network.config.hidden_size
    dscores = np.zeros((batch, n))
    dpscores = np.empty(batch)
    for b, ready in enumerate(ready_lists):
        if ready:
            dscores[b, ready] = dlogits[b, : len(ready)]
        dpscores[b] = dlogits[b, len(ready)]
    grads = {}
    proc, proc_pre, g = c["proc"], c["proc_pre"], c["g"]
    grads["proc.w"] = (proc * dpscores[:, None]).sum(axis=0)[:, None]
    grads["proc.c"] = np.asarray([dpscores.sum()])
    dproc_pre = dpscores[:, None] * p["proc.w"][:, 0][None, :] * (proc_pre > 0)
    grads["proc.W"] = g.T @ dproc_pre
    grads["proc.b"] = dproc_pre.sum(axis=0)
    dg = dproc_pre @ p["proc.W"].T
    q, q_pre, h = c["q"], c["q_pre"], c["h"]
    grads["head.w"] = (q * dscores[:, :, None]).sum(axis=(0, 1))[:, None]
    grads["head.c"] = np.asarray([dscores.sum()])
    dq_pre = dscores[:, :, None] * p["head.w"][:, 0][None, None, :] * (q_pre > 0)
    flat_dq = dq_pre.reshape(batch * n, -1)
    grads["head.Wn"] = h.reshape(batch * n, hidden).T @ flat_dq
    grads["head.b"] = flat_dq.sum(axis=0)
    dq_glob = dq_pre.sum(axis=1)
    grads["head.Wg"] = g.T @ dq_glob
    dg += dq_glob @ p["head.Wg"].T
    dh = dq_pre @ p["head.Wn"].T
    dg_pre = dg * (c["g_pre"] > 0)
    grads["glob.W"] = c["g_in"].T @ dg_pre
    grads["glob.b"] = dg_pre.sum(axis=0)
    dh += (dg_pre @ p["glob.W"].T)[:, None, :hidden] / n
    edges = c["edges"]
    for k in reversed(range(network.config.rounds)):
        h_prev, children, parents, z = c["rounds"][k]
        dz = dh * (z > 0)
        flat_dz = dz.reshape(batch * n, hidden)
        grads[f"mp{k}.Ws"] = h_prev.reshape(batch * n, hidden).T @ flat_dz
        grads[f"mp{k}.Wc"] = children.reshape(batch * n, hidden).T @ flat_dz
        grads[f"mp{k}.Wp"] = parents.reshape(batch * n, hidden).T @ flat_dz
        grads[f"mp{k}.b"] = flat_dz.sum(axis=0)
        dh = (
            dz @ p[f"mp{k}.Ws"].T
            + edges.aggregate_parents(dz @ p[f"mp{k}.Wc"].T)
            + edges.aggregate_children(dz @ p[f"mp{k}.Wp"].T)
        )
    denc_pre = (dh * (c["enc_pre"] > 0)).reshape(batch * n, hidden)
    grads["enc.W"] = c["x"].reshape(batch * n, -1).T @ denc_pre
    grads["enc.b"] = denc_pre.sum(axis=0)
    return grads


def oracle_groups(rows):
    """Row positions grouped by graph, as the per-graph batches were."""
    groups: Dict[int, List[int]] = {}
    for position, row in enumerate(rows):
        groups.setdefault(id(row.observation.graph), []).append(position)
    return list(groups.values())


def oracle_group_pass(network, rows):
    """Per group: ``(positions, padded logits, cache)``."""
    out = []
    for positions in oracle_groups(rows):
        sub = [rows[i].observation for i in positions]
        logits, cache = group_forward(
            network,
            sub[0].graph,
            sub[0].static_table,
            np.stack([o.node_state for o in sub]),
            np.stack([o.globals_vec for o in sub]),
            [o.ready for o in sub],
        )
        out.append((positions, logits, cache))
    return out


def oracle_masks(rows, positions, logits):
    masks = np.zeros(logits.shape, dtype=bool)
    for b, i in enumerate(positions):
        masks[b, : len(rows[i].mask)] = rows[i].mask
    return masks


def oracle_step_probabilities(network, rows):
    width = max(len(row.mask) for row in rows)
    out = np.zeros((len(rows), width))
    for positions, logits, _ in oracle_group_pass(network, rows):
        probs = masked_softmax(logits, oracle_masks(rows, positions, logits))
        out[positions, : probs.shape[1]] = probs
    return out


def oracle_policy_gradient(network, rows, actions, weights, total):
    grads = {key: np.zeros_like(value) for key, value in network.params.items()}
    nll = 0.0
    for positions, logits, cache in oracle_group_pass(network, rows):
        probs = masked_softmax(logits, oracle_masks(rows, positions, logits))
        index = np.arange(len(positions))
        acts = actions[positions]
        onehot = np.zeros_like(probs)
        onehot[index, acts] = 1.0
        dlogits = weights[positions][:, None] * (probs - onehot) / total
        for key, value in group_backward(network, cache, dlogits).items():
            grads[key] += value
        nll += float(-np.log(probs[index, acts]).sum())
    return grads, nll / total


def oracle_entropy_gradient(network, rows, total):
    grads = {key: np.zeros_like(value) for key, value in network.params.items()}
    for positions, logits, cache in oracle_group_pass(network, rows):
        probs = masked_softmax(logits, oracle_masks(rows, positions, logits))
        for key, value in group_backward(
            network, cache, entropy_dlogits(probs, total)
        ).items():
            grads[key] += value
    return grads


# ---------------------------------------------------------------------- #
# comparison helpers
# ---------------------------------------------------------------------- #


def assert_same_grads(got, want, what: str) -> None:
    """Entrywise within 1e-12 of the largest gradient entry."""
    assert sorted(got) == sorted(want)
    scale = max(float(np.abs(value).max()) for value in want.values())
    for key in want:
        error = float(np.abs(got[key] - want[key]).max())
        assert error <= RTOL * scale, f"{what} {key}: {error:.3g} vs {scale:.3g}"


@pytest.fixture(scope="module")
def network():
    return make_network()


@pytest.fixture(scope="module")
def states(network):
    return state_pool(network)


# ---------------------------------------------------------------------- #
# one state: the oracle's bytes
# ---------------------------------------------------------------------- #


def test_a_one_state_pass_is_the_oracles_bytes(network, states):
    """Collection, evaluation and GNN-guided planning forward one state
    at a time; their logits must not move a bit."""
    ready_counts = set()
    for observation in states:
        got = network.forward_group(*network.batch_inputs([observation]))
        want, _ = group_forward(
            network,
            observation.graph,
            observation.static_table,
            observation.node_state[None],
            observation.globals_vec[None],
            [observation.ready],
        )
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        ready_counts.add(len(observation.ready))
    # States with nothing ready and with five ready slots were among them.
    assert {0, 5} <= ready_counts


def test_the_mixed_pool_has_every_graph_shape(states):
    sizes = {observation.node_state.shape[0] for observation in states}
    assert sizes == {1, 5, 6, 8, 25, 120}


def test_pooling_a_union_is_each_states_own_mean(network, states):
    """The readout pools each state with the mean a one-state pass takes,
    in whatever union the state sits."""
    rng = np.random.default_rng(5)
    for count in (1, 3, 40):
        picked = [states[i] for i in rng.integers(0, len(states), size=count)]
        union, _, _ = network.batch_inputs(picked)
        h = rng.normal(size=(union.edges.num_nodes, 7))
        bounds = np.cumsum([0] + [o.node_state.shape[0] for o in picked])
        want = np.concatenate(
            [h[None, lo:hi].mean(axis=1) for lo, hi in zip(bounds, bounds[1:])]
        )
        assert union.pool(h).tobytes() == want.tobytes()


def test_value_features_are_the_per_state_means(network, states):
    """The critic's inputs keep their bytes: each state's globals and the
    ``mean(axis=0)`` of its node states, whatever sizes share a call."""
    want = np.stack(
        [np.concatenate([o.globals_vec, o.node_state.mean(axis=0)]) for o in states]
    )
    assert network.value_features(states).tobytes() == want.tobytes()


# ---------------------------------------------------------------------- #
# any batch: the oracle to 1e-12
# ---------------------------------------------------------------------- #


@pytest.mark.parametrize("batch", [1, 2, 5, 17, 64])
@pytest.mark.parametrize("seed", [0, 1])
def test_union_pass_equals_per_graph_passes(network, states, batch, seed):
    rng = np.random.default_rng(seed * 100 + batch)
    rows = random_rows(rng, states, batch)
    actions = legal_actions(rng, rows)
    weights = rng.normal(size=batch)
    total = batch + int(rng.integers(0, 5))

    got_probs = network.step_probabilities(rows)
    want_probs = oracle_step_probabilities(network, rows)
    assert got_probs.shape == want_probs.shape
    assert float(np.abs(got_probs - want_probs).max()) <= RTOL

    grads, nll = network.policy_gradient_steps(rows, actions, weights, total)
    want_grads, want_nll = oracle_policy_gradient(
        network, rows, actions, weights, total
    )
    assert_same_grads(grads, want_grads, "policy gradient")
    assert abs(nll - want_nll) <= RTOL * abs(want_nll)

    assert_same_grads(
        network.entropy_gradient_steps(rows, total),
        oracle_entropy_gradient(network, rows, total),
        "entropy gradient",
    )


def test_backward_with_empty_ready_lists(network, states):
    """A state with nothing ready scores PROCESS alone; an upstream
    gradient on every real column backpropagates as the oracle's."""
    rng = np.random.default_rng(3)
    picked = [states[i] for i in rng.integers(0, len(states), size=12)]
    observations = [
        replace(state, ready=()) if i % 3 == 0 else state
        for i, state in enumerate(picked)
    ]
    union, x, globals_vec = network.batch_inputs(observations)
    logits = network.forward_group(union, x, globals_vec, keep_cache=True)
    dlogits = rng.normal(size=logits.shape)
    for row, observation in enumerate(observations):
        dlogits[row, len(observation.ready) + 1 :] = 0.0
    grads = network.backward_group(dlogits)
    want = {key: np.zeros_like(value) for key, value in network.params.items()}
    rows = [Row(o, np.ones(len(o.ready) + 1, dtype=bool)) for o in observations]
    for positions, group_logits, cache in oracle_group_pass(network, rows):
        assert np.allclose(
            logits[positions, : group_logits.shape[1]], group_logits,
            rtol=0, atol=1e-12,
        )
        upstream = dlogits[positions, : group_logits.shape[1]]
        for key, value in group_backward(network, cache, upstream).items():
            want[key] += value
    assert_same_grads(grads, want, "backward")


def test_the_weights_function_is_called_once_per_pass(network, states):
    rng = np.random.default_rng(9)
    rows = random_rows(rng, states, 23)
    actions = legal_actions(rng, rows)
    calls = []

    def weights(positions, chosen):
        calls.append((positions.copy(), chosen.copy()))
        return np.ones(len(positions))

    network.policy_gradient_steps(rows, actions, weights)
    ((positions, chosen),) = calls
    assert positions.tolist() == list(range(len(rows)))
    probs = network.step_probabilities(rows)
    assert np.array_equal(chosen, probs[np.arange(len(rows)), actions])


def test_an_empty_step_batch_is_a_zero_gradient(network):
    calls = []

    def weights(positions, chosen):
        calls.append(len(positions))
        return np.zeros(0)

    grads, nll = network.policy_gradient_steps([], np.zeros(0, int), weights, 7)
    assert calls == [0] and nll == 0.0
    assert all(not np.any(grad) for grad in grads.values())
    assert all(not np.any(g) for g in network.entropy_gradient_steps([], 7).values())
    assert network.step_probabilities([]).shape == (0, 1)


def test_union_edges_come_from_the_cached_graph_pieces(monkeypatch, states):
    """Each graph's edge list is built once; a batch composes them."""
    network = make_network()
    built = []
    inner = EdgeList.from_graph.__func__

    def counting(cls, graph):
        built.append(id(graph))
        return inner(cls, graph)

    monkeypatch.setattr(EdgeList, "from_graph", classmethod(counting))
    rng = np.random.default_rng(4)
    for _ in range(5):
        network.step_probabilities(random_rows(rng, states, 20))
    assert len(built) == len(set(built)) <= len(mixed_graphs())


# ---------------------------------------------------------------------- #
# PPO: pi_old from the rows, all-forced minibatches
# ---------------------------------------------------------------------- #


def ppo_training(**overrides):
    fields = dict(rollouts_per_example=2, batch_size=2, ppo_epochs=2, ppo_minibatch=16)
    fields.update(overrides)
    return TrainingConfig(**fields)


@pytest.mark.parametrize("model", ["mlp", "gnn"])
def test_pi_old_from_the_rows_equals_the_batched_recompute(model):
    network = default_network(ENV, seed=3) if model == "mlp" else make_network(3)
    graphs = mixed_graphs()[2:5]
    trainer = PpoTrainer(network, graphs, ENV, ppo_training(), seed=1)
    trajectories = [t for g in graphs for t in trainer.sample_trajectories(g)]
    decisions, actions, _ = trainer.flatten_decisions(trajectories)
    assert len(decisions) > 20
    recorded = np.asarray([d.probability for d in decisions])
    recomputed = network.step_probabilities(decisions)[
        np.arange(len(decisions)), actions
    ]
    assert np.all((recorded > 0) & (recorded <= 1))
    assert float(np.abs(recorded - recomputed).max()) <= RTOL


def test_ppo_forwards_no_pi_old_pass(monkeypatch):
    """The update's only whole-batch pass is the entropy report."""
    network = make_network()
    graphs = mixed_graphs()[2:5]
    trainer = PpoTrainer(network, graphs, ENV, ppo_training(), seed=1)
    trajectories = [t for g in graphs for t in trainer.sample_trajectories(g)]
    calls = []
    inner = network.step_probabilities
    monkeypatch.setattr(
        network, "step_probabilities", lambda steps: calls.append(1) or inner(steps)
    )
    trainer._update_batch(trajectories, trainer._advantages(trajectories))
    assert calls == [1]


def test_an_all_forced_gnn_minibatch_applies_its_zero_gradient():
    graph = chain_dag([2, 3, 1], demands=[(2, 2)] * 3)
    trainer = PpoTrainer(
        make_network(), [graph], ENV, ppo_training(entropy_bonus=0.01), seed=0
    )
    applied = []
    trainer.apply_gradients = applied.append
    trajectories = trainer.sample_trajectories(graph)
    assert all(not t.decisions for t in trajectories)
    entropy, loss = trainer._update_batch(
        trajectories, trainer._advantages(trajectories)
    )
    assert len(applied) == 2 * -(-sum(len(t) for t in trajectories) // 16)
    assert all(not np.any(grad) for grads in applied for grad in grads.values())
    assert entropy == 0.0 and np.isfinite(loss)
