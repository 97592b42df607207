"""A graph-structured policy: per-node message passing, no ready window.

The paper's MLP policy (Sec. IV) featurizes at most ``max_ready`` ready
slots into a fixed-width vector, so its parameters are welded to one
window size and carry no structural information about the DAG.  Decima
and *Learning to Schedule DAG Tasks* (PAPERS.md) show the fix: embed
every node by passing messages along the precedence edges and score the
ready tasks with a *shared* per-node head, which makes the parameter
count independent of both the DAG size and the window — the same
network evaluates a 10-task and a 250-task job.

Architecture (DESIGN.md Sec. 16):

1. **Encoder** — static per-task features (the same demand/runtime/
   b-level/children/b-load table the window builder uses) concatenated
   with 5 dynamic state channels (visible-ready, ready, running,
   finished, remaining-runtime), through linear+ReLU to ``hidden_size``.
2. **K message-passing rounds** — ``h' = relu(h W_s + C(h) W_c +
   P(h) W_p + b)`` where ``C``/``P`` sum child/parent embeddings over
   the CSR adjacency of :mod:`repro.envarr.graphdata`.  ``C`` and ``P``
   are adjoint, so backprop reuses the same two aggregations with the
   directions swapped.
3. **Global readout** — mean-pooled node embeddings joined with cluster
   features (free capacity, progress, backlog, clock) through
   linear+ReLU.
4. **Score heads** — a shared per-node head (node embedding + global
   context -> scalar score) evaluated at each visible ready task, plus
   a separate head scoring the PROCESS action from the global context.
   The masked softmax runs over ``[ready..., PROCESS]`` — variable
   width per state, padded only transiently inside a batch.

Everything is pure NumPy with hand-derived gradients, matching the rest
of :mod:`repro.rl.modules`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..config import EnvConfig, GnnConfig
from ..envarr.graphdata import GraphArrays, graph_arrays
from ..envarr.observation import (
    GLOBAL_EXTRA_CHANNELS,
    NODE_STATE_CHANNELS,
    task_feature_table,
)
from ..errors import ConfigError
from ..utils.rng import SeedLike, as_generator
from .agent import NetworkPolicyBase
from .modules import (
    EdgeList,
    entropy_dlogits,
    init_linear,
    masked_softmax,
    replace_params,
)
from .network import StepWeights

__all__ = [
    "GraphPolicyNetwork",
    "GraphObservation",
    "GraphObservationBuilder",
    "GraphNetworkPolicy",
]


@dataclass(frozen=True)
class GraphObservation:
    """One state, featurized for the graph policy.

    ``static_table`` is shared per episode (one reference per builder);
    ``ready`` lists the visible ready window as *dense* task indices in
    slot order — the action layout is ``[ready..., PROCESS]``.
    """

    arrays: GraphArrays
    static_table: np.ndarray
    node_state: np.ndarray
    globals_vec: np.ndarray
    ready: Tuple[int, ...]


class GraphObservationBuilder:
    """Featurize one environment state at a time for the graph policy.

    Args:
        graph_or_arrays: the job (or its compiled arrays).
        config: environment configuration (cluster shape, feature flags).
    """

    def __init__(self, graph_or_arrays, config: EnvConfig) -> None:
        arrays = graph_arrays(graph_or_arrays)
        self.arrays = arrays
        self.graph = arrays.graph
        self.config = config
        self.static_table = task_feature_table(arrays, config)
        self._capacities = np.asarray(
            config.cluster.capacities, dtype=np.float64
        )
        self._max_runtime = max(1, int(arrays.durations.max()))
        self._critical_path = max(1, arrays.critical_path)

    def state_key(self, env) -> tuple:
        """Hashable of every env query :meth:`build` reads.

        ``build`` reads the clock, the free capacity, each running
        task's id and finish time, the whole ready queue and the
        finished set — which is what :meth:`SchedulingEnv.signature`
        holds, so equal keys mean equal observations.
        """
        return env.signature()

    def build(self, env) -> GraphObservation:
        """Render one state: the dynamic channels of every node plus the
        global vector (the static table is shared by reference)."""
        arrays = self.arrays
        index_of = arrays.index_of
        n = arrays.num_tasks
        resources = arrays.num_resources
        node_state = np.zeros((n, NODE_STATE_CHANNELS), dtype=np.float64)
        visible = [index_of[tid] for tid in env.visible_ready()]
        if visible:
            node_state[visible, 0] = 1.0
        ready_all = [index_of[tid] for tid in env.all_ready()]
        if ready_all:
            node_state[ready_all, 1] = 1.0
        now = env.now
        for entry in env.cluster.running_tasks():
            index = index_of[entry.task_id]
            node_state[index, 2] = 1.0
            node_state[index, 4] = (entry.finish_time - now) / self._max_runtime
        finished = [index_of[tid] for tid in env.finished_ids()]
        if finished:
            node_state[finished, 3] = 1.0
        globals_vec = np.empty(
            resources + GLOBAL_EXTRA_CHANNELS, dtype=np.float64
        )
        free = np.asarray(env.cluster.available, dtype=np.float64)
        globals_vec[:resources] = free / self._capacities
        globals_vec[resources] = env.num_finished / n
        globals_vec[resources + 1] = env.backlog_size / max(1, n)
        globals_vec[resources + 2] = now / self._critical_path
        return GraphObservation(
            arrays, self.static_table, node_state, globals_vec, tuple(visible)
        )


class GraphPolicyNetwork:
    """Scale-invariant DAG policy (see module docstring).

    Args:
        num_resources: cluster resource dimensionality (fixes the
            feature widths; the DAG size does not).
        config: architecture hyper-parameters.
        seed: weight-initialization seed.
    """

    kind = "policy_gnn"

    def __init__(
        self,
        num_resources: int,
        config: GnnConfig | None = None,
        seed: SeedLike = None,
    ) -> None:
        if num_resources < 1:
            raise ConfigError("num_resources must be >= 1")
        self.num_resources = num_resources
        self.config = config if config is not None else GnnConfig()
        per_task = num_resources * 2 + 3
        self.node_features = per_task + NODE_STATE_CHANNELS
        self.global_features = num_resources + GLOBAL_EXTRA_CHANNELS
        cfg = self.config
        rng = as_generator(seed)
        params: Dict[str, np.ndarray] = {}
        init_linear(
            params, "enc.W", "enc.b", self.node_features, cfg.hidden_size, rng
        )
        # Three matmuls sum into one pre-activation, so each is drawn at
        # a third of the He variance to keep the sum's scale.
        mp_scale = float(np.sqrt(2.0 / (3 * cfg.hidden_size)))
        for k in range(cfg.rounds):
            for name in ("Ws", "Wc", "Wp"):
                params[f"mp{k}.{name}"] = rng.normal(
                    0.0, mp_scale, size=(cfg.hidden_size, cfg.hidden_size)
                )
            params[f"mp{k}.b"] = np.zeros(cfg.hidden_size)
        init_linear(
            params,
            "glob.W",
            "glob.b",
            cfg.hidden_size + self.global_features,
            cfg.global_hidden,
            rng,
        )
        init_linear(
            params, "head.Wn", "head.b", cfg.hidden_size, cfg.head_hidden, rng
        )
        params["head.Wg"] = rng.normal(
            0.0,
            float(np.sqrt(2.0 / cfg.global_hidden)),
            size=(cfg.global_hidden, cfg.head_hidden),
        )
        params["head.w"] = rng.normal(
            0.0, float(np.sqrt(1.0 / cfg.head_hidden)), size=(cfg.head_hidden, 1)
        )
        params["head.c"] = np.zeros(1)
        init_linear(
            params, "proc.W", "proc.b", cfg.global_hidden, cfg.head_hidden, rng
        )
        params["proc.w"] = rng.normal(
            0.0, float(np.sqrt(1.0 / cfg.head_hidden)), size=(cfg.head_hidden, 1)
        )
        params["proc.c"] = np.zeros(1)
        #: Shared live parameter dict (the optimizer mutates it in place).
        self.params = params
        self._edge_cache: Dict[int, Tuple[GraphArrays, EdgeList]] = {}
        self._cache: Optional[dict] = None

    # ------------------------------------------------------------------ #
    # forward / backward over one graph group
    # ------------------------------------------------------------------ #

    def _edges(self, arrays: GraphArrays) -> EdgeList:
        key = id(arrays)
        cached = self._edge_cache.get(key)
        if cached is not None and cached[0] is arrays:
            return cached[1]
        edges = EdgeList.from_graph_arrays(arrays)
        if len(self._edge_cache) >= 16:
            self._edge_cache.pop(next(iter(self._edge_cache)))
        self._edge_cache[key] = (arrays, edges)
        return edges

    def forward_group(
        self,
        arrays: GraphArrays,
        static_table: np.ndarray,
        node_states: np.ndarray,
        globals_vec: np.ndarray,
        ready_lists: Sequence[Sequence[int]],
        keep_cache: bool = False,
    ) -> np.ndarray:
        """Padded logits ``(B, max_ready_count + 1)`` for ``B`` states of
        one graph.  Column ``len(ready_lists[b])`` is PROCESS; columns
        beyond it are padding (mask them out)."""
        if static_table.shape[1] + NODE_STATE_CHANNELS != self.node_features:
            raise ConfigError(
                f"node features {static_table.shape[1] + NODE_STATE_CHANNELS}"
                f" do not match network width {self.node_features}"
            )
        p = self.params
        cfg = self.config
        batch, n, _ = node_states.shape
        edges = self._edges(arrays)
        static = np.broadcast_to(
            static_table, (batch, n, static_table.shape[1])
        )
        x = np.concatenate([static, node_states], axis=2)
        enc_pre = x @ p["enc.W"] + p["enc.b"]
        h = np.maximum(enc_pre, 0.0)
        round_cache: List[Tuple[np.ndarray, ...]] = []
        for k in range(cfg.rounds):
            children = edges.aggregate_children(h)
            parents = edges.aggregate_parents(h)
            z = (
                h @ p[f"mp{k}.Ws"]
                + children @ p[f"mp{k}.Wc"]
                + parents @ p[f"mp{k}.Wp"]
                + p[f"mp{k}.b"]
            )
            round_cache.append((h, children, parents, z))
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
        if keep_cache:
            self._cache = {
                "edges": edges,
                "x": x,
                "enc_pre": enc_pre,
                "rounds": round_cache,
                "h": h,
                "g_in": g_in,
                "g_pre": g_pre,
                "g": g,
                "q_pre": q_pre,
                "q": q,
                "proc_pre": proc_pre,
                "proc": proc,
                "ready_lists": [list(r) for r in ready_lists],
                "n": n,
            }
        return logits

    def backward_group(self, dlogits: np.ndarray) -> Dict[str, np.ndarray]:
        """Backprop padded ``dLoss/dlogits`` through the cached forward.

        Padded columns must carry zero gradient (masked-softmax losses
        guarantee this).  The cache is consumed.
        """
        if self._cache is None:
            raise ConfigError(
                "no cached forward pass; call forward_group(keep_cache=True)"
            )
        c, self._cache = self._cache, None
        p = self.params
        cfg = self.config
        ready_lists = c["ready_lists"]
        batch = dlogits.shape[0]
        n = c["n"]
        hidden = cfg.hidden_size
        dscores = np.zeros((batch, n), dtype=np.float64)
        dpscores = np.empty(batch, dtype=np.float64)
        for b, ready in enumerate(ready_lists):
            if ready:
                dscores[b, ready] = dlogits[b, : len(ready)]
            dpscores[b] = dlogits[b, len(ready)]
        grads: Dict[str, np.ndarray] = {}
        # PROCESS head.
        proc, proc_pre, g = c["proc"], c["proc_pre"], c["g"]
        grads["proc.w"] = (proc * dpscores[:, None]).sum(axis=0)[:, None]
        grads["proc.c"] = np.asarray([dpscores.sum()])
        dproc = dpscores[:, None] * p["proc.w"][:, 0][None, :]
        dproc_pre = dproc * (proc_pre > 0)
        grads["proc.W"] = g.T @ dproc_pre
        grads["proc.b"] = dproc_pre.sum(axis=0)
        dg = dproc_pre @ p["proc.W"].T
        # Per-node score head (shared weights over every scored node).
        q, q_pre, h = c["q"], c["q_pre"], c["h"]
        grads["head.w"] = (q * dscores[:, :, None]).sum(axis=(0, 1))[:, None]
        grads["head.c"] = np.asarray([dscores.sum()])
        dq = dscores[:, :, None] * p["head.w"][:, 0][None, None, :]
        dq_pre = dq * (q_pre > 0)
        flat_h = h.reshape(batch * n, hidden)
        flat_dq = dq_pre.reshape(batch * n, -1)
        grads["head.Wn"] = flat_h.T @ flat_dq
        grads["head.b"] = flat_dq.sum(axis=0)
        dq_glob = dq_pre.sum(axis=1)
        grads["head.Wg"] = g.T @ dq_glob
        dg += dq_glob @ p["head.Wg"].T
        dh = dq_pre @ p["head.Wn"].T
        # Global readout.
        g_pre, g_in = c["g_pre"], c["g_in"]
        dg_pre = dg * (g_pre > 0)
        grads["glob.W"] = g_in.T @ dg_pre
        grads["glob.b"] = dg_pre.sum(axis=0)
        dg_in = dg_pre @ p["glob.W"].T
        dh += dg_in[:, None, :hidden] / n
        # Message-passing rounds, reversed (C and P are adjoint).
        edges = c["edges"]
        for k in reversed(range(cfg.rounds)):
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
        # Encoder.
        enc_pre, x = c["enc_pre"], c["x"]
        denc_pre = (dh * (enc_pre > 0)).reshape(batch * n, hidden)
        grads["enc.W"] = x.reshape(batch * n, -1).T @ denc_pre
        grads["enc.b"] = denc_pre.sum(axis=0)
        return grads

    # ------------------------------------------------------------------ #
    # step-batch interface (what the trainers consume)
    # ------------------------------------------------------------------ #

    @staticmethod
    def _group_positions(steps: Sequence) -> List[List[int]]:
        """Step positions grouped by graph (stacking needs a common N)."""
        groups: Dict[int, List[int]] = {}
        for position, step in enumerate(steps):
            groups.setdefault(id(step.observation.arrays), []).append(position)
        return list(groups.values())

    def _group_probabilities(
        self, steps: Sequence, keep_cache: bool = False
    ) -> np.ndarray:
        """Masked probabilities ``(B, width)`` for same-graph steps."""
        first = steps[0].observation
        node_states = np.stack([s.observation.node_state for s in steps])
        globals_vec = np.stack([s.observation.globals_vec for s in steps])
        ready_lists = [list(s.observation.ready) for s in steps]
        logits = self.forward_group(
            first.arrays,
            first.static_table,
            node_states,
            globals_vec,
            ready_lists,
            keep_cache=keep_cache,
        )
        masks = np.zeros(logits.shape, dtype=bool)
        for b, step in enumerate(steps):
            masks[b, : len(step.mask)] = step.mask
        return masked_softmax(logits, masks)

    def policy_gradient_steps(
        self,
        steps: Sequence,
        actions: Sequence[int],
        weights: StepWeights,
        total: Optional[int] = None,
    ) -> Tuple[Dict[str, np.ndarray], float]:
        """Gradients of ``-sum_i weights_i * log pi(actions_i | states_i)``
        over the whole step batch (groups sum into one update), divided
        by ``total`` (default: the number of steps; see
        :meth:`repro.rl.network.PolicyNetwork.policy_gradient`).

        A ``weights`` function is called once per graph group, between
        that group's forward and its backward pass, with the group's
        positions in ``steps`` and ``pi(actions_i | states_i)`` there
        (see :data:`repro.rl.network.StepWeights`)."""
        count = len(steps)
        total = count if total is None else total
        if total == 0:
            raise ConfigError("empty step batch")
        actions_arr = np.asarray(actions, dtype=int)
        if actions_arr.shape[0] != count:
            raise ConfigError("steps, actions and weights must align")
        if not callable(weights):
            weights_arr = np.asarray(weights, dtype=np.float64)
            if weights_arr.shape != (count,):
                raise ConfigError("steps, actions and weights must align")
        grads = {key: np.zeros_like(value) for key, value in self.params.items()}
        nll_sum = 0.0
        for positions in self._group_positions(steps):
            sub = [steps[i] for i in positions]
            index = np.asarray(positions)
            probs = self._group_probabilities(sub, keep_cache=True)
            rows = np.arange(len(sub))
            acts = actions_arr[index]
            chosen = probs[rows, acts]
            if np.any(chosen <= 0.0):
                raise ConfigError(
                    "an illegal (zero-probability) action was taken"
                )
            if callable(weights):
                group_weights = np.asarray(
                    weights(index, chosen), dtype=np.float64
                )
                if group_weights.shape != chosen.shape:
                    raise ConfigError("steps, actions and weights must align")
            else:
                group_weights = weights_arr[index]
            onehot = np.zeros_like(probs)
            onehot[rows, acts] = 1.0
            dlogits = group_weights[:, None] * (probs - onehot) / total
            group_grads = self.backward_group(dlogits)
            for key in grads:
                grads[key] += group_grads[key]
            nll_sum += float(-np.log(chosen).sum())
        return grads, nll_sum / total

    def step_probabilities(self, steps: Sequence) -> np.ndarray:
        """``(B, A)`` distributions over recorded steps, zero-padded to
        the widest action space in the batch."""
        width = max((len(step.mask) for step in steps), default=1)
        out = np.zeros((len(steps), width), dtype=np.float64)
        for positions in self._group_positions(steps):
            sub = [steps[i] for i in positions]
            probs = self._group_probabilities(sub)
            out[np.asarray(positions), : probs.shape[1]] = probs
        return out

    def entropy_gradient_steps(
        self, steps: Sequence, total: Optional[int] = None
    ) -> Dict[str, np.ndarray]:
        """Gradients of the policy entropy summed over recorded steps and
        divided by ``total`` (default: their number)."""
        total = len(steps) if total is None else total
        grads = {key: np.zeros_like(value) for key, value in self.params.items()}
        for positions in self._group_positions(steps):
            sub = [steps[i] for i in positions]
            probs = self._group_probabilities(sub, keep_cache=True)
            group_grads = self.backward_group(entropy_dlogits(probs, total))
            for key in grads:
                grads[key] += group_grads[key]
        return grads

    #: Critic input width (the PPO value head trains on these features).
    @property
    def value_feature_size(self) -> int:
        return self.global_features + NODE_STATE_CHANNELS

    def value_features(self, observations: Sequence) -> np.ndarray:
        """``(B, value_feature_size)`` critic inputs for recorded
        observations: the global cluster features joined with the mean
        per-node state channels (a size-invariant summary of episode
        progress)."""
        out = np.empty(
            (len(observations), self.value_feature_size), dtype=np.float64
        )
        for b, obs in enumerate(observations):
            out[b, : self.global_features] = obs.globals_vec
            out[b, self.global_features :] = obs.node_state.mean(axis=0)
        return out

    # ------------------------------------------------------------------ #
    # policy construction and parameter plumbing
    # ------------------------------------------------------------------ #

    def make_policy(
        self,
        mode: str = "sample",
        seed: SeedLike = None,
        work_conserving: bool = True,
    ) -> "GraphNetworkPolicy":
        """A :class:`GraphNetworkPolicy` driving this network."""
        return GraphNetworkPolicy(
            self, mode=mode, seed=seed, work_conserving=work_conserving
        )

    def get_params(self) -> Dict[str, np.ndarray]:
        """Copies of all parameter arrays."""
        return {k: v.copy() for k, v in self.params.items()}

    def set_params(self, params: Dict[str, np.ndarray]) -> None:
        """Load parameters (shapes must match exactly, values be finite)."""
        replace_params(self.params, params)

    def num_parameters(self) -> int:
        """Total scalar parameter count (independent of any DAG's size)."""
        return sum(v.size for v in self.params.values())


class GraphNetworkPolicy(NetworkPolicyBase):
    """Drives an environment with a :class:`GraphPolicyNetwork`.

    The mirror of :class:`repro.rl.agent.NetworkPolicy` for the graph
    model: the shared single-state step of
    :class:`~repro.rl.agent.NetworkPolicyBase` over
    ``[ready..., PROCESS]``.
    """

    name = "drl-gnn"

    network: GraphPolicyNetwork
    _builder: Optional[GraphObservationBuilder]

    def begin_episode(self, env) -> None:
        builder = GraphObservationBuilder(env.graph, env.config)
        if builder.arrays.num_resources != self.network.num_resources:
            raise ConfigError(
                f"graph has {builder.arrays.num_resources} resources, "
                f"network expects {self.network.num_resources}"
            )
        self._builder = builder

    def _num_actions(self, env) -> int:
        return len(env.visible_ready()) + 1

    def _logits(self, observation: GraphObservation) -> np.ndarray:
        return self.network.forward_group(
            observation.arrays,
            observation.static_table,
            observation.node_state[None, :, :],
            observation.globals_vec[None, :],
            [list(observation.ready)],
        )[0]
