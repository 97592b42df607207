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

1. **Encoder** — static per-task features (the window builder's own
   demand/runtime/b-level/children/b-load rows) concatenated
   with 5 dynamic state channels (visible-ready, ready, running,
   finished, remaining-runtime), through linear+ReLU to ``hidden_size``.
2. **K message-passing rounds** — ``h' = relu(h W_s + C(h) W_c +
   P(h) W_p + b)`` where ``C``/``P`` sum child/parent embeddings over
   the precedence edges (``graph.children`` in ascending id).  ``C`` and
   ``P`` are adjoint, so backprop reuses the same two aggregations with
   the directions swapped.
3. **Global readout** — mean-pooled node embeddings joined with cluster
   features (free capacity, progress, backlog, clock) through
   linear+ReLU.
4. **Score heads** — a shared per-node head (node embedding + global
   context -> scalar score) evaluated at each visible ready task, plus
   a separate head scoring the PROCESS action from the global context.
   The masked softmax runs over ``[ready..., PROCESS]`` — variable
   width per state, padded only transiently inside a batch.

A batch of states — a trainer's minibatch, whatever graphs its states
come from — runs as one graph: the disjoint union of the states' graphs
(:class:`GraphUnion`), one forward and one backward pass, each dense
layer one GEMM over all nodes.  A one-state pass is the same code with a
union of one, and gives the logits the per-state pass always gave.

Everything is pure NumPy with hand-derived gradients, matching the rest
of :mod:`repro.rl.modules`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..config import EnvConfig, GnnConfig
from ..dag.graph import TaskGraph
from ..env.observation import ObservationBuilder
from ..errors import ConfigError
from ..utils.rng import SeedLike, as_generator
from .agent import NetworkPolicyBase
from .modules import (
    EdgeList,
    entropy_dlogits,
    init_linear,
    masked_softmax,
    policy_gradient_dlogits,
    replace_params,
)
from .network import StepWeights

__all__ = [
    "GraphPolicyNetwork",
    "GraphObservation",
    "GraphObservationBuilder",
    "GraphNetworkPolicy",
    "GraphUnion",
]

#: Dynamic per-node state channels of a graph observation:
#: visible-ready, ready (incl. backlog), running, finished, remaining-runtime.
NODE_STATE_CHANNELS = 5

#: Global feature channels beyond the per-resource free fractions:
#: progress, backlog, normalized clock.
GLOBAL_EXTRA_CHANNELS = 3


@dataclass(frozen=True)
class GraphObservation:
    """One state, featurized for the graph policy.

    ``static_table`` is shared per episode (one reference per builder);
    ``ready`` lists the visible ready window as *dense* task indices in
    slot order — the action layout is ``[ready..., PROCESS]``.
    """

    graph: TaskGraph
    static_table: np.ndarray
    node_state: np.ndarray
    globals_vec: np.ndarray
    ready: Tuple[int, ...]


class GraphObservationBuilder:
    """Featurize one environment state at a time for the graph policy.

    Dense node ``i`` is the ``i``-th smallest task id.  The static table
    holds the window builder's task rows
    (:meth:`~repro.env.observation.ObservationBuilder.task_features`) in
    that order, and the dynamic channels share its normalisers.

    Args:
        graph: the job.
        config: environment configuration (cluster shape, feature flags).
    """

    def __init__(self, graph: TaskGraph, config: EnvConfig) -> None:
        window = ObservationBuilder(graph, config)
        ids = sorted(graph.task_ids)
        self.graph = graph
        self.config = config
        self.index_of = {tid: i for i, tid in enumerate(ids)}
        self.static_table = np.stack([window.task_features(tid) for tid in ids])
        self._capacities = np.asarray(
            config.cluster.capacities, dtype=np.float64
        )
        self._max_runtime = window.max_runtime
        self._critical_path = window.critical_path

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
        graph = self.graph
        index_of = self.index_of
        n = graph.num_tasks
        resources = graph.num_resources
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
            graph, self.static_table, node_state, globals_vec, tuple(visible)
        )


def _stacked_means(blocks: Sequence[np.ndarray]) -> np.ndarray:
    """``(B, C)``: the column means of each ``(n_b, C)`` block.

    Blocks of one size are stacked and averaged in one ``mean(axis=1)``,
    which gives each block's row the bits its own ``mean(axis=0)`` has
    (a segment sum such as ``np.add.reduceat`` adds in another order).
    """
    by_size: Dict[int, List[int]] = {}
    for position, block in enumerate(blocks):
        by_size.setdefault(block.shape[0], []).append(position)
    out = np.empty((len(blocks), blocks[0].shape[1]), dtype=np.float64)
    for positions in by_size.values():
        out[positions] = np.stack([blocks[b] for b in positions]).mean(axis=1)
    return out


class GraphUnion:
    """A batch of states laid out as one graph: the disjoint union of
    their graphs (DESIGN.md Sec. 16.2).

    State ``b``'s ``sizes[b]`` nodes follow those of the states before
    it, and ``edges`` is every state's edge list shifted by that offset.
    ``ready_rows`` holds the union row of every visible ready slot, state
    after state in slot order.  The padded ``(B, width)`` logits put
    state ``b``'s ``counts[b]`` ready slots in columns ``0 .. counts[b]
    - 1`` and PROCESS in column ``counts[b]``; ``ready_cells`` and
    ``process_cells`` are those cells as flat indices.

    Args:
        edges: the union's edge list.
        sizes: node count of each state.
        ready_lists: each state's ready slots as dense node indices.
    """

    __slots__ = (
        "edges",
        "sizes",
        "counts",
        "width",
        "ready_rows",
        "ready_cells",
        "process_cells",
        "_uniform",
    )

    def __init__(
        self,
        edges: EdgeList,
        sizes: Sequence[int],
        ready_lists: Sequence[Sequence[int]],
    ) -> None:
        counts = [len(ready) for ready in ready_lists]
        width = max(counts) + 1
        rows: List[int] = []
        cells: List[int] = []
        offset = 0
        for b, ready in enumerate(ready_lists):
            rows += [offset + node for node in ready]
            cells += range(b * width, b * width + counts[b])
            offset += sizes[b]
        self.edges = edges
        self.sizes = np.asarray(sizes, dtype=np.int64)
        self.counts = np.asarray(counts, dtype=np.int64)
        self.width = width
        self.ready_rows = np.asarray(rows, dtype=np.int64)
        self.ready_cells = np.asarray(cells, dtype=np.int64)
        self.process_cells = np.arange(0, len(counts) * width, width) + self.counts
        self._uniform = len(set(sizes)) == 1

    @property
    def batch(self) -> int:
        return self.counts.shape[0]

    def action_cells(self) -> np.ndarray:
        """Every state's ``[ready..., PROCESS]`` cells, state after state:
        where its action mask goes."""
        widths = self.counts + 1
        # State b's cells run from b * width; its mask from firsts[b].
        firsts = np.cumsum(widths) - widths
        shift = np.arange(0, self.batch * self.width, self.width) - firsts
        return np.repeat(shift, widths) + np.arange(int(widths.sum()))

    def pool(self, h: np.ndarray) -> np.ndarray:
        """``(B, H)``: the mean of each state's rows of ``h``."""
        sizes = self.sizes
        if self._uniform:
            return h.reshape(sizes.shape[0], sizes[0], h.shape[1]).mean(axis=1)
        return _stacked_means(np.split(h, np.cumsum(sizes)[:-1]))

    def state_sums(self, values: np.ndarray) -> np.ndarray:
        """``(B, C)``: the sum of each state's rows of the ``(R, C)``
        ready-row ``values`` (zero for a state with no ready slot)."""
        out = np.zeros((self.batch, values.shape[1]), dtype=np.float64)
        scored = np.flatnonzero(self.counts)
        if scored.shape[0]:
            firsts = np.cumsum(self.counts) - self.counts
            out[scored] = np.add.reduceat(values, firsts[scored], axis=0)
        return out


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
        self._edge_cache: Dict[int, Tuple[TaskGraph, EdgeList]] = {}
        self._cache: Optional[dict] = None

    # ------------------------------------------------------------------ #
    # forward / backward over one step batch
    # ------------------------------------------------------------------ #

    def _edges(self, graph: TaskGraph) -> EdgeList:
        key = id(graph)
        cached = self._edge_cache.get(key)
        if cached is not None and cached[0] is graph:
            return cached[1]
        edges = EdgeList.from_graph(graph)
        if len(self._edge_cache) >= 16:
            self._edge_cache.pop(next(iter(self._edge_cache)))
        self._edge_cache[key] = (graph, edges)
        return edges

    def batch_inputs(
        self, observations: Sequence[GraphObservation]
    ) -> Tuple[GraphUnion, np.ndarray, np.ndarray]:
        """``(union, x, globals_vec)`` of a batch of states, the arguments
        of :meth:`forward_group`: the layout of their disjoint union, the
        ``(N, node_features)`` features of its nodes, state after state,
        and the ``(B, global_features)`` cluster features."""
        if len(observations) == 1:
            edges = self._edges(observations[0].graph)
        else:
            edges = EdgeList.disjoint_union(
                [self._edges(obs.graph) for obs in observations]
            )
        union = GraphUnion(
            edges,
            [obs.node_state.shape[0] for obs in observations],
            [obs.ready for obs in observations],
        )
        x = np.concatenate(
            [
                np.concatenate([obs.static_table for obs in observations]),
                np.concatenate([obs.node_state for obs in observations]),
            ],
            axis=1,
        )
        globals_vec = np.array([obs.globals_vec for obs in observations])
        return union, x, globals_vec

    def forward_group(
        self,
        union: GraphUnion,
        x: np.ndarray,
        globals_vec: np.ndarray,
        keep_cache: bool = False,
    ) -> np.ndarray:
        """Padded logits ``(B, max_ready_count + 1)`` for the ``B`` states
        of ``union`` (see :meth:`batch_inputs`).  Column
        ``len(ready_b)`` is state ``b``'s PROCESS; columns beyond it are
        padding (mask them out).

        Each node keeps its aggregation addends and each state its mean
        pool, so a state's logits equal those of a one-state pass to
        float summation order, and are those bits when ``B = 1``."""
        if x.shape[1] != self.node_features:
            raise ConfigError(
                f"node features {x.shape[1]} do not match network width "
                f"{self.node_features}"
            )
        p = self.params
        cfg = self.config
        edges = union.edges
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
            if keep_cache:
                round_cache.append((h, children, parents, z))
            h = np.maximum(z, 0.0)
        pooled = union.pool(h)
        g_in = np.concatenate([pooled, globals_vec], axis=1)
        g_pre = g_in @ p["glob.W"] + p["glob.b"]
        g = np.maximum(g_pre, 0.0)
        # The per-node head scores every node: BLAS gives a row of a
        # matrix-vector product bits that depend on the row's position,
        # so a one-state pass keeps its logits only over all of the
        # state's rows.  The backward reads the ready rows alone.
        q_pre = (
            h @ p["head.Wn"]
            + np.repeat(g @ p["head.Wg"], union.sizes, axis=0)
            + p["head.b"]
        )
        q = np.maximum(q_pre, 0.0)
        scores = (q @ p["head.w"])[union.ready_rows, 0] + p["head.c"][0]
        proc_pre = g @ p["proc.W"] + p["proc.b"]
        proc = np.maximum(proc_pre, 0.0)
        pscores = (proc @ p["proc.w"])[:, 0] + p["proc.c"][0]
        logits = np.zeros(union.batch * union.width, dtype=np.float64)
        logits[union.ready_cells] = scores
        logits[union.process_cells] = pscores
        if keep_cache:
            ready = union.ready_rows
            self._cache = {
                "union": union,
                "x": x,
                "enc_pre": enc_pre,
                "rounds": round_cache,
                "h_ready": h[ready],
                "g_in": g_in,
                "g_pre": g_pre,
                "g": g,
                "q_pre": q_pre[ready],
                "q": q[ready],
                "proc_pre": proc_pre,
                "proc": proc,
            }
        return logits.reshape(union.batch, union.width)

    def backward_group(self, dlogits: np.ndarray) -> Dict[str, np.ndarray]:
        """Backprop padded ``dLoss/dlogits`` through the cached forward.

        Padded columns are never read (masked-softmax losses give them
        zero gradient anyway).  The cache is consumed.
        """
        if self._cache is None:
            raise ConfigError(
                "no cached forward pass; call forward_group(keep_cache=True)"
            )
        c, self._cache = self._cache, None
        p = self.params
        cfg = self.config
        union = c["union"]
        hidden = cfg.hidden_size
        flat = dlogits.reshape(-1)
        dscores = flat[union.ready_cells]
        dpscores = flat[union.process_cells]
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
        # Per-node score head (shared weights over every ready row).
        q, q_pre, h_ready = c["q"], c["q_pre"], c["h_ready"]
        grads["head.w"] = (q * dscores[:, None]).sum(axis=0)[:, None]
        grads["head.c"] = np.asarray([dscores.sum()])
        dq = dscores[:, None] * p["head.w"][:, 0][None, :]
        dq_pre = dq * (q_pre > 0)
        grads["head.Wn"] = h_ready.T @ dq_pre
        grads["head.b"] = dq_pre.sum(axis=0)
        dq_glob = union.state_sums(dq_pre)
        grads["head.Wg"] = g.T @ dq_glob
        dg += dq_glob @ p["head.Wg"].T
        # Global readout: each node gets its state's pooled gradient / n,
        # a ready node its head gradient too.
        g_pre, g_in = c["g_pre"], c["g_in"]
        dg_pre = dg * (g_pre > 0)
        grads["glob.W"] = g_in.T @ dg_pre
        grads["glob.b"] = dg_pre.sum(axis=0)
        dg_in = dg_pre @ p["glob.W"].T
        dh = np.repeat(
            dg_in[:, :hidden] / union.sizes[:, None], union.sizes, axis=0
        )
        dh[union.ready_rows] += dq_pre @ p["head.Wn"].T
        # Message-passing rounds, reversed (C and P are adjoint).
        edges = union.edges
        for k in reversed(range(cfg.rounds)):
            h_prev, children, parents, z = c["rounds"][k]
            dz = dh * (z > 0)
            grads[f"mp{k}.Ws"] = h_prev.T @ dz
            grads[f"mp{k}.Wc"] = children.T @ dz
            grads[f"mp{k}.Wp"] = parents.T @ dz
            grads[f"mp{k}.b"] = dz.sum(axis=0)
            dh = (
                dz @ p[f"mp{k}.Ws"].T
                + edges.aggregate_parents(dz @ p[f"mp{k}.Wc"].T)
                + edges.aggregate_children(dz @ p[f"mp{k}.Wp"].T)
            )
        # Encoder.
        enc_pre, x = c["enc_pre"], c["x"]
        denc_pre = dh * (enc_pre > 0)
        grads["enc.W"] = x.T @ denc_pre
        grads["enc.b"] = denc_pre.sum(axis=0)
        return grads

    # ------------------------------------------------------------------ #
    # step-batch interface (what the trainers consume)
    # ------------------------------------------------------------------ #

    def _probabilities(
        self, steps: Sequence, keep_cache: bool = False
    ) -> np.ndarray:
        """Masked probabilities ``(B, width)`` of recorded steps, from one
        forward pass over the union of their graphs."""
        union, x, globals_vec = self.batch_inputs(
            [step.observation for step in steps]
        )
        logits = self.forward_group(union, x, globals_vec, keep_cache)
        masks = np.zeros(logits.size, dtype=bool)
        masks[union.action_cells()] = np.concatenate([step.mask for step in steps])
        return masked_softmax(logits, masks.reshape(logits.shape))

    def _zero_grads(self) -> Dict[str, np.ndarray]:
        return {key: np.zeros_like(value) for key, value in self.params.items()}

    def policy_gradient_steps(
        self,
        steps: Sequence,
        actions: Sequence[int],
        weights: StepWeights,
        total: Optional[int] = None,
    ) -> Tuple[Dict[str, np.ndarray], float]:
        """Gradients of ``-sum_i weights_i * log pi(actions_i | states_i)``
        over the step batch, divided by ``total`` (default: the number of
        steps; see :meth:`repro.rl.network.PolicyNetwork.policy_gradient`).

        One forward and one backward pass over the union of the steps'
        graphs; a ``weights`` function is called once, between them
        (see :data:`repro.rl.network.StepWeights`)."""
        if not steps:  # a batch whose every step was forced
            _, nll = policy_gradient_dlogits(
                np.zeros((0, 1)), actions, weights, total
            )
            return self._zero_grads(), nll
        probs = self._probabilities(steps, keep_cache=True)
        dlogits, nll = policy_gradient_dlogits(probs, actions, weights, total)
        return self.backward_group(dlogits), nll

    def step_probabilities(self, steps: Sequence) -> np.ndarray:
        """``(B, A)`` distributions over recorded steps, zero-padded to
        the widest action space in the batch."""
        if not steps:
            return np.zeros((0, 1), dtype=np.float64)
        return self._probabilities(steps)

    def entropy_gradient_steps(
        self, steps: Sequence, total: Optional[int] = None
    ) -> Dict[str, np.ndarray]:
        """Gradients of the policy entropy summed over recorded steps and
        divided by ``total`` (default: their number)."""
        if not steps:
            return self._zero_grads()
        probs = self._probabilities(steps, keep_cache=True)
        return self.backward_group(entropy_dlogits(probs, total))

    #: Critic input width (the PPO value head trains on these features).
    @property
    def value_feature_size(self) -> int:
        return self.global_features + NODE_STATE_CHANNELS

    def value_features(self, observations: Sequence) -> np.ndarray:
        """``(B, value_feature_size)`` critic inputs for recorded
        observations: the global cluster features joined with the mean
        per-node state channels (a size-invariant summary of episode
        progress)."""
        return np.concatenate(
            [
                np.stack([obs.globals_vec for obs in observations]),
                _stacked_means([obs.node_state for obs in observations]),
            ],
            axis=1,
        )

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
        if builder.graph.num_resources != self.network.num_resources:
            raise ConfigError(
                f"graph has {builder.graph.num_resources} resources, "
                f"network expects {self.network.num_resources}"
            )
        self._builder = builder

    def _num_actions(self, env) -> int:
        return len(env.visible_ready()) + 1

    def _logits(self, observation: GraphObservation) -> np.ndarray:
        network = self.network
        return network.forward_group(*network.batch_inputs([observation]))[0]
