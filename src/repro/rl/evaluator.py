"""Batched policy inference for MCTS leaf evaluation.

Network-guided MCTS calls the policy thousands of times per decision —
once per expanded leaf (to order its candidate actions) and once per
rollout step.  Evaluated one state at a time, the matmuls are tiny and
the Python overhead dominates.  :class:`PolicyEvaluator` evaluates a
whole *wave* of leaf environments in one forward pass instead: the MLP
path renders all states through
:class:`repro.envarr.observation.BatchObservationBuilder`, the graph
path stacks all lanes' node states and runs the batched CSR message
passing of :class:`repro.rl.gnn.GraphPolicyNetwork` — so Spear's batched
search (``MctsConfig.rollout_batch``) amortizes network cost across the
wave exactly like it amortizes the rollout kernel.

Batch evaluation is numerically the same computation as the sequential
policy adapters (pinned by a property-based equivalence test); only the
Python-loop overhead changes.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from ..config import EnvConfig
from ..env.actions import PROCESS, Action
from ..envarr.graphdata import graph_arrays
from ..envarr.observation import (
    BatchObservationBuilder,
    node_state_batch,
    task_feature_table,
)
from ..errors import ConfigError, EnvironmentStateError
from ..utils.rng import SeedLike, as_generator
from .agent import build_action_mask
from .gnn import build_graph_action_mask
from .modules import masked_softmax, sample_index

__all__ = ["PolicyEvaluator"]

#: One (legal actions, their probabilities) pair per evaluated state.
Distribution = Tuple[List[Action], np.ndarray]


class PolicyEvaluator:
    """Evaluate one policy network over many same-graph states at once.

    Args:
        network: a :class:`~repro.rl.network.PolicyNetwork` or
            :class:`~repro.rl.gnn.GraphPolicyNetwork`.
        env_config: environment shape the states come from (the MLP path
            requires ``max_ready`` to match the network's window).
        graph_or_arrays: the job every evaluated environment runs.
        work_conserving: mask PROCESS away whenever a task fits — must
            match the search's expansion-filter setting so the evaluator
            scores exactly the candidate set the tree expands.

    Evaluated environments must run this evaluator's graph under its
    ``env_config`` (:func:`repro.envarr.lane_snapshot` rejects others).
    """

    def __init__(
        self,
        network,
        env_config: EnvConfig,
        graph_or_arrays,
        work_conserving: bool = True,
    ) -> None:
        self.network = network
        self.env_config = env_config
        self.work_conserving = work_conserving
        kind = getattr(network, "kind", "policy_mlp")
        if kind == "policy_mlp":
            self._builder = BatchObservationBuilder(graph_or_arrays, env_config)
            self.arrays = self._builder.arrays
            if env_config.max_ready != network.num_actions - 1:
                raise ConfigError(
                    f"env max_ready={env_config.max_ready} does not match "
                    f"network action space {network.num_actions}"
                )
            if self._builder.size != network.input_size:
                raise ConfigError(
                    f"observation size {self._builder.size} != network "
                    f"input {network.input_size}"
                )
        elif kind == "policy_gnn":
            self.arrays = graph_arrays(graph_or_arrays)
            if self.arrays.num_resources != network.num_resources:
                raise ConfigError(
                    f"graph has {self.arrays.num_resources} resources, "
                    f"network expects {network.num_resources}"
                )
            self._static_table = task_feature_table(self.arrays, env_config)
        else:
            raise ConfigError(f"cannot batch-evaluate model kind {kind!r}")
        self.kind = kind
        self.graph = self.arrays.graph

    # ------------------------------------------------------------------ #

    def distributions(self, envs: Sequence) -> List[Distribution]:
        """Per-state legal actions and their probabilities (sum to 1)."""
        if not envs:
            return []
        if self.kind == "policy_mlp":
            return self._distributions_mlp(envs)
        return self._distributions_gnn(envs)

    def _distributions_mlp(self, envs: Sequence) -> List[Distribution]:
        num_actions = self.network.num_actions
        observations = self._builder.build_batch(envs)
        masks = np.stack(
            [
                build_action_mask(env, num_actions, self.work_conserving)
                for env in envs
            ]
        )
        probs = self.network.probabilities(observations, masks)
        process_index = num_actions - 1
        out: List[Distribution] = []
        for b in range(len(envs)):
            legal = np.nonzero(masks[b])[0]
            actions = [
                PROCESS if index == process_index else int(index)
                for index in legal
            ]
            out.append((actions, probs[b, legal]))
        return out

    def _distributions_gnn(self, envs: Sequence) -> List[Distribution]:
        node_states, globals_vec, ready_lists = node_state_batch(
            self.arrays, self.env_config, envs
        )
        masks = [
            build_graph_action_mask(env, self.work_conserving) for env in envs
        ]
        logits = self.network.forward_group(
            self.arrays, self._static_table, node_states, globals_vec,
            ready_lists,
        )
        padded = np.zeros(logits.shape, dtype=bool)
        for b, mask in enumerate(masks):
            padded[b, : len(mask)] = mask
        probs = masked_softmax(logits, padded)
        out: List[Distribution] = []
        for b, mask in enumerate(masks):
            process_index = len(mask) - 1
            legal = np.nonzero(mask)[0]
            actions = [
                PROCESS if index == process_index else int(index)
                for index in legal
            ]
            out.append((actions, probs[b, legal]))
        return out

    def action_probabilities(self, envs: Sequence) -> List[Dict[Action, float]]:
        """Per-state env-action -> probability maps (the leaf-prior form
        MCTS consumes; matches ``Policy.action_probabilities``)."""
        return [
            {action: float(p) for action, p in zip(actions, probs)}
            for actions, probs in self.distributions(envs)
        ]

    # ------------------------------------------------------------------ #

    def rollout_many(
        self,
        envs: Sequence,
        limit: int,
        mode: str = "sample",
        rng: SeedLike = None,
    ) -> List[int]:
        """Play *clones* of ``envs`` to completion with the network; one
        batched forward per simulation step drives every live lane.

        Returns per-lane makespans; the inputs are never mutated.
        """
        generator = as_generator(rng)
        sims = [env.clone() for env in envs]
        pending = [i for i, sim in enumerate(sims) if not sim.done]
        steps = 0
        while pending:
            if steps >= limit:
                raise EnvironmentStateError("batched network rollout livelocked")
            active = [sims[i] for i in pending]
            for sim, (actions, probs) in zip(active, self.distributions(active)):
                if mode == "greedy":
                    choice = int(np.argmax(probs))
                else:
                    choice = sample_index(probs, generator)
                sim.step(actions[choice])
            pending = [i for i in pending if not sims[i].done]
            steps += 1
        return [sim.makespan for sim in sims]
