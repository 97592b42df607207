"""Driving the scheduling environment with the policy network.

:class:`NetworkPolicy` adapts a :class:`PolicyNetwork` to the
:class:`repro.schedulers.Policy` protocol: featurize the state, mask
illegal actions, then sample from (or take the argmax of) the network's
distribution — "each time when the DRL agent is called to take an action,
it will draw one action from the distribution of the actions in the output
layer" (Sec. III-D).

The step itself lives in :class:`NetworkPolicyBase`, shared with the
graph policy adapter (:class:`repro.rl.gnn.GraphNetworkPolicy`).  Inside
Spear it runs once per rollout decision, and in most of those states the
work-conserving filter leaves exactly one legal action: the masked
softmax is then exactly one-hot, so the step returns that action without
featurizing the state or running the network (DESIGN.md Sec. 16.4).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..env.actions import PROCESS, Action
from ..env.observation import ObservationBuilder
from ..env.scheduling_env import SchedulingEnv
from ..errors import ConfigError, EnvironmentStateError
from ..schedulers.base import Policy
from ..utils.rng import SeedLike, as_generator
from .modules import masked_softmax_row, sample_index
from .network import PolicyNetwork

__all__ = [
    "NetworkPolicy",
    "NetworkPolicyBase",
    "build_action_mask",
    "candidate_actions",
    "mask_from_actions",
]


def candidate_actions(env, work_conserving: bool) -> List[Action]:
    """The actions a policy chooses among: the Spear expansion filter's
    (PROCESS dropped whenever some task fits) or every legal one."""
    if work_conserving:
        return env.expansion_actions(work_conserving=True)
    return env.legal_actions()


def _action_index(action: Action, num_actions: int) -> int:
    """Network output index of an env action; PROCESS is the last one."""
    if action == PROCESS:
        return num_actions - 1
    if action >= num_actions - 1:
        raise ConfigError(
            f"visible slot {action} exceeds network window {num_actions - 1}"
        )
    return action


def mask_from_actions(actions: Sequence[Action], num_actions: int) -> np.ndarray:
    """Boolean mask over the network's action layout, True at ``actions``.

    Layout: indices ``0 .. num_actions-2`` schedule the corresponding
    visible ready slot; index ``num_actions-1`` is PROCESS.
    """
    mask = np.zeros(num_actions, dtype=bool)
    for action in actions:
        mask[_action_index(action, num_actions)] = True
    return mask


def build_action_mask(
    env: SchedulingEnv, num_actions: int, work_conserving: bool = False
) -> np.ndarray:
    """Boolean mask over the network's action layout.

    Layout: indices ``0 .. max_ready-1`` schedule the corresponding visible
    ready slot; index ``max_ready`` is PROCESS.

    Args:
        env: current environment.
        num_actions: the network's output width (``max_ready + 1``).
        work_conserving: apply the Spear expansion filter (drop PROCESS
            whenever some task fits).
    """
    return mask_from_actions(
        candidate_actions(env, work_conserving), num_actions
    )


class NetworkPolicyBase(Policy):
    """The single-state policy step shared by both network adapters.

    A subclass supplies the featurizer (:meth:`begin_episode` installs a
    per-graph builder), the state's action-space width and the network
    forward; everything else — candidate actions, mask, masked softmax,
    the draw, the forced-move short-circuit — is written once here.

    Args:
        network: the policy network.
        mode: ``"sample"`` draws from the distribution (training, rollout
            diversity); ``"greedy"`` takes the argmax (evaluation).
        seed: RNG for sampling.
        work_conserving: mask PROCESS away whenever a task fits (matches
            the MCTS expansion filter so the network sees the same action
            space inside Spear as during training).
    """

    def __init__(
        self,
        network,
        mode: str = "sample",
        seed: SeedLike = None,
        work_conserving: bool = True,
    ) -> None:
        if mode not in ("sample", "greedy"):
            raise ConfigError(f"unknown mode {mode!r}")
        self.network = network
        self.mode = mode
        self.work_conserving = work_conserving
        self._rng = as_generator(seed)
        self._builder = None

    # -- subclass hooks -------------------------------------------------- #

    def _num_actions(self, env) -> int:
        """Width of the action layout in ``env``'s current state."""
        raise NotImplementedError

    def _logits(self, observation) -> np.ndarray:
        """``(num_actions,)`` raw scores for one featurized state."""
        raise NotImplementedError

    # ------------------------------------------------------------------ #

    def _ensure_builder(self, env):
        if self._builder is None or self._builder.graph is not env.graph:
            self.begin_episode(env)
        assert self._builder is not None
        return self._builder

    def _featurize(
        self, env, actions: Sequence[Action]
    ) -> Tuple[Any, np.ndarray]:
        """(observation, mask) of a state whose candidates are ``actions``."""
        observation = self._ensure_builder(env).build(env)
        return observation, mask_from_actions(actions, self._num_actions(env))

    def observe(self, env) -> Tuple[Any, np.ndarray]:
        """(observation, mask) without a network forward — for recording
        teacher decisions in the model's own featurization."""
        return self._featurize(
            env, candidate_actions(env, self.work_conserving)
        )

    def _evaluate(
        self, env
    ) -> Tuple[List[Action], Any, np.ndarray, np.ndarray]:
        """(actions, observation, mask, probabilities) of one state."""
        actions = candidate_actions(env, self.work_conserving)
        observation, mask = self._featurize(env, actions)
        probs = masked_softmax_row(self._logits(observation), mask)
        return actions, observation, mask, probs

    def distribution(self, env) -> Tuple[Any, np.ndarray, np.ndarray]:
        """(observation, mask, probabilities) for the current state."""
        return self._evaluate(env)[1:]

    def action_probabilities(self, env) -> Dict[Action, float]:
        """Env-action -> probability map (used by MCTS expansion/rollout)."""
        actions, _, mask, probs = self._evaluate(env)
        width = len(mask)
        return {
            action: float(probs[_action_index(action, width)])
            for action in actions
        }

    def _step(
        self, env, record: bool
    ) -> Tuple[Action, Any, Optional[np.ndarray], int]:
        """One decision: ``(action, observation, mask, index)``.

        With exactly one candidate action the masked softmax is exactly
        one-hot, so the forward is dead work and is skipped — and, unless
        ``record`` asks for them, so are observation and mask.  Sampling
        still consumes the one uniform the draw would have, which keeps
        every later draw of the stream where it was.
        """
        # The builder's graph/window checks come before the short-circuit.
        self._ensure_builder(env)
        actions = candidate_actions(env, self.work_conserving)
        width = self._num_actions(env)
        forced = len(actions) == 1
        observation = mask = None
        if record or not forced:
            observation, mask = self._featurize(env, actions)
        if forced:
            index = _action_index(actions[0], width)
            if self.mode == "sample":
                self._rng.random()
        else:
            probs = masked_softmax_row(self._logits(observation), mask)
            if self.mode == "greedy":
                index = int(np.argmax(probs))
            else:
                index = sample_index(probs, self._rng)
        if mask is not None and not mask[index]:
            raise EnvironmentStateError("network selected a masked action")
        action = PROCESS if index == width - 1 else index
        return action, observation, mask, index

    def select(self, env) -> Action:
        return self._step(env, record=False)[0]

    def select_with_trace(self, env) -> Tuple[Action, Any, np.ndarray, int]:
        """Like :meth:`select` but also returns (observation, mask,
        network-action-index) for trajectory recording."""
        return self._step(env, record=True)


class NetworkPolicy(NetworkPolicyBase):
    """Scheduling policy backed by a trained (or training) MLP network.

    Args:
        network: the policy network; its ``max_ready`` must match the
            environment's visibility window.
        mode, seed, work_conserving: see :class:`NetworkPolicyBase`.
    """

    name = "drl"

    network: PolicyNetwork
    _builder: Optional[ObservationBuilder]

    def begin_episode(self, env: SchedulingEnv) -> None:
        if env.config.max_ready != self.network.num_actions - 1:
            raise ConfigError(
                f"env max_ready={env.config.max_ready} does not match "
                f"network action space {self.network.num_actions}"
            )
        self._builder = ObservationBuilder(env.graph, env.config)
        if self._builder.size != self.network.input_size:
            raise ConfigError(
                f"observation size {self._builder.size} != network input "
                f"{self.network.input_size}"
            )

    def _num_actions(self, env: SchedulingEnv) -> int:
        return self.network.num_actions

    def _logits(self, observation: np.ndarray) -> np.ndarray:
        return self.network.logits(observation[None, :])[0]
