"""Driving the scheduling environment with the policy network.

:class:`NetworkPolicy` adapts a :class:`PolicyNetwork` to the
:class:`repro.schedulers.Policy` protocol: featurize the state, mask
illegal actions, then sample from (or take the argmax of) the network's
distribution — "each time when the DRL agent is called to take an action,
it will draw one action from the distribution of the actions in the output
layer" (Sec. III-D).

The step itself lives in :class:`NetworkPolicyBase`, shared with the
graph policy adapter (:class:`repro.rl.gnn.GraphNetworkPolicy`).  In
most states of an episode the work-conserving filter leaves exactly one
legal action: the masked softmax is then exactly one-hot, so the step
returns that action without featurizing the state or running the
network (DESIGN.md Sec. 16.4).  The remaining states repeat: one plan
reaches a few hundred distinct featurized states in thousands of visits,
and the rollouts a trainer samples on one graph revisit each other's,
so inside a search and inside one rollout group the distribution is
read from a :class:`PolicyMemo` (DESIGN.md Sec. 16.6).  A whole episode
does not take the step at all:
:meth:`NetworkPolicyBase.playout` hands the environment a callback for
the states with a choice and lets it apply the forced moves itself
(DESIGN.md Sec. 16.7) — for Spear's rollouts, the standalone ``drl``
scheduler and, recording its decisions, the trainers (DESIGN.md
Sec. 16.3); ``select`` is the step of callers that act one state at a
time, such as the depth-limited rollout.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..env.actions import PROCESS, Action
from ..env.observation import ObservationBuilder
from ..env.scheduling_env import SchedulingEnv
from ..errors import ConfigError, EnvironmentStateError
from ..schedulers.base import Policy
from ..utils.rng import SeedLike, as_generator
from .modules import masked_softmax_row, normalized_cdf
from .network import PolicyNetwork
from .trajectories import EpisodeRecorder

__all__ = [
    "NetworkPolicy",
    "NetworkPolicyBase",
    "PolicyMemo",
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


#: Entries a :class:`PolicyMemo` holds before it drops them all.  The
#: memo is exact, so eviction can cost time but never change a result;
#: the largest plan measured (100 tasks, budget 100/20) stores 2 068.
_MEMO_CAP = 8192

#: One memoized state: (probabilities, normalized CDF, mask, observation).
#: Nothing writes an observation after ``build``, so rows share it.
MemoRow = Tuple[np.ndarray, np.ndarray, np.ndarray, Any]


class PolicyMemo:
    """Policy distributions of the states one extent has evaluated.

    Keyed by the featurizer's ``state_key`` plus the candidate-action
    tuple — every input of observation and mask — so a stored row is
    bit for bit what evaluating the state again would produce, *as long
    as the network's parameters do not move*.  Nothing here can see them
    move: whoever installs a memo on a policy guarantees it for the
    memo's lifetime and clears it afterwards.  Network guidance does so
    for the length of one ``plan()`` (:mod:`repro.core.guidance`), a
    rollout trainer for one graph's rollout group
    (:meth:`repro.rl.trainer.Trainer.sample_trajectories`); standalone
    policies never install one.

    ``evaluations`` counts lookups, ``hits`` the ones served from the
    store.
    """

    __slots__ = ("rows", "evaluations", "hits")

    def __init__(self) -> None:
        self.rows: Dict[tuple, MemoRow] = {}
        self.evaluations = 0
        self.hits = 0

    def clear(self) -> None:
        """Drop every row and zero the counters."""
        self.rows.clear()
        self.evaluations = 0
        self.hits = 0


class NetworkPolicyBase(Policy):
    """The single-state policy step shared by both network adapters.

    A subclass supplies the featurizer (:meth:`begin_episode` installs a
    per-graph builder), the state's action-space width and the network
    forward; everything else — candidate actions, mask, masked softmax,
    the draw, the forced-move short-circuit — is written once here, as
    one decision (:meth:`select`) and as a whole episode
    (:meth:`playout`).

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
        #: Installed by a search or a rollout group for its duration (see
        #: :class:`PolicyMemo`);
        #: ``None`` evaluates every state afresh.
        self.memo: Optional[PolicyMemo] = None
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
        builder = self._builder
        # The same graph object may come back under another cluster shape
        # (a degraded-capacity replan), and the builder normalizes by it.
        if (
            builder is None
            or builder.graph is not env.graph
            or builder.config is not env.config
        ):
            self.begin_episode(env)
            builder = self._builder
            assert builder is not None
        return builder

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

    def _probabilities(
        self, env, actions: Sequence[Action]
    ) -> Tuple[Any, np.ndarray, np.ndarray]:
        """(observation, mask, probabilities) of one state, computed."""
        observation, mask = self._featurize(env, actions)
        return observation, mask, masked_softmax_row(
            self._logits(observation), mask
        )

    def _memoized(self, builder, env, actions: Sequence[Action]) -> MemoRow:
        """The state's :data:`MemoRow`, computed on its first visit."""
        memo = self.memo
        assert memo is not None
        key = (builder.state_key(env), tuple(actions))
        memo.evaluations += 1
        row = memo.rows.get(key)
        if row is not None:
            memo.hits += 1
            return row
        observation, mask, probs = self._probabilities(env, actions)
        row = (probs, normalized_cdf(probs), mask, observation)
        if len(memo.rows) >= _MEMO_CAP:
            memo.rows.clear()
        memo.rows[key] = row
        return row

    def action_probabilities(self, env) -> Dict[Action, float]:
        """Env-action -> probability map (used by MCTS expansion/rollout)."""
        actions = candidate_actions(env, self.work_conserving)
        if self.memo is None:
            _, mask, probs = self._probabilities(env, actions)
        else:
            probs, _, mask, _ = self._memoized(
                self._ensure_builder(env), env, actions
            )
        width = len(mask)
        return {
            action: float(probs[_action_index(action, width)])
            for action in actions
        }

    def select(self, env) -> Action:
        """One decision.

        With exactly one candidate action the masked softmax is exactly
        one-hot, so observation, mask and forward are dead work and are
        skipped.  Sampling still consumes the one uniform the draw would
        have, which keeps every later draw of the stream where it was.

        With a memo installed, an unforced state is looked up before it
        is evaluated; the draw is the same one uniform against the same
        CDF either way.
        """
        # The builder's graph/window checks come before the short-circuit.
        builder = self._ensure_builder(env)
        actions = candidate_actions(env, self.work_conserving)
        width = self._num_actions(env)
        if len(actions) == 1:
            index = _action_index(actions[0], width)
            if self.mode == "sample":
                self._rng.random()
        else:
            if self.memo is None:
                _, mask, probs = self._probabilities(env, actions)
                cdf = None
            else:
                probs, cdf, mask, _ = self._memoized(builder, env, actions)
            if self.mode == "greedy":
                index = int(probs.argmax())
            else:
                if cdf is None:
                    cdf = normalized_cdf(probs)
                # One uniform against the same CDF, memoized or not.
                index = int(cdf.searchsorted(self._rng.random(), side="right"))
            if not mask[index]:
                raise EnvironmentStateError("network selected a masked action")
        return PROCESS if index == width - 1 else index

    def playout(
        self, env, limit: int, recorder: Optional[EpisodeRecorder] = None
    ) -> int:
        """Play ``env`` to termination; return the makespan.

        Overrides the default :meth:`Policy.playout` and equals it —
        ``while not env.done: env.step(self.select(env))`` — action for
        action and draw for draw, run as
        :meth:`SchedulingEnv.policy_playout`: the environment applies
        forced moves itself (a sampling policy still spends its one
        uniform on each) and calls back only in states with a choice to
        make.  What :meth:`select` checks on every step is checked here
        once per episode — the builder's graph, window and input size —
        because an episode cannot change them (DESIGN.md Sec. 16.7).

        A trainer passes a ``recorder``: it is told of every forced move,
        after the draw, and of every decision with its observation, mask,
        chosen index and that index's probability.  With a memo
        installed, a decision whose state the memo holds records the
        stored observation, mask and probabilities — the ones evaluating
        it again would give.
        """
        builder = self._ensure_builder(env)
        memo = self.memo
        random = self._rng.random if self.mode == "sample" else None
        forced: Optional[Callable[[], object]] = random
        if recorder is not None:

            def record_forced() -> None:
                if random is not None:
                    random()
                recorder.forced(env, builder)

            forced = record_forced

        def decide(actions: List[Action]) -> Action:
            if memo is None:
                observation, mask, probs = self._probabilities(env, actions)
                cdf = None
            else:
                probs, cdf, mask, observation = self._memoized(
                    builder, env, actions
                )
            if random is None:
                index = int(probs.argmax())
            else:
                if cdf is None:
                    cdf = normalized_cdf(probs)
                # The draw of :meth:`select`: one uniform against the CDF.
                index = int(cdf.searchsorted(random(), side="right"))
            if not mask[index]:
                raise EnvironmentStateError("network selected a masked action")
            if recorder is not None:
                recorder.decided(
                    env, observation, mask, index, float(probs[index])
                )
            return PROCESS if index == len(mask) - 1 else index

        return env.policy_playout(decide, forced, limit, self.work_conserving)


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
