"""Network-guided expansion and rollout policies for MCTS.

These are the two integration points of Sec. III-A: "the DRL agent can
choose an action leading to the next state during expansion and rollout,
whereas the default MCTS strategy uses a random policy during these steps."

* :class:`NetworkExpansion` — orders a node's untried actions by the
  policy's probabilities, so the search "can focus on more promising
  subtrees instead of a randomly selected one".
* :class:`NetworkRollout` — simulates to termination by sampling from the
  policy ("our DRL model will simulate the DAG scheduling problem with
  expertise and provide a more meaningful estimation of the makespan").

Both evaluate one network whose parameters no code path changes while a
``plan()`` runs, on states that mostly repeat, so for the length of one
search (``begin_search`` .. ``end_search``) their policies read a shared
:class:`~repro.rl.agent.PolicyMemo` (DESIGN.md Sec. 16.6).  Outside a
search — a rollout called directly — nothing is memoized; a trainer
scopes its own memo to one graph's rollout group.
"""

from __future__ import annotations

from typing import List

from ..env.actions import Action
from ..env.scheduling_env import SchedulingEnv
from ..mcts.policies import ExpansionPolicy, RolloutPolicy
from ..rl.agent import PolicyMemo
from ..utils.rng import SeedLike

__all__ = ["NetworkExpansion", "NetworkRollout"]


class _MemoizedGuidance:
    """The per-search memo scope both guidance policies share.

    ``memo`` is a plain attribute so that a scheduler guiding expansion
    and rollout with one network can point both at one store
    (:class:`~repro.core.spear.SpearScheduler` does).
    """

    def __init__(self, policy) -> None:
        self._policy = policy
        self.memo = PolicyMemo()

    def begin_search(self, env: SchedulingEnv) -> None:
        self.memo.clear()
        self._policy.memo = self.memo

    def end_search(self, stats) -> None:
        # Whichever sharer ends first reports the counters; clearing
        # zeroes them, so the other adds nothing.
        stats.policy_evaluations += self.memo.evaluations
        stats.policy_memo_hits += self.memo.hits
        self.memo.clear()
        self._policy.memo = None


class NetworkExpansion(_MemoizedGuidance, ExpansionPolicy):
    """Order untried actions by descending policy probability.

    Args:
        network: the trained policy network.
        work_conserving: must match the search's expansion-filter setting
            so probabilities are computed over the same action set.
    """

    def __init__(self, network, work_conserving: bool = True) -> None:
        super().__init__(
            network.make_policy(mode="greedy", work_conserving=work_conserving)
        )

    def prioritize(self, env: SchedulingEnv, actions: List[Action]) -> List[Action]:
        if len(actions) <= 1:
            return list(actions)
        probabilities = self._policy.action_probabilities(env)
        return sorted(
            actions,
            key=lambda a: (-probabilities.get(a, 0.0), a),
        )


class NetworkRollout(_MemoizedGuidance, RolloutPolicy):
    """Simulate to termination with the trained policy.

    One rollout is one fused playout
    (:meth:`repro.rl.agent.NetworkPolicyBase.playout`): the environment
    plays the forced moves, the policy decides the rest.

    Args:
        network: the trained policy network.
        seed: sampling RNG (ignored in greedy mode).
        mode: ``"sample"`` (default — diverse rollouts, matching how the
            network was trained) or ``"greedy"``.
        work_conserving: apply the Spear action filter during rollout.
        max_steps_factor: livelock guard multiplier.
    """

    def __init__(
        self,
        network,
        seed: SeedLike = None,
        mode: str = "sample",
        work_conserving: bool = True,
        max_steps_factor: int = 50,
    ) -> None:
        super().__init__(
            network.make_policy(
                mode=mode, seed=seed, work_conserving=work_conserving
            )
        )
        self.max_steps_factor = max_steps_factor

    def rollout(self, env: SchedulingEnv) -> int:
        return self._policy.playout(env, self.step_limit(env))
