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
from ..rl.agent import NetworkPolicy, PolicyMemo
from ..rl.network import PolicyNetwork
from ..utils.rng import SeedLike

__all__ = ["NetworkExpansion", "NetworkRollout", "TruncatedRollout"]


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


class TruncatedRollout(RolloutPolicy):
    """Depth-limited rollout scored by a value network (AlphaZero-style).

    Plays the guidance policy for at most ``depth_limit`` decisions; if
    the episode has not terminated, the remaining makespan is estimated by
    the value network and added to the elapsed time.  This extension of
    Spear caps rollout cost at the price of estimator bias.  Measured
    against full rollouts (DESIGN.md Sec. 16.8), it only ties them, at
    more plan time: late truncation (20 of 30 decisions) with a value
    net trained on the guiding policy's own samples.  Everywhere else a
    full rollout at the same or a smaller budget is better.

    Args:
        policy_network: the trained policy used to play the prefix.
        value_network: :class:`repro.rl.value_network.ValueNetwork`
            predicting remaining makespan from an observation.
        depth_limit: decisions to play before consulting the value net
            (>= 1).
        seed: sampling RNG for the prefix.
        work_conserving: action-filter setting (match the search's).
    """

    def __init__(
        self,
        policy_network: PolicyNetwork,
        value_network,
        depth_limit: int,
        seed: SeedLike = None,
        work_conserving: bool = True,
    ) -> None:
        if depth_limit < 1:
            raise ValueError("depth_limit must be >= 1")
        self._policy = NetworkPolicy(
            policy_network, mode="sample", seed=seed,
            work_conserving=work_conserving,
        )
        self._value = value_network
        self._depth_limit = depth_limit

    def rollout(self, env: SchedulingEnv) -> int:
        steps = 0
        while not env.done and steps < self._depth_limit:
            env.step(self._policy.select(env))
            steps += 1
        if env.done:
            return env.makespan
        # The policy's per-graph builder: a new one would recompute the
        # whole DAG's features on every rollout.
        builder = self._policy._ensure_builder(env)
        remaining = float(self._value.predict(builder.build(env))[0])
        # A terminal state can never precede the running tasks' finishes.
        floor = 0
        if not env.cluster.is_idle:
            floor = env.cluster.earliest_finish_time() - env.now
        return env.now + max(int(round(remaining)), floor, 1)
