"""Episode recording and return computation shared by the rollout trainers.

A trainer plays each episode through the fused playout
(:meth:`repro.rl.agent.NetworkPolicyBase.playout`) with an
:class:`EpisodeRecorder` attached.  Most states of an episode are
*forced* — one candidate action — and the masked softmax there is
exactly one-hot, so the step's log-probability, entropy and every
gradient of them are exactly 0 (paper Eq. 3 sums terms that vanish).  A
forced move therefore records only the clock; a *decision* records
observation, mask, chosen index, the probability the policy drew it
with and its position among the episode's steps.  Rewards still cover
every step (``-dt`` per processing step, 0 per start), and follow from
the clocks.  The trainers run every policy pass on decisions only and
keep the full step count as the normaliser (DESIGN.md Sec. 16.3).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List

import numpy as np

from ..env.scheduling_env import SchedulingEnv

__all__ = [
    "Decision",
    "EpisodeRecorder",
    "Trajectory",
    "rollout_trajectory",
    "returns_to_go",
]


@dataclass(frozen=True)
class Decision:
    """One recorded state: observation, mask, the chosen network-action
    index, the position of the step in its episode, and the probability
    the policy gave that action when it drew it (PPO's ``pi_old``; NaN
    for a teacher's choice)."""

    observation: Any
    mask: np.ndarray
    action_index: int
    position: int
    probability: float


@dataclass(frozen=True)
class Trajectory:
    """A full episode: its decisions, the reward of every step and its
    makespan.  ``states`` holds the observation of every step (forced
    ones included) when the episode was recorded for a critic, and is
    empty otherwise."""

    decisions: List[Decision]
    rewards: np.ndarray
    makespan: int
    states: List[Any] = field(default_factory=list)

    @property
    def total_reward(self) -> int:
        """Sum of rewards; equals ``-makespan`` from a fresh environment."""
        return int(self.rewards.sum())

    def __len__(self) -> int:
        """The number of steps, forced and decided."""
        return len(self.rewards)


class EpisodeRecorder:
    """What :meth:`NetworkPolicyBase.playout` records of one episode.

    The playout calls :meth:`forced` on every single-candidate move
    (after the sampling policy's one uniform) and :meth:`decided` on
    every decision, both before the move is applied.

    Args:
        every_state: also keep the observation of every state for a
            critic — a forced state's is built (no forward), a decision's
            is the one the policy built.
    """

    __slots__ = ("every_state", "decisions", "clocks", "states")

    def __init__(self, every_state: bool = False) -> None:
        self.every_state = every_state
        self.decisions: List[Decision] = []
        #: The clock before every step, forced or decided.
        self.clocks: List[int] = []
        self.states: List[Any] = []

    def forced(self, env: SchedulingEnv, builder) -> None:
        self.clocks.append(env.now)
        if self.every_state:
            self.states.append(builder.build(env))

    def decided(
        self,
        env: SchedulingEnv,
        observation,
        mask: np.ndarray,
        index: int,
        probability: float,
    ) -> None:
        self.decisions.append(
            Decision(observation, mask, index, len(self.clocks), probability)
        )
        self.clocks.append(env.now)
        if self.every_state:
            self.states.append(observation)

    def trajectory(self, makespan: int) -> Trajectory:
        """The recorded episode, ended at ``makespan``: a step's reward is
        the clock before it minus the clock after it."""
        clocks = np.asarray(self.clocks + [makespan], dtype=np.float64)
        return Trajectory(
            self.decisions, clocks[:-1] - clocks[1:], makespan, self.states
        )


def rollout_trajectory(
    env: SchedulingEnv,
    policy,
    max_steps: int,
    every_state: bool = False,
) -> Trajectory:
    """Play ``policy`` (a network policy) on ``env`` to termination through
    its fused playout, recording every decision.

    Raises:
        EnvironmentStateError: if ``max_steps`` is exceeded (livelock guard).
    """

    recorder = EpisodeRecorder(every_state)
    makespan = policy.playout(env, max_steps, recorder)
    return recorder.trajectory(makespan)


def returns_to_go(trajectory: Trajectory, gamma: float = 1.0) -> np.ndarray:
    """Reward-to-go ``G_t = sum_k gamma^(k-t) r_k`` per step.

    Undiscounted (the default, and REINFORCE's), ``G_0`` equals the
    negative makespan; schedule actions (reward 0) inherit the return of
    the remaining episode.
    """

    rewards = trajectory.rewards
    if gamma == 1.0:
        return np.cumsum(rewards[::-1])[::-1].copy()
    returns = np.empty_like(rewards)
    acc = 0.0
    for t in range(len(rewards) - 1, -1, -1):
        acc = rewards[t] + gamma * acc
        returns[t] = acc
    return returns
