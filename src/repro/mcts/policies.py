"""Expansion and rollout policies for MCTS.

Classic MCTS expands a random untried action and rolls out with a random
policy; Spear replaces both with a trained DRL agent (Sec. III).  The two
protocols here are the seam: :class:`RandomExpansion` / :class:`RandomRollout`
give the pure-MCTS baseline of Sec. V-B2, :class:`GreedyRollout` wraps any
heuristic policy (used both as a rollout and to produce the greedy
makespan estimate that scales the exploration constant), and
:mod:`repro.core.spear` provides the network-guided implementations.
:class:`RandomRollout` is the one rollout a pure-MCTS wave
(``MctsConfig.rollout_batch > 1``) accepts; it plays the wave's lanes one
call at a time, exactly as it plays a sequential search's single lane.
"""

from __future__ import annotations

import abc
from functools import partial
from typing import TYPE_CHECKING, Callable, List, Optional, Tuple

from ..dag.graph import TaskGraph
from ..env.actions import Action
from ..env.scheduling_env import SchedulingEnv
from ..schedulers.base import Policy
from ..utils.rng import SeedLike, as_generator

if TYPE_CHECKING:
    from .search import SearchStatistics

__all__ = [
    "ExpansionPolicy",
    "RolloutPolicy",
    "RandomExpansion",
    "RandomRollout",
    "GreedyRollout",
]


class _SearchHooks:
    """What a search tells its policies about its own extent."""

    def begin_search(self, env: SchedulingEnv) -> None:
        """Called once at the top of each ``plan()`` with the root state:
        the one place a policy resets what it keeps per search."""

    def end_search(self, stats: "SearchStatistics") -> None:
        """Called once when the ``plan()`` ends, also when it raises:
        release per-search state and fold counters into ``stats``."""


class ExpansionPolicy(_SearchHooks, abc.ABC):
    """Orders a node's untried actions from most to least promising.

    The search pops candidates from the front of the returned list, so the
    first element is the action expanded next ("the DRL agent will be able
    to choose the best unexplored node").
    """

    @abc.abstractmethod
    def prioritize(self, env: SchedulingEnv, actions: List[Action]) -> List[Action]:
        """Return ``actions`` reordered by descending priority."""


class RolloutPolicy(_SearchHooks, abc.ABC):
    """Simulates an episode to termination and returns its makespan."""

    #: Livelock guard: an episode may take this many decisions per unit of
    #: (total runtime + task count).  A livelocked rollout is a bug, not a
    #: result, so the cap is generous.
    max_steps_factor: int = 50

    _limit: Optional[Tuple[TaskGraph, int]] = None

    @abc.abstractmethod
    def rollout(self, env: SchedulingEnv) -> int:
        """Play ``env`` (mutating it) until done; return the makespan."""

    def step_limit(self, env: SchedulingEnv) -> int:
        """Decision cap for one episode on ``env``'s graph, computed once
        per graph (a search runs thousands of rollouts over one)."""
        limit = self._limit
        if limit is None or limit[0] is not env.graph:
            graph = env.graph
            limit = self._limit = (
                graph,
                self.max_steps_factor
                * (sum(task.runtime for task in graph) + graph.num_tasks),
            )
        return limit[1]


class RandomExpansion(ExpansionPolicy):
    """Classic MCTS: expand untried actions in uniformly random order."""

    def __init__(self, seed: SeedLike = None) -> None:
        self._rng = as_generator(seed)

    def prioritize(self, env: SchedulingEnv, actions: List[Action]) -> List[Action]:
        order = list(actions)
        self._rng.shuffle(order)
        return order


class _PolicyRollout(RolloutPolicy):
    """Shared machinery: run a :class:`Policy` to termination."""

    def __init__(self, policy_factory: Callable[[], Policy], max_steps_factor: int = 50) -> None:
        self._factory = policy_factory
        self.max_steps_factor = max_steps_factor

    def rollout(self, env: SchedulingEnv) -> int:
        policy = self._factory()
        policy.begin_episode(env)
        return policy.playout(env, self.step_limit(env))


class RandomRollout(_PolicyRollout):
    """Classic MCTS rollout: uniformly random work-conserving play."""

    def __init__(self, seed: SeedLike = None) -> None:
        from ..schedulers.policies import RandomPolicy

        rng = as_generator(seed)
        self._rng = rng
        super().__init__(lambda: RandomPolicy(seed=rng))

    def rollout(self, env: SchedulingEnv) -> int:
        """Delegate to the environment's fused random-playout loop.

        :meth:`SchedulingEnv.random_playout` is semantically identical to
        the generic :class:`_PolicyRollout` loop over
        ``RandomPolicy(work_conserving=True)`` — same action trajectory
        and the exact same RNG stream — but fuses the whole episode into
        one call (the equivalence tests compare final states and generator
        states).  MCTS runs thousands of these per decision — one per
        collected leaf, in waves as in the sequential search; it is the
        single hottest path in the library.
        """
        return env.random_playout(self._rng, self.step_limit(env))


class GreedyRollout(_PolicyRollout):
    """Rollout with a deterministic heuristic policy.

    Used for the greedy-packing makespan estimate that scales the UCB
    exploration constant (Sec. IV), and available as a stronger-than-random
    rollout in ablations.

    Args:
        policy_factory: builds the heuristic (default: Tetris packing).
    """

    def __init__(self, policy_factory: Callable[[], Policy] | None = None) -> None:
        if policy_factory is None:
            from ..schedulers.policies import greedy_policy

            policy_factory = partial(greedy_policy, "tetris")
        super().__init__(policy_factory)
