"""The offline baseline policies: Random, and the list heuristics.

Every list heuristic is *work-conserving*: whenever a visible ready task
fits in free capacity, one is started; only when nothing fits does the
policy process the cluster.  They differ purely in how they rank the
fitting tasks, which isolates exactly the axis the paper compares — one
:mod:`~repro.schedulers.rules` key each, run by
:class:`~repro.schedulers.base.GreedyPolicy` (:func:`greedy_policy`
builds one by name).
"""

from __future__ import annotations

from typing import List

from ..env.actions import Action
from ..env.scheduling_env import SchedulingEnv
from ..errors import EnvironmentStateError
from ..utils.rng import SeedLike, as_generator
from .base import GreedyPolicy, Policy
from .rules import RANKERS, tetris_ranker

__all__ = ["RandomPolicy", "TetrisPolicy", "greedy_policy"]


class RandomPolicy(Policy):
    """Uniformly random choice among legal actions.

    The classic-MCTS rollout policy; also the "completely random network"
    strawman of Sec. IV.  With ``work_conserving=True`` (default) it picks
    uniformly among fitting tasks and only processes when nothing fits,
    which keeps rollouts short; with ``False`` it samples the full legal
    action set, including voluntary processing.  A single candidate is
    returned without a draw (``integers(0, 1)`` would leave the generator
    where it was anyway), so the stream is the one
    :meth:`SchedulingEnv.random_playout` consumes.
    """

    name = "random"

    def __init__(self, seed: SeedLike = None, work_conserving: bool = True) -> None:
        self._rng = as_generator(seed)
        self._work_conserving = work_conserving

    def select(self, env: SchedulingEnv) -> Action:
        actions = (
            env.expansion_actions(work_conserving=True)
            if self._work_conserving
            else env.legal_actions()
        )
        if not actions:
            raise EnvironmentStateError("no legal actions")
        if len(actions) == 1:
            return actions[0]
        return actions[int(self._rng.integers(0, len(actions)))]


class TetrisPolicy(GreedyPolicy):
    """Greedy alignment-score packing (Tetris, Grandl et al., SIGCOMM
    2014): the served heuristic, with :func:`tetris_ranker` evaluated by
    a plain loop.

    The loop starts the fitting task with the highest alignment score
    against the free capacity, ties to the smaller task id: the smallest
    ``tetris_ranker`` key of one job.  Without the key tuples, the
    lambda and the context objects of the generic :meth:`choose`, a
    100-task plan takes a fifth less time (DESIGN.md Sec. 16.7).
    """

    def __init__(self) -> None:
        super().__init__(tetris_ranker, "tetris")

    def choose(self, env: SchedulingEnv, fitting: List[Action]) -> Action:
        visible = env.visible_ready()
        available = env.cluster.available
        demands_of = env.graph.demand_table()
        best = fitting[0]
        best_score = best_tid = -1
        for action in fitting:
            tid = visible[action]
            score = 0
            for demand, free in zip(demands_of[tid], available):
                score += demand * free
            if score > best_score or (score == best_score and tid < best_tid):
                best, best_score, best_tid = action, score, tid
        return best


def greedy_policy(name: str) -> GreedyPolicy:
    """A fresh offline policy for the named rule of
    :data:`~repro.schedulers.rules.RANKERS`."""
    if name == "tetris":
        return TetrisPolicy()
    return GreedyPolicy(RANKERS[name], name)
