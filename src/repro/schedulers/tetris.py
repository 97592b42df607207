"""The Tetris baseline: multi-resource alignment-score packing.

Tetris (Grandl et al., SIGCOMM 2014) schedules the task whose demand vector
best *aligns* with the currently free resources: the score of a fitting
task is the dot product of its demand vector and the free-capacity vector.
Large tasks that use the dominant free resource score highest, which packs
the cluster tightly — but the heuristic is dependency-blind, the weakness
Fig. 3 of the Spear paper exploits.
"""

from __future__ import annotations

from typing import List

from ..env.actions import Action
from ..env.scheduling_env import SchedulingEnv
from .base import GreedyPolicy

__all__ = ["TetrisPolicy", "alignment_score"]


def alignment_score(demands, available) -> int:
    """Tetris packing score: ``dot(demands, available)``.

    Exact integer arithmetic; higher is better.
    """

    return sum(d * a for d, a in zip(demands, available))


class TetrisPolicy(GreedyPolicy):
    """Greedy alignment-score packing (dependency-blind).

    Among the visible ready tasks that fit, start the one with the highest
    :func:`alignment_score` against the current free capacity; break ties
    with the smaller task id; process when nothing fits.
    """

    name = "tetris"

    def choose(self, env: SchedulingEnv, fitting: List[Action]) -> Action:
        # ``min(fitting, key=(-alignment_score(...), task id))`` as a plain
        # loop: this is the served heuristic, and the key tuples, the
        # lambda and the generator frames of the ``min`` form were a sixth
        # of a 100-task plan (DESIGN.md Sec. 16.7).
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
