"""Classic list-scheduling baselines from the DAG-scheduling literature.

The paper's related work (Sec. VI) groups "dependency-aware task
scheduling that doesn't consider the varying resource demands" — the
classic heuristics of Kwok & Ahmad's survey [15].  This module provides
the representative members, adapted to the multi-resource cluster model so
they are directly comparable with Spear:

* :class:`HeftPolicy` — Heterogeneous Earliest Finish Time: rank tasks by
  *upward rank* (b-level with mean runtimes — identical to b-level in our
  single-speed cluster) and start the highest-ranked fitting task.  The
  canonical processor-selection step degenerates in an aggregate resource
  pool, leaving exactly the rank order, which is what the paper's "CP"
  baseline family captures; HEFT is kept distinct because its rank breaks
  ties by *mean* b-level of children rather than out-degree.
* :class:`LptPolicy` — Longest Processing Time first (the makespan
  counterpart of SJF).
* :class:`FifoPolicy` — arrival order (Hadoop's default queue), the
  weakest sensible baseline.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..env.actions import Action
from ..env.scheduling_env import SchedulingEnv
from .base import GreedyPolicy

__all__ = ["HeftPolicy", "LptPolicy", "FifoPolicy"]


class HeftPolicy(GreedyPolicy):
    """HEFT-style upward-rank list scheduling.

    The upward rank of a task is its runtime plus the maximum over
    children of (mean communication cost + child rank); with co-located
    data (no network model, matching the paper's cluster abstraction) the
    communication term is zero, and the rank recursion differs from
    b-level only in its tiebreak: the *mean* child rank is used to order
    equal-rank tasks, favouring tasks whose entire downstream subtree is
    heavy rather than just its heaviest path.
    """

    name = "heft"

    def __init__(self) -> None:
        self._rank: Optional[Dict[int, float]] = None
        self._mean_rank: Optional[Dict[int, float]] = None

    def begin_episode(self, env: SchedulingEnv) -> None:
        graph = env.graph
        rank: Dict[int, float] = {}
        mean_rank: Dict[int, float] = {}
        for tid in reversed(graph.topological_order()):
            task = graph.task(tid)
            kids = graph.children(tid)
            if not kids:
                rank[tid] = float(task.runtime)
                mean_rank[tid] = float(task.runtime)
            else:
                rank[tid] = task.runtime + max(rank[k] for k in kids)
                mean_rank[tid] = task.runtime + sum(rank[k] for k in kids) / len(kids)
        self._rank = rank
        self._mean_rank = mean_rank

    def choose(self, env: SchedulingEnv, fitting: List[Action]) -> Action:
        if self._rank is None:
            self.begin_episode(env)
        assert self._rank is not None and self._mean_rank is not None
        visible = env.visible_ready()
        return min(
            fitting,
            key=lambda a: (
                -self._rank[visible[a]],
                -self._mean_rank[visible[a]],
                visible[a],
            ),
        )


class LptPolicy(GreedyPolicy):
    """Longest Processing Time first (greedy makespan heuristic)."""

    name = "lpt"

    def choose(self, env: SchedulingEnv, fitting: List[Action]) -> Action:
        visible = env.visible_ready()
        return min(
            fitting,
            key=lambda a: (-env.graph.task(visible[a]).runtime, visible[a]),
        )


class FifoPolicy(GreedyPolicy):
    """Arrival (ready-queue) order — Hadoop's default FIFO behaviour."""

    name = "fifo"

    def choose(self, env: SchedulingEnv, fitting: List[Action]) -> Action:
        # The visible window is already in arrival order.
        return min(fitting)
