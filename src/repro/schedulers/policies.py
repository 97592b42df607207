"""Greedy baseline policies: Random, SJF, CP, and priority-list execution.

All of these are *work-conserving*: whenever a visible ready task fits in
free capacity, one is started; only when nothing fits does the policy
process the cluster.  They differ purely in how they rank the fitting
tasks, which isolates exactly the axis the paper compares — and which is
all a :class:`~repro.schedulers.base.GreedyPolicy` subclass spells out.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..dag.features import GraphFeatures, compute_features
from ..env.actions import Action
from ..env.scheduling_env import SchedulingEnv
from ..errors import EnvironmentStateError
from ..utils.rng import SeedLike, as_generator
from .base import GreedyPolicy, Policy

__all__ = [
    "RandomPolicy",
    "SjfPolicy",
    "CriticalPathPolicy",
    "PriorityListPolicy",
]


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


class SjfPolicy(GreedyPolicy):
    """Shortest Job First: start the fitting task with the least runtime.

    Ties break on smaller task id.  Dependency- and packing-blind; one of
    the Sec. V baselines.
    """

    name = "sjf"

    def choose(self, env: SchedulingEnv, fitting: List[Action]) -> Action:
        visible = env.visible_ready()
        return min(
            fitting,
            key=lambda a: (env.graph.task(visible[a]).runtime, visible[a]),
        )


class CriticalPathPolicy(GreedyPolicy):
    """Largest b-level first (the "CP" baseline of Sec. V).

    Ranks fitting tasks by descending b-level, breaking ties by descending
    number of children then ascending id — the classic list-scheduling
    priority the paper cites from the DAG-scheduling literature.
    """

    name = "cp"

    def __init__(self) -> None:
        self._features: Optional[GraphFeatures] = None

    def begin_episode(self, env: SchedulingEnv) -> None:
        self._features = compute_features(env.graph)

    def choose(self, env: SchedulingEnv, fitting: List[Action]) -> Action:
        if self._features is None:
            self._features = compute_features(env.graph)
        visible = env.visible_ready()
        features = self._features
        return min(
            fitting,
            key=lambda a: (
                -features.b_level[visible[a]],
                -features.num_children[visible[a]],
                visible[a],
            ),
        )


class PriorityListPolicy(GreedyPolicy):
    """Execute tasks according to a fixed total priority order.

    Used to realize planner outputs (Graphene's derived order) as an online
    schedule: among the fitting visible tasks, always start the one ranked
    earliest in ``order``; process when nothing fits.  Tasks missing from
    ``order`` rank last (by id).

    Args:
        order: task ids from highest to lowest priority.
        name: report label.
    """

    def __init__(self, order: Sequence[int], name: str = "priority-list") -> None:
        self.name = name
        self._rank: Dict[int, int] = {tid: i for i, tid in enumerate(order)}

    def choose(self, env: SchedulingEnv, fitting: List[Action]) -> Action:
        visible = env.visible_ready()
        fallback = len(self._rank)
        return min(
            fitting,
            key=lambda a: (self._rank.get(visible[a], fallback), visible[a]),
        )
