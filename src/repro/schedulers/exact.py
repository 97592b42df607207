"""Exact makespan minimization by depth-first branch and bound.

Only tractable for small instances (roughly <= 12 tasks), but invaluable:
tests use it to certify that MCTS/Spear reach the true optimum on the
motivating example and on randomized small DAGs, and the ablation harness
uses it to measure each heuristic's optimality gap.

The search branches over the environment's *full* legal action set
(including voluntary processing), so it explores non-work-conserving
schedules too; correctness does not rest on the work-conservation
assumption.  Pruning:

* **lower bound** — ``now + max(remaining critical path, remaining work /
  capacity, latest running finish - now)`` must beat the incumbent;
* **transposition table** — states reached twice with the same signature
  at an equal-or-later time are cut.
"""

from __future__ import annotations

import math
from typing import Dict, Optional, Tuple

from ..config import EnvConfig
from ..dag.features import compute_features
from ..dag.graph import TaskGraph
from ..env.actions import PROCESS
from ..env.scheduling_env import SchedulingEnv
from ..errors import ScheduleError
from ..metrics.schedule import Schedule
from ..utils.timing import Stopwatch
from .base import Scheduler, ScheduleRequest, _planning_config

__all__ = ["BranchAndBoundScheduler"]


class BranchAndBoundScheduler(Scheduler):
    """Optimal scheduler for small DAGs.

    Args:
        env_config: environment (capacities) to schedule into.
        max_nodes: search-node budget; exceeding it raises
            :class:`ScheduleError` rather than silently returning a
            suboptimal answer (exactness is the whole point).
    """

    name = "optimal"

    def __init__(
        self,
        env_config: EnvConfig | None = None,
        max_nodes: int = 2_000_000,
    ) -> None:
        self.env_config = env_config if env_config is not None else EnvConfig()
        self.max_nodes = max_nodes

    def plan(self, request: ScheduleRequest) -> Schedule:
        graph = request.graph
        watch = Stopwatch()
        with watch:
            makespan, starts = self._search(
                graph, _planning_config(self.env_config, request)
            )
        if starts is None:
            raise ScheduleError("branch and bound failed to find any schedule")
        return Schedule.from_starts(
            starts, graph, scheduler=self.name, wall_time=watch.elapsed
        )

    # ------------------------------------------------------------------ #

    def _search(
        self, graph: TaskGraph, env_config: EnvConfig
    ) -> Tuple[int, Optional[Dict[int, int]]]:
        features = compute_features(graph)
        capacities = env_config.cluster.capacities
        b_level = features.b_level
        runtimes = {task.task_id: task.runtime for task in graph}
        work = {
            r: {task.task_id: task.load(r) for task in graph}
            for r in range(graph.num_resources)
        }

        root = SchedulingEnv(graph, env_config)
        best_makespan = math.inf
        best_starts: Optional[Dict[int, int]] = None
        seen: Dict[Tuple, int] = {}
        nodes = 0

        def lower_bound(env: SchedulingEnv) -> int:
            now = env.cluster.now
            unfinished = env.unfinished_ids()
            if not unfinished:
                return now
            running = {e.task_id: e.finish_time for e in env.cluster.running_tasks()}
            # Dependency bound: every unstarted task still needs its full
            # b-level; every running task needs its remaining b-level.
            dep_bound = 0
            for tid in unfinished:
                if tid in running:
                    remaining = (running[tid] - now) + (
                        b_level[tid] - runtimes[tid]
                    )
                else:
                    remaining = b_level[tid]
                dep_bound = max(dep_bound, remaining)
            # Work bound per resource (remaining runtime of running tasks
            # counts its demand exactly).
            work_bound = 0
            for r, capacity in enumerate(capacities):
                volume = 0
                for tid in unfinished:
                    if tid in running:
                        volume += (running[tid] - now) * graph.task(tid).demands[r]
                    else:
                        volume += work[r][tid]
                work_bound = max(work_bound, math.ceil(volume / capacity))
            return now + max(dep_bound, work_bound)

        def dfs(env: SchedulingEnv) -> None:
            nonlocal best_makespan, best_starts, nodes
            nodes += 1
            if nodes > self.max_nodes:
                raise ScheduleError(
                    f"branch and bound exceeded {self.max_nodes} nodes; "
                    "instance too large for exact search"
                )
            if env.done:
                if env.makespan < best_makespan:
                    best_makespan = env.makespan
                    best_starts = env.start_times()
                return
            if lower_bound(env) >= best_makespan:
                return
            signature = env.signature()
            previous = seen.get(signature)
            if previous is not None and previous <= env.cluster.now:
                return
            seen[signature] = env.cluster.now

            actions = env.legal_actions()
            # Explore schedule actions ordered by descending b-level first
            # (good incumbents early), PROCESS last.
            def order_key(action: int) -> Tuple:
                if action == PROCESS:
                    return (1, 0)
                tid = env.visible_ready()[action]
                return (0, -b_level[tid], tid)

            for action in sorted(actions, key=order_key):
                child = env.clone()
                child.step(action)
                dfs(child)

        dfs(root)
        if best_starts is None:
            return (0, None)
        return (int(best_makespan), best_starts)
