"""Graphene baseline (Grandl et al., OSDI 2016), re-implemented from
scratch per Sec. V-A of the Spear paper.

Graphene plans in an *offline* virtual resource-time space and executes
the derived task order *online*:

1. **Identify troublesome tasks** ``T``: tasks whose runtime is at least
   ``threshold x max_runtime``, or whose demand in some dimension is at
   least ``demand_threshold x capacity``.  The Spear evaluation sweeps the
   runtime threshold over {0.2, 0.4, 0.6, 0.8} per DAG and keeps the best
   result.
2. **Place ``T`` first** in an empty virtual space, in descending order of
   runtime (the design decision the Spear paper criticizes), using either
   *forward* placement (earliest feasible start from time 0) or *backward*
   placement (latest feasible start below a horizon — packing from the top
   of the time axis).  Both strategies are always tried.
3. **Place the remaining tasks** in topological order at their earliest
   feasible start after all already-placed parents finish; this fills the
   space around ``T`` while keeping parents before children.
4. **Derive a total order** by virtual start time and execute it with a
   dependency- and capacity-respecting online list scheduler (a
   :class:`GreedyPolicy` over :func:`plan_priority_ranker`).  Virtual placements may violate
   dependencies around the pre-placed ``T`` tasks; the online pass
   guarantees the final schedule is feasible regardless.

The best makespan over ``len(thresholds) x 2`` candidate plans is returned.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..cluster.resources import validate_demands
from ..config import EnvConfig, GrapheneConfig
from ..dag.analysis import makespan_lower_bound
from ..dag.graph import TaskGraph
from ..env.scheduling_env import SchedulingEnv
from ..errors import CapacityError, PlacementError
from ..metrics.schedule import Schedule
from ..utils.timing import Stopwatch
from .base import (
    GreedyPolicy,
    Scheduler,
    ScheduleRequest,
    _planning_config,
    run_policy,
)
from .rules import plan_priority_ranker

__all__ = ["GrapheneScheduler", "GraphenePlan"]


@dataclass(frozen=True)
class GraphenePlan:
    """One candidate plan: the derived order and its provenance."""

    order: Tuple[int, ...]
    threshold: float
    direction: str  # "forward" | "backward"
    troublesome: Tuple[int, ...]
    virtual_makespan: int


class ResourceProfile:
    """The virtual resource-time space of Sec. III-B as a step function.

    "Each resource dimension can be expressed as a separate rectangle with
    the width representing the capacity and the height denoting the time
    span."  Usage only changes where a placed task starts or ends, so the
    space is kept as sorted breakpoints ``times`` and the usage of each
    segment ``[times[i], times[i + 1])``.  The last segment is empty and
    runs forever, so a demand within capacity always fits somewhere and
    the space never has to be sized in advance.

    Args:
        capacities: slots per resource dimension.
    """

    def __init__(self, capacities: Sequence[int]) -> None:
        if not capacities or any(c <= 0 for c in capacities):
            raise CapacityError(f"invalid capacities {tuple(capacities)}")
        self.capacities: Tuple[int, ...] = tuple(int(c) for c in capacities)
        self._times: List[int] = [0]
        self._usage: List[Tuple[int, ...]] = [(0,) * len(self.capacities)]

    def _check(self, demands: Sequence[int], duration: int) -> None:
        if duration < 1:
            raise PlacementError("duration must be >= 1")
        validate_demands(demands, self.capacities, label="placement")

    def _blocks(self, segment: int, demands: Sequence[int]) -> bool:
        """True iff ``demands`` do not fit on top of ``segment``'s usage."""
        return any(
            used + demand > capacity
            for used, demand, capacity in zip(
                self._usage[segment], demands, self.capacities
            )
        )

    def earliest_start(
        self, demands: Sequence[int], duration: int, not_before: int = 0
    ) -> int:
        """Earliest ``t >= not_before`` at which the rectangle fits."""
        self._check(demands, duration)
        start = max(0, int(not_before))
        segment = bisect_right(self._times, start) - 1
        while True:
            end = start + duration
            while segment < len(self._times) and self._times[segment] < end:
                if self._blocks(segment, demands):
                    break
                segment += 1
            else:
                return start
            # Every start before the blocking segment ends overlaps it.
            segment += 1
            start = self._times[segment]

    def latest_start(
        self, demands: Sequence[int], duration: int, deadline: int
    ) -> Optional[int]:
        """Latest ``t >= 0`` with ``t + duration <= deadline`` at which the
        rectangle fits; ``None`` if no such ``t`` exists.

        This is the primitive behind Graphene's *backward* placement, which
        packs troublesome tasks from the top of the time horizon downward.
        """
        self._check(demands, duration)
        start = int(deadline) - int(duration)
        while start >= 0:
            segment = bisect_left(self._times, start + duration) - 1
            while not self._blocks(segment, demands):
                if self._times[segment] <= start:
                    return start
                segment -= 1
            # Every start after the blocking segment begins overlaps it.
            start = self._times[segment] - duration
        return None

    def _split(self, t: int) -> int:
        """Index of the segment starting at ``t``, splitting one if needed."""
        segment = bisect_right(self._times, t) - 1
        if self._times[segment] == t:
            return segment
        self._times.insert(segment + 1, t)
        self._usage.insert(segment + 1, self._usage[segment])
        return segment + 1

    def place(self, demands: Sequence[int], start: int, duration: int) -> None:
        """Occupy ``demands`` during ``[start, start + duration)``.

        Raises:
            PlacementError: if the rectangle does not fit there.
        """
        if start < 0:
            raise PlacementError(f"cannot place at t={start} < 0")
        self._check(demands, duration)
        first, last = self._split(start), self._split(start + duration)
        if any(self._blocks(segment, demands) for segment in range(first, last)):
            raise PlacementError(
                f"demands {tuple(demands)} do not fit at t={start} "
                f"for {duration} slots"
            )
        for segment in range(first, last):
            self._usage[segment] = tuple(
                used + demand for used, demand in zip(self._usage[segment], demands)
            )

    def makespan(self) -> int:
        """End of the last occupied segment (0 if the space is empty)."""
        for segment in range(len(self._times) - 2, -1, -1):
            if any(self._usage[segment]):
                return self._times[segment + 1]
        return 0


class GrapheneScheduler(Scheduler):
    """Graphene: troublesome-task-first planning + online packing.

    Args:
        config: Graphene parameters (thresholds, demand criterion, backward
            horizon factor).
        env_config: environment used for the online execution pass; its
            capacities define the virtual space as well.
    """

    name = "graphene"

    def __init__(
        self,
        config: GrapheneConfig | None = None,
        env_config: EnvConfig | None = None,
    ) -> None:
        self.config = config if config is not None else GrapheneConfig()
        self.env_config = env_config if env_config is not None else EnvConfig()

    # ------------------------------------------------------------------ #
    # planning
    # ------------------------------------------------------------------ #

    def identify_troublesome(
        self, graph: TaskGraph, threshold: float
    ) -> List[int]:
        """Tasks that are long (relative to the DAG's max runtime) or
        resource-hungry (relative to capacity) — the set Graphene
        prioritizes."""
        capacities = self.env_config.cluster.capacities
        max_runtime = max(task.runtime for task in graph)
        troublesome = []
        for task in graph:
            long_running = task.runtime >= threshold * max_runtime
            hungry = any(
                demand >= self.config.demand_threshold * capacity
                for demand, capacity in zip(task.demands, capacities)
            )
            if long_running or hungry:
                troublesome.append(task.task_id)
        return troublesome

    def _place_troublesome(
        self,
        graph: TaskGraph,
        space: ResourceProfile,
        troublesome: Sequence[int],
        direction: str,
    ) -> Dict[int, int]:
        """Pack the troublesome set into an empty space; return start times.

        Descending-runtime order in both directions (the Graphene rule the
        Spear paper calls out).  Backward placement packs against a horizon
        proportional to the job's makespan lower bound, growing it if a
        task cannot fit below it.
        """
        bound = makespan_lower_bound(graph, self.env_config.cluster.capacities)
        horizon = max(1, int(self.config.space_time_horizon_factor * bound))
        starts: Dict[int, int] = {}
        ordered = sorted(troublesome, key=lambda tid: (-graph.task(tid).runtime, tid))
        for tid in ordered:
            task = graph.task(tid)
            start = (
                space.earliest_start(task.demands, task.runtime)
                if direction == "forward"
                else space.latest_start(task.demands, task.runtime, horizon)
            )
            while start is None:
                horizon *= 2
                start = space.latest_start(task.demands, task.runtime, horizon)
            space.place(task.demands, start, task.runtime)
            starts[tid] = start
        return starts

    def build_plan(
        self, graph: TaskGraph, threshold: float, direction: str
    ) -> GraphenePlan:
        """Construct one candidate plan for (threshold, direction)."""
        space = ResourceProfile(self.env_config.cluster.capacities)
        troublesome = self.identify_troublesome(graph, threshold)
        starts = self._place_troublesome(graph, space, troublesome, direction)

        for tid in graph.topological_order():
            if tid in starts:
                continue
            task = graph.task(tid)
            ready_after = 0
            for parent in graph.parents(tid):
                if parent in starts:
                    ready_after = max(
                        ready_after, starts[parent] + graph.task(parent).runtime
                    )
            start = space.earliest_start(
                task.demands, task.runtime, not_before=ready_after
            )
            space.place(task.demands, start, task.runtime)
            starts[tid] = start

        order = tuple(sorted(starts, key=lambda tid: (starts[tid], tid)))
        return GraphenePlan(
            order=order,
            threshold=threshold,
            direction=direction,
            troublesome=tuple(sorted(troublesome)),
            virtual_makespan=space.makespan(),
        )

    def candidate_plans(self, graph: TaskGraph) -> List[GraphenePlan]:
        """All ``thresholds x {forward, backward}`` candidate plans."""
        return [
            self.build_plan(graph, threshold, direction)
            for threshold in self.config.thresholds
            for direction in ("forward", "backward")
        ]

    # ------------------------------------------------------------------ #
    # scheduling
    # ------------------------------------------------------------------ #

    def plan(self, request: ScheduleRequest) -> Schedule:
        """Plan, execute every candidate online, return the best schedule.

        A request whose cluster snapshot carries other capacities (a
        degraded cluster) is planned — virtual space, troublesome set and
        online pass alike — by this planner configured for them.
        """
        env_config = _planning_config(self.env_config, request)
        planner = (
            self
            if env_config is self.env_config
            else GrapheneScheduler(self.config, env_config)
        )
        return planner._best_schedule(request.graph)

    def _best_schedule(self, graph: TaskGraph) -> Schedule:
        watch = Stopwatch()
        best: Optional[Schedule] = None
        with watch:
            for plan in self.candidate_plans(graph):
                env = SchedulingEnv(graph, self.env_config)
                policy = GreedyPolicy(plan_priority_ranker([plan.order]), self.name)
                candidate = run_policy(env, policy)
                if best is None or candidate.makespan < best.makespan:
                    best = candidate
        assert best is not None  # candidate_plans is never empty
        return Schedule(best.placements, scheduler=self.name, wall_time=watch.elapsed)
