"""Dynamic rescheduling with graceful degradation.

:class:`ReschedulingScheduler` wraps a *planner* (typically MCTS or
Spear) so the online executor can replan the residual DAG on every
fault event.  Replanning a search-based scheduler is expensive, so the
wrapper enforces a per-event wall-clock budget: the first replan that
blows the budget flips the wrapper into *degraded mode*, where all
subsequent replans go to a cheap registered heuristic (HEFT or
critical-path) instead.  A planner error degrades immediately for that
event.  Degradation is graceful and observable — never an exception on
the serving path.

The wrapper is a :class:`~repro.schedulers.base.SchedulerWrapper`: it
keeps the planner's ``name``, forwards attribute access, and works as a
plain offline scheduler too (a request without a cluster plans on the
configured one).
"""

from __future__ import annotations

from typing import Optional

from ..errors import ConfigError, ReproError
from ..metrics.schedule import Schedule
from ..telemetry import runtime as _telemetry
from ..utils.timing import Stopwatch
from .base import Scheduler, SchedulerWrapper, ScheduleRequest

__all__ = ["ReschedulingScheduler"]


class ReschedulingScheduler(SchedulerWrapper):
    """Replanning wrapper with a time budget and a heuristic fallback.

    Args:
        planner: the primary (expensive) scheduler.
        fallback: cheap scheduler used once degraded or when the planner
            errors; ``None`` disables degradation (the planner is always
            used and its errors propagate).
        replan_budget: per-replan wall-clock budget in seconds.  A replan
            that *finishes* over budget still returns its (valid) result,
            but the wrapper degrades so the next event uses the fallback.
            ``None`` means unbudgeted.

    Attributes:
        replans: total :meth:`plan` calls served.
        fallback_replans: how many were served by the fallback.
        degraded: whether the wrapper has permanently switched over.
    """

    def __init__(
        self,
        planner: Scheduler,
        fallback: Optional[Scheduler] = None,
        replan_budget: Optional[float] = None,
    ) -> None:
        super().__init__(planner)
        if replan_budget is not None and replan_budget <= 0:
            raise ConfigError("replan_budget must be > 0 seconds")
        self.fallback = fallback
        self.replan_budget = replan_budget
        self.degraded = False
        self.replans = 0
        self.fallback_replans = 0

    def reset(self) -> None:
        """Clear degradation state and counters (new run, fresh budget)."""
        self.degraded = False
        self.replans = 0
        self.fallback_replans = 0

    def plan(self, request: ScheduleRequest) -> Schedule:
        """Plan ``request``, degrading to the fallback per the policy."""
        tm = _telemetry.active()
        self.replans += 1
        use_fallback = self.degraded and self.fallback is not None
        if use_fallback:
            self.fallback_replans += 1
            return self.fallback.plan(request)  # type: ignore[union-attr]
        watch = Stopwatch()
        try:
            with watch:
                schedule = self._inner.plan(request)
        except ReproError as exc:
            if self.fallback is None:
                raise
            self._degrade(tm, request, reason=f"planner error: {exc}")
            self.fallback_replans += 1
            return self.fallback.plan(request)
        if (
            self.replan_budget is not None
            and self.fallback is not None
            and watch.elapsed > self.replan_budget
        ):
            self._degrade(
                tm,
                request,
                reason=(
                    f"replan took {watch.elapsed:.3f}s "
                    f"(budget {self.replan_budget:.3f}s)"
                ),
            )
        return schedule

    def _degrade(self, tm, request: ScheduleRequest, reason: str) -> None:
        if self.degraded:
            return
        self.degraded = True
        if tm.enabled:
            tm.event(
                "reschedule.degraded",
                scheduler=self.name,
                fallback=self.fallback.name if self.fallback else "",
                tasks=request.graph.num_tasks,
                reason=reason,
            )
            tm.inc("reschedule.degradations")

    def __repr__(self) -> str:
        fb = self.fallback.name if self.fallback is not None else None
        return (
            f"ReschedulingScheduler({self._inner!r}, fallback={fb!r}, "
            f"budget={self.replan_budget!r}, degraded={self.degraded})"
        )
