"""Schedule records and feasibility validation.

A :class:`Schedule` is the output of every scheduler in the library: for
each task, the slot at which it started.  :func:`validate_schedule` checks
the invariants any feasible schedule must satisfy:

1. **Completeness** — every task in the graph is scheduled exactly once.
2. **Dependencies** — no task starts before all of its parents finished.
3. **Capacity** — at every time slot, the summed demands of concurrently
   running tasks fit within cluster capacity in every dimension.

The checks themselves live in :mod:`repro.analysis.verifier`, which
returns structured :class:`repro.analysis.Violation` records;
:func:`validate_schedule` is the raising facade.  Property-based tests
drive random schedulers through the environment and assert these
invariants on everything they emit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

from ..dag.graph import TaskGraph
from ..errors import ScheduleError

__all__ = ["ScheduledTask", "Schedule", "validate_schedule"]


@dataclass(frozen=True)
class ScheduledTask:
    """One task's placement: ``[start, finish)`` in time slots."""

    task_id: int
    start: int
    finish: int

    def __post_init__(self) -> None:
        if self.start < 0:
            raise ScheduleError(f"task {self.task_id}: negative start")
        if self.finish <= self.start:
            raise ScheduleError(
                f"task {self.task_id}: finish {self.finish} <= start {self.start}"
            )

    @property
    def duration(self) -> int:
        """Occupied slots."""
        return self.finish - self.start


@dataclass(frozen=True)
class Schedule:
    """A complete schedule for one job.

    Attributes:
        placements: one :class:`ScheduledTask` per task.
        scheduler: name of the scheduler that produced it.
        wall_time: seconds the scheduler spent deciding (not simulated time).
    """

    placements: Tuple[ScheduledTask, ...]
    scheduler: str = "unknown"
    wall_time: float = 0.0

    @staticmethod
    def from_starts(
        starts: Dict[int, int],
        graph: TaskGraph,
        scheduler: str = "unknown",
        wall_time: float = 0.0,
    ) -> "Schedule":
        """Build a schedule from a ``task_id -> start_slot`` mapping, taking
        durations from the graph.

        Raises:
            ScheduleError: on a negative start.
            UnknownTaskError: on an id the graph does not hold.
        """
        runtimes = graph.runtime_table()
        try:
            placements = tuple(
                ScheduledTask(tid, start, start + runtimes[tid])
                for tid, start in sorted(starts.items())
            )
        except KeyError as exc:
            graph.task(exc.args[0])  # raises UnknownTaskError for the id
            raise
        return Schedule(placements, scheduler=scheduler, wall_time=wall_time)

    @property
    def makespan(self) -> int:
        """Finish time of the last task (0 for an empty schedule)."""
        return max((p.finish for p in self.placements), default=0)

    @property
    def num_tasks(self) -> int:
        """Number of scheduled tasks."""
        return len(self.placements)

    def start_of(self, task_id: int) -> int:
        """Start slot of ``task_id``.

        Raises:
            ScheduleError: if the task is not in the schedule.
        """
        for placement in self.placements:
            if placement.task_id == task_id:
                return placement.start
        raise ScheduleError(f"task {task_id} not in schedule")

    def as_dict(self) -> Dict[int, Tuple[int, int]]:
        """Mapping ``task_id -> (start, finish)``."""
        return {p.task_id: (p.start, p.finish) for p in self.placements}


def validate_schedule(
    schedule: Schedule,
    graph: TaskGraph,
    capacities: Sequence[int],
) -> None:
    """Check every feasibility invariant; raise on the first violation.

    This is the raising facade over :mod:`repro.analysis.verifier`, which
    collects *all* violations as structured records; use the verifier
    directly when you want the full report instead of an exception.

    Raises:
        ScheduleError: naming the violated invariant, the offending task(s)
            and the time slot involved.
    """

    from ..analysis.verifier import verify_schedule  # local: avoids a cycle

    verify_schedule(schedule, graph, capacities).raise_if_violations()
