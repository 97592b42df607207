"""Public record types of the online simulation, and its verifier.

These are the simulator's inputs and outputs — the stable surface the
CLI, benchmarks and experiments consume.  They live apart from the
engine so every layer (workload, execution, policy, reporting) can
import them without cycles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

from ..dag.graph import TaskGraph
from ..errors import ConfigError
from ..faults.events import FaultEvent
from ..metrics.schedule import Schedule

__all__ = ["ArrivingJob", "JobOutcome", "OnlineResult", "RejectedJob", "verify_execution"]


@dataclass(frozen=True)
class ArrivingJob:
    """One job of the arrival stream."""

    arrival_time: int
    graph: TaskGraph

    def __post_init__(self) -> None:
        if self.arrival_time < 0:
            raise ConfigError("arrival_time must be >= 0")


@dataclass(frozen=True)
class JobOutcome:
    """Completion (or failure) record of one job.

    Attributes:
        failed: the job was abandoned — a task exhausted its transient
            attempt budget, or the job became permanently unschedulable
            after a capacity loss.  ``completion_time`` is then the time
            of the failure decision.
        retries: task attempts re-enqueued (transient + crash kills).
        transient_failures: attempts that failed at their finish.
        crash_kills: running attempts displaced by capacity loss.
    """

    job_index: int
    arrival_time: int
    completion_time: int
    num_tasks: int
    failed: bool = False
    retries: int = 0
    transient_failures: int = 0
    crash_kills: int = 0

    @property
    def jct(self) -> int:
        """Job completion time (completion - arrival)."""
        return self.completion_time - self.arrival_time


@dataclass(frozen=True)
class RejectedJob:
    """One arrival shed by admission control (reported, never lost)."""

    index: int
    arrival_time: int
    reason: str


@dataclass(frozen=True)
class OnlineResult:
    """Aggregate outcome of one simulation run.

    Fault-aware runs additionally carry per-run fault accounting, the
    full ordered :attr:`fault_events` record, and the *executed*
    schedule of every job (actual starts/finishes of the successful
    attempts), aligned with :attr:`outcomes`.

    Utilization comes in two flavours.  :attr:`mean_utilization` is the
    *effective* utilization — busy slot-time divided by the capacity
    that actually existed over the run (a capacity-time integral, so a
    crashed machine's missing slots do not count against the
    scheduler).  :attr:`nominal_utilization` divides by the nominal
    (pre-fault) capacity instead — the historical definition, useful
    for "how much of the fleet we paid for did work".  The two are
    identical in fault-free runs.
    """

    outcomes: Tuple[JobOutcome, ...]
    makespan: int
    mean_utilization: Tuple[float, ...]
    nominal_utilization: Tuple[float, ...] = ()
    crashes: int = 0
    recoveries: int = 0
    total_retries: int = 0
    fault_events: Tuple[FaultEvent, ...] = ()
    executed: Tuple[Schedule, ...] = ()

    @property
    def mean_jct(self) -> float:
        """Average job completion time (failed jobs included)."""
        return sum(o.jct for o in self.outcomes) / len(self.outcomes)

    @property
    def max_jct(self) -> int:
        """Worst job completion time."""
        return max(o.jct for o in self.outcomes)

    @property
    def completed_jobs(self) -> int:
        """Jobs that ran to completion."""
        return sum(1 for o in self.outcomes if not o.failed)

    @property
    def failed_jobs(self) -> int:
        """Jobs reported failed (never silently lost)."""
        return sum(1 for o in self.outcomes if o.failed)


def verify_execution(
    result: OnlineResult,
    jobs: Sequence[ArrivingJob],
    capacities: Sequence[int],
):
    """Verify every executed schedule against what actually ran.

    For each job, the executed placements are checked with the full
    schedule-invariant verifier (:mod:`repro.analysis.verifier`) against
    the *realized* graph — the job's DAG with task runtimes replaced by
    the actual executed durations (fault noise included).  Failed jobs
    are checked partially: their executed placements must still respect
    precedence and capacity on the subgraph that ran.

    Returns:
        One :class:`repro.analysis.VerificationReport` per outcome, in
        ``result.outcomes`` order; call ``raise_if_violations()`` on each
        or check ``.ok``.  An entry is ``None`` for a failed job that
        executed nothing (there is nothing to check).

    Raises:
        ConfigError: when ``result`` carries no executed schedules (a
            pre-fault-mode result object).
    """

    from ..analysis.verifier import verify_placements  # local: avoids a cycle
    from ..dag.compose import with_runtimes

    if len(result.executed) != len(result.outcomes):
        raise ConfigError(
            "result carries no executed schedules to verify (outcomes "
            f"{len(result.outcomes)} vs executed {len(result.executed)})"
        )
    if any(o.job_index >= len(jobs) for o in result.outcomes):
        raise ConfigError(
            f"result references job indices beyond the {len(jobs)} jobs given"
        )
    reports = []
    for outcome, schedule in zip(result.outcomes, result.executed):
        graph = jobs[outcome.job_index].graph
        durations = {
            p.task_id: p.finish - p.start for p in schedule.placements
        }
        if outcome.failed:
            ran = sorted(durations)
            if not ran:
                reports.append(None)
                continue
            target = with_runtimes(graph.subgraph(ran), durations)
        else:
            target = with_runtimes(graph, durations)
        reports.append(
            verify_placements(
                [(p.task_id, p.start, p.finish) for p in schedule.placements],
                target,
                capacities,
            )
        )
    return reports
