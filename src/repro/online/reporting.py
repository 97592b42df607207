"""Reporting: per-shard outcomes and integrals, and the run-level ledger.

Everything the simulation *observes* about itself funnels through here.
Each shard owns a :class:`ReportingLayer`: job outcomes and executed
schedules as they finish, the ordered fault incident record (mirrored to
telemetry as ``fault.<kind>`` events), queue-length gauges, admission
timestamps (queueing delay), shard-local backpressure rejections, and
the slot-time integrals behind the two utilization definitions of
:class:`~repro.online.results.OnlineResult`.  What no single shard can
own lands in the run's one :class:`RunLedger`: the arrival count,
rejections decided *above* the shards (infeasible everywhere, horizon
cut-off), the jobs-in-system count and its step series, and route
events.  Both are
write-mostly; :meth:`ReportingLayer.finalize` assembles the result over
any list of shards once the event loop drains.

Telemetry rule: a point event is emitted only where a choice existed.
``streaming.admit`` needs a bounded admission controller (unbounded, the
admit time *is* the arrival time ``online.job`` carries),
``federation.route`` needs more than one shard, and the ledger's events
are named ``federation.*`` only above several shards — with one shard
they are its ``streaming.*`` events.  Rejections are always emitted.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Sequence, Tuple

from ..faults.events import JOB_FAILED, FaultEvent
from ..metrics.schedule import Schedule
from ..telemetry import runtime as _telemetry
from .results import JobOutcome, OnlineResult, RejectedJob

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..cluster.state import ClusterState
    from .execution import ActiveJob, ExecutionLayer
    
__all__ = ["ReportingLayer", "RunLedger"]


class ReportingLayer:
    """Collects one shard's output; owns nothing the simulation's future
    depends on (the stealer reads :attr:`admit_times` back so a migrated
    job keeps its original admission instant).

    Args:
        capacities: nominal (pre-fault) capacities, the denominator of
            the historical utilization definition.
        tm: telemetry pipeline facade (may be disabled).
        start_time: the first arrival — utilization integrals and the
            makespan horizon both start here.
        exec_label: ``scheduler`` field of the executed schedules.
        ledger: the run's ledger, whose jobs-in-system count each
            completed or abandoned job leaves.
    """

    def __init__(
        self,
        capacities: Sequence[int],
        tm: _telemetry.TelemetryLike,
        start_time: int,
        exec_label: str,
        ledger: RunLedger,
    ) -> None:
        self.ledger = ledger
        self.nominal_capacities: Tuple[int, ...] = tuple(capacities)
        self.tm = tm
        self.tm_enabled = tm.enabled
        self.start_time = start_time
        self.last_time = start_time
        self.busy_area = [0] * len(self.nominal_capacities)
        self.capacity_area = [0] * len(self.nominal_capacities)
        self.outcomes: List[JobOutcome] = []
        self.executed: Dict[int, Schedule] = {}
        self.fault_events: List[FaultEvent] = []
        self.exec_label = exec_label
        self.admit_times: Dict[int, int] = {}
        self.rejections: List[RejectedJob] = []

    # ------------------------------------------------------------------ #
    # integrals and gauges
    # ------------------------------------------------------------------ #

    def account(self, state: "ClusterState", until: int) -> None:
        """Accrue busy and capacity slot-time up to ``until``.

        Must run *before* the clock advance that reaches ``until``: a
        task occupies its slots up to, not including, its finish
        instant, and a crash changes capacity only from its instant on.
        """
        if until <= self.last_time:
            return
        span = until - self.last_time
        capacities = state.capacities
        available = state.available
        for r in range(len(self.nominal_capacities)):
            self.busy_area[r] += span * (capacities[r] - available[r])
            self.capacity_area[r] += span * capacities[r]
        self.last_time = until

    def gauges(self, execution: "ExecutionLayer") -> None:
        """Publish the per-tick queue-length gauges."""
        if not self.tm_enabled:
            return
        active = execution.active
        self.tm.gauge("online.active_jobs", float(len(active)))
        self.tm.gauge(
            "online.ready_tasks",
            float(sum(len(j.ready) for j in active.values())),
        )

    # ------------------------------------------------------------------ #
    # incident and outcome records
    # ------------------------------------------------------------------ #

    def emit_fault(self, event: FaultEvent) -> None:
        """Append to the ordered incident record; mirror to telemetry."""
        self.fault_events.append(event)
        if self.tm_enabled:
            self.tm.event(
                f"fault.{event.kind}",
                time=event.time,
                job=-1 if event.job is None else event.job,
                task=-1 if event.task is None else event.task,
                attempt=0 if event.attempt is None else event.attempt,
                detail=event.detail,
            )

    def record_completion(self, job: "ActiveJob", now: int) -> None:
        """One job ran to completion: outcome, executed schedule, metrics."""
        outcome = job.outcome(now)
        self.outcomes.append(outcome)
        self.ledger.in_system -= 1
        self.executed[job.index] = job.executed_schedule(self.exec_label)
        if self.tm_enabled:
            self.tm.observe("online.jct", float(outcome.jct))
            self.tm.event(
                "online.job",
                job=outcome.job_index,
                jct=outcome.jct,
                arrival=outcome.arrival_time,
                completion=outcome.completion_time,
                tasks=outcome.num_tasks,
                retries=outcome.retries,
                failed=outcome.failed,
            )

    def record_failure(self, job: "ActiveJob", now: int, reason: str) -> None:
        """One job was abandoned: outcome, partial schedule, incident."""
        self.outcomes.append(job.outcome(now, failed=True))
        self.ledger.in_system -= 1
        self.executed[job.index] = job.executed_schedule(self.exec_label)
        self.emit_fault(FaultEvent(now, JOB_FAILED, job=job.index, detail=reason))

    def record_admission(self, index: int, admit_at: int, decided: bool) -> None:
        """Job ``index`` entered the shard at ``admit_at``; announced only
        when admission was a decision (a bounded controller)."""
        self.admit_times[index] = admit_at
        if decided and self.tm_enabled:
            self.tm.event("streaming.admit", job=index, at=admit_at)

    def record_queued(self, index: int, at: int, backlog: int) -> None:
        """Job ``index`` hit the concurrency limit and joined the backlog."""
        if self.tm_enabled:
            self.tm.event("streaming.queue", job=index, at=at, backlog=backlog)
            self.tm.gauge("streaming.backlog", float(backlog))

    def record_rejection(self, index: int, at: int, reason: str) -> None:
        """Job ``index`` was shed here; it appears in the result, not silently."""
        self.rejections.append(RejectedJob(index, at, reason))
        if self.tm_enabled:
            self.tm.event("streaming.reject", job=index, at=at, reason=reason)

    # ------------------------------------------------------------------ #
    # final assembly
    # ------------------------------------------------------------------ #

    @staticmethod
    def finalize(shards: Sequence["Shard"], makespan: int) -> OnlineResult:
        """Assemble the :class:`OnlineResult` over ``shards``.

        Utilization is taken over the *summed* busy/capacity integrals,
        outcomes merge in job-index order and fault records in (time,
        shard id, emission order), so the result over one shard is that
        shard's own and the result over all of them is the run's.
        """
        reports = [shard.reporting for shard in shards]
        dims = range(len(shards[0].capacities))
        horizon = max(1, makespan - reports[0].start_time)
        nominal_caps = [sum(rep.nominal_capacities[r] for rep in reports) for r in dims]
        busy = [sum(rep.busy_area[r] for rep in reports) for r in dims]
        cap_area = [sum(rep.capacity_area[r] for rep in reports) for r in dims]
        outcomes = [outcome for rep in reports for outcome in rep.outcomes]
        executed = {index: s for rep in reports for index, s in rep.executed.items()}
        faults = [
            (event.time, shard.id, seq, event)
            for shard in shards
            for seq, event in enumerate(shard.reporting.fault_events)
        ]
        fstates = [s.execution.fstate for s in shards if s.execution.fstate is not None]
        nominal = tuple(busy[r] / (horizon * nominal_caps[r]) for r in dims)
        # Effective utilization divides by the capacity that actually
        # existed (the capacity-time integral); a zero integral (empty
        # horizon) falls back to the nominal denominator.
        effective = tuple(
            busy[r] / cap_area[r] if cap_area[r] > 0 else nominal[r] for r in dims
        )
        outcomes.sort(key=lambda o: o.job_index)
        faults.sort(key=lambda tagged: tagged[:3])
        return OnlineResult(
            outcomes=tuple(outcomes),
            makespan=makespan,
            mean_utilization=effective,
            nominal_utilization=nominal,
            crashes=sum(fstate.crashes for fstate in fstates),
            recoveries=sum(fstate.recoveries for fstate in fstates),
            total_retries=sum(fstate.total_retries for fstate in fstates),
            fault_events=tuple(event for _, _, _, event in faults),
            executed=tuple(executed[o.job_index] for o in outcomes),
        )


class RunLedger:
    """Run-level bookkeeping above the shards.

    Args:
        tm: telemetry pipeline facade (may be disabled).
        federated: the run has more than one shard, so what is recorded
            here is distinct from any one shard's record.
    """

    def __init__(self, tm: _telemetry.TelemetryLike, federated: bool = False) -> None:
        self.tm = tm
        self.tm_enabled = tm.enabled
        self.scope = "federation" if federated else "streaming"
        self.arrivals_seen = 0
        self.rejections: List[RejectedJob] = []
        self.in_system_series: List[Tuple[int, int]] = []
        #: jobs admitted or backlogged on some shard and not yet gone:
        #: an accepted arrival adds one, a completed or abandoned job
        #: takes one away, and a steal moves a job without changing it.
        self.in_system = 0
        self.horizon_cutoff = -1  # -1: no horizon cut-off occurred

    def record_rejection(self, index: int, at: int, reason: str) -> None:
        """An arrival no shard will run; reported, never silently lost."""
        self.rejections.append(RejectedJob(index, at, reason))
        if self.tm_enabled:
            self.tm.event(f"{self.scope}.reject", job=index, at=at, reason=reason)

    def record_cutoff(self, at: int) -> None:
        """The run horizon was reached; later arrivals are shed."""
        if self.horizon_cutoff == -1:
            self.horizon_cutoff = at
            if self.tm_enabled:
                self.tm.event(f"{self.scope}.horizon_cutoff", at=at)

    def record_route(self, index: int, shard_id: int, at: int) -> None:
        """The router placed job ``index`` on shard ``shard_id``."""
        if self.tm_enabled:
            self.tm.event("federation.route", job=index, shard=shard_id, at=at)

    def sample_in_system(self, at: int, count: int) -> None:
        """Append to the step series; consecutive duplicates compress."""
        series = self.in_system_series
        if series and series[-1][1] == count:
            return
        if series and series[-1][0] == at:
            series[-1] = (at, count)
            return
        series.append((at, count))
        if self.tm_enabled:
            self.tm.gauge(f"{self.scope}.in_system", float(count))
