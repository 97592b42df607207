"""Execution layer: attempt lifecycle and replanning on the shared cluster.

Owns the live :class:`~repro.cluster.state.ClusterState` (driven by the
kernel through :class:`~repro.cluster.sim_adapter.ClusterProcess`), the
per-job DAG bookkeeping (:class:`ActiveJob`), in fault-aware runs the
realized fault model (crash/recovery timeline firing, transient failure
retries with backoff, crash-kill victim selection, job abandonment), and
with a rescheduler the per-job plans: each job is replanned on admission
(by :meth:`repro.online.engine.Shard.admit`), on each of its transient
task failures, and (all jobs) after any crash/recovery fires.

Kernel wiring (see :mod:`repro.sim.events` for the tie-break table);
every event the layer schedules carries one of its own bound methods:

* task completions arrive as ``COMPLETION`` events handled by
  ``_on_completion`` (capacity was already released during the clock
  advance);
* the crash/recovery timeline is scheduled up-front as ``CRASH`` /
  ``RECOVERY`` events handled by ``_on_timeline``, drained through a
  :class:`~repro.faults.injector.TimelineCursor` so the injector's
  documented intra-tie order (recovery before crash) is preserved;
* retry backoffs become future ``RETRY_READY`` events handled by
  ``_on_retry_ready`` — except a zero-delay backoff, which the layer
  defers (as a :class:`~repro.sim.SimProcess`, attached only under a
  fault plan: fault-free runs never retry) to the *next* tick so a
  retried task never competes in the dispatch round of the instant it
  failed in;
* a crash/recovery schedules one ``REPLAN`` per instant (the last class
  of the tie-break table, handled by ``_on_replan``), so the rescheduler
  sees the fully settled instant: capacity changes, completions, retries
  and arrivals of the same timestamp have all been applied first.

Every handler the layer runs but the replan (which only reorders),
:meth:`ExecutionLayer.admit` and :meth:`ExecutionLayer.fail_job` set
:attr:`ExecutionLayer.changed`: the policy layer re-sweeps a shard's
ready tasks only after something that can make one fit has happened
(see :meth:`~repro.online.policy.PolicyLayer.dispatch_round`).  The
layer never refers to its policy layer: references in a shard point one
way, so a finished run frees by refcount.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..cluster.sim_adapter import ClusterProcess
from ..cluster.state import ClusterState
from ..dag.features import GraphFeatures, compute_features
from ..dag.graph import TaskGraph
from ..errors import ReproError
from ..faults.events import CRASH, RECOVERY, RETRY, TASK_FAILURE, FaultEvent
from ..faults.injector import (
    FaultInjector,
    TaskAttempt,
    TimelineCursor,
    TimelineEntry,
)
from ..faults.plan import FaultPlan
from ..metrics.schedule import Schedule, ScheduledTask
from ..schedulers.base import ClusterSnapshot, Scheduler, ScheduleRequest
from ..sim import Event, EventClass, EventQueue, SimKernel
from .results import JobOutcome
from .reporting import ReportingLayer

__all__ = ["ActiveJob", "ExecutionLayer", "FaultState"]


class ActiveJob:
    """Mutable per-job bookkeeping inside the simulator.

    It also holds the job's dispatch caches, so they end with the job:
    ``plan_rank`` (task -> position in the rescheduler's last plan, or
    ``None`` while unplanned), ``static_keys`` (task -> the key of a
    ``static_key`` ranker, which never changes over a job's lifetime) and
    :attr:`features`, computed when a ranker first reads them.
    ``ready_seq`` numbers the tasks in the order they *first* became
    ready (the ``fifo`` rule's order); a retried or crash-killed task
    keeps its number, so cached keys stay valid.
    """

    __slots__ = (
        "index",
        "arrival",
        "graph",
        "_features",
        "unmet",
        "ready",
        "ready_seq",
        "remaining",
        "attempts",
        "strikes",
        "retries",
        "transient_failures",
        "crash_kills",
        "executed",
        "plan_rank",
        "static_keys",
    )

    def __init__(self, index: int, arrival: int, graph: TaskGraph) -> None:
        self.index = index
        self.arrival = arrival
        self.graph = graph
        self._features: Optional[GraphFeatures] = None
        parents = graph.parent_table()
        self.unmet: Dict[int, int] = {
            tid: len(parents[tid]) for tid in graph.task_ids
        }
        self.ready: List[int] = [tid for tid, n in self.unmet.items() if n == 0]
        self.ready_seq: Dict[int, int] = {tid: i for i, tid in enumerate(self.ready)}
        self.remaining: int = graph.num_tasks
        self.attempts: Dict[int, int] = {}  # dispatches per task (keys the RNG)
        self.strikes: Dict[int, int] = {}  # transient failures per task
        self.retries = 0
        self.transient_failures = 0
        self.crash_kills = 0
        self.executed: Dict[int, Tuple[int, int]] = {}  # successful placements
        self.plan_rank: Optional[Dict[int, int]] = None
        self.static_keys: Dict[int, Tuple] = {}

    @property
    def features(self) -> GraphFeatures:
        """The job's graph features, computed on first read: of the
        built-in rankers only ``cp`` reads them."""
        if self._features is None:
            self._features = compute_features(self.graph)
        return self._features

    def outcome(self, completion_time: int, failed: bool = False) -> JobOutcome:
        return JobOutcome(
            job_index=self.index,
            arrival_time=self.arrival,
            completion_time=completion_time,
            num_tasks=self.graph.num_tasks,
            failed=failed,
            retries=self.retries,
            transient_failures=self.transient_failures,
            crash_kills=self.crash_kills,
        )

    def executed_schedule(self, label: str) -> Schedule:
        return Schedule(
            tuple(
                ScheduledTask(tid, start, finish)
                for tid, (start, finish) in sorted(self.executed.items())
            ),
            scheduler=label,
        )


@dataclass
class FaultState:
    """All fault-mode machinery for one run (None in fault-free runs)."""

    plan: FaultPlan
    injector: FaultInjector
    cursor: TimelineCursor
    crashes: int = 0
    recoveries: int = 0
    total_retries: int = 0


class ExecutionLayer:
    """Attempt lifecycle, cluster occupancy, fault realization, replanning.

    Under a fault plan also a :class:`~repro.sim.SimProcess`: zero-delay
    retry backoffs are held here and released on the following tick (a
    failed attempt's replacement never joins the dispatch round of its
    own failure instant).

    :attr:`changed` marks that something happened since the policy
    layer's last dispatch round that may let a ready task fit: a
    completion (capacity released, children unlocked), a retry becoming
    ready, a crash or recovery, an admitted job, an abandoned job's
    killed work.

    Args:
        capacities: cluster capacities.
        kernel: the simulation kernel; the layer schedules its events
            and attaches the cluster adapter.
        reporting: sink for incidents, outcomes, and schedules.
        offset: job-handle stride — cluster task ids must be globally
            unique, so a task is tracked as ``job_index * offset + tid``.
        faults: fault model; ``None`` (or a null plan) runs fault-free.
        rescheduler: scheduler replanning each job's residual DAG;
            ``None`` disables replanning entirely.
    """

    def __init__(
        self,
        capacities: Sequence[int],
        kernel: SimKernel,
        reporting: ReportingLayer,
        offset: int,
        faults: Optional[FaultPlan],
        rescheduler: Optional[Scheduler],
    ) -> None:
        self.kernel = kernel
        self.reporting = reporting
        self.offset = offset
        self.state = ClusterState(capacities, now=kernel.now)
        self.active: Dict[int, ActiveJob] = {}
        self.running_info: Dict[int, Tuple[int, TaskAttempt]] = {}
        self.rescheduler = rescheduler
        self._replan_scheduled_at: Optional[int] = None
        self._deferred_retries: List[Tuple[int, int, int]] = []
        self.changed = True
        kernel.add_process(ClusterProcess(self.state, self._on_completion))
        self.fstate: Optional[FaultState] = None
        if faults is not None and not faults.is_null:
            injector = FaultInjector(faults)
            timeline = injector.timeline()
            self.fstate = FaultState(
                plan=faults, injector=injector, cursor=TimelineCursor(timeline)
            )
            kernel.add_process(self)
            for entry in timeline:
                klass = (
                    EventClass.CRASH
                    if entry.kind == "crash"
                    else EventClass.RECOVERY
                )
                kernel.schedule(max(0, entry.time), klass, self._on_timeline)

    # ------------------------------------------------------------------ #
    # SimProcess: zero-delay retry deferral
    # ------------------------------------------------------------------ #

    def next_event_time(self) -> Optional[int]:
        """Due time of the earliest deferred retry, or ``None``."""
        return self._deferred_retries[0][0] if self._deferred_retries else None

    def advance_to(self, now: int, queue: EventQueue) -> None:
        """Release deferred retries due by ``now`` as kernel events."""
        deferred = self._deferred_retries
        while deferred and deferred[0][0] <= now:
            _, job_index, tid = deferred.pop(0)
            queue.push(
                now, EventClass.RETRY_READY, self._on_retry_ready, (job_index, tid)
            )

    # ------------------------------------------------------------------ #
    # admission and dispatch
    # ------------------------------------------------------------------ #

    def admit(self, index: int, arrival: int, graph: TaskGraph) -> ActiveJob:
        """Create the live bookkeeping for an arrived job."""
        job = ActiveJob(index, arrival, graph)
        self.active[index] = job
        self.changed = True
        return job

    def start_attempt(self, job: ActiveJob, tid: int) -> None:
        """Start one attempt of a ready task, realizing its faults."""
        task = job.graph.task(tid)
        attempt_no = job.attempts.get(tid, 0) + 1
        job.attempts[tid] = attempt_no
        if self.fstate is not None:
            attempt = self.fstate.injector.attempt(
                job.index, tid, attempt_no, task.runtime
            )
        else:
            attempt = TaskAttempt(
                runtime=task.runtime, fails=False, straggled=False
            )
        handle = job.index * self.offset + tid
        self.state.start(handle, task.demands, attempt.runtime)
        self.running_info[handle] = (self.state.now, attempt)
        job.ready.remove(tid)

    # ------------------------------------------------------------------ #
    # completion follow-ups
    # ------------------------------------------------------------------ #

    def _on_completion(self, event: Event) -> None:
        self.changed = True
        handle = event.payload.task_id
        job_index, tid = divmod(handle, self.offset)
        job = self.active.get(job_index)
        if job is None:  # job failed earlier at this same instant
            self.running_info.pop(handle, None)
            return
        start, attempt = self.running_info.pop(handle)
        if attempt.fails:
            self._transient_failure(job, tid, attempt)
            return
        # Success: the output is durable; downstream precedence holds.
        now = self.state.now
        job.executed[tid] = (start, now)
        job.remaining -= 1
        for child in job.graph.children(tid):
            job.unmet[child] -= 1
            if job.unmet[child] == 0:
                job.ready.append(child)
                job.ready_seq[child] = len(job.ready_seq)
        if job.remaining == 0:
            self.reporting.record_completion(job, now)
            del self.active[job_index]

    def _transient_failure(
        self, job: ActiveJob, tid: int, attempt: TaskAttempt
    ) -> None:
        fstate = self.fstate
        assert fstate is not None
        now = self.state.now
        job.transient_failures += 1
        strikes = job.strikes.get(tid, 0) + 1
        job.strikes[tid] = strikes
        self.reporting.emit_fault(
            FaultEvent(
                now,
                TASK_FAILURE,
                job=job.index,
                task=tid,
                attempt=job.attempts[tid],
                detail="straggler" if attempt.straggled else "",
            )
        )
        if strikes >= fstate.injector.max_attempts:
            self.fail_job(
                job,
                reason=(
                    f"task {tid} failed {strikes} attempts "
                    f"(budget {fstate.injector.max_attempts})"
                ),
            )
            return
        delay = fstate.injector.backoff(strikes)
        ready_at = now + delay
        if delay > 0:
            self.kernel.schedule(
                ready_at, EventClass.RETRY_READY, self._on_retry_ready, (job.index, tid)
            )
        else:
            self._deferred_retries.append((ready_at, job.index, tid))
        job.retries += 1
        fstate.total_retries += 1
        self.reporting.emit_fault(
            FaultEvent(
                now,
                RETRY,
                job=job.index,
                task=tid,
                attempt=job.attempts[tid],
                detail=f"backoff {delay}, ready at {ready_at}",
            )
        )
        self.replan_job(job)

    def _on_retry_ready(self, event: Event) -> None:
        self.changed = True
        job_index, tid = event.payload
        job = self.active.get(job_index)
        if job is not None:  # the job may have failed while backing off
            job.ready.append(tid)

    # ------------------------------------------------------------------ #
    # crash / recovery timeline
    # ------------------------------------------------------------------ #

    def _on_timeline(self, event: Event) -> None:
        self.changed = True
        fstate = self.fstate
        assert fstate is not None
        fired = fstate.cursor.drain(self.state.now)
        for entry in fired:
            if entry.kind == "crash":
                self._fire_crash(entry)
            else:
                self._fire_recovery(entry)
        if not fired or self.rescheduler is None:
            return
        # Replan all jobs once the instant settles, once per instant.
        now = self.kernel.now
        if self._replan_scheduled_at != now:
            self.kernel.schedule(now, EventClass.REPLAN, self._on_replan)
            self._replan_scheduled_at = now

    def _fire_crash(self, entry: TimelineEntry) -> None:
        fstate = self.fstate
        assert fstate is not None
        state = self.state
        loss = entry.capacity
        # Kill victims (latest finishers first) until the free pool
        # covers the loss in every deficient dimension.
        killed = 0
        while any(state.available[r] < loss[r] for r in range(len(loss))):
            victims = sorted(
                state.running_tasks(), key=lambda e: (-e.finish_time, -e.task_id)
            )
            victim = next(
                (
                    v
                    for v in victims
                    if any(
                        v.demands[r] > 0 and state.available[r] < loss[r]
                        for r in range(len(loss))
                    )
                ),
                None,
            )
            if victim is None:  # pragma: no cover - validated plans
                break
            state.kill(victim)
            killed += 1
            handle = victim.task_id
            self.running_info.pop(handle)
            job_index, tid = divmod(handle, self.offset)
            job = self.active[job_index]
            job.crash_kills += 1
            job.retries += 1
            fstate.total_retries += 1
            job.ready.append(tid)  # parents done: immediately re-ready
            self.reporting.emit_fault(
                FaultEvent(
                    state.now,
                    RETRY,
                    job=job_index,
                    task=tid,
                    attempt=job.attempts.get(tid, 0),
                    detail="crash_kill",
                )
            )
        state.adjust_capacity([-c for c in loss])
        fstate.crashes += 1
        self.reporting.emit_fault(
            FaultEvent(
                state.now,
                CRASH,
                detail=f"machine {entry.machine} lost {loss}, killed {killed}",
            )
        )

    def _fire_recovery(self, entry: TimelineEntry) -> None:
        fstate = self.fstate
        assert fstate is not None
        self.state.adjust_capacity(entry.capacity)
        fstate.recoveries += 1
        self.reporting.emit_fault(
            FaultEvent(
                self.state.now,
                RECOVERY,
                detail=f"machine {entry.machine} restored {entry.capacity}",
            )
        )

    # ------------------------------------------------------------------ #
    # job abandonment
    # ------------------------------------------------------------------ #

    def fail_job(self, job: ActiveJob, reason: str) -> None:
        """Abandon a job: kill its running work, record the outcome."""
        self.changed = True
        running_info = self.running_info
        state = self.state
        for handle in [h for h in running_info if h // self.offset == job.index]:
            running_info.pop(handle)
            for entry in state.running_tasks():
                if entry.task_id == handle:
                    state.kill(entry)
                    break
        self.reporting.record_failure(job, state.now, reason)
        del self.active[job.index]

    def fail_stuck(self) -> None:
        """Fail every active job (permanently unschedulable residue)."""
        for job in sorted(self.active.values(), key=lambda j: j.index):
            self.fail_job(job, reason="unschedulable residual work")

    # ------------------------------------------------------------------ #
    # replanning
    # ------------------------------------------------------------------ #

    def _on_replan(self, event: Event) -> None:
        self._replan_scheduled_at = None
        self.replan_all()

    def replan_job(self, job: ActiveJob) -> None:
        """Refresh one job's plan-priority ranks from the rescheduler,
        which plans the job's residual DAG (its tasks neither finished
        nor running) on the cluster's current capacities."""
        rescheduler = self.rescheduler
        if rescheduler is None:
            return
        offset = self.offset
        running = {
            handle % offset
            for handle in self.running_info
            if handle // offset == job.index
        }
        residual = [
            tid
            for tid in job.graph.task_ids
            if tid not in job.executed and tid not in running
        ]
        if not residual:
            job.plan_rank = None
            return
        request = ScheduleRequest(
            graph=job.graph.subgraph(residual),
            cluster=ClusterSnapshot(capacities=tuple(self.state.capacities)),
        )
        try:
            schedule = rescheduler.plan(request)
        except ReproError:
            # Graceful: keep the previous plan order; the base ranker
            # covers tasks that never had one.
            return
        order = sorted(schedule.placements, key=lambda p: (p.start, p.task_id))
        job.plan_rank = {p.task_id: r for r, p in enumerate(order)}

    def replan_all(self) -> None:
        """Replan every active job, in job-index order."""
        for job in sorted(self.active.values(), key=lambda j: j.index):
            self.replan_job(job)
