"""Policy layer: ranker dispatch and dynamic replanning.

Decides *which* ready task starts next — plan-priority order when a
rescheduler has planned the job (jobs FIFO, plan order within a job),
the base ranker otherwise — and keeps those plans fresh: each job is
replanned on admission, on each of its transient task failures, and
(all jobs) after any crash/recovery fires.

The crash-triggered replan is itself a kernel event (class ``REPLAN``,
the last class of the tie-break table, handled by ``_on_replan``), so
the rescheduler always sees the fully settled instant: capacity
changes, completions, retries and arrivals of the same timestamp have
all been applied before any plan is computed.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..cluster.resources import fits
from ..errors import ReproError
from ..faults.plan import FaultContext
from ..schedulers.base import ClusterSnapshot, Scheduler, ScheduleRequest
from ..sim import Event, EventClass, SimKernel
from .execution import ActiveJob, ExecutionLayer
from .rankers import Ranker, TaskContext

__all__ = ["PolicyLayer"]


class PolicyLayer:
    """Dispatch ordering plus replan triggers over the execution layer.

    Args:
        ranker: base dispatch order (see :mod:`repro.online.rankers`).
        rescheduler: context-aware scheduler replanning each job's
            residual DAG; ``None`` disables replanning entirely.
        kernel: the simulation kernel (replan events are scheduled on it).
        execution: the execution layer being driven.
    """

    def __init__(
        self,
        ranker: Ranker,
        rescheduler: Optional[Scheduler],
        kernel: SimKernel,
        execution: ExecutionLayer,
    ) -> None:
        self.ranker = ranker
        self.rescheduler = rescheduler
        self.kernel = kernel
        self.execution = execution
        self.plan_rank: Optional[Dict[int, Dict[int, int]]] = (
            {} if rescheduler is not None else None
        )
        self._replan_scheduled_at: Optional[int] = None
        # For static_key rankers: job_index -> {tid -> ranker key}.  The
        # key of such a ranker never changes over a job's lifetime, so
        # it is computed once per (job, task) rather than once per
        # dispatch comparison.
        self._static_keys: Dict[int, Dict[int, Tuple]] = {}

    # ------------------------------------------------------------------ #
    # replan triggers
    # ------------------------------------------------------------------ #

    def on_admit(self, job: ActiveJob) -> None:
        """A job was admitted: give it an initial plan."""
        if self.rescheduler is not None:
            self.replan_job(job, "admit")

    def on_task_failure(self, job: ActiveJob) -> None:
        """A task failed transiently: refresh that job's plan."""
        if self.rescheduler is not None:
            self.replan_job(job, "task_failure")

    def on_fault_fired(self) -> None:
        """Crash/recovery fired: replan all jobs once the instant settles."""
        if self.rescheduler is None:
            return
        now = self.kernel.now
        if self._replan_scheduled_at == now:
            return
        self.kernel.schedule(now, EventClass.REPLAN, self._on_replan, "crash")
        self._replan_scheduled_at = now

    def _on_replan(self, event: Event) -> None:
        self._replan_scheduled_at = None
        self.replan_all(event.payload)

    def forget(self, job_index: int) -> None:
        """Drop a finished/failed job's plan ranks and cached keys."""
        if self.plan_rank is not None:
            self.plan_rank.pop(job_index, None)
        self._static_keys.pop(job_index, None)

    # ------------------------------------------------------------------ #
    # replanning
    # ------------------------------------------------------------------ #

    def replan_job(self, job: ActiveJob, trigger: str) -> None:
        """Refresh one job's plan-priority ranks from the rescheduler."""
        rescheduler = self.rescheduler
        plan_rank = self.plan_rank
        assert rescheduler is not None and plan_rank is not None
        execution = self.execution
        offset = execution.offset
        running_info = execution.running_info
        state = execution.state
        running_tids = {
            handle % offset: handle
            for handle in running_info
            if handle // offset == job.index
        }
        residual = [
            tid
            for tid in job.graph.task_ids
            if tid not in job.executed and tid not in running_tids
        ]
        if not residual:
            plan_rank.pop(job.index, None)
            return
        pinned = {}
        for tid, handle in running_tids.items():
            start, attempt = running_info[handle]
            pinned[tid] = (start, start + attempt.runtime)
        fstate = execution.fstate
        request = ScheduleRequest(
            graph=job.graph.subgraph(residual),
            cluster=ClusterSnapshot(
                capacities=tuple(state.capacities),
                available=state.available,
                now=state.now,
            ),
            frozen=dict(job.executed),
            pinned=pinned,
            faults=(
                FaultContext(
                    plan=fstate.plan,
                    trigger=trigger,
                    time=state.now,
                    retries_so_far=fstate.total_retries,
                )
                if fstate is not None
                else None
            ),
        )
        try:
            schedule = rescheduler.plan(request)
        except ReproError:
            # Graceful: keep the previous plan order; the base ranker
            # covers tasks that never had one.
            return
        order = sorted(schedule.placements, key=lambda p: (p.start, p.task_id))
        plan_rank[job.index] = {p.task_id: r for r, p in enumerate(order)}

    def replan_all(self, trigger: str) -> None:
        """Replan every active job, in job-index order."""
        if self.rescheduler is None:
            return
        for job in sorted(self.execution.active.values(), key=lambda j: j.index):
            self.replan_job(job, trigger)

    # ------------------------------------------------------------------ #
    # dispatch
    # ------------------------------------------------------------------ #

    def dispatch_round(self) -> None:
        """Work-conserving fill in ranker (or plan-priority) order.

        A round ends with no ready task that fits, and nothing between
        two rounds can change that but what marks
        :attr:`ExecutionLayer.changed` (free capacity only grows, and a
        task only becomes ready, through the layer's handlers,
        :meth:`ExecutionLayer.admit` and :meth:`ExecutionLayer.fail_job`):
        an unmarked shard is not swept.
        """
        execution = self.execution
        if not execution.changed:
            return
        execution.changed = False
        state = execution.state
        active = execution.active
        plan_rank = self.plan_rank
        ranker = self.ranker
        if getattr(ranker, "static_key", False):
            self._dispatch_static()
            return
        while True:
            free = state.available
            candidates: List[Tuple[Tuple, int, int]] = []
            for job in active.values():
                ranks = plan_rank.get(job.index) if plan_rank is not None else None
                for tid in job.ready:
                    task = job.graph.task(tid)
                    if fits(task.demands, free):
                        if ranks is not None and tid in ranks:
                            key: Tuple = (
                                0,
                                job.arrival,
                                job.index,
                                ranks[tid],
                                tid,
                            )
                        else:
                            ctx = TaskContext(
                                task=task,
                                job_index=job.index,
                                arrival_time=job.arrival,
                                features=job.features,
                                free=free,
                                now=state.now,
                            )
                            key = (1,) + tuple(ranker(ctx))
                        candidates.append((key, job.index, tid))
            if not candidates:
                return
            _, job_index, tid = min(candidates)
            execution.start_attempt(active[job_index], tid)

    def _dispatch_static(self) -> None:
        """One sorted sweep for rankers with context-invariant keys.

        Within a dispatch round free capacity only shrinks and no task
        becomes ready (attempt runtimes are >= 1, so completions land at
        strictly later instants).  When the ranker's key ignores the
        live context, repeatedly starting the minimum-key fitting
        candidate is therefore equivalent to ranking the initially
        fitting candidates once, sorting, and starting each in order
        that still fits — a candidate that does not fit can never fit
        again this round.  Keys are additionally cached per (job, task)
        across rounds, since a ``static_key`` ranker's key never changes
        over a job's lifetime.
        """
        execution = self.execution
        state = execution.state
        active = execution.active
        plan_rank = self.plan_rank
        ranker = self.ranker
        free = state.available
        candidates: List[Tuple[Tuple, int, int, Tuple[int, ...]]] = []
        for job in active.values():
            ranks = plan_rank.get(job.index) if plan_rank is not None else None
            cached = self._static_keys.setdefault(job.index, {})
            task_of = job.graph.task
            for tid in job.ready:
                task = task_of(tid)
                if not fits(task.demands, free):
                    continue
                if ranks is not None and tid in ranks:
                    key: Tuple = (0, job.arrival, job.index, ranks[tid], tid)
                else:
                    key = cached.get(tid)  # type: ignore[assignment]
                    if key is None:
                        ctx = TaskContext(
                            task=task,
                            job_index=job.index,
                            arrival_time=job.arrival,
                            features=job.features,
                            free=free,
                            now=state.now,
                        )
                        key = (1,) + tuple(ranker(ctx))
                        cached[tid] = key
                candidates.append((key, job.index, tid, task.demands))
        candidates.sort()
        for _, job_index, tid, demands in candidates:
            job = active.get(job_index)
            if job is None or tid not in job.ready:
                continue
            if fits(demands, state.available):
                execution.start_attempt(job, tid)
