"""Closed-batch multi-job cluster simulation, with optional fault injection.

Jobs arrive at given times onto one shared cluster; at every event (an
arrival, a task completion, or — under faults — a crash, recovery, or
retry becoming ready) ready tasks start in ranker order while they fit.
The run reports per-job completion times (JCT), the batch makespan and
mean utilization — what an operator of a Spear-style scheduler watches.

:class:`OnlineSimulator` is a facade over the one run loop
(:class:`~repro.online.engine.ShardedEngine`, DESIGN.md Sec. 11.3): it
validates the batch up front (an infeasible job is fatal here, where an
open system would shed it), runs it as one shard with unbounded
admission and no horizon, and returns the closed-batch view of the run.

Fault-aware mode (``run(..., faults=FaultPlan(...))``) executes under a
seeded fault model (:mod:`repro.faults`; realized by
:mod:`repro.online.execution`, DESIGN.md Sec. 10.2): transient failures
retry after capped exponential backoff and a task out of attempts fails
its whole job — *reported*, never silently dropped; a machine crash
removes capacity and the work it displaces is killed and re-enqueued;
every incident lands in :attr:`OnlineResult.fault_events` and in
telemetry as a ``fault.<kind>`` event.  Dynamic rescheduling (``run(...,
rescheduler=...)``, :mod:`repro.online.policy`) replans each job's
residual DAG on admission and on every fault event; dispatch then
follows plan priority (jobs FIFO, plan order within a job).

Determinism: every occurrence is a kernel event in the documented
``(time, priority_class, seq)`` order (:mod:`repro.sim`); candidates
with equal ranker keys fall back to (job index, task id); all fault
draws are keyed by (seed, job, task, attempt).  The same seed reproduces
the run bit-for-bit, retry counts included.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..config import ClusterConfig
from ..faults.plan import FaultPlan
from ..schedulers.base import Scheduler
from ..schedulers.rules import Ranker
from ..telemetry import runtime as _telemetry
from .engine import ShardedEngine, ShardSpec
from .reporting import ReportingLayer
from .results import ArrivingJob, JobOutcome, OnlineResult, verify_execution
from .workload import validate_stream

__all__ = [
    "ArrivingJob",
    "JobOutcome",
    "OnlineResult",
    "OnlineSimulator",
    "verify_execution",
]


class OnlineSimulator:
    """Shared-cluster simulation of an arrival stream.

    Args:
        cluster: capacities (defaults to the paper's 20x20).
        max_steps: global safety cap on scheduling events.
    """

    def __init__(
        self,
        cluster: ClusterConfig | None = None,
        max_steps: int = 1_000_000,
    ) -> None:
        self.cluster_config = cluster if cluster is not None else ClusterConfig()
        self.max_steps = max_steps

    def run(
        self,
        jobs: Sequence[ArrivingJob],
        ranker: Ranker,
        faults: Optional[FaultPlan] = None,
        rescheduler: Optional[Scheduler] = None,
    ) -> OnlineResult:
        """Simulate ``jobs`` under ``ranker``; return the outcome.

        Args:
            jobs: the arrival stream.
            ranker: base dispatch order (see :mod:`repro.schedulers.rules`).
            faults: seeded fault model to execute under; ``None`` runs
                fault-free (the historical behaviour, unchanged).
            rescheduler: scheduler replanning each job's residual DAG
                on admission and on every fault event;
                dispatch then follows plan priority (jobs FIFO, plan
                order within a job), falling back to ``ranker`` for
                unplanned tasks.

        With telemetry active the run is wrapped in an ``online.run``
        span; every completed job lands in the ``online.jct`` histogram
        plus an ``online.job`` point event, the event loop keeps the
        ``online.active_jobs`` / ``online.ready_tasks`` gauges current,
        per-resource mean utilization is published as
        ``online.utilization.r<i>`` gauges at the end, and every fault
        incident is mirrored as a ``fault.<kind>`` event.

        Raises:
            ConfigError: on an empty stream, a resource-dimension
                mismatch, or a fault plan the cluster cannot survive.
            CapacityError: on a task that can never fit.
            EnvironmentStateError: if the event cap is exceeded, or (in
                fault-free mode only) the DAG state goes inconsistent.
        """
        tm = _telemetry.active()
        with tm.span(
            "online.run",
            jobs=len(jobs),
            ranker=type(ranker).__name__,
            faults=faults is not None and not faults.is_null,
            rescheduler=rescheduler.name if rescheduler is not None else "",
        ) as span:
            capacities = self.cluster_config.capacities
            validate_stream(jobs, capacities)
            # Jobs keep their stream positions as indices; equal-time
            # arrivals admit in stream order.
            ordered = sorted(enumerate(jobs), key=lambda e: (e[1].arrival_time, e[0]))
            # Cluster task ids must be globally unique, so a task is
            # handled as job_index * offset + task_id.
            offset = 1 + max(max(job.graph.task_ids) for job in jobs)
            engine = ShardedEngine(
                [ShardSpec(capacities, ranker, rescheduler, faults=faults)],
                iter(ordered),
                offset,
                tm,
            )
            makespan = engine.run(self.max_steps)
            result = ReportingLayer.finalize(engine.shards, makespan)
            if tm.enabled:
                span.set(
                    makespan=result.makespan,
                    mean_jct=result.mean_jct,
                    max_jct=result.max_jct,
                    recoveries=result.recoveries,
                    retries=result.total_retries,
                    failed_jobs=result.failed_jobs,
                )
                for r, util in enumerate(result.mean_utilization):
                    tm.gauge(f"online.utilization.r{r}", util)
                tm.inc("online.jobs", len(jobs))
        return result
