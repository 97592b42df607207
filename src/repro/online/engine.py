"""The simulation engine: N shards on one kernel, one run loop.

:class:`ShardedEngine` is the only code that advances simulated time.
The cluster is a list of :class:`Shard` s — each a full scheduling stack
(execution, policy, reporting, admission backpressure) built from a
:class:`ShardSpec` on **one** shared :class:`~repro.sim.SimKernel`
instead of a private kernel (every event carries its layer's own bound
handler, so shards never collide) — fed by one arrival stream
(:class:`~repro.online.workload.ArrivalLayer`), so all cross-shard
interleavings ride the kernel's total event order and two runs of the
same spec are byte-identical.  :class:`~repro.online.OnlineSimulator`
(one shard, the batch as the stream, unbounded admission, no horizon),
:class:`~repro.streaming.StreamingSimulator` (one shard, an open process,
optional backpressure and horizon) and
:class:`~repro.federation.FederatedStreamingSimulator` (many shards, a
router, optionally a work stealer) are configurations of it.

Each tick: gauges, horizon check, next-event target, utilization
accounting, the clock advance, then the instant is *settled* in
ascending shard id — backlog release (jobs queued by admission control
admit while the concurrency limit allows, FIFO), rebalance (the stealer
may migrate jobs, a ``STEAL`` kernel event), dispatch rounds, and one
jobs-in-system sample (active plus backlogged, the count the ledger
keeps up to date).  Every step beyond the
closed batch's is a no-op in its configuration: nothing is backlogged
under unbounded admission, there is no stealer to ask, no horizon to
reach.  Two exits from the steady path:

* **horizon cut-off** — when the next pending arrival falls past
  ``start + horizon`` the pending kernel event is *cancelled* (a queue
  tombstone) and the stream is never pulled again; work already in the
  system drains normally;
* **rescue** — when nothing is scheduled anywhere and some shard carries
  a permanent capacity loss, the stealer may move never-started jobs to
  shards that can still host them before any job is failed.

Inside a shard references point one way: the policy layer reads the
execution layer (which owns the rescheduler and the replans), and each
job carries its own dispatch caches.  When :meth:`ShardedEngine.run`
returns or raises, the kernel drops its processes and pending events,
whose bound handlers hold the layers; a finished run then frees by
refcount, without the cyclic collector.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Iterator, List, Optional, Sequence, Tuple

from ..errors import ConfigError, EnvironmentStateError
from ..faults.plan import FaultPlan
from ..schedulers.base import Scheduler
from ..schedulers.rules import Ranker
from ..sim import SimKernel
from ..telemetry import runtime as _telemetry
from .admission import ADMIT, QUEUE, AdmissionConfig, AdmissionController, QueuedJob
from .execution import ActiveJob, ExecutionLayer
from .policy import PolicyLayer
from .reporting import ReportingLayer, RunLedger
from .results import ArrivingJob
from .workload import ArrivalLayer

__all__ = ["Shard", "ShardSpec", "ShardedEngine"]


@dataclass(frozen=True)
class ShardSpec:
    """Declarative configuration of one shard.

    Attributes:
        capacities: this shard's slice of the cluster, per resource.
        ranker: base dispatch order inside the shard.
        rescheduler: optional scheduler replanning the shard's
            residual DAGs (any registry spec composition).
        admission: shard-local backpressure; ``None`` admits everything.
        faults: shard-local fault plan — the fault *domain*: its crashes
            shrink only this shard's capacity.
    """

    capacities: Tuple[int, ...]
    ranker: Ranker
    rescheduler: Optional[Scheduler] = None
    admission: Optional[AdmissionConfig] = None
    faults: Optional[FaultPlan] = None

    def __post_init__(self) -> None:
        if not self.capacities or any(c < 1 for c in self.capacities):
            raise ConfigError(
                f"shard capacities must be positive, got {self.capacities}"
            )


class Shard:
    """The live state of one scheduling domain on the shared kernel.

    Args:
        shard_id: stable identity; also every deterministic tie-break's
            last resort.
        spec: the shard's declarative configuration.
        kernel: the shared kernel.
        tm: telemetry pipeline facade.
        start: the stream's first arrival (reporting origin).
        offset: global task-handle stride (shared across shards so a
            job keeps its handle identity when stolen).
        ledger: the run's ledger; the shard's reporting layer counts
            each job that leaves the system there.
    """

    def __init__(
        self,
        shard_id: int,
        spec: ShardSpec,
        kernel: SimKernel,
        tm: _telemetry.TelemetryLike,
        start: int,
        offset: int,
        ledger: RunLedger,
    ) -> None:
        self.id = shard_id
        self.capacities = spec.capacities
        rescheduler = spec.rescheduler
        label = rescheduler.name if rescheduler is not None else "online"
        self.reporting = ReportingLayer(spec.capacities, tm, start, label, ledger)
        self.execution = ExecutionLayer(
            spec.capacities, kernel, self.reporting, offset, spec.faults, rescheduler
        )
        self.policy = PolicyLayer(spec.ranker, self.execution)
        self.admission = AdmissionController(spec.admission)
        self.routed = 0
        self.stolen_in = 0
        self.stolen_out = 0

    def load(self) -> int:
        """Jobs bound to this shard: active plus backlogged (with
        :meth:`task_load`, the router's and stealer's input)."""
        return len(self.execution.active) + len(self.admission.backlog)

    def task_load(self) -> int:
        """Remaining tasks bound to this shard (finer-grained load)."""
        active = sum(job.remaining for job in self.execution.active.values())
        backlog = sum(q.graph.num_tasks for q in self.admission.backlog)
        return active + backlog

    def offer(self, queued: QueuedJob, at: int) -> str:
        """Offer a job to this shard's admission controller at ``at``.

        ADMIT enters the execution layer and QUEUE joins the backlog,
        both recorded here; REJECT is returned for the caller to act on
        (an arrival is shed, a steal is undone).
        """
        decision = self.admission.offer(queued, len(self.execution.active))
        if decision == ADMIT:
            self.admit(queued, at)
        elif decision == QUEUE:
            self.reporting.record_queued(queued.index, at, len(self.admission.backlog))
        return decision

    def admit(self, queued: QueuedJob, admit_at: int) -> ActiveJob:
        """Admit a job into this shard's execution layer."""
        job = self.execution.admit(queued.index, queued.arrival_time, queued.graph)
        self.reporting.record_admission(
            queued.index, admit_at, self.admission.config.max_concurrent is not None
        )
        self.execution.replan_job(job)
        return job

    def release_backlog(self, now: int) -> None:
        """Admit backlogged jobs freed by departures at the settled instant."""
        if self.admission.backlog:
            for queued in self.admission.release(len(self.execution.active)):
                self.admit(queued, now)

    def would_admit(self) -> bool:
        """True when an offer right now would be an immediate ADMIT."""
        limit = self.admission.config.max_concurrent
        return limit is None or (
            len(self.execution.active) < limit and not self.admission.backlog
        )


class ShardedEngine:
    """One run: construction wires kernel, shards, ledger and arrival
    layer and anchors the clock at the first arrival; :meth:`run` drives
    it (two steps, because a work stealer is built over :attr:`shards`
    and :attr:`kernel` in between).

    Args:
        specs: one spec per shard; shard ``k`` gets id ``k``.
        stream: ``(index, job)`` pairs in nondecreasing arrival order.
        offset: task-handle stride, an exclusive bound on every task id
            (one stride for all shards, so a job's handles survive a
            cross-shard migration unchanged).
        tm: telemetry pipeline facade.
        router: placement policy; only consulted with several shards.

    Raises:
        ConfigError: on an empty stream or a fault plan its shard
            cannot survive.
    """

    def __init__(
        self,
        specs: Sequence[ShardSpec],
        stream: Iterator[Tuple[int, ArrivingJob]],
        offset: int,
        tm: _telemetry.TelemetryLike,
        router=None,
    ) -> None:
        for spec in specs:
            if spec.faults is not None and not spec.faults.is_null:
                spec.faults.validate_against(spec.capacities)
        first = next(stream, None)
        if first is None:
            raise ConfigError("arrival process yielded no jobs")
        # The simulation starts at the first arrival; the kernel clamps
        # any pre-history fault-timeline entries onto that instant.
        self.start = first[1].arrival_time
        self.kernel = SimKernel(start=self.start)
        self.ledger = RunLedger(tm, federated=len(specs) > 1)
        self.shards: List[Shard] = [
            Shard(k, spec, self.kernel, tm, self.start, offset, self.ledger)
            for k, spec in enumerate(specs)
        ]
        self.workload = ArrivalLayer(
            chain((first,), stream), self.kernel, self.shards, router, self.ledger
        )

    def run(self, max_steps: int, horizon: Optional[int] = None, stealer=None) -> int:
        """Drive the run to completion (or the horizon); return the makespan.

        Args:
            max_steps: safety cap on settled instants.
            horizon: run length in slots from the first arrival; the
                stream is cut off past it (in-flight work drains).
            stealer: optional work stealer (``maybe_rebalance()`` after
                each backlog release, ``rescue()`` on a faulted wedge).

        Raises:
            ConfigError: on a negative horizon.
            EnvironmentStateError: if the step cap is exceeded or the
                run wedges with work it can never place.
        """
        try:
            if horizon is not None and horizon < 0:
                raise ConfigError(f"horizon must be >= 0, got {horizon}")
            kernel, shards, workload = self.kernel, self.shards, self.workload
            ledger = self.ledger
            cutoff = None if horizon is None else self.start + horizon

            def any_active() -> bool:
                return any(shard.execution.active for shard in shards)

            def dispatch() -> None:
                for shard in shards:
                    shard.policy.dispatch_round()

            def settle_instant() -> None:
                """Backlog release, rebalance, dispatch — ascending shard id."""
                for shard in shards:
                    shard.release_backlog(kernel.now)
                if stealer is not None:
                    stealer.maybe_rebalance()
                dispatch()
                ledger.sample_in_system(kernel.now, ledger.in_system)

            # Settle the opening instant (first arrivals routed, pre-history
            # faults) and fill every shard once before the loop gauges.
            kernel.drain_due()
            settle_instant()

            steps = 0
            while any_active() or workload.has_pending:
                steps += 1
                if steps > max_steps:
                    raise EnvironmentStateError("simulation exceeded step cap")
                for shard in shards:
                    shard.reporting.gauges(shard.execution)
                if cutoff is not None:
                    due = workload.pending_arrival_time
                    if due is not None and due > cutoff:
                        workload.close(cutoff)
                        if not any_active() and not workload.has_pending:
                            break
                target = kernel.next_event_time()
                if target is None:
                    if not any_active():
                        # Everything in flight drained at the last instant;
                        # only shard backlogs remain.  Admit from them now.
                        settle_instant()
                        continue
                    if any(shard.execution.fstate is not None for shard in shards):
                        if stealer is not None and stealer.rescue():
                            dispatch()  # migrated jobs need a round to start
                            continue
                        # Permanently stuck (e.g. unrecovered capacity loss
                        # below some task's demand): report, don't lose.
                        for shard in shards:
                            if shard.execution.fstate is not None:
                                shard.execution.fail_stuck()
                        continue
                    raise EnvironmentStateError(
                        "idle cluster with active jobs but nothing ready: "
                        "inconsistent DAG state"
                    )
                for shard in shards:
                    shard.reporting.account(shard.execution.state, target)
                kernel.tick_to(target)
                settle_instant()
            return kernel.now
        finally:
            # Processes and pending events hold their layers' bound
            # handlers, and the layers hold the kernel: let go of them
            # so a finished run frees by refcount.  A run that raised
            # can leave the arrival layer holding its own next arrival.
            self.kernel.clear()
            self.workload._pending = None
