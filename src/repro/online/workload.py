"""Workload layer: feasibility, and one arrival stream routed to shards.

The engine's only view of the workload is an iterator of ``(index,
job)`` pairs in nondecreasing arrival order (a closed batch sorted by
``(arrival_time, stream index)``, or an enumerated open process).  The
layer keeps **exactly one** future arrival scheduled: when it fires, the
next pair is pulled and scheduled, so thousand-job processes are never
materialized, and the kernel's push-sequence tie-break reproduces stream
order at shared instants.

An ``ARRIVAL`` only records the arrival and schedules a ``ROUTE`` event
(class 5) at the same instant.  ROUTE orders *after* ARRIVAL, so every
same-instant arrival is offered before the first placement runs — a
load-aware router sees the settled load picture, never a half-delivered
burst.  A job **no** shard can feasibly run is rejected above the shards
(an open system keeps serving; the closed batch makes the same condition
fatal up front, :func:`validate_stream`).  Otherwise the router picks one
feasible shard — consulted only when there is more than one — and the
job is offered to *that shard's* admission controller: ADMIT enters its
execution layer, QUEUE joins its backlog, REJECT is shard-local
backpressure.  :meth:`ArrivalLayer.close` is the horizon cut-off.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator, Optional, Sequence, Tuple

from ..cluster.resources import fits, validate_demands
from ..dag.graph import TaskGraph
from ..errors import CapacityError, ConfigError
from ..sim import Event, EventClass, SimKernel
from .admission import REJECT, QueuedJob
from .reporting import RunLedger
from .results import ArrivingJob

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .engine import Shard

__all__ = ["ArrivalLayer", "check_feasible", "infeasible_reason", "validate_stream"]


def check_feasible(graph: TaskGraph, capacities: Sequence[int]) -> None:
    """Raise unless every task of ``graph`` can ever fit ``capacities``.

    Raises:
        ConfigError: on a resource-dimension mismatch.
        CapacityError: on a task whose demands exceed total capacity.
    """
    if graph.num_resources != len(capacities):
        raise ConfigError(
            f"job has {graph.num_resources} resource dims, "
            f"cluster has {len(capacities)}"
        )
    if fits(graph.peak_demand, capacities):  # dimensions match: checked above
        return
    for task in graph:  # name the first task that can never fit
        if not fits(task.demands, capacities):
            validate_demands(task.demands, capacities, label=task.label())


def infeasible_reason(graph: TaskGraph, capacities: Sequence[int]) -> Optional[str]:
    """Why ``capacities`` can never run ``graph``, or ``None`` if they can."""
    try:
        check_feasible(graph, capacities)
    except (CapacityError, ConfigError) as exc:
        return str(exc)
    return None


def validate_stream(jobs: Sequence[ArrivingJob], capacities: Sequence[int]) -> None:
    """Reject closed batches the cluster can never run.

    Raises:
        ConfigError: on an empty stream or a resource-dimension mismatch.
        CapacityError: on a task whose demands exceed total capacity.
    """
    if not jobs:
        raise ConfigError("need at least one arriving job")
    for job in jobs:
        check_feasible(job.graph, capacities)


class ArrivalLayer:
    """Feeds one arrival stream through routing into the shards.

    Args:
        stream: ``(index, job)`` pairs, nondecreasing arrival times,
            none earlier than the kernel clock.
        kernel: the shared kernel (arrivals and routes are run-level
            events, not shard-level ones).
        shards: the shard universe, ascending id.
        router: placement policy over feasible shards; never consulted
            (may be ``None``) when there is a single shard.
        ledger: run-level bookkeeping.
    """

    def __init__(
        self,
        stream: Iterator[Tuple[int, ArrivingJob]],
        kernel: SimKernel,
        shards: Sequence["Shard"],
        router,
        ledger: RunLedger,
    ) -> None:
        self.kernel = kernel
        self.shards = list(shards)
        self.router = router
        self.ledger = ledger
        self._stream = stream
        self._last_arrival = kernel.now
        self._pending: Optional[Event] = None
        self._schedule_next()

    def _schedule_next(self) -> None:
        pair = next(self._stream, None)
        if pair is None:
            return
        index, job = pair
        if job.arrival_time < self._last_arrival:
            raise ConfigError(
                f"arrival process went backwards: job {index} at "
                f"{job.arrival_time} after {self._last_arrival}"
            )
        self._last_arrival = job.arrival_time
        self._pending = self.kernel.schedule(
            job.arrival_time, EventClass.ARRIVAL, self._on_arrival, pair
        )

    def close(self, at: int) -> None:
        """Horizon cut-off: tombstone the pending arrival, stop pulling."""
        if self._pending is not None:
            self.kernel.queue.cancel(self._pending)
            index, job = self._pending.payload
            self.ledger.arrivals_seen += 1
            self.ledger.record_rejection(index, job.arrival_time, "horizon")
        self._pending = None
        self._stream = iter(())
        self.ledger.record_cutoff(at)

    @property
    def pending_arrival_time(self) -> Optional[int]:
        """Due time of the scheduled (not yet fired) arrival, if any."""
        return None if self._pending is None else self._pending.time

    @property
    def has_pending(self) -> bool:
        """Work remains outside the execution layers (stream or backlogs)."""
        if self._pending is not None:
            return True
        return any(shard.admission.backlog for shard in self.shards)

    def _on_arrival(self, event: Event) -> None:
        self._pending = None
        self.ledger.arrivals_seen += 1
        self.kernel.schedule(
            event.time, EventClass.ROUTE, self._on_route, event.payload
        )
        self._schedule_next()

    def _on_route(self, event: Event) -> None:
        index, job = event.payload
        shards = self.shards
        reasons = [infeasible_reason(job.graph, shard.capacities) for shard in shards]
        feasible = [s for s, reason in zip(shards, reasons) if reason is None]
        if not feasible:
            # Shard 0's reason: with homogeneous shards every reason is
            # identical, and one shard's reason is the cluster's.
            self.ledger.record_rejection(index, job.arrival_time, reasons[0])
            return
        if len(shards) > 1:
            shard = self.router.route(index, job, feasible, len(shards))
            self.ledger.record_route(index, shard.id, job.arrival_time)
        else:
            shard = feasible[0]
        shard.routed += 1
        queued = QueuedJob(index, job.arrival_time, job.graph)
        if shard.offer(queued, job.arrival_time) == REJECT:
            shard.reporting.record_rejection(index, job.arrival_time, "backpressure")
        else:
            self.ledger.in_system += 1
