"""Cross-shard work stealing: threshold rebalancing and crash rescue.

After each settled instant the engine asks the stealer whether the
shard loads have drifted past the configured imbalance threshold; if
so, a ``STEAL`` kernel event (class 6 — after any same-instant routing,
before replans see the final population) is scheduled at the current
instant and drained immediately, so every migration is an ordered,
recorded kernel occurrence.

The balancing loop repeatedly moves one job from the most- to the
least-loaded shard (ties to the lowest id) and stops when the gap is
within the threshold or no candidate can move.  Candidates, in order:

1. the donor's **backlog tail** — the newest queued job (FIFO fairness
   keeps the oldest waiting jobs at their original shard);
2. an **admitted job with no attempts started** — nothing has run,
   nothing is running, and no retry/backoff event can reference it, so
   its bookkeeping moves wholesale (the original admission time travels
   with it, keeping queueing-delay accounting honest).

Termination is structural: a move only happens when the donor–thief gap
is at least 2, and each move shrinks that gap by exactly 2, so the sum
of squared loads strictly decreases — the loop cannot ping-pong.

:meth:`WorkStealer.rescue` is the fault-domain escape hatch: when the
whole federation is wedged (nothing runnable anywhere, typically after
a permanent capacity loss), never-started jobs are force-moved off
their shard to any shard whose *current* (post-crash) capacities can
host them, regardless of the threshold.  Jobs that already ran attempts
stay put and fail loudly, exactly as in a standalone streaming run.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..online.execution import ActiveJob
from ..online.workload import infeasible_reason
from ..sim import Event, EventClass, SimKernel
from ..streaming.admission import REJECT, QueuedJob
from ..telemetry import runtime as _telemetry
from .ledger import FROM_ADMITTED, FROM_BACKLOG, RESCUE, StealRecord
from .shard import Shard

__all__ = ["WorkStealer"]

_BALANCE = "balance"


class WorkStealer:
    """Threshold-triggered migration between a federation's shards.

    Args:
        shards: the shard universe, ascending id.
        threshold: steal when ``max(load) - min(load)`` exceeds this
            (>= 0, validated by the simulator; the load metric is jobs
            in system).
        kernel: the shared federation kernel (steals are its events).
        tm: telemetry pipeline facade (``federation.steal`` events).

    Attributes:
        steals: every migration, in occurrence order.
    """

    def __init__(
        self,
        shards: Sequence[Shard],
        threshold: int,
        kernel: SimKernel,
        tm: _telemetry.TelemetryLike,
    ) -> None:
        self.shards = list(shards)
        self.threshold = threshold
        self.kernel = kernel
        self.tm = tm
        self.steals: List[StealRecord] = []
        self._moved = False

    # ------------------------------------------------------------------ #
    # engine entry points
    # ------------------------------------------------------------------ #

    def maybe_rebalance(self) -> None:
        """Schedule and drain a STEAL event if loads drifted too far."""
        loads = [shard.load() for shard in self.shards]
        gap = max(loads) - min(loads)
        if gap <= self.threshold or gap < 2:
            return
        kernel = self.kernel
        kernel.schedule(kernel.now, EventClass.STEAL, self._on_steal, _BALANCE)
        kernel.drain_due()

    def rescue(self) -> bool:
        """Force-move never-started jobs off a wedged federation.

        Returns:
            True when at least one job migrated (the engine retries the
            dispatch loop); False when nothing could move (the engine
            falls through to per-shard ``fail_stuck``).
        """
        self._moved = False
        self.kernel.schedule(self.kernel.now, EventClass.STEAL, self._on_steal, RESCUE)
        self.kernel.drain_due()
        return self._moved

    # ------------------------------------------------------------------ #
    # the STEAL event handler
    # ------------------------------------------------------------------ #

    def _on_steal(self, event: Event) -> None:
        if event.payload == RESCUE:
            self._rescue_round()
        else:
            self._balance_round()

    def _balance_round(self) -> None:
        now = self.kernel.now
        while True:
            donor = min(self.shards, key=lambda s: (-s.load(), s.id))
            thief = min(self.shards, key=lambda s: (s.load(), s.id))
            gap = donor.load() - thief.load()
            if donor.id == thief.id or gap <= self.threshold or gap < 2:
                return
            backlogged = bool(donor.admission.backlog)
            steal = self._steal_backlog if backlogged else self._steal_admitted
            if not steal(donor, thief, now):
                return

    def _steal_backlog(self, donor: Shard, thief: Shard, now: int) -> bool:
        queued = donor.admission.backlog.pop()
        if (
            infeasible_reason(queued.graph, thief.capacities) is not None
            or thief.offer(queued, now) == REJECT
        ):  # thief cannot take it (its backlog is full): undo, stop stealing
            donor.admission.backlog.append(queued)
            return False
        self._record(donor, thief, queued.index, now, FROM_BACKLOG)
        return True

    def _steal_admitted(self, donor: Shard, thief: Shard, now: int) -> bool:
        candidates = [
            job for job in donor.execution.active.values() if not job.attempts
        ]
        if not candidates:
            return False
        # Newest arrival first: it has accrued the least shard locality.
        job = max(candidates, key=lambda j: (j.arrival, j.index))
        if (
            infeasible_reason(job.graph, thief.capacities) is not None
            or not thief.would_admit()
        ):
            return False
        self._migrate_admitted(donor, thief, job, now, FROM_ADMITTED)
        return True

    def _rescue_round(self) -> None:
        now = self.kernel.now
        for donor in self.shards:
            movable: List[ActiveJob] = sorted(
                (j for j in donor.execution.active.values() if not j.attempts),
                key=lambda j: j.index,
            )
            for job in movable:
                thief = self._rescue_target(donor, job)
                if thief is not None:
                    self._migrate_admitted(donor, thief, job, now, RESCUE)
                    self._moved = True

    def _rescue_target(self, donor: Shard, job: ActiveJob) -> Optional[Shard]:
        for shard in self.shards:
            if shard.id == donor.id:
                continue
            # Current capacities, not nominal: after a permanent crash the
            # placement contract may hold while the realized pool cannot
            # run the job (or vice versa on another, intact shard).
            current = shard.execution.state.capacities
            if infeasible_reason(job.graph, current) is None and shard.would_admit():
                return shard
        return None

    # ------------------------------------------------------------------ #
    # migration mechanics
    # ------------------------------------------------------------------ #

    def _migrate_admitted(
        self, donor: Shard, thief: Shard, job: ActiveJob, now: int, source: str
    ) -> None:
        """Move an admitted, never-started job's bookkeeping wholesale."""
        del donor.execution.active[job.index]
        thief.admit(
            QueuedJob(job.index, job.arrival, job.graph),
            donor.reporting.admit_times[job.index],
        )
        self._record(donor, thief, job.index, now, source)

    def _record(
        self, donor: Shard, thief: Shard, index: int, now: int, source: str
    ) -> None:
        donor.stolen_out += 1
        thief.stolen_in += 1
        self.steals.append(StealRecord(now, index, donor.id, thief.id, source))
        if self.tm.enabled:
            self.tm.event(
                "federation.steal",
                job=index,
                at=now,
                source=source,
                from_shard=donor.id,
                to_shard=thief.id,
            )
