"""Kernel adapter: :class:`ClusterState` as a ``repro.sim`` event source.

:class:`ClusterProcess` implements the :class:`repro.sim.SimProcess`
protocol over a live :class:`~repro.cluster.state.ClusterState`.  The
cluster's next occurrence is its earliest running-task finish; when the
kernel advances the clock, the adapter releases every entry finishing by
the new instant and enqueues one ``COMPLETION`` event per released entry
(handler: the ``on_completion`` callable it was built with; payload: the
released entry as a :class:`~repro.cluster.state.RunningTask` record),
in completion order.

The split matters for same-instant semantics: capacity *release* happens
here, during time advance — before any event of the instant runs — so a
crash arriving at the same time computes its victims against
post-release occupancy (a task occupies its slots up to, not including,
its finish instant).  Only the *follow-up* work of a completion (DAG
unlocks, outcome records, retries) runs as a ``COMPLETION`` event, after
crash and recovery events of the same instant.  See
:mod:`repro.sim.events` for the full tie-break table.
"""

from __future__ import annotations

from typing import Callable, Optional

from ..sim.events import Event, EventClass
from ..sim.queue import EventQueue
from .state import ClusterState, RunningTask

__all__ = ["ClusterProcess"]


class ClusterProcess:
    """Expose a :class:`ClusterState`'s completions as kernel events.

    Args:
        state: the live cluster; the adapter owns its time advancement
            (callers must not call ``advance`` on it directly while the
            kernel is driving).
        on_completion: handler of the ``COMPLETION`` events it enqueues.
    """

    __slots__ = ("state", "on_completion")

    def __init__(
        self, state: ClusterState, on_completion: Callable[[Event], None]
    ) -> None:
        self.state = state
        self.on_completion = on_completion

    def next_event_time(self) -> Optional[int]:
        """Earliest running-task finish, or ``None`` when idle."""
        if self.state.is_idle:
            return None
        return self.state.earliest_finish_time()

    def advance_to(self, now: int, queue: EventQueue) -> None:
        """Advance cluster time to ``now``; enqueue released completions."""
        state = self.state
        dt = now - state.now
        if dt <= 0:
            return
        for entry in state.advance_entries(dt):
            queue.push(
                now, EventClass.COMPLETION, self.on_completion, RunningTask._make(entry)
            )
