"""Typed event records and the documented priority classes.

Every occurrence the kernel processes is one :class:`Event`: a time, a
priority class, a push-order sequence number, the callable that handles
it, and an opaque payload.  The total order over events is
``(time, priority_class, seq)``.

Priority classes (the tie-break table at equal times):

=============== ===== ==========================================================
class           value rationale
=============== ===== ==========================================================
``CRASH``       0     capacity loss lands before anything reacts to the instant
``RECOVERY``    1     restored capacity is visible to same-time bookkeeping
``COMPLETION``  2     completion *follow-ups* (DAG unlocks, outcome records);
                      the capacity itself is released when the clock advances
``RETRY_READY`` 3     a backed-off attempt re-enters the ready set
``ARRIVAL``     4     admission reads the fully settled cluster instant
``ROUTE``       5     federation placement runs after every same-instant
                      arrival has been offered, so routing sees them all
``STEAL``       6     cross-shard rebalancing reads post-placement loads
``REPLAN``      7     replanning sees everything that happened at this time
=============== ===== ==========================================================

Note the ``COMPLETION`` caveat: resource *release* is not an event — it
happens during time advance (a task occupies its slots up to and not
including its finish instant), so a same-time crash computes victims
against post-release occupancy.  Only the follow-up work of a
completion is an event in this table.  One deliberate exception rides
on top: the fault timeline preserves its own documented intra-tie order
(recoveries before crashes at the same instant, so capacity never
transiently over-subscribes) — see
:class:`repro.faults.injector.TimelineCursor`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import IntEnum
from typing import Any, Callable, Optional, Tuple

__all__ = ["Event", "EventClass", "describe"]


class EventClass(IntEnum):
    """Tie-break priority at equal event times; lower fires first."""

    CRASH = 0
    RECOVERY = 1
    COMPLETION = 2
    RETRY_READY = 3
    ARRIVAL = 4
    ROUTE = 5
    STEAL = 6
    REPLAN = 7


@dataclass
class Event:
    """One scheduled occurrence.

    Attributes:
        time: slot index the event is due at.
        klass: tie-break class at equal times.
        seq: queue-assigned push counter — the final tie-break, and the
            proof that insertion order is stable.
        handler: called with the event when it is drained (typically a
            bound method of the layer that scheduled it).
        payload: opaque handler argument.
        cancelled: a cancelled event stays in the heap but is skipped at
            pop time (tombstone deletion).
    """

    time: int
    klass: EventClass
    seq: int
    handler: Callable[["Event"], None]
    payload: Any = None
    cancelled: bool = field(default=False, compare=False)

    @property
    def key(self) -> Tuple[int, int, int]:
        """The total-order key ``(time, priority_class, seq)``."""
        return (self.time, int(self.klass), self.seq)


def describe(event: Optional[Event]) -> str:
    """Compact human-readable form for logs and assertion messages."""
    if event is None:
        return "<no event>"
    flag = " cancelled" if event.cancelled else ""
    return (
        f"<{event.handler.__qualname__}@{event.time} class={event.klass.name} "
        f"seq={event.seq}{flag}>"
    )

