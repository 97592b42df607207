"""The kernel: clock + queue + pluggable event sources.

:class:`SimKernel` owns the integer clock and an
:class:`~repro.sim.queue.EventQueue`, runs each popped event's own
handler, and integrates :class:`SimProcess` event *sources* —
components that own future occurrences the queue cannot see until time
reaches them (canonically the cluster adapter, whose next occurrence is
the earliest running-task finish).

Simulated time is an integer slot index (Sec. III of the paper models
time in unit slots, so event ties are exact, never float-fuzzy).  The
clock only moves forward: an event scheduled at or before ``now`` (e.g.
a fault-timeline entry dated before the first job arrival) is
*processed at* ``now`` rather than rewinding it, as a real executor
catches up on a backlog.

One :meth:`tick` is one simulated instant, in three phases:

1. **advance** — the clock jumps to the next due time (min over the
   queue head and every process), and each process gets
   ``advance_to(now, queue)`` to convert whatever elapsed into events
   (e.g. task completions release capacity *here* and enqueue their
   follow-up ``COMPLETION`` events);
2. **drain** — every event with ``time <= now`` pops in
   ``(time, class, seq)`` order and runs its handler; handlers may push
   more same-instant events (a crash pushing a ``REPLAN``) and the
   drain picks them up in order;
3. return — the caller (e.g. the online executor's dispatch loop) acts
   on the settled instant.

The kernel is deliberately policy-free: it never inspects payloads and
has no notion of jobs, tasks, shards or faults.  Layers own their
semantics; the kernel owns *when* and *in what order*.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional, Protocol

from ..errors import EnvironmentStateError
from .events import Event, EventClass
from .queue import EventQueue

__all__ = ["SimKernel", "SimProcess"]


class SimProcess(Protocol):
    """An event source the kernel polls for its next due time."""

    def next_event_time(self) -> Optional[int]:
        """Time of this process's next occurrence, or ``None`` if idle."""

    def advance_to(self, now: int, queue: EventQueue) -> None:
        """Catch up to ``now``, enqueueing any occurrences that fired."""


class SimKernel:
    """Deterministic event loop over one clock and one queue.

    Args:
        start: initial clock time (e.g. the first job arrival, so
            pre-history events collapse onto the simulation start).

    Attributes:
        now: current simulation time in slots; only :meth:`tick_to`
            moves it, and only forward.

    Raises:
        EnvironmentStateError: on a negative ``start``.

    >>> from repro.sim import EventClass, SimKernel
    >>> kernel = SimKernel()
    >>> greet = lambda event: print(kernel.now, event.payload)
    >>> _ = kernel.schedule(5, EventClass.ARRIVAL, greet, "hello")
    >>> kernel.tick()
    5 hello
    5
    """

    def __init__(self, start: int = 0) -> None:
        if start < 0:
            raise EnvironmentStateError(f"clock cannot start at {start} < 0")
        self.now = int(start)
        self.queue = EventQueue()
        self._processes: List[SimProcess] = []

    # ------------------------------------------------------------------ #
    # wiring
    # ------------------------------------------------------------------ #

    def add_process(self, process: SimProcess) -> None:
        """Attach an event source polled at every tick."""
        self._processes.append(process)

    def schedule(
        self,
        time: int,
        klass: EventClass,
        handler: Callable[[Event], None],
        payload: Any = None,
    ) -> Event:
        """Enqueue an event (past times fire at the current instant)."""
        return self.queue.push(time, klass, handler, payload)

    def clear(self) -> None:
        """Drop every process and every pending event (a run's end)."""
        self._processes.clear()
        self.queue = EventQueue()

    # ------------------------------------------------------------------ #
    # the loop
    # ------------------------------------------------------------------ #

    def next_event_time(self) -> Optional[int]:
        """Earliest due time over the queue and every process.

        A backlog event (scheduled at or before ``now``) reports ``now``:
        it is due immediately, not in the past.
        """
        times = []
        queued = self.queue.peek_time()
        if queued is not None:
            times.append(queued)
        for process in self._processes:
            when = process.next_event_time()
            if when is not None:
                times.append(when)
        if not times:
            return None
        return max(self.now, min(times))

    def drain_due(self) -> int:
        """Run every due event (``time <= now``) in total order.

        Events enqueued by handlers are drained too, so the instant is
        fully settled on return.  Returns the number of events run.
        """
        ran = 0
        now = self.now
        while True:
            event = self.queue.pop_due(now)
            if event is None:
                return ran
            event.handler(event)
            ran += 1

    def tick_to(self, time: int) -> int:
        """Advance to ``time``, let processes catch up, drain the instant.

        Returns the number of events run.  ``time`` normally comes from
        :meth:`next_event_time`; passing a later time is allowed (the
        intervening occurrences all fire, in order, at their own
        timestamps' priority — but within this single drain).  An
        earlier ``time`` does not move the clock back.
        """
        if time > self.now:
            self.now = int(time)
        now = self.now
        queue = self.queue
        for process in self._processes:
            process.advance_to(now, queue)
        return self.drain_due()

    def tick(self) -> Optional[int]:
        """One full step: advance to the next due instant and settle it.

        Returns the new ``now``, or ``None`` when nothing is pending
        anywhere (the simulation is over or stuck — callers decide
        which).
        """
        target = self.next_event_time()
        if target is None:
            return None
        self.tick_to(target)
        return self.now
