"""The stable-ordered event queue.

A binary min-heap over ``(time, priority_class, seq)`` — the one
event heap in the library.  ``seq`` is a push counter, so equal ``(time, class)``
events pop in insertion order and the queue is totally ordered with no
reliance on payload comparability.

Cancellation is by tombstone: :meth:`cancel` marks the event and the
heap skips it at pop time, keeping cancellation O(1) instead of an
O(n) heap rebuild.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, List, Optional, Tuple

from ..errors import EnvironmentStateError
from .events import Event, EventClass

__all__ = ["EventQueue"]


class EventQueue:
    """Min-heap of :class:`Event` records keyed ``(time, class, seq)``."""

    __slots__ = ("_heap", "_seq", "_live")

    def __init__(self) -> None:
        self._heap: List[Tuple[Tuple[int, int, int], Event]] = []
        self._seq = 0
        self._live = 0

    def push(
        self,
        time: int,
        klass: EventClass,
        handler: Callable[[Event], None],
        payload: Any = None,
    ) -> Event:
        """Schedule an event; returns the record (keep it to cancel).

        Raises:
            EnvironmentStateError: on a negative time.
        """
        if time < 0:
            raise EnvironmentStateError(f"cannot schedule event at {time} < 0")
        self._seq += 1
        event = Event(
            time=int(time),
            klass=klass,
            seq=self._seq,
            handler=handler,
            payload=payload,
        )
        heapq.heappush(self._heap, (event.key, event))
        self._live += 1
        return event

    def cancel(self, event: Event) -> None:
        """Tombstone ``event``; a second cancel is a no-op."""
        if not event.cancelled:
            event.cancelled = True
            self._live -= 1

    def peek_time(self) -> Optional[int]:
        """Due time of the next live event, or ``None`` when empty."""
        self._drop_tombstones()
        return self._heap[0][1].time if self._heap else None

    def pop(self) -> Event:
        """Remove and return the next live event in total order.

        Raises:
            EnvironmentStateError: when the queue is empty.
        """
        self._drop_tombstones()
        if not self._heap:
            raise EnvironmentStateError("pop from an empty event queue")
        _, event = heapq.heappop(self._heap)
        self._live -= 1
        return event

    def pop_due(self, now: int) -> Optional[Event]:
        """Pop the next live event with ``time <= now``, else ``None``."""
        self._drop_tombstones()
        if self._heap and self._heap[0][1].time <= now:
            _, event = heapq.heappop(self._heap)
            self._live -= 1
            return event
        return None

    def _drop_tombstones(self) -> None:
        heap = self._heap
        while heap and heap[0][1].cancelled:
            heapq.heappop(heap)

    def __len__(self) -> int:
        return self._live

    def __bool__(self) -> bool:
        return self._live > 0

    def __repr__(self) -> str:
        head = self.peek_time()
        return f"EventQueue(live={self._live}, next={head})"
