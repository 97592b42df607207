"""Shard-local kernel views: kind namespacing over one shared kernel.

Every shard of a run reuses the online stack unchanged —
:class:`~repro.online.execution.ExecutionLayer`,
:class:`~repro.online.policy.PolicyLayer`,
:class:`~repro.cluster.sim_adapter.ClusterProcess` — but all shards
share **one** :class:`~repro.sim.SimKernel` (a single clock, a single
totally-ordered event queue, so cross-shard interleavings are
deterministic).  Those layers register fixed kind strings
(``cluster.completion``, ``fault.timeline``, ``policy.replan``, …) and
:meth:`SimKernel.register` rejects duplicates, so two shards cannot
coexist on the raw kernel.

:class:`ShardKernelView` solves this with namespacing: every kind a
shard registers, schedules, or pushes is prefixed ``shard<K>.``.  The
rewrite has to happen at the *queue*, not just the kernel facade,
because :class:`SimProcess` sources (the cluster adapter, the execution
layer's deferred retries) push events straight into the queue handed to
``advance_to`` — so added processes are wrapped to receive a namespacing
queue adapter over the same underlying heap.

Event *times and classes* are untouched: a shard's crash still drains
before another shard's completion at the same instant, exactly per the
:class:`~repro.sim.EventClass` table, with the shared push-sequence
counter breaking (time, class) ties across shards in schedule order.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from ..sim import Event, EventClass, EventQueue, SimKernel, SimProcess
from ..sim.events import default_kind

__all__ = ["ShardKernelView"]


class _NamespacedQueue:
    """An :class:`EventQueue` facade rewriting kinds into one namespace."""

    __slots__ = ("_queue", "_prefix")

    def __init__(self, queue: EventQueue, prefix: str) -> None:
        self._queue = queue
        self._prefix = prefix

    def push(
        self,
        time: int,
        klass: EventClass,
        kind: Optional[str] = None,
        payload: Any = None,
    ) -> Event:
        base = kind if kind is not None else default_kind(klass)
        return self._queue.push(time, klass, self._prefix + base, payload)

    def cancel(self, event: Event) -> None:
        self._queue.cancel(event)


class _NamespacedProcess:
    """Wrap a :class:`SimProcess` so its pushes land in the namespace."""

    __slots__ = ("_process", "_queue")

    def __init__(self, process: SimProcess, queue: _NamespacedQueue) -> None:
        self._process = process
        self._queue = queue

    def next_event_time(self) -> Optional[int]:
        return self._process.next_event_time()

    def advance_to(self, now: int, queue: EventQueue) -> None:
        del queue  # the namespaced adapter wraps the same heap
        self._process.advance_to(now, self._queue)  # type: ignore[arg-type]


class ShardKernelView:
    """One shard's private window onto the shared kernel: duck-type
    compatible with the :class:`SimKernel` surface the online layers use
    (``now``, ``register``, ``schedule``, ``add_process``, ``queue``).

    Args:
        kernel: the shared kernel.
        shard_id: namespace key; must be unique per run.
    """

    __slots__ = ("kernel", "prefix", "queue")

    def __init__(self, kernel: SimKernel, shard_id: int) -> None:
        self.kernel = kernel
        self.prefix = f"shard{shard_id}."
        self.queue = _NamespacedQueue(kernel.queue, self.prefix)

    @property
    def now(self) -> int:
        """The shared simulation clock (shards never have private time)."""
        return self.kernel.now

    def register(self, kind: str, handler: Callable[[Event], None]) -> None:
        """Bind ``handler`` to this shard's namespaced ``kind``."""
        self.kernel.register(self.prefix + kind, handler)

    def add_process(self, process: SimProcess) -> None:
        """Attach an event source whose pushes are namespaced."""
        self.kernel.add_process(_NamespacedProcess(process, self.queue))

    def schedule(
        self,
        time: int,
        klass: EventClass,
        kind: Optional[str] = None,
        payload: Any = None,
    ) -> Event:
        """Enqueue a namespaced event on the shared queue."""
        return self.queue.push(time, klass, kind, payload)
