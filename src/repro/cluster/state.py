"""Live cluster state: running tasks, free capacity, event-driven time.

:class:`ClusterState` is the hot data structure of the whole library — the
scheduling environment steps it, MCTS clones it thousands of times per
decision, and every baseline policy queries it.  It is therefore designed
for cheap cloning: running tasks are immutable tuples kept in a min-heap
keyed by finish time, and a clone is a shallow list copy.

A heap entry is a plain ``(finish_time, task_id, demands)`` tuple, not a
:class:`RunningTask`: the environment's step and both playouts push one
per start, and a plain tuple is cheaper to build while comparing,
sorting and hashing exactly like the record.  Readers that want names
get records from :meth:`ClusterState.running_tasks`.

Time semantics: ``now`` is the current slot index.  Starting a task
occupies its demands immediately; the task finishes at ``now + runtime``.
``advance(dt)`` moves time forward and releases every task whose finish
time has been reached; ``advance_to_next_event()`` jumps straight to the
earliest finish time (the Sec. III-C tree-depth optimization: "we will only
proceed until at least one task finishes, since no new information arrives
prior").
"""

from __future__ import annotations

import heapq  # running-task heap, cloned per MCTS decision
from typing import List, NamedTuple, Sequence, Tuple

from ..errors import CapacityError, EnvironmentStateError
from .resources import ResourceVector, fits, validate_demands

__all__ = ["RunningTask", "ClusterState"]

#: A heap entry: ``(finish_time, task_id, demands)``.
Entry = Tuple[int, int, Tuple[int, ...]]


class RunningTask(NamedTuple):
    """A task currently occupying the cluster, as :meth:`running_tasks`
    reports it.

    Heap ordering is by ``finish_time`` then ``task_id``, which makes the
    completion order deterministic.  The heap itself holds the same
    three fields as a plain tuple, which compares equal to the record.
    """

    finish_time: int
    task_id: int
    demands: Tuple[int, ...]


class ClusterState:
    """Mutable multi-resource cluster simulator state.

    Args:
        capacities: total slots per resource dimension.
        now: initial simulation time (default 0).

    Example:
        >>> state = ClusterState((10, 10))
        >>> state.start(task_id=1, demands=(4, 2), runtime=3)
        (3, 1, (4, 2))
        >>> state.available
        (6, 8)
        >>> state.advance_to_next_event()
        (3, [1])
        >>> state.available
        (10, 10)
    """

    __slots__ = ("capacities", "_available", "_running", "now")

    def __init__(self, capacities: Sequence[int], now: int = 0) -> None:
        if not capacities or any(c <= 0 for c in capacities):
            raise CapacityError(f"invalid capacities {tuple(capacities)}")
        self.capacities: ResourceVector = tuple(int(c) for c in capacities)
        self._available: List[int] = list(self.capacities)
        self._running: List[Entry] = []
        self.now: int = int(now)

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #

    @property
    def available(self) -> ResourceVector:
        """Currently free slots per resource."""
        return tuple(self._available)

    @property
    def num_resources(self) -> int:
        """Resource dimensionality."""
        return len(self.capacities)

    @property
    def num_running(self) -> int:
        """Number of tasks currently occupying the cluster."""
        return len(self._running)

    @property
    def is_idle(self) -> bool:
        """True iff no task is running."""
        return not self._running

    def running_tasks(self) -> List[RunningTask]:
        """Running tasks sorted by (finish_time, task_id)."""
        return [RunningTask._make(entry) for entry in sorted(self._running)]

    def running_ids(self) -> List[int]:
        """Ids of running tasks, in completion order."""
        return [entry[1] for entry in sorted(self._running)]

    def occupancy(self) -> Tuple[Tuple[int, Tuple[int, ...]], ...]:
        """Sorted ``(remaining slots, demands)`` of the running tasks.

        Everything the resource-time occupancy of the coming slots
        depends on, and nothing else: no task ids, no absolute clock.
        Two states with equal occupancy render the same cluster image.
        """
        now = self.now
        return tuple(
            sorted([(entry[0] - now, entry[2]) for entry in self._running])
        )

    def can_fit(self, demands: Sequence[int]) -> bool:
        """True iff ``demands`` fit in the currently free capacity."""
        return fits(demands, self._available)

    def earliest_finish_time(self) -> int:
        """Finish time of the next task to complete.

        Raises:
            EnvironmentStateError: if the cluster is idle.
        """
        if not self._running:
            raise EnvironmentStateError("no running tasks: no next event")
        return self._running[0][0]

    def utilization(self) -> Tuple[float, ...]:
        """Fraction of each resource currently in use."""
        return tuple(
            (cap - avail) / cap
            for cap, avail in zip(self.capacities, self._available)
        )

    # ------------------------------------------------------------------ #
    # mutation
    # ------------------------------------------------------------------ #

    def start(self, task_id: int, demands: Sequence[int], runtime: int) -> Entry:
        """Begin running a task now, occupying its demands.

        Returns:
            The ``(finish_time, task_id, demands)`` entry recorded for the
            task — keep it to remove the task again with :meth:`kill`.

        Raises:
            CapacityError: if the demands exceed free capacity (or can never
                fit at all).
            EnvironmentStateError: on a non-positive runtime.
        """
        if runtime < 1:
            raise EnvironmentStateError(
                f"task {task_id}: runtime must be >= 1, got {runtime}"
            )
        capacities = self.capacities
        if len(demands) != len(capacities) or not fits(demands, capacities):
            # The label is formatted only on the failing path.
            validate_demands(demands, capacities, label=f"task {task_id}")
        available = self._available
        for r, demand in enumerate(demands):
            if demand > available[r]:
                raise CapacityError(
                    f"task {task_id}: demands {tuple(demands)} exceed free "
                    f"capacity {self.available}"
                )
        for r, demand in enumerate(demands):
            available[r] -= demand
        entry = (self.now + int(runtime), int(task_id), tuple(demands))
        heapq.heappush(self._running, entry)
        return entry

    def kill(self, entry: Entry) -> None:
        """Remove a running task *without* completing it (fault handling).

        ``entry`` is what :meth:`start` returned or a record from
        :meth:`running_tasks`; the two compare equal.  The entry leaves
        the heap and its demands are released; the occupied slot-time is
        lost, not refunded, and the caller is expected to re-enqueue the
        work.

        Raises:
            EnvironmentStateError: if ``entry`` is not currently running.
        """
        _, task_id, demands = entry
        try:
            self._running.remove(entry)
        except ValueError:
            raise EnvironmentStateError(
                f"kill: task {task_id} is not running"
            ) from None
        heapq.heapify(self._running)
        for r, demand in enumerate(demands):
            self._available[r] += demand

    def adjust_capacity(self, deltas: Sequence[int]) -> None:
        """Shrink or grow total capacity in place (machine crash/recovery).

        ``deltas`` may be negative (crash) or positive (recovery); both
        :attr:`capacities` and the free pool move together.  Shrinking
        below current usage is rejected — the caller must :meth:`kill`
        victims first so the freed slots cover the loss.

        Raises:
            CapacityError: on a dimension mismatch, or when a shrink
                exceeds the currently free slots of some resource.
        """

        deltas = tuple(int(d) for d in deltas)
        if len(deltas) != len(self.capacities):
            raise CapacityError(
                f"capacity delta {deltas} has {len(deltas)} dims, "
                f"cluster has {len(self.capacities)}"
            )
        for r, delta in enumerate(deltas):
            if delta < 0 and self._available[r] + delta < 0:
                raise CapacityError(
                    f"cannot remove {-delta} slots of resource {r}: only "
                    f"{self._available[r]} free (kill running tasks first)"
                )
            if self.capacities[r] + delta < 0:
                raise CapacityError(
                    f"cannot remove {-delta} slots of resource {r}: capacity "
                    f"is only {self.capacities[r]}"
                )
        self.capacities = tuple(c + d for c, d in zip(self.capacities, deltas))
        for r, delta in enumerate(deltas):
            self._available[r] += delta

    def advance(self, dt: int) -> List[int]:
        """Move time forward by ``dt`` slots; release finished tasks.

        Returns:
            Ids of tasks that completed in ``(now, now + dt]``, in
            completion order.

        Raises:
            EnvironmentStateError: if ``dt`` is not positive.
        """
        return [entry[1] for entry in self.advance_entries(dt)]

    def advance_entries(self, dt: int) -> List[Entry]:
        """Like :meth:`advance` but return the full released entries.

        The returned ``(finish_time, task_id, demands)`` entries are in
        completion order.

        Raises:
            EnvironmentStateError: if ``dt`` is not positive.
        """
        if dt < 1:
            raise EnvironmentStateError(f"dt must be >= 1, got {dt}")
        self.now += int(dt)
        now = self.now
        completed: List[Entry] = []
        running = self._running
        available = self._available
        while running and running[0][0] <= now:
            entry = heapq.heappop(running)
            for r, demand in enumerate(entry[2]):
                available[r] += demand
            completed.append(entry)
        return completed

    def advance_to_next_event(self) -> Tuple[int, List[int]]:
        """Jump time to the earliest finish and release finished tasks.

        Returns:
            ``(new_now, completed_ids)``; at least one task completes.

        Raises:
            EnvironmentStateError: if the cluster is idle.
        """
        running = self._running
        if not running:
            raise EnvironmentStateError("no running tasks: no next event")
        completed = self.advance_entries(running[0][0] - self.now)
        return self.now, [entry[1] for entry in completed]

    # ------------------------------------------------------------------ #
    # copying / equality
    # ------------------------------------------------------------------ #

    def clone(self) -> "ClusterState":
        """Cheap deep-enough copy (running entries are immutable tuples).

        ``_running`` is a binary min-heap stored as a plain list; the
        shallow ``list(...)`` copy preserves element order exactly, so the
        clone's list satisfies the same heap invariant as the original
        (``heap[k] <= heap[2k+1]`` and ``heap[k] <= heap[2k+2]``) without a
        re-``heapify``.  :meth:`heap_invariant_ok` makes this checkable;
        the regression tests interleave ``advance``/``start`` on clones to
        pin the property down.
        """
        copy = ClusterState.__new__(ClusterState)
        copy.capacities = self.capacities
        copy._available = list(self._available)
        copy._running = list(self._running)
        copy.now = self.now
        return copy

    def heap_invariant_ok(self) -> bool:
        """True iff the internal running-task list is a valid min-heap."""
        heap = self._running
        n = len(heap)
        for k in range((n - 2) // 2 + 1):
            left, right = 2 * k + 1, 2 * k + 2
            if left < n and heap[left] < heap[k]:
                return False
            if right < n and heap[right] < heap[k]:
                return False
        return True

    def signature(self) -> Tuple:
        """Hashable snapshot of the state (for transposition detection)."""
        return (self.now, tuple(self._available), tuple(sorted(self._running)))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ClusterState):
            return NotImplemented
        return (
            self.capacities == other.capacities
            and self.signature() == other.signature()
        )

    def __hash__(self) -> int:
        return hash((self.capacities, self.signature()))

    def __repr__(self) -> str:
        return (
            f"ClusterState(now={self.now}, available={self.available}, "
            f"running={len(self._running)})"
        )
