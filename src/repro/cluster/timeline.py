"""The resource-time space of Sec. III-B.

"Each resource dimension can be expressed as a separate rectangle with the
width representing the capacity and the height denoting the time span."

:class:`ResourceTimeSpace` models exactly that: a usage grid indexed by
``(resource, time_slot)`` holding how many slots are occupied.  Its one
consumer is Graphene's planner, which places tasks at arbitrary future
times, both forward (earliest feasible start) and backward (latest
feasible start below a deadline), to derive its task ordering.

The grid grows on demand along the time axis, so callers never have to
pre-size the horizon.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from ..errors import CapacityError, PlacementError
from .resources import validate_demands

__all__ = ["ResourceTimeSpace"]


class ResourceTimeSpace:
    """A growable (resource x time) occupancy grid.

    Args:
        capacities: slots per resource dimension.
        initial_horizon: initial number of time slots allocated (the grid
            grows automatically beyond it).
    """

    def __init__(self, capacities: Sequence[int], initial_horizon: int = 64) -> None:
        if not capacities or any(c <= 0 for c in capacities):
            raise CapacityError(f"invalid capacities {tuple(capacities)}")
        if initial_horizon < 1:
            raise ValueError("initial_horizon must be >= 1")
        self.capacities: Tuple[int, ...] = tuple(int(c) for c in capacities)
        self._usage = np.zeros((len(self.capacities), initial_horizon), dtype=np.int64)

    # ------------------------------------------------------------------ #
    # geometry
    # ------------------------------------------------------------------ #

    @property
    def num_resources(self) -> int:
        """Resource dimensionality."""
        return len(self.capacities)

    @property
    def horizon(self) -> int:
        """Currently allocated number of time slots."""
        return self._usage.shape[1]

    def _ensure_horizon(self, slots: int) -> None:
        if slots <= self.horizon:
            return
        grown = max(slots, 2 * self.horizon)
        extra = np.zeros((self.num_resources, grown - self.horizon), dtype=np.int64)
        self._usage = np.concatenate([self._usage, extra], axis=1)

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #

    def usage(self, resource: int, t: int) -> int:
        """Occupied slots of ``resource`` at time ``t`` (0 beyond horizon)."""
        if t < 0:
            raise ValueError("t must be >= 0")
        if t >= self.horizon:
            return 0
        return int(self._usage[resource, t])

    def free(self, resource: int, t: int) -> int:
        """Free slots of ``resource`` at time ``t``."""
        return self.capacities[resource] - self.usage(resource, t)

    def fits_at(self, demands: Sequence[int], start: int, duration: int) -> bool:
        """True iff ``demands`` fit during ``[start, start + duration)``."""
        if start < 0 or duration < 1:
            return False
        validate_demands(demands, self.capacities, label="placement")
        end = start + duration
        self._ensure_horizon(end)
        window = self._usage[:, start:end]
        demand_col = np.asarray(demands, dtype=np.int64)[:, None]
        capacity_col = np.asarray(self.capacities, dtype=np.int64)[:, None]
        return bool(np.all(window + demand_col <= capacity_col))

    def earliest_start(
        self,
        demands: Sequence[int],
        duration: int,
        not_before: int = 0,
        search_limit: int = 1_000_000,
    ) -> int:
        """Earliest ``t >= not_before`` at which the rectangle fits.

        Raises:
            PlacementError: if no feasible start exists within
                ``search_limit`` slots (indicates an impossible demand, which
                ``validate_demands`` should normally have caught).
        """
        if duration < 1:
            raise PlacementError("duration must be >= 1")
        validate_demands(demands, self.capacities, label="placement")
        t = max(0, int(not_before))
        limit = t + int(search_limit)
        while t <= limit:
            if self.fits_at(demands, t, duration):
                return t
            # Skip ahead: find the first blocking slot and hop past it.
            end = t + duration
            window = self._usage[:, t:end]
            demand_col = np.asarray(demands, dtype=np.int64)[:, None]
            capacity_col = np.asarray(self.capacities, dtype=np.int64)[:, None]
            blocked = np.any(window + demand_col > capacity_col, axis=0)
            last_block = int(np.nonzero(blocked)[0][-1])
            t = t + last_block + 1
        raise PlacementError(
            f"no feasible start for demands {tuple(demands)} within "
            f"{search_limit} slots"
        )

    def latest_start(
        self,
        demands: Sequence[int],
        duration: int,
        deadline: int,
        not_before: int = 0,
    ) -> Optional[int]:
        """Latest ``t`` with ``not_before <= t`` and ``t + duration <= deadline``
        at which the rectangle fits; ``None`` if no such ``t`` exists.

        This is the primitive behind Graphene's *backward* placement, which
        packs troublesome tasks from the top of the time horizon downward.
        """
        if duration < 1:
            raise PlacementError("duration must be >= 1")
        validate_demands(demands, self.capacities, label="placement")
        t = int(deadline) - int(duration)
        floor = max(0, int(not_before))
        while t >= floor:
            if self.fits_at(demands, t, duration):
                return t
            t -= 1
        return None

    # ------------------------------------------------------------------ #
    # mutation
    # ------------------------------------------------------------------ #

    def place(self, demands: Sequence[int], start: int, duration: int) -> None:
        """Occupy ``demands`` during ``[start, start + duration)``.

        Raises:
            PlacementError: if the rectangle does not fit there.
        """
        if not self.fits_at(demands, start, duration):
            raise PlacementError(
                f"demands {tuple(demands)} do not fit at t={start} "
                f"for {duration} slots"
            )
        end = start + duration
        self._ensure_horizon(end)
        demand_col = np.asarray(demands, dtype=np.int64)[:, None]
        self._usage[:, start:end] += demand_col

    def remove(self, demands: Sequence[int], start: int, duration: int) -> None:
        """Undo a prior :meth:`place` with identical arguments.

        Raises:
            PlacementError: if removal would drive usage negative (the
            rectangle was never placed there).
        """
        end = start + duration
        if start < 0 or end > self.horizon:
            raise PlacementError("removal outside the allocated horizon")
        demand_col = np.asarray(demands, dtype=np.int64)[:, None]
        window = self._usage[:, start:end] - demand_col
        if np.any(window < 0):
            raise PlacementError(
                f"cannot remove {tuple(demands)} at t={start}: not placed"
            )
        self._usage[:, start:end] = window

    def makespan(self) -> int:
        """Index one past the last occupied slot (0 if the grid is empty)."""
        occupied = np.any(self._usage > 0, axis=0)
        nonzero = np.nonzero(occupied)[0]
        return int(nonzero[-1]) + 1 if nonzero.size else 0

    def __repr__(self) -> str:
        return (
            f"ResourceTimeSpace(capacities={self.capacities}, "
            f"horizon={self.horizon}, makespan={self.makespan()})"
        )
