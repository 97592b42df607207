"""Exact integer arithmetic over multi-dimensional resource vectors.

Resources are plain tuples of non-negative integers (slot counts), so all
capacity checks are exact — no floating-point drift can admit a task that
does not fit.  Free functions (rather than a wrapper class) keep the hot
paths of the simulator allocation-free.
"""

from __future__ import annotations

from typing import Sequence, Tuple

from ..errors import CapacityError

ResourceVector = Tuple[int, ...]

__all__ = ["ResourceVector", "fits", "validate_demands"]


def fits(demands: Sequence[int], available: Sequence[int]) -> bool:
    """True iff ``demands[r] <= available[r]`` for every resource ``r``."""

    # Plain loop: this is the innermost simulator check (millions of
    # calls per run) and a generator expression costs a frame per call.
    for d, a in zip(demands, available):
        if d > a:
            return False
    return True


def validate_demands(
    demands: Sequence[int], capacities: Sequence[int], label: str = "task"
) -> None:
    """Raise :class:`CapacityError` unless ``demands`` can ever fit.

    A task demanding more than the *total* capacity of any dimension can
    never be scheduled; detecting this up front turns a would-be livelock
    into a clear error.
    """

    if len(demands) != len(capacities):
        raise CapacityError(
            f"{label}: demand vector has {len(demands)} dims, "
            f"cluster has {len(capacities)}"
        )
    for r, (d, c) in enumerate(zip(demands, capacities)):
        if d > c:
            raise CapacityError(
                f"{label}: demand {d} for resource {r} exceeds capacity {c}"
            )
