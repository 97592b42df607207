"""Capacity splitting; :class:`Shard` and :class:`ShardSpec` are parts of
the engine (:mod:`repro.online.engine`), re-exported here."""

from __future__ import annotations

from typing import List, Sequence, Tuple

from ..errors import ConfigError
from ..online.engine import Shard, ShardSpec

__all__ = ["Shard", "ShardSpec", "split_capacities"]


def split_capacities(total: Sequence[int], shards: int) -> List[Tuple[int, ...]]:
    """Partition ``total`` into ``shards`` near-equal slices.

    Each dimension is divided evenly; the remainder goes one slot at a
    time to the lowest shard ids.  Every slice must keep at least one
    slot per dimension (a zero-capacity shard can run nothing).

    Raises:
        ConfigError: if ``shards`` < 1 or any dimension is too small to
            give every shard a slot.
    """
    if shards < 1:
        raise ConfigError(f"need at least one shard, got {shards}")
    caps = tuple(int(c) for c in total)
    if any(c < shards for c in caps):
        raise ConfigError(
            f"cannot split capacities {caps} into {shards} shards: "
            "every shard needs >= 1 slot per dimension"
        )
    slices = []
    for k in range(shards):
        slices.append(
            tuple(c // shards + (1 if k < c % shards else 0) for c in caps)
        )
    return slices
