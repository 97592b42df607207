"""Steal records (kept by the work stealer), and the engine's
:class:`~repro.online.reporting.RunLedger` under its federation name."""

from __future__ import annotations

from dataclasses import dataclass

from ..online.reporting import RunLedger as FederationLedger

__all__ = ["FROM_ADMITTED", "FROM_BACKLOG", "RESCUE", "FederationLedger", "StealRecord"]

#: Steal candidate origins.
FROM_BACKLOG = "backlog"
FROM_ADMITTED = "admitted"
RESCUE = "rescue"


@dataclass(frozen=True)
class StealRecord:
    """One cross-shard job migration.

    Attributes:
        time: the settled instant the move happened at.
        job_index: the migrated job's arrival index.
        from_shard: donor shard id.
        to_shard: thief shard id.
        source: where the job was taken from — ``"backlog"`` (a queued
            job), ``"admitted"`` (admitted but no attempt started), or
            ``"rescue"`` (moved off a permanently-stuck shard).
    """

    time: int
    job_index: int
    from_shard: int
    to_shard: int
    source: str
