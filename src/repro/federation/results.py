"""Federation results: per-shard views, the aggregate, the comparison.

The aggregate of a federated run is a
:class:`~repro.streaming.results.StreamingResult` — the one result
assembly (:func:`~repro.streaming.results.aggregate_result`) taken over
every shard — so everything that consumes streaming results (metrics
schema, gates, reports) consumes federation results unchanged; a
shard's own view is the same assembly over that shard alone.

:class:`FederationResult` wraps the aggregate with the federation-only
accounting: one :class:`ShardReport` per shard (its shard-local
streaming view plus routing/stealing counters) and the full ordered
steal record.  :class:`FederationComparison` pairs a federated run with
an equal-total-capacity single-scheduler baseline for the
``--compare-global`` CLI artifact.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Tuple

from ..streaming.results import StreamingResult, aggregate_result
from .ledger import FROM_ADMITTED, FROM_BACKLOG, RESCUE, StealRecord

__all__ = [
    "FederationComparison",
    "FederationResult",
    "ShardReport",
    "aggregate_result",
]


@dataclass(frozen=True)
class ShardReport:
    """One shard's view of a federated run.

    Attributes:
        shard_id: stable shard identity.
        capacities: the shard's nominal capacity slice.
        result: the shard-local streaming result (outcomes, utilization
            integrals, fault record of *this* fault domain).  Its
            ``arrivals`` field is 0 — arrivals are federation-level.
        routed: jobs the router placed here.
        stolen_in: jobs migrated in by the work stealer.
        stolen_out: jobs migrated away by the work stealer.
    """

    shard_id: int
    capacities: Tuple[int, ...]
    result: StreamingResult
    routed: int
    stolen_in: int
    stolen_out: int


@dataclass(frozen=True)
class FederationResult:
    """Aggregate outcome of one federated run.

    Attributes:
        aggregate: the federation-wide streaming-equivalent result.
        shards: per-shard views, ascending shard id.
        steals: every cross-shard migration, in occurrence order.
        router: the routing policy's name.
        steal_threshold: the configured imbalance threshold, or -1 when
            stealing was disabled.
    """

    aggregate: StreamingResult
    shards: Tuple[ShardReport, ...]
    steals: Tuple[StealRecord, ...]
    router: str
    steal_threshold: int = -1

    def steal_counts(self) -> Dict[str, int]:
        """Migration counts by candidate source."""
        counts = {FROM_BACKLOG: 0, FROM_ADMITTED: 0, RESCUE: 0}
        for steal in self.steals:
            counts[steal.source] = counts.get(steal.source, 0) + 1
        return counts

    def metrics_dict(self) -> Dict[str, Any]:
        """Deterministic JSON-ready summary: streaming schema + shards."""
        base = self.aggregate.metrics_dict()
        base["federation"] = {
            "router": self.router,
            "steal_threshold": self.steal_threshold,
            "steals": {"total": len(self.steals), **self.steal_counts()},
            "shards": [
                {
                    "id": report.shard_id,
                    "capacities": list(report.capacities),
                    "routed": report.routed,
                    "admitted": report.result.admitted,
                    "completed": report.result.online.completed_jobs,
                    "failed": report.result.online.failed_jobs,
                    "rejected": len(report.result.rejected),
                    "stolen_in": report.stolen_in,
                    "stolen_out": report.stolen_out,
                    "utilization": list(report.result.online.mean_utilization),
                    "p99_jct": report.result.p99_jct,
                }
                for report in self.shards
            ],
        }
        return base

    def report(self) -> str:
        """Plain-text operator summary: aggregate plus per-shard lines."""
        lines = [self.aggregate.report()]
        counts = self.steal_counts()
        lines.append(
            f"federation: {len(self.shards)} shards, router {self.router}, "
            f"steals {len(self.steals)} "
            f"(backlog {counts[FROM_BACKLOG]}, admitted {counts[FROM_ADMITTED]}, "
            f"rescue {counts[RESCUE]})"
        )
        for report in self.shards:
            util = "/".join(
                f"{u:.0%}" for u in report.result.online.mean_utilization
            )
            lines.append(
                f"  shard {report.shard_id} {report.capacities}: "
                f"routed {report.routed} admitted {report.result.admitted} "
                f"completed {report.result.online.completed_jobs} "
                f"failed {report.result.online.failed_jobs} "
                f"steal +{report.stolen_in}/-{report.stolen_out} "
                f"util {util} p99 {report.result.p99_jct:.0f}"
            )
        return "\n".join(lines)


@dataclass(frozen=True)
class FederationComparison:
    """A federated run against its equal-capacity global baseline.

    The baseline is a single :class:`~repro.streaming.StreamingSimulator`
    over the *total* capacity vector, same arrival stream, same fault
    spec — the "one big scheduler" the federation trades against.
    """

    federation: FederationResult
    global_run: StreamingResult

    def metrics_dict(self) -> Dict[str, Any]:
        fed = self.federation.aggregate
        glob = self.global_run
        return {
            "schema": 1,
            "mode": "federation_vs_global",
            "federation": self.federation.metrics_dict(),
            "global": glob.metrics_dict(),
            "delta": {
                "p99_jct": fed.p99_jct - glob.p99_jct,
                "mean_jct": (
                    (fed.online.mean_jct if fed.online.outcomes else 0.0)
                    - (glob.online.mean_jct if glob.online.outcomes else 0.0)
                ),
                "throughput_jobs_per_slot": fed.throughput - glob.throughput,
                "completed": fed.online.completed_jobs - glob.online.completed_jobs,
            },
        }

    def report(self) -> str:
        fed = self.federation.aggregate
        glob = self.global_run
        return "\n".join(
            [
                "== federation ==",
                self.federation.report(),
                "== global baseline ==",
                glob.report(),
                "== delta (federation - global) ==",
                f"p99 JCT {fed.p99_jct - glob.p99_jct:+.0f} slots | "
                f"throughput {fed.throughput - glob.throughput:+.4f} jobs/slot | "
                f"completed {fed.online.completed_jobs - glob.online.completed_jobs:+d}",
            ]
        )
