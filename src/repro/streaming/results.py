"""Steady-state result records and their deterministic metrics export.

A closed batch is judged by its makespan; an open system is judged by
its *distributions*: p50/p99 job completion time, queueing delay under
backpressure, sustained utilization over the whole horizon, and the
jobs-in-system trajectory.  :class:`StreamingResult` carries the
underlying :class:`~repro.online.results.OnlineResult` (so every
closed-batch metric and the executed schedules remain available) plus
the open-system accounting.

:meth:`StreamingResult.metrics_dict` is the CI determinism surface: it
contains only values that are pure functions of (arrival process, seed,
scheduler), never wall-clock or environment data, so two runs of the
same spec must serialize byte-identically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, Sequence, Tuple

from ..online.engine import Shard
from ..online.reporting import ReportingLayer, RunLedger
from ..online.results import OnlineResult, RejectedJob

__all__ = ["RejectedJob", "StreamingResult", "aggregate_result", "percentile"]


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (deterministic, no interpolation).

    ``q`` is in [0, 100]; the empty sequence maps to 0.0 so aggregate
    reports never divide by zero on a fully-shed run.
    """
    if not 0 <= q <= 100:
        raise ValueError(f"percentile q must be in [0, 100], got {q}")
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


@dataclass(frozen=True)
class StreamingResult:
    """Aggregate outcome of one open-system run.

    Attributes:
        online: the closed-batch view over *admitted* jobs (outcomes,
            makespan, utilization integrals, fault record, executed
            schedules) — ``online.outcomes`` order aligns with
            :attr:`queueing_delays`.
        queueing_delays: per-outcome slots between arrival and
            admission (0 for every job when admission is unbounded).
        rejected: arrivals shed by backpressure, in arrival order.
        in_system: step series of ``(time, jobs in system)`` where
            in-system counts active plus backlogged jobs; consecutive
            duplicates are compressed.
        arrivals: total arrivals offered (admitted + rejected).
        start_time: first arrival (horizon origin).
        horizon_cutoff: the cut-off instant when a ``horizon`` was set
            and reached, else -1; arrivals past it were shed.
    """

    online: OnlineResult
    queueing_delays: Tuple[int, ...]
    rejected: Tuple[RejectedJob, ...]
    in_system: Tuple[Tuple[int, int], ...]
    arrivals: int
    start_time: int
    horizon_cutoff: int = -1  # -1: no horizon cut-off occurred

    # ------------------------------------------------------------------ #
    # distributions
    # ------------------------------------------------------------------ #

    @property
    def jcts(self) -> Tuple[int, ...]:
        return tuple(o.jct for o in self.online.outcomes)

    @property
    def p50_jct(self) -> float:
        return percentile(self.jcts, 50)

    @property
    def p99_jct(self) -> float:
        return percentile(self.jcts, 99)

    @property
    def mean_queueing_delay(self) -> float:
        delays = self.queueing_delays
        return sum(delays) / len(delays) if delays else 0.0

    @property
    def p99_queueing_delay(self) -> float:
        return percentile(self.queueing_delays, 99)

    @property
    def admitted(self) -> int:
        return len(self.online.outcomes)

    @property
    def span(self) -> int:
        """Slots from the first arrival to the last event."""
        return max(1, self.online.makespan - self.start_time)

    @property
    def throughput(self) -> float:
        """Completed jobs per slot over the whole horizon."""
        return self.online.completed_jobs / self.span

    @property
    def peak_in_system(self) -> int:
        return max((count for _, count in self.in_system), default=0)

    @property
    def mean_in_system(self) -> float:
        """Time-weighted mean of the jobs-in-system trajectory."""
        series = self.in_system
        if len(series) < 2:
            return float(series[0][1]) if series else 0.0
        area = 0
        for (t0, count), (t1, _) in zip(series, series[1:]):
            area += (t1 - t0) * count
        width = series[-1][0] - series[0][0]
        return area / width if width > 0 else float(series[-1][1])

    # ------------------------------------------------------------------ #
    # export
    # ------------------------------------------------------------------ #

    def metrics_dict(self) -> Dict[str, Any]:
        """Deterministic JSON-ready summary (the CI byte-identity gate)."""
        online = self.online
        return {
            "schema": 1,
            "jobs": {
                "arrivals": self.arrivals,
                "admitted": self.admitted,
                "completed": online.completed_jobs,
                "failed": online.failed_jobs,
                "rejected": len(self.rejected),
            },
            "jct": {
                "mean": online.mean_jct if online.outcomes else 0.0,
                "p50": self.p50_jct,
                "p99": self.p99_jct,
                "max": max(self.jcts, default=0),
            },
            "queueing_delay": {
                "mean": self.mean_queueing_delay,
                "p50": percentile(self.queueing_delays, 50),
                "p99": self.p99_queueing_delay,
                "max": max(self.queueing_delays, default=0),
            },
            "utilization": {
                "sustained": list(online.mean_utilization),
                "nominal": list(online.nominal_utilization),
            },
            "in_system": {
                "peak": self.peak_in_system,
                "mean": self.mean_in_system,
                "series": [list(point) for point in self.in_system],
            },
            "throughput_jobs_per_slot": self.throughput,
            "faults": {
                "crashes": online.crashes,
                "recoveries": online.recoveries,
                "retries": online.total_retries,
            },
            "horizon": {
                "start": self.start_time,
                "end": online.makespan,
                "span": self.span,
                "cutoff": self.horizon_cutoff,
            },
        }

    def report(self) -> str:
        """Plain-text operator summary."""
        online = self.online
        lines = [
            f"arrivals {self.arrivals} | admitted {self.admitted} "
            f"(completed {online.completed_jobs}, failed {online.failed_jobs}) "
            f"| rejected {len(self.rejected)}",
            f"JCT slots: mean {online.mean_jct if online.outcomes else 0.0:.1f} "
            f"p50 {self.p50_jct:.0f} p99 {self.p99_jct:.0f} "
            f"max {max(self.jcts, default=0)}",
            f"queueing delay slots: mean {self.mean_queueing_delay:.1f} "
            f"p99 {self.p99_queueing_delay:.0f}",
            "sustained utilization: "
            + "/".join(f"{u:.0%}" for u in online.mean_utilization),
            f"jobs in system: mean {self.mean_in_system:.1f} "
            f"peak {self.peak_in_system}",
            f"throughput {self.throughput:.4f} jobs/slot over {self.span} slots",
        ]
        if online.crashes or online.total_retries:
            lines.append(
                f"faults: {online.crashes} crashes, {online.recoveries} "
                f"recoveries, {online.total_retries} retries"
            )
        return "\n".join(lines)


def aggregate_result(
    shards: Sequence[Shard], ledger: RunLedger, makespan: int, start: int
) -> StreamingResult:
    """Assemble the :class:`StreamingResult` over ``shards`` and ``ledger``.

    The one result assembly: over every shard and the run's ledger it is
    the run's result (for a single shard, the standalone streaming
    result); over one shard and an empty ledger it is that shard's view.
    """
    online = ReportingLayer.finalize(shards, makespan)
    admit_times: Dict[int, int] = {}
    rejections = list(ledger.rejections)
    for shard in shards:
        admit_times.update(shard.reporting.admit_times)
        rejections.extend(shard.reporting.rejections)
    rejections.sort(key=lambda r: r.index)
    return StreamingResult(
        online=online,
        queueing_delays=tuple(
            admit_times[o.job_index] - o.arrival_time for o in online.outcomes
        ),
        rejected=tuple(rejections),
        in_system=tuple(ledger.in_system_series),
        arrivals=ledger.arrivals_seen,
        start_time=start,
        horizon_cutoff=ledger.horizon_cutoff,
    )
