"""Continuous-arrival streaming simulation and the scheduling daemon.

The open-system layer over the :mod:`repro.sim` kernel (DESIGN.md
Sec. 13): arrival processes (:mod:`~repro.streaming.arrivals`),
admission control with bounded-queue backpressure
(:mod:`~repro.streaming.admission`), the steady-state simulator
(:mod:`~repro.streaming.engine`) and its distribution metrics
(:mod:`~repro.streaming.results`), plus the NDJSON wire protocol
(:mod:`~repro.streaming.protocol`) and asyncio daemon
(:mod:`~repro.streaming.service`) behind ``repro serve``.

The simulator is a one-shard configuration of
:class:`repro.online.engine.ShardedEngine`; a finite stream with
unbounded admission is the configuration
:class:`repro.online.OnlineSimulator` runs, so it reproduces it exactly.
"""

from .admission import (
    ADMIT,
    QUEUE,
    REJECT,
    AdmissionConfig,
    AdmissionController,
    QueuedJob,
)
from .arrivals import (
    ArrivalProcess,
    JobFactory,
    PoissonProcess,
    TraceArrivals,
    UniformProcess,
    layered_job_factory,
    parse_arrival_spec,
    streaming_workload,
)
from .engine import StreamingSimulator
from .results import RejectedJob, StreamingResult, percentile
from .service import SchedulerService, ServiceStats, run_serve, run_smoke

__all__ = [
    "ADMIT",
    "QUEUE",
    "REJECT",
    "AdmissionConfig",
    "AdmissionController",
    "ArrivalProcess",
    "JobFactory",
    "PoissonProcess",
    "QueuedJob",
    "RejectedJob",
    "SchedulerService",
    "ServiceStats",
    "StreamingResult",
    "StreamingSimulator",
    "TraceArrivals",
    "UniformProcess",
    "layered_job_factory",
    "parse_arrival_spec",
    "percentile",
    "run_serve",
    "run_smoke",
    "streaming_workload",
]
