"""Open-system steady-state simulator: one shard of the shared engine.

:class:`StreamingSimulator` is the continuous-arrival facade over
:class:`repro.online.engine.ShardedEngine` — the loop that also runs
closed batches and federations.  The workload is an
:class:`~repro.streaming.arrivals.ArrivalProcess` consumed lazily (one
pending arrival scheduled at a time) through admission control, so
thousand-DAG horizons never materialize the whole stream and overload is
shed instead of crashing the run: an arrival the cluster can never run
is a :class:`~repro.streaming.results.RejectedJob`, not an error.  The
facade owns the ``streaming.run`` span, the step-cap default and the
result view.  A finite stream with unbounded admission and no horizon is
exactly the configuration :class:`~repro.online.OnlineSimulator` runs,
so the two return equal closed-batch views by construction.
"""

from __future__ import annotations

from typing import Optional

from ..config import ClusterConfig
from ..faults.plan import FaultPlan
from ..online.engine import ShardedEngine, ShardSpec
from ..schedulers.base import Scheduler
from ..schedulers.rules import Ranker
from ..telemetry import runtime as _telemetry
from .admission import AdmissionConfig
from .arrivals import ArrivalProcess
from .results import StreamingResult, aggregate_result

__all__ = ["StreamingSimulator"]


class StreamingSimulator:
    """Continuous-arrival simulation of an open system.

    Args:
        cluster: capacities (defaults to the paper's 20x20).
        max_steps: global safety cap on settled instants.

    With telemetry active a run reports ``streaming.*`` events and
    gauges on top of the online layer's.
    """

    def __init__(
        self,
        cluster: ClusterConfig | None = None,
        max_steps: int = 5_000_000,
    ) -> None:
        self.cluster_config = cluster if cluster is not None else ClusterConfig()
        self.max_steps = max_steps

    def run(
        self,
        arrivals: ArrivalProcess,
        ranker: Ranker,
        admission: Optional[AdmissionConfig] = None,
        horizon: Optional[int] = None,
        faults: Optional[FaultPlan] = None,
        rescheduler: Optional[Scheduler] = None,
    ) -> StreamingResult:
        """Run the arrival process to completion (or the horizon).

        Args:
            arrivals: the open workload source.
            ranker: base dispatch order (see :mod:`repro.schedulers.rules`).
            admission: backpressure limits; ``None`` admits everything.
            horizon: run length in slots from the first arrival; the
                stream is cut off past it (in-flight work drains).
            faults: seeded fault model; ``None`` runs fault-free.
            rescheduler: scheduler replanning residual DAGs, exactly as
                in the online simulator.

        Raises:
            ConfigError: on an empty stream or invalid limits.
            EnvironmentStateError: if the step cap is exceeded or the
                system wedges with work it can never place.
        """
        tm = _telemetry.active()
        with tm.span(
            "streaming.run",
            ranker=type(ranker).__name__,
            bounded=admission is not None,
            horizon=-1 if horizon is None else horizon,
            faults=faults is not None and not faults.is_null,
            rescheduler=rescheduler.name if rescheduler is not None else "",
        ) as span:
            spec = ShardSpec(
                self.cluster_config.capacities, ranker, rescheduler, admission, faults
            )
            # Global task handles are job_index * offset + task_id; the
            # process's declared bound plays the role the batch simulator
            # computes by scanning the whole stream.
            engine = ShardedEngine(
                [spec], enumerate(arrivals.jobs()), max(1, arrivals.task_id_bound), tm
            )
            makespan = engine.run(self.max_steps, horizon)
            result = aggregate_result(
                engine.shards, engine.ledger, makespan, engine.start
            )
            if tm.enabled:
                span.set(
                    arrivals=result.arrivals,
                    admitted=result.admitted,
                    rejected=len(result.rejected),
                    makespan=result.online.makespan,
                    p50_jct=result.p50_jct,
                    p99_jct=result.p99_jct,
                    mean_queueing_delay=result.mean_queueing_delay,
                    peak_in_system=result.peak_in_system,
                )
                tm.inc("streaming.jobs", result.arrivals)
        return result
