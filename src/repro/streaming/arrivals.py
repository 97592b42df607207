"""Open-system arrival processes feeding the streaming simulator.

A closed batch (:mod:`repro.online`) knows every job up front; an open
system does not.  An :class:`ArrivalProcess` is the streaming engine's
only view of the workload: a restartable generator of
:class:`~repro.online.results.ArrivingJob` records in nondecreasing
arrival order, plus a ``task_id_bound`` so the engine can compute its
global task-handle stride without materializing the stream.

Three processes are provided:

* :class:`PoissonProcess` — memoryless arrivals at a target rate (jobs
  per slot), the standard open-loop workload model; job DAGs come from a
  seeded :data:`JobFactory` so the whole stream is a pure function of
  one seed;
* :class:`UniformProcess` — fixed inter-arrival spacing (closed-form
  load control, handy for tests and worst-case burst analysis);
* :class:`TraceArrivals` — replay an explicit list of arriving jobs
  (trace-driven load; a finite stream through it is the closed batch
  :class:`~repro.online.OnlineSimulator` runs).

:func:`parse_arrival_spec` maps the CLI's ``kind:key=value,...`` spec
strings (``poisson:rate=0.05,n=1000``) onto these classes.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Iterator, List, Optional, Protocol, Sequence

from ..config import WorkloadConfig
from ..dag.generators import random_layered_dag
from ..dag.graph import TaskGraph
from ..errors import ConfigError
from ..online.results import ArrivingJob
from ..specs import Schema, parse_spec, spec_error
from ..utils.rng import as_generator

__all__ = [
    "ArrivalProcess",
    "JobFactory",
    "PoissonProcess",
    "TraceArrivals",
    "UniformProcess",
    "layered_job_factory",
    "parse_arrival_spec",
    "streaming_workload",
]

#: Builds the DAG of arrival ``index`` from a derived integer seed.
JobFactory = Callable[[int, int], TaskGraph]

_SEED_BOUND = 2**63 - 1

#: Arrival times are slot counts and stay below this.
_TIME_LIMIT = 2.0**63


class ArrivalProcess(Protocol):
    """A restartable, deterministic source of arriving jobs."""

    def jobs(self) -> Iterator[ArrivingJob]:
        """Fresh iterator over the stream, nondecreasing arrival times."""

    @property
    def task_id_bound(self) -> int:
        """Exclusive upper bound on task ids of every emitted graph."""


def streaming_workload(num_tasks: int = 8) -> WorkloadConfig:
    """The default per-job DAG profile for steady-state runs.

    Thousand-DAG horizons need jobs far smaller than the paper's
    100-task offline workload; this mirrors the compact profile the
    online benchmarks use (short runtimes, low demands) so a 20x20
    cluster sustains a meaningful arrival rate.
    """
    return WorkloadConfig(
        num_tasks=num_tasks,
        max_runtime=6,
        max_demand=4,
        runtime_mean=3.0,
        demand_mean=2.0,
    )


def layered_job_factory(workload: Optional[WorkloadConfig] = None) -> JobFactory:
    """A :data:`JobFactory` drawing random layered DAGs from ``workload``."""
    config = workload if workload is not None else streaming_workload()

    def factory(index: int, seed: int) -> TaskGraph:
        del index  # the seed alone keys the draw
        return random_layered_dag(config, seed=seed)

    factory.task_id_bound = config.num_tasks  # type: ignore[attr-defined]
    return factory


def _factory_bound(job_factory: JobFactory) -> int:
    bound = getattr(job_factory, "task_id_bound", None)
    if bound is None:
        raise ConfigError(
            "job factory must declare a task_id_bound attribute "
            "(exclusive upper bound on emitted task ids)"
        )
    return int(bound)


class PoissonProcess:
    """Memoryless arrivals: exponential gaps with mean ``1 / rate``.

    Arrival times are the floor of the cumulative (float) gap sum, so
    the realized integer timeline matches
    :func:`repro.traces.arrivals.poisson_arrivals` — several jobs may
    share a slot at high rates, which is exactly the burst behaviour an
    admission controller must absorb.

    Args:
        rate: expected arrivals per slot (> 0).
        num_jobs: stream length (>= 1).
        job_factory: seeded DAG builder; one derived seed per job.
        seed: root seed; the whole stream (gaps and DAGs) is a pure
            function of it.

    Raises:
        ConfigError: for a rate that is not positive or whose mean gap
            ``1 / rate`` is not finite; :meth:`jobs` raises it for an
            arrival time that is not below ``2**63`` slots, as
            :func:`~repro.traces.arrivals.poisson_arrivals` does.
    """

    def __init__(
        self,
        rate: float,
        num_jobs: int,
        job_factory: JobFactory,
        seed: int = 0,
    ) -> None:
        if rate <= 0:
            raise ConfigError(f"arrival rate must be positive, got {rate}")
        if not math.isfinite(1.0 / rate):
            raise ConfigError(f"arrival rate={rate!r} has no finite mean gap 1/rate")
        if num_jobs < 1:
            raise ConfigError(f"need at least one arrival, got {num_jobs}")
        self.rate = float(rate)
        self.num_jobs = int(num_jobs)
        self.job_factory = job_factory
        self.seed = seed
        self._bound = _factory_bound(job_factory)

    @property
    def task_id_bound(self) -> int:
        return self._bound

    def jobs(self) -> Iterator[ArrivingJob]:
        rng = as_generator(self.seed)
        mean_gap = 1.0 / self.rate
        elapsed = 0.0
        for index in range(self.num_jobs):
            elapsed += float(rng.exponential(mean_gap))
            if not elapsed < _TIME_LIMIT:
                raise ConfigError(
                    f"arrival rate={self.rate!r} puts arrival {index} at "
                    f"{elapsed:g} slots, not below 2**63"
                )
            job_seed = int(rng.integers(0, _SEED_BOUND))
            yield ArrivingJob(
                arrival_time=int(elapsed),
                graph=self.job_factory(index, job_seed),
            )


class UniformProcess:
    """Fixed spacing: arrival ``k`` lands at ``k * interarrival``."""

    def __init__(
        self,
        interarrival: int,
        num_jobs: int,
        job_factory: JobFactory,
        seed: int = 0,
    ) -> None:
        if interarrival < 0:
            raise ConfigError(f"interarrival must be >= 0, got {interarrival}")
        if num_jobs < 1:
            raise ConfigError(f"need at least one arrival, got {num_jobs}")
        self.interarrival = int(interarrival)
        self.num_jobs = int(num_jobs)
        self.job_factory = job_factory
        self.seed = seed
        self._bound = _factory_bound(job_factory)

    @property
    def task_id_bound(self) -> int:
        return self._bound

    def jobs(self) -> Iterator[ArrivingJob]:
        rng = as_generator(self.seed)
        for index in range(self.num_jobs):
            job_seed = int(rng.integers(0, _SEED_BOUND))
            yield ArrivingJob(
                arrival_time=index * self.interarrival,
                graph=self.job_factory(index, job_seed),
            )


class TraceArrivals:
    """Replay an explicit stream (trace-driven load).

    Jobs are ordered by ``(arrival_time, original index)`` — the order
    :class:`repro.online.OnlineSimulator` feeds a closed batch in.
    """

    def __init__(self, jobs: Sequence[ArrivingJob]) -> None:
        if not jobs:
            raise ConfigError("need at least one arriving job")
        indexed = sorted(enumerate(jobs), key=lambda e: (e[1].arrival_time, e[0]))
        self._jobs: List[ArrivingJob] = [job for _, job in indexed]
        self._bound = 1 + max(max(job.graph.task_ids) for job in self._jobs)

    @property
    def task_id_bound(self) -> int:
        return self._bound

    def jobs(self) -> Iterator[ArrivingJob]:
        return iter(self._jobs)


#: The options of each arrival kind.  A ``trace`` spec also takes
#: exactly one of ``mean`` and ``interarrival``.
ARRIVAL_SPEC_SCHEMAS: Dict[str, Schema] = {
    "poisson": Schema({"rate": float, "n": int}, required=("rate", "n")),
    "uniform": Schema({"interarrival": int, "n": int}, required=("interarrival", "n")),
    "trace": Schema(
        {"path": str, "mean": float, "interarrival": int}, required=("path",)
    ),
}


def parse_arrival_spec(
    spec: str,
    job_factory: Optional[JobFactory] = None,
    seed: int = 0,
) -> ArrivalProcess:
    """Build an :class:`ArrivalProcess` from a ``kind:key=value,...`` spec.

    Supported kinds::

        poisson:rate=0.05,n=1000      memoryless, `rate` jobs per slot
        uniform:interarrival=20,n=50  fixed spacing
        trace:path=trace.json,mean=25 Poisson arrivals over a saved
                                      workload trace (repro trace --out);
                                      interarrival=K gives fixed spacing

    Args:
        spec: the spec string.
        job_factory: DAG source for the synthetic kinds (defaults to
            :func:`layered_job_factory`); ignored by ``trace``.
        seed: seed for gaps and generated DAGs.

    Raises:
        ConfigError: on an unknown kind, an unknown, repeated or missing
            key, or a bad value (:func:`repro.specs.parse_spec`, against
            :data:`ARRIVAL_SPEC_SCHEMAS`).
    """
    kind, options = parse_spec("arrival", spec, ARRIVAL_SPEC_SCHEMAS)
    factory = job_factory if job_factory is not None else layered_job_factory()
    if kind == "poisson":
        return PoissonProcess(options["rate"], options["n"], factory, seed=seed)
    if kind == "uniform":
        return UniformProcess(options["interarrival"], options["n"], factory, seed=seed)
    if ("mean" in options) == ("interarrival" in options):
        raise spec_error(
            "arrival", spec, "needs exactly one of 'mean' and 'interarrival'"
        )
    from ..traces.arrivals import poisson_arrivals, uniform_arrivals
    from ..traces.job import Trace

    trace = Trace.load(options["path"])
    if "interarrival" in options:
        return TraceArrivals(uniform_arrivals(trace, options["interarrival"]))
    return TraceArrivals(poisson_arrivals(trace, options["mean"], seed=seed))
