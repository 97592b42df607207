"""Turning a trace into an arrival stream for the online simulator.

The paper replays jobs one at a time; a deployed cluster sees them arrive
over time.  These helpers attach arrival times to trace jobs:

* :func:`poisson_arrivals` — memoryless arrivals at a target rate (the
  standard open-loop workload model);
* :func:`uniform_arrivals` — fixed inter-arrival spacing (closed-form
  load control, handy for tests).
"""

from __future__ import annotations

from typing import List

import numpy as np

from ..errors import ConfigError
from ..online.simulator import ArrivingJob
from ..utils.rng import SeedLike, as_generator
from .job import Trace

__all__ = ["poisson_arrivals", "uniform_arrivals"]


def poisson_arrivals(
    trace: Trace,
    mean_interarrival: float,
    seed: SeedLike = None,
) -> List[ArrivingJob]:
    """Exponential inter-arrival times with the given mean (slots).

    Jobs keep their trace order; arrival times are the cumulative sums of
    exponential draws, rounded to integer slots.

    Raises:
        ConfigError: for an empty trace, a non-positive mean, or a mean
            whose arrival times are not finite or pass ``2**63`` slots.
    """

    if len(trace) == 0:
        raise ConfigError("cannot schedule arrivals for an empty trace")
    if mean_interarrival <= 0:
        raise ConfigError("mean_interarrival must be positive")
    rng = as_generator(seed)
    gaps = rng.exponential(mean_interarrival, size=len(trace))
    with np.errstate(over="ignore"):
        times = np.floor(np.cumsum(gaps))
    if not times[-1] < 2.0**63:  # the latest arrival; also false for nan
        raise ConfigError(
            f"mean_interarrival {mean_interarrival:g} does not give finite "
            "arrival times below 2**63 slots"
        )
    arrivals = times.astype(int)
    return [
        ArrivingJob(arrival_time=int(t), graph=job.graph)
        for t, job in zip(arrivals, trace)
    ]


def uniform_arrivals(trace: Trace, interarrival: int) -> List[ArrivingJob]:
    """Fixed spacing: job ``k`` arrives at ``k * interarrival``.

    Raises:
        ConfigError: for an empty trace or negative spacing.
    """

    if len(trace) == 0:
        raise ConfigError("cannot schedule arrivals for an empty trace")
    if interarrival < 0:
        raise ConfigError("interarrival must be >= 0")
    return [
        ArrivingJob(arrival_time=index * interarrival, graph=job.graph)
        for index, job in enumerate(trace)
    ]
