"""Trace workload characterization (Fig. 9(a) and 9(b)).

Fig. 9(a) plots the CDFs of per-job map/reduce task counts; Fig. 9(b)
plots the CDFs of individual task runtimes per stage.  The statistics
object exposes both the raw series (for CDF reports) and the headline
numbers the paper quotes (medians, maxima).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from ..metrics.cdf import empirical_cdf, percentile
from .job import Trace

__all__ = ["TraceStatistics", "trace_statistics"]


@dataclass(frozen=True)
class TraceStatistics:
    """Summary of a trace's map/reduce structure and runtimes."""

    num_jobs: int
    map_counts: Tuple[int, ...]
    reduce_counts: Tuple[int, ...]
    map_runtimes: Tuple[int, ...]
    reduce_runtimes: Tuple[int, ...]

    # -------------------------- headline numbers ---------------------- #

    @property
    def median_map_count(self) -> float:
        """Median number of map tasks per job (paper: 14)."""
        return percentile(self.map_counts, 50)

    @property
    def median_reduce_count(self) -> float:
        """Median number of reduce tasks per job (paper: 17)."""
        return percentile(self.reduce_counts, 50)

    @property
    def max_map_count(self) -> int:
        """Maximum map tasks in any job (paper: 29)."""
        return max(self.map_counts)

    @property
    def max_reduce_count(self) -> int:
        """Maximum reduce tasks in any job (paper: 38)."""
        return max(self.reduce_counts)

    @property
    def median_map_runtime(self) -> float:
        """Median runtime over all map tasks."""
        return percentile(self.map_runtimes, 50)

    @property
    def median_reduce_runtime(self) -> float:
        """Median runtime over all reduce tasks."""
        return percentile(self.reduce_runtimes, 50)

    # ----------------------------- CDFs ------------------------------- #

    def count_cdfs(self) -> Tuple[List[Tuple[float, float]], List[Tuple[float, float]]]:
        """(map, reduce) task-count CDFs — the two Fig. 9(a) curves."""
        return empirical_cdf(self.map_counts), empirical_cdf(self.reduce_counts)

    def runtime_cdfs(
        self,
    ) -> Tuple[List[Tuple[float, float]], List[Tuple[float, float]]]:
        """(map, reduce) task-runtime CDFs — the two Fig. 9(b) curves."""
        return empirical_cdf(self.map_runtimes), empirical_cdf(self.reduce_runtimes)


def trace_statistics(trace: Trace) -> TraceStatistics:
    """Compute :class:`TraceStatistics` for ``trace``.

    Raises:
        ValueError: for an empty trace.
    """

    if len(trace) == 0:
        raise ValueError("cannot characterize an empty trace")
    map_counts = tuple(job.num_map for job in trace)
    reduce_counts = tuple(job.num_reduce for job in trace)
    map_runtimes = tuple(r for job in trace for r in job.map_runtimes)
    reduce_runtimes = tuple(r for job in trace for r in job.reduce_runtimes)
    return TraceStatistics(
        num_jobs=len(trace),
        map_counts=map_counts,
        reduce_counts=reduce_counts,
        map_runtimes=map_runtimes,
        reduce_runtimes=reduce_runtimes,
    )
