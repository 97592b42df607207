"""Policy layer: dispatch order over the execution layer.

Decides *which* ready task starts next: plan-priority order when the
execution layer's rescheduler has planned the job (jobs FIFO, plan order
within a job, :attr:`~repro.online.execution.ActiveJob.plan_rank`), the
base ranker otherwise.  The layer holds only its ranker and its
execution layer; no kernel, and nothing refers back to it.
"""

from __future__ import annotations

from typing import List, Tuple

from ..cluster.resources import fits
from ..errors import ConfigError
from ..schedulers.rules import RANKERS, Ranker, TaskContext
from .execution import ExecutionLayer

__all__ = ["PolicyLayer", "resolve_ranker"]

#: The rules ``--ranker`` accepts; heft and lpt stay offline-only.
_ONLINE_RANKERS = ("cp", "fifo", "sjf", "tetris")


def resolve_ranker(name: str) -> Ranker:
    """Map a CLI ranker name (``fifo|sjf|cp|tetris``) to its rule in
    :data:`~repro.schedulers.rules.RANKERS`.

    Raises:
        ConfigError: naming the sorted known names; the CLI prints it
            as its one-line usage error.
    """
    if name not in _ONLINE_RANKERS:
        raise ConfigError(
            f"unknown ranker {name!r}; choose from {list(_ONLINE_RANKERS)}"
        )
    return RANKERS[name]


class PolicyLayer:
    """Dispatch ordering over the execution layer.

    Args:
        ranker: base dispatch order (see :mod:`repro.schedulers.rules`).
        execution: the execution layer being driven.
    """

    def __init__(self, ranker: Ranker, execution: ExecutionLayer) -> None:
        self.ranker = ranker
        self.execution = execution

    def dispatch_round(self) -> None:
        """Work-conserving fill in ranker (or plan-priority) order.

        A round ends with no ready task that fits, and nothing between
        two rounds can change that but what marks
        :attr:`ExecutionLayer.changed` (free capacity only grows, and a
        task only becomes ready, through the layer's handlers,
        :meth:`ExecutionLayer.admit` and :meth:`ExecutionLayer.fail_job`):
        an unmarked shard is not swept.
        """
        execution = self.execution
        if not execution.changed:
            return
        execution.changed = False
        state = execution.state
        active = execution.active
        ranker = self.ranker
        if getattr(ranker, "static_key", False):
            self._dispatch_static()
            return
        while True:
            free = state.available
            candidates: List[Tuple[Tuple, int, int]] = []
            for job in active.values():
                ranks = job.plan_rank
                demands_of = job.graph.demand_table()
                for tid in job.ready:
                    if fits(demands_of[tid], free):
                        if ranks is not None and tid in ranks:
                            key: Tuple = (
                                0,
                                job.arrival,
                                job.index,
                                ranks[tid],
                                tid,
                            )
                        else:
                            task = job.graph.task(tid)
                            ctx = TaskContext.of(job, task, free, state.now)
                            key = (1,) + tuple(ranker(ctx))
                        candidates.append((key, job.index, tid))
            if not candidates:
                return
            _, job_index, tid = min(candidates)
            execution.start_attempt(active[job_index], tid)

    def _dispatch_static(self) -> None:
        """One sorted sweep for rankers with context-invariant keys.

        Within a dispatch round free capacity only shrinks and no task
        becomes ready (attempt runtimes are >= 1, so completions land at
        strictly later instants).  When the ranker's key ignores the
        live context, repeatedly starting the minimum-key fitting
        candidate is therefore equivalent to ranking the initially
        fitting candidates once, sorting, and starting each in order
        that still fits — a candidate that does not fit can never fit
        again this round.  Keys are additionally cached on each job
        (:attr:`~repro.online.execution.ActiveJob.static_keys`) across
        rounds, since a ``static_key`` ranker's key never changes over a
        job's lifetime.
        """
        execution = self.execution
        state = execution.state
        active = execution.active
        ranker = self.ranker
        free = state.available
        candidates: List[Tuple[Tuple, int, int, Tuple[int, ...]]] = []
        for job in active.values():
            ranks = job.plan_rank
            cached = job.static_keys
            demands_of = job.graph.demand_table()
            for tid in job.ready:
                demands = demands_of[tid]
                if not fits(demands, free):
                    continue
                if ranks is not None and tid in ranks:
                    key: Tuple = (0, job.arrival, job.index, ranks[tid], tid)
                else:
                    key = cached.get(tid)  # type: ignore[assignment]
                    if key is None:
                        task = job.graph.task(tid)
                        ctx = TaskContext.of(job, task, free, state.now)
                        key = (1,) + tuple(ranker(ctx))
                        cached[tid] = key
                candidates.append((key, job.index, tid, demands))
        candidates.sort()
        for _, job_index, tid, demands in candidates:
            job = active.get(job_index)
            if job is None or tid not in job.ready:
                continue
            if fits(demands, state.available):
                execution.start_attempt(job, tid)
