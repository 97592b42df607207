"""Ranking functions for online multi-job scheduling.

A :data:`Ranker` maps a candidate task to a sortable key; *smaller keys
run first*.  The simulator is work-conserving: at every event it starts
fitting candidates in key order until nothing fits.

Rankers receive a :class:`TaskContext` carrying the task itself, its job's
arrival metadata and graph features, plus the live free
capacity — enough to express every greedy baseline.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, Optional, Sequence, Tuple

from ..dag.features import GraphFeatures
from ..dag.task import Task
from ..errors import ConfigError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .execution import ActiveJob

__all__ = [
    "TaskContext",
    "Ranker",
    "fifo_ranker",
    "sjf_ranker",
    "cp_ranker",
    "tetris_ranker",
    "plan_priority_ranker",
    "resolve_ranker",
]


class TaskContext:
    """Everything a ranker may look at for one candidate task.

    Built as ``TaskContext(task=, job_index=, arrival_time=, features=,
    free=, now=)``, or by the engine's dispatch with :meth:`of`, which
    leaves the job's features uncomputed until a ranker reads them.
    Rankers only read it.

    Attributes:
        task: the candidate (ids are per-job, not globally unique).
        job_index: position of the owning job in arrival order.
        arrival_time: when the owning job arrived.
        features: the owning job's graph features (b-level etc.).
        free: currently free slots per resource.
        now: current simulation time.
    """

    __slots__ = (
        "task",
        "job_index",
        "arrival_time",
        "free",
        "now",
        "_features",
        "_job",
    )

    def __init__(
        self,
        task: Task,
        job_index: int,
        arrival_time: int,
        features: Optional[GraphFeatures],
        free: Tuple[int, ...],
        now: int,
    ) -> None:
        self.task = task
        self.job_index = job_index
        self.arrival_time = arrival_time
        self.free = free
        self.now = now
        self._features = features
        self._job: Optional[ActiveJob] = None

    @classmethod
    def of(
        cls, job: ActiveJob, task: Task, free: Tuple[int, ...], now: int
    ) -> TaskContext:
        """The context of ``task`` of a live job, whose features are read
        from the job when a ranker first asks."""
        ctx = cls(task, job.index, job.arrival, None, free, now)
        ctx._job = job
        return ctx

    @property
    def features(self) -> GraphFeatures:
        if self._features is None:
            self._features = self._job.features  # type: ignore[union-attr]
        return self._features


#: Smaller keys are scheduled first.
#:
#: A ranker whose key ignores the *live* context fields (``free`` and
#: ``now``) may declare ``static_key = True`` on the function; the
#: dispatch loop then caches keys on each job
#: (:attr:`repro.online.execution.ActiveJob.static_keys`) and fills each
#: round with one sorted sweep instead of re-ranking after every start
#: (see :meth:`repro.online.policy.PolicyLayer.dispatch_round`).
Ranker = Callable[[TaskContext], Tuple]


def fifo_ranker(ctx: TaskContext) -> Tuple:
    """Jobs in arrival order; within a job, smaller task id first."""
    return (ctx.arrival_time, ctx.job_index, ctx.task.task_id)


fifo_ranker.static_key = True  # type: ignore[attr-defined]


def sjf_ranker(ctx: TaskContext) -> Tuple:
    """Shortest task first across all jobs."""
    return (ctx.task.runtime, ctx.job_index, ctx.task.task_id)


sjf_ranker.static_key = True  # type: ignore[attr-defined]


def cp_ranker(ctx: TaskContext) -> Tuple:
    """Largest within-job b-level first (ties: children, then FIFO)."""
    return (
        -ctx.features.b_level[ctx.task.task_id],
        -ctx.features.num_children[ctx.task.task_id],
        ctx.job_index,
        ctx.task.task_id,
    )


cp_ranker.static_key = True  # type: ignore[attr-defined]


def tetris_ranker(ctx: TaskContext) -> Tuple:
    """Highest alignment score against free capacity first."""
    score = sum(d * f for d, f in zip(ctx.task.demands, ctx.free))
    return (-score, ctx.job_index, ctx.task.task_id)


def resolve_ranker(name: str) -> Ranker:
    """Map a CLI ranker name (``fifo|sjf|cp|tetris``) to its function.

    Raises:
        ConfigError: naming the sorted known names; the CLI prints it
            as its one-line usage error.
    """
    known: Dict[str, Ranker] = {
        "fifo": fifo_ranker,
        "sjf": sjf_ranker,
        "cp": cp_ranker,
        "tetris": tetris_ranker,
    }
    ranker = known.get(name)
    if ranker is None:
        raise ConfigError(
            f"unknown ranker {name!r}; choose from {sorted(known)}"
        )
    return ranker


def plan_priority_ranker(
    plans: Sequence[Sequence[int]],
) -> Ranker:
    """Follow a per-job precomputed priority order (e.g. a Graphene plan
    or the action order Spear chose when planning the job offline).

    Args:
        plans: for each job (by arrival index) the task ids from highest
            to lowest priority.  Jobs themselves are served FIFO.
    """

    ranks: Dict[int, Dict[int, int]] = {
        job_index: {tid: rank for rank, tid in enumerate(order)}
        for job_index, order in enumerate(plans)
    }

    def ranker(ctx: TaskContext) -> Tuple:
        job_ranks = ranks.get(ctx.job_index, {})
        rank = job_ranks.get(ctx.task.task_id, len(job_ranks))
        return (ctx.job_index, rank, ctx.task.task_id)

    ranker.static_key = True  # type: ignore[attr-defined]
    return ranker
