"""The list heuristics' ranking rules, each written once.

The paper's Sec. V baselines (SJF, CP, Tetris) and the classic list
schedulers of its related work (Kwok & Ahmad's survey [15]: HEFT, LPT,
FIFO) differ only in *which* ready task goes first.  Each is one
:data:`Ranker` here: a key function over a :class:`TaskContext`, where a
smaller key starts first.  Both executors read the same functions:

* offline, :class:`~repro.schedulers.base.GreedyPolicy` starts the
  fitting visible task with the smallest key (job 0, arrival 0, ready
  sequence = visible-window index);
* online, :class:`~repro.online.policy.PolicyLayer` ranks the fitting
  ready tasks of every active job (ready sequence = per-job order of
  first readiness).

Every key ends in ``(job_index, task id)`` or ``(job_index, ready_seq)``,
so keys are total and one job's order is the offline order.  A key that
ignores the live fields (``free`` and ``now``) declares
``static_key = True``; the online dispatch then caches it per task
(:attr:`repro.online.execution.ActiveJob.static_keys`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, Optional, Sequence, Tuple

from ..dag.features import GraphFeatures, compute_features
from ..dag.graph import TaskGraph
from ..dag.task import Task

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..online.execution import ActiveJob

__all__ = [
    "TaskContext",
    "Ranker",
    "RANKERS",
    "alignment_score",
    "fifo_ranker",
    "sjf_ranker",
    "cp_ranker",
    "tetris_ranker",
    "heft_ranker",
    "lpt_ranker",
    "plan_priority_ranker",
]


class TaskContext:
    """Everything a ranker may look at for one candidate task.

    Built as ``TaskContext(task=, job_index=, arrival_time=, ready_seq=,
    graph=, features=, free=, now=)``, or by the online dispatch with
    :meth:`of`.  Features passed as ``None`` are computed when a ranker
    first reads them: from the job's cache for :meth:`of`, else by
    :func:`~repro.dag.features.compute_features` (memoized per graph).
    Rankers only read it.

    Attributes:
        task: the candidate (ids are per-job, not globally unique).
        job_index: position of the owning job in arrival order.
        arrival_time: when the owning job arrived.
        ready_seq: the task's place in its job's ready order (offline,
            its visible-window index; online, the order in which the
            job's tasks first became ready).
        graph: the owning job's DAG.
        features: the owning job's graph features (b-level etc.).
        free: currently free slots per resource.
        now: current simulation time.
    """

    __slots__ = (
        "task",
        "job_index",
        "arrival_time",
        "ready_seq",
        "graph",
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
        ready_seq: int,
        graph: TaskGraph,
        features: Optional[GraphFeatures],
        free: Tuple[int, ...],
        now: int,
    ) -> None:
        self.task = task
        self.job_index = job_index
        self.arrival_time = arrival_time
        self.ready_seq = ready_seq
        self.graph = graph
        self.free = free
        self.now = now
        self._features = features
        self._job: Optional[ActiveJob] = None

    @classmethod
    def of(
        cls, job: ActiveJob, task: Task, free: Tuple[int, ...], now: int
    ) -> TaskContext:
        """The context of ``task`` of a live job."""
        ctx = cls(
            task,
            job.index,
            job.arrival,
            job.ready_seq[task.task_id],
            job.graph,
            None,
            free,
            now,
        )
        ctx._job = job
        return ctx

    @property
    def features(self) -> GraphFeatures:
        if self._features is None:
            job = self._job
            self._features = (
                job.features if job is not None else compute_features(self.graph)
            )
        return self._features


#: Smaller keys are scheduled first.
Ranker = Callable[[TaskContext], Tuple]


def alignment_score(demands, available) -> int:
    """Tetris packing score: ``dot(demands, available)``.

    Exact integer arithmetic; higher is better.
    """

    return sum(d * a for d, a in zip(demands, available))


def fifo_ranker(ctx: TaskContext) -> Tuple:
    """Jobs in arrival order; within a job, ready order (Hadoop's FIFO)."""
    return (ctx.arrival_time, ctx.job_index, ctx.ready_seq)


fifo_ranker.static_key = True  # type: ignore[attr-defined]


def sjf_ranker(ctx: TaskContext) -> Tuple:
    """Shortest task first (dependency- and packing-blind)."""
    return (ctx.task.runtime, ctx.job_index, ctx.task.task_id)


sjf_ranker.static_key = True  # type: ignore[attr-defined]


def lpt_ranker(ctx: TaskContext) -> Tuple:
    """Longest task first (the makespan counterpart of SJF)."""
    return (-ctx.task.runtime, ctx.job_index, ctx.task.task_id)


lpt_ranker.static_key = True  # type: ignore[attr-defined]


def cp_ranker(ctx: TaskContext) -> Tuple:
    """Largest within-job b-level first; ties: more children, then id."""
    tid = ctx.task.task_id
    features = ctx.features
    return (
        -features.b_level[tid],
        -features.num_children[tid],
        ctx.job_index,
        tid,
    )


cp_ranker.static_key = True  # type: ignore[attr-defined]


def heft_ranker(ctx: TaskContext) -> Tuple:
    """HEFT's upward rank first; ties: the heavier mean child rank.

    With co-located data (no network model) the upward rank is the
    b-level, and the processor-selection step degenerates in an
    aggregate resource pool.  HEFT differs from CP only in its
    tiebreak: runtime plus the *mean* child b-level, which favours tasks
    whose whole downstream subtree is heavy over just its heaviest path.
    """
    task = ctx.task
    tid = task.task_id
    b_level = ctx.features.b_level
    kids = ctx.graph.children(tid)
    mean_rank: float = task.runtime
    if kids:
        mean_rank += sum(b_level[k] for k in kids) / len(kids)
    return (-b_level[tid], -mean_rank, ctx.job_index, tid)


heft_ranker.static_key = True  # type: ignore[attr-defined]


def tetris_ranker(ctx: TaskContext) -> Tuple:
    """Highest :func:`alignment_score` against free capacity first."""
    score = alignment_score(ctx.task.demands, ctx.free)
    return (-score, ctx.job_index, ctx.task.task_id)


def plan_priority_ranker(plans: Sequence[Sequence[int]]) -> Ranker:
    """Follow a per-job precomputed priority order (e.g. a Graphene plan
    or the action order Spear chose when planning the job offline).

    Args:
        plans: for each job (by arrival index) the task ids from highest
            to lowest priority.  Jobs themselves are served FIFO; tasks
            missing from their job's order rank last, by id.
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


#: The named rules, as ``make_scheduler`` spells them (the online
#: ``--ranker`` takes the first four).
RANKERS: Dict[str, Ranker] = {
    "fifo": fifo_ranker,
    "sjf": sjf_ranker,
    "cp": cp_ranker,
    "tetris": tetris_ranker,
    "heft": heft_ranker,
    "lpt": lpt_ranker,
}
