"""Online multi-job cluster scheduling.

The paper evaluates Spear per job (one DAG, empty cluster), but positions
it as a *cluster scheduler*.  This package provides the deployment-mode
substrate: jobs arrive over time, share the resource pool, and the
scheduler ranks ready tasks across all active jobs.

Search-based scheduling (MCTS/Spear) over an open arrival stream is
future work even in the paper; here the online policies are *rankers* —
pure functions from (task, job context, cluster) to a priority key.  They
are the offline list heuristics' own rules
(:mod:`repro.schedulers.rules`, under their ``*_ranker`` names): SJF, CP
within-job, Tetris packing, FIFO (jobs by arrival, tasks in ready order),
and per-job Spear or Graphene plans via :func:`plan_priority_ranker`.
"""

from ..schedulers.rules import (
    Ranker,
    cp_ranker,
    fifo_ranker,
    plan_priority_ranker,
    sjf_ranker,
    tetris_ranker,
)
from .policy import resolve_ranker
from .simulator import (
    ArrivingJob,
    JobOutcome,
    OnlineResult,
    OnlineSimulator,
    verify_execution,
)

__all__ = [
    "Ranker",
    "fifo_ranker",
    "sjf_ranker",
    "cp_ranker",
    "tetris_ranker",
    "plan_priority_ranker",
    "resolve_ranker",
    "ArrivingJob",
    "JobOutcome",
    "OnlineResult",
    "OnlineSimulator",
    "verify_execution",
]
