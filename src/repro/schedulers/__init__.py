"""Schedulers: the policy protocol, executor, and all paper baselines.

* :class:`Policy` + :func:`run_policy` — the event-driven execution model
  shared by every dynamic scheduler (a policy repeatedly picks one action
  from the environment's legal set).
* Baselines of Sec. V: :class:`RandomPolicy`, the list heuristics —
  SJF (shortest job first), CP (largest b-level), Tetris
  (alignment-score packing), HEFT, LPT and FIFO, each one ranking rule
  in :mod:`~repro.schedulers.rules` run by :class:`GreedyPolicy`
  (:func:`greedy_policy` builds one by name; the online dispatch reads
  the same rules) — and :class:`GrapheneScheduler` (troublesome-task
  planning with forward and backward space-time placement).
* :class:`BranchAndBoundScheduler` — exact makespan minimization for small
  instances, used to certify optimality in tests.
"""

from .base import (
    Policy,
    GreedyPolicy,
    Scheduler,
    SchedulerWrapper,
    PolicyScheduler,
    ClusterSnapshot,
    ScheduleRequest,
    run_policy,
)
from .policies import RandomPolicy, TetrisPolicy, greedy_policy
from .rules import RANKERS
from .graphene import GrapheneScheduler, GraphenePlan
from .exact import BranchAndBoundScheduler
from .registry import (
    TelemetryScheduler,
    VerifyingScheduler,
    available_schedulers,
    compose_scheduler,
    make_scheduler,
    parse_scheduler_spec,
    scheduler_options,
)
from .rescheduler import ReschedulingScheduler

__all__ = [
    "Policy",
    "GreedyPolicy",
    "Scheduler",
    "SchedulerWrapper",
    "PolicyScheduler",
    "ClusterSnapshot",
    "ScheduleRequest",
    "run_policy",
    "RandomPolicy",
    "TetrisPolicy",
    "greedy_policy",
    "RANKERS",
    "GrapheneScheduler",
    "GraphenePlan",
    "BranchAndBoundScheduler",
    "available_schedulers",
    "make_scheduler",
    "compose_scheduler",
    "parse_scheduler_spec",
    "scheduler_options",
    "VerifyingScheduler",
    "TelemetryScheduler",
    "ReschedulingScheduler",
]
