"""Schedulers: the policy protocol, executor, and all paper baselines.

* :class:`Policy` + :func:`run_policy` — the event-driven execution model
  shared by every dynamic scheduler (a policy repeatedly picks one action
  from the environment's legal set).
* Baselines of Sec. V: :class:`RandomPolicy`, :class:`SjfPolicy` (shortest
  job first), :class:`CriticalPathPolicy` (largest b-level),
  :class:`TetrisPolicy` (alignment-score packing), and
  :class:`GrapheneScheduler` (troublesome-task planning with forward and
  backward space-time placement).
* :class:`BranchAndBoundScheduler` — exact makespan minimization for small
  instances, used to certify optimality in tests.
"""

from .base import (
    Policy,
    Scheduler,
    SchedulerWrapper,
    PolicyScheduler,
    ClusterSnapshot,
    ScheduleRequest,
    run_policy,
)
from .policies import (
    RandomPolicy,
    SjfPolicy,
    CriticalPathPolicy,
    PriorityListPolicy,
)
from .tetris import TetrisPolicy
from .graphene import GrapheneScheduler, GraphenePlan
from .exact import BranchAndBoundScheduler
from .listsched import HeftPolicy, LptPolicy, FifoPolicy
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
    "Scheduler",
    "SchedulerWrapper",
    "PolicyScheduler",
    "ClusterSnapshot",
    "ScheduleRequest",
    "run_policy",
    "RandomPolicy",
    "SjfPolicy",
    "CriticalPathPolicy",
    "PriorityListPolicy",
    "TetrisPolicy",
    "GrapheneScheduler",
    "GraphenePlan",
    "BranchAndBoundScheduler",
    "HeftPolicy",
    "LptPolicy",
    "FifoPolicy",
    "available_schedulers",
    "make_scheduler",
    "compose_scheduler",
    "parse_scheduler_spec",
    "scheduler_options",
    "VerifyingScheduler",
    "TelemetryScheduler",
    "ReschedulingScheduler",
]
