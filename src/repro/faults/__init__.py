"""repro.faults — seeded fault injection and runtime uncertainty.

The Spear paper schedules against *estimated* runtimes on a static
cluster; this package expresses everything a real cluster does to such a
plan — machines crash and recover, tasks fail transiently and retry,
stragglers blow past their estimates — as composable, bit-reproducible
fault models (DESIGN.md Sec. 10).  Quick tour::

    from repro.faults import FaultPlan, TransientFaults, random_crash_plan

    plan = FaultPlan(
        crashes=random_crash_plan(2, capacities=(20, 20), horizon=400),
        transient=TransientFaults(probability=0.05),
        seed=7,
    )
    result = OnlineSimulator().run(jobs, ranker, faults=plan)
    result.recoveries, result.total_retries, result.failed_jobs

The executor side (retry/backoff, crash-displaced work, dynamic
rescheduling) lives in :mod:`repro.online.simulator`; the
:class:`~repro.schedulers.rescheduler.ReschedulingScheduler` wrapper
replans the residual DAG on every fault event.
"""

from .events import CRASH, JOB_FAILED, RECOVERY, RETRY, TASK_FAILURE, FaultEvent
from .injector import FaultInjector, TaskAttempt, TimelineEntry
from .plan import (
    FaultPlan,
    MachineCrash,
    RetryPolicy,
    RuntimeNoise,
    StragglerModel,
    TransientFaults,
    parse_fault_spec,
    random_crash_plan,
)

__all__ = [
    "FaultEvent",
    "CRASH",
    "RECOVERY",
    "TASK_FAILURE",
    "RETRY",
    "JOB_FAILED",
    "FaultInjector",
    "TaskAttempt",
    "TimelineEntry",
    "FaultPlan",
    "MachineCrash",
    "TransientFaults",
    "StragglerModel",
    "RuntimeNoise",
    "RetryPolicy",
    "parse_fault_spec",
    "random_crash_plan",
]
