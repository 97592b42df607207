"""Schedule verification for the reproduction.

:mod:`repro.analysis.verifier` is a *semantic* checker that proves an
emitted :class:`repro.metrics.Schedule` respects every feasibility
invariant of its :class:`repro.dag.TaskGraph` and cluster capacity,
returning structured :class:`Violation` records instead of booleans.

It backs ``repro verify``, the ``verify=true`` scheduler spec key
(:class:`repro.schedulers.registry.VerifyingScheduler`) and the
tournament harness's per-plan check.  The repository's own
source discipline is checked by tier-1 tests instead: sim time in
``tests/arch/test_sim_time.py``, root-parallel search in
``tests/unit/mcts/test_parallel.py``.
"""

from .verifier import (
    SCHEDULE_INVARIANTS,
    verify_payload,
    verify_placements,
    verify_schedule,
)
from .violations import Severity, VerificationReport, Violation

__all__ = [
    "Severity",
    "Violation",
    "VerificationReport",
    "SCHEDULE_INVARIANTS",
    "verify_schedule",
    "verify_placements",
    "verify_payload",
]
