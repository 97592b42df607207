"""The lint rules ``repro lint`` runs, one contract per module.

* REP203 (:mod:`.sim_time`) — sim-time discipline: no wall clock and no
  float time inside the simulation packages;
* REP205 (:mod:`.parallel_escape`) — no module-state write reachable
  from a process-pool worker.

These are the two rules with a record of findings on this repository;
DESIGN.md Sec. 7 lists the rules that were deleted and what checks
their contract now.
"""

from typing import Tuple

from .base import LintViolation, Rule
from .parallel_escape import ParallelEscapeRule
from .sim_time import SimTimeRule

__all__ = ["RULES", "Rule", "LintViolation", "SimTimeRule", "ParallelEscapeRule"]

#: every rule of a ``repro lint`` pass, in rule-id order.
RULES: Tuple[Rule, ...] = (SimTimeRule(), ParallelEscapeRule())
