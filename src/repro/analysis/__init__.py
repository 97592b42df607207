"""Static analysis for the reproduction: schedule verification + linting.

Two independent halves share this package:

* :mod:`repro.analysis.verifier` — a *semantic* checker that proves an
  emitted :class:`repro.metrics.Schedule` respects every feasibility
  invariant of its :class:`repro.dag.TaskGraph` and cluster capacity,
  returning structured :class:`Violation` records instead of booleans.
* :mod:`repro.analysis.linter` — one whole-program lint pass
  (``repro lint``) over a :class:`~repro.analysis.modgraph.ProjectGraph`
  of the source tree, running the two repo-specific rules of
  :mod:`repro.analysis.rules`: REP203 (no wall clock or float time in
  the simulation packages) and REP205 (no module-state write reachable
  from a process-pool worker).

Both are wired into the CLI (``repro verify`` / ``repro lint``); the
verifier also backs the scheduler registry
(``make_scheduler(name, validate=True)``) and the environment's terminal
states (``EnvConfig(verify_terminal=True)``).
"""

from .linter import (
    LintInternalError,
    available_rules,
    collect_suppressions,
    filter_suppressed,
    format_json,
    format_text,
    lint_graph,
    lint_paths,
    lint_source,
)
from .modgraph import ProjectGraph
from .rules import LintViolation, Rule
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
    "Rule",
    "LintViolation",
    "LintInternalError",
    "ProjectGraph",
    "available_rules",
    "collect_suppressions",
    "filter_suppressed",
    "lint_graph",
    "lint_source",
    "lint_paths",
    "format_text",
    "format_json",
]
