"""REP203 — sim-time discipline inside the simulation packages.

The discrete-event kernel's whole guarantee is an *integer* clock:
``repro.sim`` orders events by ``(time, class, seq)`` with exact
equality, and every layer above it (``repro.online``, ``repro.cluster``)
counts slots — as does the open-system layer (``repro.streaming``)
above them.  One wall-clock read or one float leaking into time
arithmetic silently re-introduces the nondeterminism the kernel
extraction removed — bit-identical replays stop replaying.

Inside the simulation packages this rule flags:

* wall-clock reads — ``time.time()``, ``time.monotonic()``,
  ``time.perf_counter()`` and friends, ``datetime.now()`` /
  ``utcnow()`` / ``today()`` — however the module was imported
  (wall-clock *measurement* belongs in :mod:`repro.utils.timing`, which
  schedulers use for planning budgets, outside sim time);
* float contamination of time values — arithmetic combining a
  recognizably time-named operand (``now``, ``clock.now``,
  ``sim_time``, ...) with a float literal, and true division (``/``) of
  time-named operands where floor division keeps the clock integral.

Scope is by dotted module name (``repro.sim``, ``repro.online``,
``repro.cluster``, ``repro.streaming``, ``repro.federation`` — the
streaming package hosts an asyncio daemon, where a stray ``time.time()``
would leak wall time into request sim-times), which the project graph
gives every file.
"""

from __future__ import annotations

import ast
from typing import Iterable, List, Optional

from ..modgraph import ModuleInfo, ProjectGraph
from .base import LintViolation, Rule

__all__ = ["SimTimeRule"]

#: dotted call targets that read a wall clock.
_WALL_CLOCK = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.process_time",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)

#: names that denote a simulation-time value when used in arithmetic.
_TIME_NAMES = frozenset({"now", "sim_time", "current_time", "clock"})


def _time_named(expr: ast.expr) -> Optional[str]:
    """The time-ish name an operand refers to, if any."""
    if isinstance(expr, ast.Name) and expr.id in _TIME_NAMES:
        return expr.id
    if isinstance(expr, ast.Attribute) and expr.attr in _TIME_NAMES:
        return expr.attr
    return None


def _is_float_literal(expr: ast.expr) -> bool:
    if isinstance(expr, ast.Constant):
        return isinstance(expr.value, float)
    if isinstance(expr, ast.UnaryOp) and isinstance(expr.op, (ast.USub, ast.UAdd)):
        return _is_float_literal(expr.operand)
    return False


class SimTimeRule(Rule):
    rule_id = "REP203"
    description = (
        "wall-clock read or float time arithmetic inside repro.sim/"
        "repro.online/repro.cluster/repro.streaming/repro.federation; "
        "sim time is an integer slot count"
    )

    #: package prefixes the discipline applies to.
    scoped_packages = (
        "repro.sim",
        "repro.online",
        "repro.cluster",
        "repro.streaming",
        "repro.federation",
    )

    def check(self, project: ProjectGraph) -> Iterable[LintViolation]:
        violations: List[LintViolation] = []
        for module in project.modules.values():
            if not self._in_scope(module):
                continue
            violations.extend(self._check_module(project, module))
        return violations

    def _in_scope(self, module: ModuleInfo) -> bool:
        return any(
            module.name == package or module.name.startswith(package + ".")
            for package in self.scoped_packages
        )

    def _check_module(
        self, project: ProjectGraph, module: ModuleInfo
    ) -> Iterable[LintViolation]:
        violations: List[LintViolation] = []
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call):
                target = project.resolve_call(module, node.func)
                if target in _WALL_CLOCK:
                    violations.append(
                        self.violation(
                            node,
                            module.path,
                            f"wall-clock read {target}() inside the "
                            "simulation packages; advance the kernel "
                            "clock instead (wall timing belongs in "
                            "repro.utils.timing)",
                        )
                    )
            elif isinstance(node, ast.BinOp) and isinstance(
                node.op, (ast.Add, ast.Sub, ast.Mult, ast.Div)
            ):
                left_time = _time_named(node.left)
                right_time = _time_named(node.right)
                time_name = left_time or right_time
                if time_name is None:
                    continue
                if isinstance(node.op, ast.Div):
                    violations.append(
                        self.violation(
                            node,
                            module.path,
                            f"true division on sim-time value "
                            f"{time_name!r} produces a float; use // to "
                            "keep the clock integral",
                        )
                    )
                elif _is_float_literal(node.left) or _is_float_literal(
                    node.right
                ):
                    violations.append(
                        self.violation(
                            node,
                            module.path,
                            f"float literal combined with sim-time value "
                            f"{time_name!r}; sim time is an integer slot "
                            "count",
                        )
                    )
        return violations
