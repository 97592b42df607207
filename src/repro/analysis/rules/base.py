"""What every lint rule shares: the violation record and the rule interface."""

from __future__ import annotations

import abc
import ast
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, Union

from ..modgraph import ProjectGraph

__all__ = ["LintViolation", "Rule"]


@dataclass(frozen=True)
class LintViolation:
    """One rule hit at one source location."""

    rule_id: str
    path: str
    line: int
    col: int
    message: str
    severity: str = "error"

    def format(self) -> str:
        """``path:line:col: RULE message`` (editor-clickable)."""
        return f"{self.path}:{self.line}:{self.col}: {self.rule_id} {self.message}"

    def as_dict(self) -> Dict[str, Union[str, int]]:
        """JSON-compatible representation for ``repro lint --format json``."""
        return {
            "rule": self.rule_id,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "severity": self.severity,
        }


class Rule(abc.ABC):
    """One contract check over the whole project.

    Subclasses set ``rule_id`` (stable, ``REPnnn``) and ``description``
    and implement :meth:`check`; the instances ``repro lint`` runs are
    the :data:`repro.analysis.rules.RULES` tuple.
    """

    rule_id: str = "REP???"
    description: str = ""

    @abc.abstractmethod
    def check(self, project: ProjectGraph) -> Iterable[LintViolation]:
        """Yield every violation of this rule in the project."""

    def violation(
        self, node: ast.AST, path: Union[str, Path], message: str
    ) -> LintViolation:
        """Convenience constructor anchored at ``node``'s location."""
        return LintViolation(
            rule_id=self.rule_id,
            path=str(path),
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            message=message,
        )
