"""The lint engine: one pass of every rule over one project graph.

``repro lint`` reads the given files, parses them once into a
:class:`~repro.analysis.modgraph.ProjectGraph`, runs each rule of
:data:`repro.analysis.rules.RULES` over it and renders text or JSON.
A file that does not parse is reported as ``REP000`` rather than
aborting the run; a hit on a line carrying ``# repro: noqa[REPnnn]`` is
dropped; a rule that crashes or a file that cannot be read raises
:class:`LintInternalError`, so the CLI can exit 2 (broken gate) instead
of 1 (violations found).

The rules are deliberately repo-specific: they encode the discipline
this library's reproducibility rests on (sim time is an integer slot
count, pool workers return results instead of writing module state)
rather than generic style, which ruff covers.
"""

from __future__ import annotations

import json
import re
from pathlib import Path
from typing import Dict, FrozenSet, Iterable, List, Mapping, Sequence, Union

from ..errors import ConfigError, ReproError
from .modgraph import ProjectGraph
from .rules import RULES, LintViolation, Rule

__all__ = [
    "LintInternalError",
    "available_rules",
    "lint_graph",
    "lint_source",
    "lint_paths",
    "collect_suppressions",
    "filter_suppressed",
    "format_text",
    "format_json",
]

#: rule id used for files that fail to parse at all.
PARSE_ERROR_RULE = "REP000"


class LintInternalError(ReproError):
    """The analyzer itself failed (rule crash, unreadable input).

    Distinct from "violations were found": ``repro lint`` exits 2 on
    this, 1 on violations, so CI can tell a broken gate from a failing
    one.
    """


def available_rules() -> Dict[str, str]:
    """Mapping ``rule_id -> description`` of every rule a pass runs."""
    return {rule.rule_id: rule.description for rule in RULES}


# ---------------------------------------------------------------------- #
# inline suppressions
# ---------------------------------------------------------------------- #

#: matches ``# repro: noqa`` and ``# repro: noqa[REP203,REP205]``.
_NOQA_RE = re.compile(
    r"#\s*repro:\s*noqa(?:\[(?P<ids>[A-Za-z0-9_,\s]+)\])?"
)

#: sentinel for a bare ``# repro: noqa`` (suppresses every rule on the line).
ALL_RULES: FrozenSet[str] = frozenset({"*"})


def collect_suppressions(source: str) -> Dict[int, FrozenSet[str]]:
    """Per-line inline suppressions declared in ``source``.

    Returns ``{line_number: rule_ids}`` (1-based); the special set
    :data:`ALL_RULES` marks a bare ``# repro: noqa``.
    """
    suppressions: Dict[int, FrozenSet[str]] = {}
    for lineno, line in enumerate(source.splitlines(), start=1):
        match = _NOQA_RE.search(line)
        if not match:
            continue
        ids = match.group("ids")
        if ids is None:
            suppressions[lineno] = ALL_RULES
        else:
            suppressions[lineno] = frozenset(
                part.strip() for part in ids.split(",") if part.strip()
            )
    return suppressions


def filter_suppressed(
    violations: Iterable[LintViolation],
    suppressions: Mapping[int, FrozenSet[str]],
) -> List[LintViolation]:
    """Drop violations whose line carries a matching ``# repro: noqa``."""
    kept: List[LintViolation] = []
    for violation in violations:
        ids = suppressions.get(violation.line)
        if ids is not None and (ids == ALL_RULES or violation.rule_id in ids):
            continue
        kept.append(violation)
    return kept


# ---------------------------------------------------------------------- #
# the pass
# ---------------------------------------------------------------------- #


def lint_graph(
    project: ProjectGraph, rules: Sequence[Rule] = RULES
) -> List[LintViolation]:
    """Run ``rules`` over an already-built project graph.

    Returns the unsuppressed violations sorted by location, the
    ``REP000`` of every source the graph could not parse among them.

    Raises:
        LintInternalError: when a rule itself crashes (analyzer bug).
    """
    violations: List[LintViolation] = [
        LintViolation(
            rule_id=PARSE_ERROR_RULE,
            path=path,
            line=getattr(exc, "lineno", None) or 1,
            col=getattr(exc, "offset", None) or 0,
            message=f"syntax error: {getattr(exc, 'msg', exc)}",
        )
        for path, exc in project.unparsable
    ]
    by_path: Dict[str, List[LintViolation]] = {}
    for rule in rules:
        try:
            for violation in rule.check(project):
                by_path.setdefault(violation.path, []).append(violation)
        except Exception as exc:  # noqa: BLE001 - converted to exit-code-2 error
            raise LintInternalError(
                f"rule {rule.rule_id} crashed: {type(exc).__name__}: {exc}"
            ) from exc
    for path, hits in by_path.items():
        module = project.module_for_path(path)
        if module is not None:
            hits = filter_suppressed(hits, collect_suppressions(module.source))
        violations.extend(hits)
    violations.sort(key=lambda v: (v.path, v.line, v.col, v.rule_id))
    return violations


def lint_source(
    source: str, path: Union[str, Path] = "<string>"
) -> List[LintViolation]:
    """Lint one module's source text as a one-module project."""
    return lint_graph(ProjectGraph.from_sources({str(path): source}))


def iter_python_files(paths: Sequence[Union[str, Path]]) -> List[Path]:
    """Expand files/directories into a sorted, de-duplicated ``.py`` list.

    Raises:
        ConfigError: if a path does not exist.
    """
    files: List[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            files.extend(sorted(path.rglob("*.py")))
        elif path.is_file():
            files.append(path)
        else:
            raise ConfigError(f"lint path {str(path)!r} does not exist")
    return list(dict.fromkeys(files))


def lint_paths(paths: Sequence[Union[str, Path]]) -> List[LintViolation]:
    """Lint every ``.py`` file under ``paths`` as one project.

    Raises:
        ConfigError: on a missing path.
        LintInternalError: on an unreadable file or a crashing rule.
    """
    sources: Dict[str, str] = {}
    for file in iter_python_files(paths):
        try:
            sources[str(file)] = file.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise LintInternalError(f"cannot read {file}: {exc}") from exc
    return lint_graph(ProjectGraph.from_sources(sources))


def format_text(violations: Sequence[LintViolation]) -> str:
    """Human-readable report: one line per violation plus a total."""
    if not violations:
        return "repro lint: clean"
    lines = [v.format() for v in violations]
    lines.append(f"repro lint: {len(violations)} violation(s)")
    return "\n".join(lines)


def format_json(violations: Sequence[LintViolation]) -> str:
    """Machine-readable report (a JSON object with a ``violations`` list)."""
    return json.dumps(
        {
            "violations": [v.as_dict() for v in violations],
            "count": len(violations),
        },
        indent=2,
    )
