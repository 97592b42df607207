"""Analyzer robustness over the real repository.

Two guarantees the CI gate depends on:

* the lint pass never raises on any file of ``src/repro`` — a crashing
  rule would turn every future commit's gate red for the wrong reason
  (and is exactly what ``LintInternalError``/exit 2 is reserved for);
* a clean re-run of the full gate finds nothing, i.e. the repository as
  committed satisfies its own contracts.
"""

from pathlib import Path

from repro.analysis import ProjectGraph, lint_graph, lint_paths

REPO_ROOT = Path(__file__).resolve().parents[2]
REPO_SRC = REPO_ROOT / "src" / "repro"


class TestNeverRaises:
    def test_whole_tree_analyzes_without_error(self):
        # LintInternalError (or anything else) escaping here means an
        # analyzer bug, not a lint finding.
        lint_paths([REPO_SRC])

    def test_every_file_analyzes_in_isolation(self):
        # Per-file graphs exercise unresolved-import paths the whole-tree
        # run never sees (helpers missing from the graph, etc.).
        for file in sorted(REPO_SRC.rglob("*.py")):
            source = file.read_text(encoding="utf-8")
            graph = ProjectGraph.from_sources({str(file): source})
            lint_graph(graph)


class TestRepositoryIsClean:
    def test_full_gate_is_empty(self):
        violations = lint_paths([REPO_SRC])
        assert not violations, "\n".join(v.format() for v in violations)
