"""Toolchain around the lint pass: suppressions, exit codes, and the
engine's error discipline."""

import json
import textwrap

import pytest

from repro.analysis import (
    LintInternalError,
    LintViolation,
    ProjectGraph,
    Rule,
    collect_suppressions,
    filter_suppressed,
    lint_graph,
    lint_source,
)
from repro.cli import main

#: REP203 fires on the wall-clock read when linted as a ``repro.sim`` module.
WALL_CLOCK = "import time\n\n\ndef f():\n    return time.time(){noqa}\n"

#: REP205 fires on the worker's write to module state, whatever the path.
POOL_WORKER = """
    import multiprocessing

    _CACHE = {{}}

    def _worker(x):
        _CACHE[x] = x{noqa}
        return x

    def run(items):
        with multiprocessing.Pool(2) as pool:
            return pool.map(_worker, items)
    """


def v(rule="REP101", path="a.py", line=1, message="m"):
    return LintViolation(rule_id=rule, path=path, line=line, col=0, message=message)


class TestSuppressions:
    def test_bare_noqa_suppresses_everything(self):
        sup = collect_suppressions("x = 1  # repro: noqa\n")
        assert not filter_suppressed([v(line=1), v(rule="REP105", line=1)], sup)

    def test_targeted_noqa_suppresses_listed_rule_only(self):
        sup = collect_suppressions("x = 1  # repro: noqa[REP101]\n")
        kept = filter_suppressed([v(line=1), v(rule="REP105", line=1)], sup)
        assert [k.rule_id for k in kept] == ["REP105"]

    def test_multiple_ids(self):
        sup = collect_suppressions("x = 1  # repro: noqa[REP101, REP105]\n")
        assert not filter_suppressed(
            [v(line=1), v(rule="REP105", line=1)], sup
        )

    def test_other_lines_unaffected(self):
        sup = collect_suppressions("x = 1  # repro: noqa\ny = 2\n")
        assert filter_suppressed([v(line=2)], sup)

    def test_lint_source_honours_noqa(self):
        path = "repro/sim/x.py"
        assert lint_source(WALL_CLOCK.format(noqa=""), path)
        assert not lint_source(
            WALL_CLOCK.format(noqa="  # repro: noqa[REP203]"), path
        )

    def test_flow_analysis_honours_noqa(self):
        def hits(noqa):
            source = textwrap.dedent(POOL_WORKER.format(noqa=noqa))
            return lint_graph(ProjectGraph.from_sources({"pkg/a.py": source}))

        assert [h.rule_id for h in hits("")] == ["REP205"]
        assert not hits("  # repro: noqa[REP205]")
        assert hits("  # repro: noqa[REP203]"), "another rule's id suppresses nothing"


class TestFlowRegistry:
    def test_crashing_rule_becomes_internal_error(self):
        class Broken(Rule):
            rule_id = "REP999"
            description = "boom"

            def check(self, project):
                raise RuntimeError("kaboom")

        graph = ProjectGraph.from_sources({"pkg/a.py": "x = 1\n"})
        with pytest.raises(LintInternalError, match="kaboom"):
            lint_graph(graph, rules=(Broken(),))


class TestCliExitCodes:
    def _write(self, tmp_path, name, body):
        path = tmp_path / name
        path.write_text(textwrap.dedent(body), encoding="utf-8")
        return path

    def test_clean_run_exits_zero(self, tmp_path, capsys):
        self._write(tmp_path, "ok.py", '"""Doc."""\n\n__all__ = []\n')
        assert main(["lint", str(tmp_path)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_violations_exit_one(self, tmp_path, capsys):
        self._write(tmp_path, "bad.py", POOL_WORKER.format(noqa=""))
        assert main(["lint", str(tmp_path)]) == 1

    def test_parse_failure_reports_rep000_in_json(self, tmp_path, capsys):
        self._write(tmp_path, "broken.py", "def broken(:\n")
        assert main(["lint", "--format", "json", str(tmp_path)]) == 1
        payload = json.loads(capsys.readouterr().out)
        entry = payload["violations"][0]
        assert entry["rule"] == "REP000"
        assert "syntax error" in entry["message"]

    def test_missing_path_exits_two(self, tmp_path):
        assert main(["lint", str(tmp_path / "ghost.py")]) == 2

    def test_undecodable_file_exits_two(self, tmp_path):
        bad = tmp_path / "binary.py"
        bad.write_bytes(b"\xff\xfe\x00garbage")
        assert main(["lint", str(bad)]) == 2
