"""Engine-level tests for the rule table, file walking and output."""

import json

import pytest

from repro.analysis import (
    available_rules,
    format_json,
    format_text,
    lint_paths,
    lint_source,
)
from repro.analysis.linter import PARSE_ERROR_RULE, iter_python_files
from repro.errors import ConfigError

#: trips REP205 anywhere, and REP203 when linted as a ``repro.sim`` module.
BAD_MODULE = """\
import multiprocessing
import time

_SEEN = []

def _worker(x):
    _SEEN.append(x)
    return time.time()

def run(xs):
    with multiprocessing.Pool(2) as pool:
        return pool.map(_worker, xs)
"""


class TestRegistry:
    def test_builtin_rules_registered(self):
        rules = available_rules()
        assert list(rules) == ["REP203", "REP205"]
        assert all(desc for desc in rules.values())


class TestLintSource:
    def test_bad_module_trips_multiple_rules(self):
        violations = lint_source(BAD_MODULE, "repro/sim/bad.py")
        rules = {v.rule_id for v in violations}
        assert {"REP203", "REP205"} <= rules

    def test_violations_sorted_by_location(self):
        violations = lint_source(BAD_MODULE, "repro/sim/bad.py")
        locations = [(v.line, v.col) for v in violations]
        assert len(locations) > 1 and locations == sorted(locations)

    def test_syntax_error_becomes_violation(self):
        violations = lint_source("def broken(:\n", "oops.py")
        assert len(violations) == 1
        assert violations[0].rule_id == PARSE_ERROR_RULE
        assert "syntax error" in violations[0].message


class TestLintPaths:
    def test_directory_walk(self, tmp_path):
        (tmp_path / "good.py").write_text("__all__ = []\n")
        sub = tmp_path / "pkg"
        sub.mkdir()
        (sub / "bad.py").write_text(BAD_MODULE)
        violations = lint_paths([tmp_path])
        assert violations
        assert all(str(sub / "bad.py") == v.path for v in violations)

    def test_missing_path_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="does not exist"):
            lint_paths([tmp_path / "nope"])

    def test_duplicate_inputs_deduplicated(self, tmp_path):
        f = tmp_path / "bad.py"
        f.write_text(BAD_MODULE)
        assert len(lint_paths([f, f, tmp_path])) == len(lint_paths([f]))

    def test_iter_python_files_sorted(self, tmp_path):
        for name in ("b.py", "a.py", "c.txt"):
            (tmp_path / name).write_text("")
        files = iter_python_files([tmp_path])
        assert [f.name for f in files] == ["a.py", "b.py"]


class TestFormatting:
    def test_text_clean(self):
        assert "clean" in format_text([])

    def test_text_lists_and_counts(self):
        violations = lint_source(BAD_MODULE, "bad.py")
        text = format_text(violations)
        assert "bad.py:" in text
        assert f"{len(violations)} violation(s)" in text

    def test_json_round_trips(self):
        violations = lint_source(BAD_MODULE, "bad.py")
        payload = json.loads(format_json(violations))
        assert payload["count"] == len(violations)
        assert payload["violations"][0]["path"] == "bad.py"
        assert {"rule", "line", "col", "message", "severity"} <= set(
            payload["violations"][0]
        )
