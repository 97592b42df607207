"""CLI-level tests for ``repro verify`` and ``repro lint``."""

import argparse
import json
from pathlib import Path

import pytest

from repro.cli import build_parser, main
from repro.config import EnvConfig, WorkloadConfig
from repro.dag.generators import random_layered_dag
from repro.dag.io import save_graph
from repro.metrics.export import save_schedule, schedule_to_dict
from repro.schedulers import ScheduleRequest
from repro.schedulers.registry import make_scheduler

REPO_SRC = Path(__file__).resolve().parents[3] / "src" / "repro"


@pytest.fixture
def planned(tmp_path):
    """A small scheduled instance saved to disk: (graph_path, schedule, graph)."""
    graph = random_layered_dag(WorkloadConfig(num_tasks=12), seed=7)
    env = EnvConfig(process_until_completion=True)
    schedule = make_scheduler("tetris", env).plan(ScheduleRequest(graph))
    graph_path = tmp_path / "graph.json"
    save_graph(graph, graph_path)
    return graph_path, schedule, graph


class TestVerifyCommand:
    def test_clean_schedule_exits_zero(self, tmp_path, planned, capsys):
        graph_path, schedule, _ = planned
        schedule_path = tmp_path / "schedule.json"
        save_schedule(schedule, schedule_path)
        code = main(["verify", str(schedule_path), "--graph", str(graph_path)])
        assert code == 0
        assert "ok" in capsys.readouterr().out

    def test_precedence_violation_exits_one(self, tmp_path, planned, capsys):
        graph_path, schedule, graph = planned
        payload = schedule_to_dict(schedule)
        up, down = next(iter(graph.edges()))
        for entry in payload["placements"]:
            if entry["task_id"] == down:
                entry["start"] = 0
                entry["finish"] = graph.task(down).runtime
        schedule_path = tmp_path / "bad.json"
        schedule_path.write_text(json.dumps(payload))
        code = main(["verify", str(schedule_path), "--graph", str(graph_path)])
        assert code == 1
        assert "dependency violated" in capsys.readouterr().out

    def test_capacity_overflow_exits_one(self, tmp_path, planned, capsys):
        graph_path, schedule, graph = planned
        payload = schedule_to_dict(schedule)
        for entry in payload["placements"]:  # everything at t=0: overflow
            entry["finish"] = entry["finish"] - entry["start"]
            entry["start"] = 0
        schedule_path = tmp_path / "squash.json"
        schedule_path.write_text(json.dumps(payload))
        code = main(["verify", str(schedule_path), "--graph", str(graph_path)])
        assert code == 1
        assert "capacity violated" in capsys.readouterr().out

    def test_json_report(self, tmp_path, planned, capsys):
        graph_path, schedule, _ = planned
        schedule_path = tmp_path / "schedule.json"
        save_schedule(schedule, schedule_path)
        code = main(
            ["verify", str(schedule_path), "--graph", str(graph_path), "--json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        assert payload["rules_checked"]

    def test_missing_input_exits_two(self, tmp_path, planned, capsys):
        graph_path, _, _ = planned
        code = main(["verify", str(tmp_path / "nope.json"), "--graph", str(graph_path)])
        assert code == 2
        assert "cannot load" in capsys.readouterr().err

    def test_bad_capacities_exits_two(self, tmp_path, planned, capsys):
        graph_path, schedule, _ = planned
        schedule_path = tmp_path / "schedule.json"
        save_schedule(schedule, schedule_path)
        code = main(
            [
                "verify",
                str(schedule_path),
                "--graph",
                str(graph_path),
                "--capacities",
                "a,b",
            ]
        )
        assert code == 2

    def test_explicit_capacities_flag_violations(self, tmp_path, planned, capsys):
        graph_path, schedule, _ = planned
        schedule_path = tmp_path / "schedule.json"
        save_schedule(schedule, schedule_path)
        code = main(
            [
                "verify",
                str(schedule_path),
                "--graph",
                str(graph_path),
                "--capacities",
                "1,1",
            ]
        )
        assert code == 1
        assert "capacity violated" in capsys.readouterr().out


#: a process-pool worker writing module state: REP205 wherever it lives,
#: plus REP203 for the wall-clock read when the file is a ``repro.streaming``
#: module.
BAD_SOURCE = """\
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


class TestLintCommand:
    def test_repo_source_tree_is_clean(self, capsys):
        assert main(["lint", str(REPO_SRC)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_violating_file_exits_nonzero(self, tmp_path, capsys):
        package = tmp_path / "repro" / "streaming"
        package.mkdir(parents=True)
        (tmp_path / "repro" / "__init__.py").write_text("")
        (package / "__init__.py").write_text("")
        (package / "bad.py").write_text(BAD_SOURCE)
        assert main(["lint", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "REP203" in out and "REP205" in out

    def test_json_format(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text(BAD_SOURCE)
        assert main(["lint", str(bad), "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["count"] >= 1

    def test_list_rules(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split()[0] for line in lines] == ["REP203", "REP205"]

    def test_no_paths_exits_two(self, capsys):
        assert main(["lint"]) == 2
        assert "no paths" in capsys.readouterr().err

    def test_flag_surface(self):
        # ``paths``, ``--format {text,json}``, ``--list-rules``: nothing else.
        subparsers = next(
            action
            for action in build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        )
        options = {
            action.dest: action.choices
            for action in subparsers.choices["lint"]._actions
            if action.dest != "help"
        }
        assert options == {
            "paths": None,
            "format": ["text", "json"],
            "list_rules": None,
        }
