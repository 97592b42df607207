"""CLI-level tests for ``repro verify``."""

import json

import pytest

from repro.cli import main
from repro.config import EnvConfig, WorkloadConfig
from repro.dag.generators import random_layered_dag
from repro.dag.io import save_graph
from repro.metrics.export import save_schedule, schedule_to_dict
from repro.schedulers import ScheduleRequest
from repro.schedulers.registry import make_scheduler


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
