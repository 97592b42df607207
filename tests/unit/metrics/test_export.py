"""Unit tests for schedule JSON export."""

import json

import pytest

from repro.dag import chain_dag
from repro.errors import ScheduleError
from repro.metrics import (
    Schedule,
    ScheduledTask,
    load_schedule,
    save_schedule,
    schedule_from_dict,
    schedule_to_dict,
)
from repro.metrics.export import schedule_json
from repro.schedulers import ScheduleRequest


@pytest.fixture
def schedule(chain3):
    return Schedule.from_starts(
        {0: 0, 1: 2, 2: 5}, chain3, scheduler="test", wall_time=1.5
    )


class TestRoundTrip:
    def test_dict_roundtrip(self, schedule):
        restored = schedule_from_dict(schedule_to_dict(schedule))
        assert restored == schedule

    def test_file_roundtrip(self, schedule, tmp_path):
        path = tmp_path / "schedule.json"
        save_schedule(schedule, path)
        restored = load_schedule(path)
        assert restored.as_dict() == schedule.as_dict()
        assert restored.scheduler == "test"
        assert restored.wall_time == 1.5

    def test_makespan_recorded(self, schedule):
        payload = schedule_to_dict(schedule)
        assert payload["makespan"] == schedule.makespan


class TestScheduleJson:
    """``schedule_json`` is ``schedule_to_dict`` as compact sorted-key
    JSON; the reply-line tests in ``test_protocol.py`` pin it further."""

    @staticmethod
    def _reference(schedule):
        return json.dumps(
            schedule_to_dict(schedule), sort_keys=True, separators=(",", ":")
        )

    def test_text_is_the_reference(self, schedule):
        assert schedule_json(schedule) == self._reference(schedule)

    def test_empty_schedule(self):
        empty = Schedule((), scheduler='a "quoted" name')
        assert schedule_json(empty) == self._reference(empty)

    @pytest.mark.parametrize("value", [True, 3.0], ids=["bool", "float"])
    def test_declines_a_number_that_is_not_an_exact_int(self, value):
        placements = (ScheduledTask(0, 0, 3), ScheduledTask(1, 0, value))
        assert schedule_json(Schedule(placements)) is None


class TestValidation:
    def test_non_dict_rejected(self):
        with pytest.raises(ScheduleError):
            schedule_from_dict([1, 2])

    def test_bad_version_rejected(self, schedule):
        payload = schedule_to_dict(schedule)
        payload["version"] = 42
        with pytest.raises(ScheduleError):
            schedule_from_dict(payload)

    def test_missing_fields_rejected(self):
        with pytest.raises(ScheduleError):
            schedule_from_dict(
                {"version": 1, "placements": [{"task_id": 0}]}
            )

    def test_inconsistent_makespan_rejected(self, schedule):
        payload = schedule_to_dict(schedule)
        payload["makespan"] = 999
        with pytest.raises(ScheduleError, match="makespan"):
            schedule_from_dict(payload)

    def test_invalid_json_file_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{{{")
        with pytest.raises(ScheduleError):
            load_schedule(path)


class TestEndToEnd:
    def test_scheduler_output_roundtrips(self, tmp_path, small_random_graph):
        from repro.config import ClusterConfig, EnvConfig
        from repro.schedulers import make_scheduler

        env_config = EnvConfig(
            cluster=ClusterConfig(capacities=(10, 10), horizon=8)
        )
        schedule = make_scheduler("tetris", env_config).plan(
            ScheduleRequest(small_random_graph)
        )
        path = tmp_path / "out.json"
        save_schedule(schedule, path)
        restored = load_schedule(path)
        from repro.metrics import validate_schedule

        validate_schedule(restored, small_random_graph, (10, 10))
        assert restored.makespan == schedule.makespan
