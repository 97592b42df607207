"""Unit tests for schedule records and feasibility validation."""

import pytest

from repro.dag import Task, TaskGraph, chain_dag
from repro.errors import ScheduleError, UnknownTaskError
from repro.metrics import Schedule, ScheduledTask, validate_schedule


class TestScheduledTask:
    def test_duration(self):
        assert ScheduledTask(0, 2, 7).duration == 5

    def test_negative_start_rejected(self):
        with pytest.raises(ScheduleError):
            ScheduledTask(0, -1, 3)

    def test_empty_interval_rejected(self):
        with pytest.raises(ScheduleError):
            ScheduledTask(0, 3, 3)


class TestSchedule:
    def test_makespan_is_last_finish(self):
        schedule = Schedule(
            (ScheduledTask(0, 0, 3), ScheduledTask(1, 1, 7)), "x"
        )
        assert schedule.makespan == 7
        assert schedule.num_tasks == 2

    def test_empty_schedule_makespan_zero(self):
        assert Schedule((), "x").makespan == 0

    def test_from_starts_uses_graph_runtimes(self, chain3):
        schedule = Schedule.from_starts({0: 0, 1: 2, 2: 5}, chain3, "x")
        assert schedule.as_dict() == {0: (0, 2), 1: (2, 5), 2: (5, 6)}

    def test_from_starts_rejects_a_negative_start(self, chain3):
        with pytest.raises(ScheduleError, match="task 1: negative start"):
            Schedule.from_starts({0: 0, 1: -1, 2: 5}, chain3)

    def test_from_starts_rejects_an_unknown_id(self, chain3):
        with pytest.raises(UnknownTaskError, match="no task with id 9"):
            Schedule.from_starts({0: 0, 1: 2, 9: 5}, chain3)

    @pytest.mark.parametrize(
        "starts, error",
        [
            ({9: 0, 1: -1}, ScheduleError),  # by id, the negative start is first
            ({0: -1, 9: 0}, ScheduleError),
            ({-3: 0, 1: -1}, UnknownTaskError),  # the unknown id is first
        ],
    )
    def test_from_starts_names_the_first_bad_task_by_id(self, chain3, starts, error):
        with pytest.raises(error):
            Schedule.from_starts(starts, chain3)

    def test_from_starts_placements_equal_validated_ones(self, chain3):
        schedule = Schedule.from_starts({2: 5, 0: 0, 1: 2}, chain3, "x", 0.5)
        validated = (
            ScheduledTask(0, 0, 2),
            ScheduledTask(1, 2, 5),
            ScheduledTask(2, 5, 6),
        )
        assert schedule == Schedule(validated, "x", 0.5)
        assert [hash(p) for p in schedule.placements] == [hash(p) for p in validated]
        assert all(type(p) is ScheduledTask for p in schedule.placements)
        assert [repr(p) for p in schedule.placements] == [repr(p) for p in validated]

    def test_start_of(self, chain3):
        schedule = Schedule.from_starts({0: 0, 1: 2, 2: 5}, chain3)
        assert schedule.start_of(1) == 2
        with pytest.raises(ScheduleError):
            schedule.start_of(99)


class TestValidation:
    @pytest.fixture
    def graph(self):
        # 0 (r=2, d=(2,1)) -> 1 (r=3); 2 independent.
        tasks = [Task(0, 2, (2, 1)), Task(1, 3, (2, 1)), Task(2, 1, (9, 9))]
        return TaskGraph(tasks, [(0, 1)])

    def test_valid_schedule_passes(self, graph):
        schedule = Schedule.from_starts({0: 0, 1: 2, 2: 5}, graph)
        validate_schedule(schedule, graph, (10, 10))

    def test_missing_task_rejected(self, graph):
        schedule = Schedule((ScheduledTask(0, 0, 2),), "x")
        with pytest.raises(ScheduleError, match="completeness"):
            validate_schedule(schedule, graph, (10, 10))

    def test_unknown_task_rejected(self, graph):
        schedule = Schedule.from_starts({0: 0, 1: 2, 2: 5}, graph)
        extra = Schedule(
            schedule.placements + (ScheduledTask(9, 0, 1),), "x"
        )
        with pytest.raises(ScheduleError, match="completeness"):
            validate_schedule(extra, graph, (10, 10))

    def test_duplicate_task_rejected(self, graph):
        placements = (
            ScheduledTask(0, 0, 2),
            ScheduledTask(0, 2, 4),
            ScheduledTask(1, 4, 7),
            ScheduledTask(2, 0, 1),
        )
        with pytest.raises(ScheduleError):
            validate_schedule(Schedule(placements, "x"), graph, (10, 10))

    def test_wrong_duration_rejected(self, graph):
        placements = (
            ScheduledTask(0, 0, 5),  # runtime is 2, not 5
            ScheduledTask(1, 5, 8),
            ScheduledTask(2, 0, 1),
        )
        with pytest.raises(ScheduleError, match="duration"):
            validate_schedule(Schedule(placements, "x"), graph, (10, 10))

    def test_dependency_violation_rejected(self, graph):
        schedule = Schedule.from_starts({0: 0, 1: 1, 2: 5}, graph)
        with pytest.raises(ScheduleError, match="dependency"):
            validate_schedule(schedule, graph, (10, 10))

    def test_dependency_back_to_back_allowed(self, graph):
        schedule = Schedule.from_starts({0: 0, 1: 2, 2: 5}, graph)
        validate_schedule(schedule, graph, (10, 10))

    def test_capacity_violation_rejected(self, graph):
        # Task 2 demands (9,9); overlapping with task 0 busts CPU 10.
        schedule = Schedule.from_starts({0: 0, 1: 2, 2: 1}, graph)
        with pytest.raises(ScheduleError, match="capacity"):
            validate_schedule(schedule, graph, (10, 10))

    def test_release_before_grab_at_same_slot(self, graph):
        # Task 2 starts exactly when task 0 finishes (task 1 comes later):
        # no violation even though the slot boundary is shared.
        schedule = Schedule.from_starts({0: 0, 1: 3, 2: 2}, graph)
        validate_schedule(schedule, graph, (10, 10))

    def test_capacity_dimension_mismatch_rejected(self, graph):
        schedule = Schedule.from_starts({0: 0, 1: 2, 2: 5}, graph)
        with pytest.raises(ScheduleError, match="dims"):
            validate_schedule(schedule, graph, (10,))
