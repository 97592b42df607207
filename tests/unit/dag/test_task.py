"""Unit tests for :class:`repro.dag.Task`."""

from collections import namedtuple

import numpy as np
import pytest

from repro.dag import Task
from repro.errors import ConfigError


class TestConstruction:
    def test_basic_fields(self):
        task = Task(3, 5, (2, 4), name="map-3")
        assert task.task_id == 3
        assert task.runtime == 5
        assert task.demands == (2, 4)
        assert task.name == "map-3"

    def test_demands_normalized_to_int_tuple(self):
        task = Task(0, 1, [2.0, 3.0])
        assert task.demands == (2, 3)
        assert all(isinstance(d, int) for d in task.demands)

    def test_rejects_negative_id(self):
        with pytest.raises(ConfigError):
            Task(-1, 1, (1,))

    def test_rejects_zero_runtime(self):
        with pytest.raises(ConfigError):
            Task(0, 0, (1,))

    def test_rejects_empty_demands(self):
        with pytest.raises(ConfigError):
            Task(0, 1, ())

    def test_rejects_negative_demand(self):
        with pytest.raises(ConfigError):
            Task(0, 1, (1, -2))

    def test_exact_input_is_kept_as_the_objects_passed(self):
        """A plain tuple of exact ints needs no normalizing, and gets
        none: a loader that type-checked its integers pays nothing."""
        demands = (2, 10**30)
        task = Task(3, 10**20, demands, name="big")
        assert task.demands is demands
        assert (task.task_id, task.runtime) == (3, 10**20)

    @pytest.mark.parametrize(
        "task_id, runtime, demands",
        [
            pytest.param(np.int64(3), np.int64(5), (np.int64(2), np.int32(4)), id="numpy"),
            pytest.param(3, 5, [2, 4], id="list"),
            pytest.param(3.0, 5.0, (2.0, 4.9), id="float-truncates"),
            pytest.param(3, 5, namedtuple("D", "cpu mem")(2, 4), id="tuple-subclass"),
            pytest.param(3, 5, (2, np.int64(4)), id="one-numpy-demand"),
        ],
    )
    def test_inexact_input_normalizes_to_plain_ints(self, task_id, runtime, demands):
        task = Task(task_id, runtime, demands)
        assert task == Task(3, 5, (2, 4)) and hash(task) == hash(Task(3, 5, (2, 4)))
        assert type(task.demands) is tuple
        for value in (task.task_id, task.runtime, *task.demands):
            assert type(value) is int

    def test_booleans_become_ints(self):
        task = Task(True, True, (True, False))
        assert (task.task_id, task.runtime, task.demands) == (1, 1, (1, 0))
        for value in (task.task_id, task.runtime, *task.demands):
            assert type(value) is int

    @pytest.mark.parametrize(
        "args, message",
        [
            ((-1, 1, (1,)), r"task_id must be >= 0, got -1"),
            ((4, 0, (1,)), r"task 4: runtime must be >= 1, got 0"),
            ((4, 1, ()), r"task 4: needs >= 1 resource dimension"),
            ((4, 1, (1, -2)), r"task 4: demands must be >= 0, got \(1, -2\)"),
            ((4, 1, [np.int64(1), -2]), r"task 4: demands must be >= 0, got \["),
            # The first failing check wins, in field order.
            ((-1, 0, ()), r"task_id must be >= 0"),
            ((4, 0, ()), r"runtime must be >= 1"),
        ],
    )
    def test_config_errors_are_unchanged(self, args, message):
        with pytest.raises(ConfigError, match=message):
            Task(*args)

    def test_zero_demand_allowed(self):
        assert Task(0, 1, (0, 0)).demands == (0, 0)

    def test_frozen(self):
        task = Task(0, 1, (1,))
        with pytest.raises(AttributeError):
            task.runtime = 2


class TestDerived:
    def test_num_resources(self):
        assert Task(0, 1, (1, 2, 3)).num_resources == 3

    def test_load_per_resource(self):
        task = Task(0, 4, (2, 5))
        assert task.load(0) == 8
        assert task.load(1) == 20

    def test_total_load(self):
        assert Task(0, 4, (2, 5)).total_load() == 28

    def test_label_prefers_name(self):
        assert Task(7, 1, (1,), name="reduce-1").label() == "reduce-1"

    def test_label_fallback(self):
        assert Task(7, 1, (1,)).label() == "task-7"

    def test_with_runtime_copies(self):
        task = Task(1, 3, (2, 2), name="x")
        scaled = task.with_runtime(9)
        assert scaled.runtime == 9
        assert scaled.task_id == task.task_id
        assert scaled.demands == task.demands
        assert scaled.name == "x"
        assert task.runtime == 3

    def test_equality_ignores_name(self):
        assert Task(0, 1, (1,), name="a") == Task(0, 1, (1,), name="b")

    def test_hashable(self):
        assert len({Task(0, 1, (1,)), Task(0, 1, (1,))}) == 1
