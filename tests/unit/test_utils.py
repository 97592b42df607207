"""Unit tests for utils (rng, timing) and the error hierarchy."""

import time

import numpy as np
import pytest

from repro import errors
from repro.utils import (
    Stopwatch,
    as_generator,
    derive_seed,
    spawn,
)


class TestRng:
    def test_as_generator_from_int(self):
        gen = as_generator(42)
        assert isinstance(gen, np.random.Generator)

    def test_as_generator_passthrough(self):
        gen = np.random.default_rng(0)
        assert as_generator(gen) is gen

    def test_as_generator_none_gives_fresh(self):
        a, b = as_generator(None), as_generator(None)
        assert a is not b

    @pytest.mark.parametrize("seed", [-1, np.int64(-3)])
    def test_negative_seed_is_a_config_error(self, seed):
        with pytest.raises(errors.ConfigError, match="seed must be >= 0"):
            as_generator(seed)

    def test_same_seed_same_stream(self):
        assert as_generator(7).integers(0, 100) == as_generator(7).integers(0, 100)

    def test_spawn_children_independent_of_each_other(self):
        parent = as_generator(0)
        kids = spawn(parent, 3)
        draws = [k.integers(0, 2**31) for k in kids]
        assert len(set(draws)) == 3

    def test_spawn_deterministic(self):
        a = [k.integers(0, 100) for k in spawn(as_generator(5), 4)]
        b = [k.integers(0, 100) for k in spawn(as_generator(5), 4)]
        assert a == b

    def test_spawn_zero(self):
        assert spawn(as_generator(0), 0) == []

    def test_spawn_negative_rejected(self):
        with pytest.raises(ValueError):
            spawn(as_generator(0), -1)

    def test_derive_seed_range(self):
        seed = derive_seed(as_generator(1))
        assert 0 <= seed < 2**63


class TestStopwatch:
    def test_accumulates(self):
        watch = Stopwatch()
        with watch:
            time.sleep(0.01)
        first = watch.elapsed
        assert first >= 0.01
        with watch:
            time.sleep(0.01)
        assert watch.elapsed > first

    def test_running_flag(self):
        watch = Stopwatch()
        assert not watch.running
        watch.start()
        assert watch.running
        watch.stop()
        assert not watch.running

    def test_double_start_rejected(self):
        watch = Stopwatch().start()
        with pytest.raises(RuntimeError):
            watch.start()

    def test_stop_without_start_rejected(self):
        with pytest.raises(RuntimeError):
            Stopwatch().stop()

    def test_reset(self):
        watch = Stopwatch()
        with watch:
            pass
        watch.reset()
        assert watch.elapsed == 0.0


class TestErrorHierarchy:
    @pytest.mark.parametrize(
        "exc",
        [
            errors.GraphError,
            errors.CycleError,
            errors.UnknownTaskError,
            errors.CapacityError,
            errors.PlacementError,
            errors.ScheduleError,
            errors.ConfigError,
            errors.EnvironmentStateError,
            errors.CheckpointError,
            errors.TraceError,
        ],
    )
    def test_all_derive_from_repro_error(self, exc):
        assert issubclass(exc, errors.ReproError)

    def test_config_error_is_value_error(self):
        assert issubclass(errors.ConfigError, ValueError)

    def test_unknown_task_error_is_key_error(self):
        assert issubclass(errors.UnknownTaskError, KeyError)

    def test_unknown_task_error_message_unquoted(self):
        err = errors.UnknownTaskError("no task with id 5")
        assert str(err) == "no task with id 5"
