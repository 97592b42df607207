"""Unit tests for statistical helpers and Chrome-trace export."""

import numpy as np
import pytest

from repro.dag import chain_dag, independent_tasks_dag
from repro.metrics import (
    Schedule,
    bootstrap_ci,
    paired_permutation_test,
    paired_verdict,
    to_chrome_trace,
)


class TestBootstrapCi:
    def test_contains_the_mean_for_stable_samples(self, rng):
        values = list(rng.normal(100, 5, size=80))
        low, high = bootstrap_ci(values, seed=0)
        assert low <= np.mean(values) <= high

    def test_narrower_with_more_data(self, rng):
        small = list(rng.normal(100, 5, size=10))
        large = list(rng.normal(100, 5, size=400))
        low_s, high_s = bootstrap_ci(small, seed=0)
        low_l, high_l = bootstrap_ci(large, seed=0)
        assert (high_l - low_l) < (high_s - low_s)

    def test_constant_sample_degenerate(self):
        low, high = bootstrap_ci([7.0] * 20, seed=0)
        assert low == high == 7.0

    def test_reproducible(self, rng):
        values = list(rng.normal(0, 1, size=30))
        assert bootstrap_ci(values, seed=5) == bootstrap_ci(values, seed=5)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            bootstrap_ci([])
        with pytest.raises(ValueError):
            bootstrap_ci([1.0], confidence=1.0)
        with pytest.raises(ValueError):
            bootstrap_ci([1.0], resamples=0)


class TestPairedPermutationTest:
    def test_identical_series_give_one(self):
        assert paired_permutation_test([1, 2, 3], [1, 2, 3]) == 1.0

    def test_consistent_difference_is_significant(self):
        ours = [100.0] * 12
        baseline = [110.0] * 12
        p = paired_permutation_test(ours, baseline, seed=0)
        assert p < 0.01

    def test_noise_is_not_significant(self, rng):
        base = rng.normal(100, 10, size=10)
        noise = base + rng.normal(0, 0.1, size=10) * rng.choice([-1, 1], 10)
        p = paired_permutation_test(list(base), list(noise), seed=1)
        assert p > 0.05

    def test_p_value_in_unit_interval(self, rng):
        a = list(rng.normal(0, 1, size=8))
        b = list(rng.normal(0, 1, size=8))
        assert 0.0 < paired_permutation_test(a, b, seed=2) <= 1.0

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            paired_permutation_test([], [])
        with pytest.raises(ValueError):
            paired_permutation_test([1], [1, 2])


class TestPairedVerdict:
    # (makespans, reference makespans, wall times, reference wall times)
    # -> (call at equal budget, call at equal cost).  The reference mean
    # makespan is ~100, so the 0.5 % margin is ~0.5 slots.
    BASE = [100.0, 96.0, 104.0, 99.0, 101.0, 97.0, 103.0, 100.0] * 5
    WALL = [1.0] * 40

    @pytest.mark.parametrize(
        "shift, wall_shift, expected",
        [
            (-3.0, 0.0, ("win", "win")),
            (3.0, 0.0, ("loss", "loss")),
            (0.0, 0.0, ("tie", "tie")),
            # Below the margin, with a degenerate (tight) CI.
            (-0.3, 0.0, ("tie", "tie")),
            (0.3, 0.0, ("tie", "tie")),
            # Same makespans, more plan time.
            (0.0, 0.5, ("tie", "loss")),
            (0.0, -0.5, ("tie", "win")),
        ],
    )
    def test_calls(self, shift, wall_shift, expected):
        verdict = paired_verdict(
            [m + shift for m in self.BASE],
            self.BASE,
            [w + wall_shift for w in self.WALL],
            self.WALL,
        )
        assert (verdict.makespan, verdict.at_equal_cost) == expected
        assert verdict.difference == pytest.approx(shift)

    def test_noisy_difference_inside_the_ci_is_a_tie(self, rng):
        noise = rng.normal(0.0, 20.0, size=len(self.BASE))
        verdict = paired_verdict(
            [m + n for m, n in zip(self.BASE, noise)],
            self.BASE,
            self.WALL,
            self.WALL,
        )
        low, high = verdict.ci
        assert low < 0.0 < high
        assert verdict.makespan == "tie"

    def test_deterministic(self, rng):
        ours = list(self.BASE + rng.normal(-1.0, 2.0, size=len(self.BASE)))
        walls = list(rng.uniform(0.5, 1.5, size=len(self.BASE)))
        calls = {
            paired_verdict(ours, self.BASE, walls, self.WALL)
            for _ in range(3)
        }
        assert len(calls) == 1

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            paired_verdict([], [], [], [])
        with pytest.raises(ValueError):
            paired_verdict([1.0], [1.0, 2.0], [1.0], [1.0])


class TestChromeTrace:
    @pytest.fixture
    def schedule_and_graph(self):
        graph = independent_tasks_dag([3, 3, 2], demands=[(4, 4)] * 3)
        schedule = Schedule.from_starts({0: 0, 1: 0, 2: 3}, graph, "test")
        return schedule, graph

    def test_one_event_per_task(self, schedule_and_graph):
        schedule, graph = schedule_and_graph
        trace = to_chrome_trace(schedule, graph)
        assert len(trace["traceEvents"]) == 3
        assert all(e["ph"] == "X" for e in trace["traceEvents"])

    def test_timestamps_scaled(self, schedule_and_graph):
        schedule, graph = schedule_and_graph
        trace = to_chrome_trace(schedule, graph, slot_microseconds=10)
        by_task = {e["args"]["task_id"]: e for e in trace["traceEvents"]}
        assert by_task[2]["ts"] == 30
        assert by_task[0]["dur"] == 30

    def test_concurrent_tasks_get_distinct_lanes(self, schedule_and_graph):
        schedule, graph = schedule_and_graph
        trace = to_chrome_trace(schedule, graph)
        lanes = {
            e["args"]["task_id"]: e["tid"] for e in trace["traceEvents"]
        }
        assert lanes[0] != lanes[1]  # overlap at t=0
        # Task 2 starts when one lane is free again.
        assert lanes[2] in (lanes[0], lanes[1])

    def test_names_and_args_from_graph(self, schedule_and_graph):
        schedule, graph = schedule_and_graph
        trace = to_chrome_trace(schedule, graph)
        event = trace["traceEvents"][0]
        assert "demands" in event["args"]
        assert event["name"].startswith("task-")

    def test_works_without_graph(self):
        graph = chain_dag([2, 2])
        schedule = Schedule.from_starts({0: 0, 1: 2}, graph, "x")
        trace = to_chrome_trace(schedule)
        assert len(trace["traceEvents"]) == 2
        assert trace["otherData"]["makespan_slots"] == 4

    def test_json_serializable(self, schedule_and_graph):
        import json

        schedule, graph = schedule_and_graph
        json.dumps(to_chrome_trace(schedule, graph))
