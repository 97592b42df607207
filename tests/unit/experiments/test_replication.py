"""Unit tests for the seed-sweep replication harness."""

import pytest

from repro.experiments.replication import ReplicationResult, replicate
from repro.schedulers import ScheduleRequest


class TestReplicate:
    def test_runs_once_per_seed(self):
        calls = []

        def experiment(seed):
            calls.append(seed)
            return {"makespan": 100.0 + seed}

        result = replicate(experiment, seeds=[1, 2, 3])
        assert calls == [1, 2, 3]
        assert result.samples["makespan"] == (101.0, 102.0, 103.0)
        assert result.mean("makespan") == pytest.approx(102.0)

    def test_interval_contains_mean(self):
        result = replicate(
            lambda seed: {"m": float(seed % 5)}, seeds=list(range(20))
        )
        low, high = result.interval("m")
        assert low <= result.mean("m") <= high

    def test_multiple_metrics(self):
        result = replicate(
            lambda seed: {"a": float(seed), "b": 2.0 * seed}, seeds=[1, 2]
        )
        assert result.mean("a") == pytest.approx(1.5)
        assert result.mean("b") == pytest.approx(3.0)

    def test_empty_seeds_rejected(self):
        with pytest.raises(ValueError):
            replicate(lambda seed: {"m": 0.0}, seeds=[])

    def test_inconsistent_keys_rejected(self):
        def experiment(seed):
            return {"a": 1.0} if seed == 0 else {"b": 1.0}

        with pytest.raises(ValueError, match="inconsistent"):
            replicate(experiment, seeds=[0, 1])

    def test_report_lists_metrics(self):
        result = replicate(
            lambda seed: {"makespan": 100.0, "winrate": 0.5}, seeds=[0, 1, 2]
        )
        report = result.report()
        assert "makespan" in report
        assert "winrate" in report
        assert "3 seeds" in report


class TestWithRealExperiment:
    def test_mini_scheduler_comparison_replicates(self):
        """End-to-end: replicate a tiny Tetris-vs-SJF comparison."""
        from repro.config import ClusterConfig, EnvConfig, WorkloadConfig
        from repro.dag.generators import random_layered_dag
        from repro.schedulers import make_scheduler

        env_config = EnvConfig(
            cluster=ClusterConfig(capacities=(10, 10), horizon=8), max_ready=8
        )

        def experiment(seed):
            graph = random_layered_dag(
                WorkloadConfig(
                    num_tasks=10, max_runtime=4, max_demand=6,
                    runtime_mean=2, runtime_std=1, demand_mean=3,
                    demand_std=2,
                ),
                seed=seed,
            )
            return {
                name: float(
                    make_scheduler(name, env_config).plan(ScheduleRequest(graph)).makespan
                )
                for name in ("tetris", "sjf")
            }

        result = replicate(experiment, seeds=range(5))
        assert len(result.samples["tetris"]) == 5
        low, high = result.interval("tetris")
        assert 0 < low <= high
