"""Unit tests for the tournament evaluator."""

import pytest

from repro.config import ClusterConfig, EnvConfig
from repro.dag.generators import random_layered_dag
from repro.config import WorkloadConfig
from repro.experiments.tournament import run_tournament
from repro.schedulers import make_scheduler


class TestTournament:
    @pytest.fixture
    def setup(self):
        env_config = EnvConfig(
            cluster=ClusterConfig(capacities=(10, 10), horizon=8), max_ready=8
        )
        workload = WorkloadConfig(
            num_tasks=10, max_runtime=4, max_demand=6,
            runtime_mean=2, runtime_std=1, demand_mean=3, demand_std=2,
        )
        graphs = [random_layered_dag(workload, seed=s) for s in range(3)]
        schedulers = {
            name: make_scheduler(name, env_config)
            for name in ("tetris", "sjf", "cp")
        }
        return schedulers, graphs, env_config

    def test_full_round_robin(self, setup):
        schedulers, graphs, env_config = setup
        result = run_tournament(schedulers, graphs, env_config)
        assert set(result.makespans) == {"tetris", "sjf", "cp"}
        assert all(len(v) == 3 for v in result.makespans.values())
        assert all(len(v) == 3 for v in result.wall_times.values())

    def test_default_reference_prefers_graphene(self, setup):
        schedulers, graphs, env_config = setup
        schedulers["graphene"] = make_scheduler("graphene", env_config)
        result = run_tournament(schedulers, graphs, env_config)
        assert result.reference == "graphene"

    def test_explicit_reference(self, setup):
        schedulers, graphs, env_config = setup
        result = run_tournament(schedulers, graphs, env_config, reference="sjf")
        assert result.reference == "sjf"
        assert result.verdict("tetris").makespan in ("win", "tie", "loss")

    def test_unknown_reference_rejected(self, setup):
        schedulers, graphs, env_config = setup
        with pytest.raises(ValueError):
            run_tournament(schedulers, graphs, env_config, reference="spear")

    def test_empty_inputs_rejected(self, setup):
        schedulers, graphs, env_config = setup
        with pytest.raises(ValueError):
            run_tournament({}, graphs, env_config)
        with pytest.raises(ValueError):
            run_tournament(schedulers, [], env_config)

    def test_ranking_sorted(self, setup):
        schedulers, graphs, env_config = setup
        result = run_tournament(schedulers, graphs, env_config)
        means = [row.mean for row in result.ranking()]
        assert means == sorted(means)

    def test_report_renders(self, setup):
        schedulers, graphs, env_config = setup
        result = run_tournament(schedulers, graphs, env_config)
        report = result.report()
        assert "Tournament over 3 jobs" in report
        for name in schedulers:
            assert name in report

    def test_report_has_the_verdict_column(self, setup):
        schedulers, graphs, env_config = setup
        result = run_tournament(schedulers, graphs, env_config, reference="sjf")
        header, _, *rows = result.report().splitlines()[1:]
        assert "verdict" in header.split() and "p (perm)" in header
        by_name = {row.split()[0]: row for row in rows}
        assert by_name["tetris"].split()[-2] == result.verdict("tetris").makespan
