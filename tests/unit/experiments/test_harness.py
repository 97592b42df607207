"""Unit tests for the experiment harness plumbing (scale, reporting,
network cache).  Full experiment runs live in tests/integration."""

import numpy as np
import pytest

from repro.experiments import ExperimentScale, format_cdf, format_table, resolve_scale
from repro.experiments.networks import cache_dir, cached_network, training_config_for_scale
from repro.experiments.scale import LAPTOP, PAPER, paper_scale_requested


class TestScaleResolution:
    def test_explicit_override_wins(self):
        assert resolve_scale(True) is PAPER
        assert resolve_scale(False) is LAPTOP

    def test_env_var_controls_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_PAPER_SCALE", raising=False)
        assert resolve_scale() is LAPTOP
        monkeypatch.setenv("REPRO_PAPER_SCALE", "1")
        assert resolve_scale() is PAPER
        assert paper_scale_requested()

    def test_env_var_falsy_values(self, monkeypatch):
        monkeypatch.setenv("REPRO_PAPER_SCALE", "0")
        assert not paper_scale_requested()

    def test_paper_scale_matches_publication(self):
        assert PAPER.num_tasks == 100
        assert PAPER.spear_budget == 1000
        assert PAPER.spear_min_budget == 100
        assert PAPER.sweep_budgets == (500, 600, 1000, 2200)
        assert PAPER.train_examples == 144
        assert PAPER.train_tasks == 25
        assert PAPER.train_epochs == 7000
        assert PAPER.train_rollouts == 20
        assert PAPER.trace_jobs == 99
        assert PAPER.trace_spear_budget == 100
        assert PAPER.trace_spear_min_budget == 50
        assert PAPER.fig8_budget_divisor == 10

    def test_laptop_scale_is_smaller_everywhere(self):
        assert LAPTOP.num_tasks < PAPER.num_tasks
        assert LAPTOP.spear_budget < PAPER.spear_budget
        assert LAPTOP.train_epochs < PAPER.train_epochs
        assert LAPTOP.trace_jobs < PAPER.trace_jobs


class TestReporting:
    def test_table_alignment(self):
        out = format_table(["name", "value"], [("a", 1.25), ("long-name", 7)])
        lines = out.splitlines()
        assert len(lines) == 4
        assert "1.2" in out  # one-decimal float rendering
        assert lines[0].index("value") == lines[2].index("1.2")

    def test_table_title(self):
        out = format_table(["x"], [(1,)], title="My Table")
        assert out.splitlines()[0] == "My Table"

    def test_cdf_downsampling(self):
        points = [(float(i), (i + 1) / 100) for i in range(100)]
        out = format_cdf(points, max_points=10)
        # Header + separator + <= 10 rows.
        assert len(out.splitlines()) <= 12

    def test_cdf_empty_rejected(self):
        with pytest.raises(ValueError):
            format_cdf([])


class TestNetworkCache:
    def test_cache_dir_env_override(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert cache_dir() == tmp_path

    def test_training_config_for_scale(self):
        cfg = training_config_for_scale(PAPER)
        assert cfg.num_examples == 144
        assert cfg.example_num_tasks == 25
        assert cfg.rollouts_per_example == 20

    def test_cached_network_trains_once_and_reloads(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        # A micro-scale so training is instant.
        scale = ExperimentScale(
            label="unit-test",
            num_dags=1,
            num_tasks=8,
            spear_budget=5,
            spear_min_budget=2,
            sweep_budgets=(2,),
            sweep_num_dags=1,
            sweep_min_budget=2,
            grid_sizes=(6,),
            grid_budgets=(2,),
            fig8_budget_divisor=2,
            train_examples=2,
            train_tasks=6,
            train_epochs=1,
            train_rollouts=2,
            supervised_epochs=2,
            trace_jobs=2,
            trace_spear_budget=3,
            trace_spear_min_budget=2,
        )
        network_a = cached_network(scale, seed=0)
        checkpoint = tmp_path / "spear-network-unit-test-seed0.npz"
        assert checkpoint.exists()

        # Second call: in-memory hit, identical object.
        network_b = cached_network(scale, seed=0)
        assert network_b is network_a

        # Fresh process simulation: clear memory cache, must load from disk.
        from repro.experiments import networks as networks_module

        networks_module._MEMORY_CACHE.clear()
        network_c = cached_network(scale, seed=0)
        assert network_c is not network_a
        assert all(
            np.array_equal(network_c.params[k], network_a.params[k])
            for k in network_a.params
        )
