"""Unit tests for the baselines file and the regression gate."""

import json
from pathlib import Path

import pytest

from repro.bench.runner import (
    HEADROOM,
    BenchResult,
    BenchRun,
    compare_to_baselines,
    load_baselines,
    write_baselines,
)
from repro.bench.suites import default_suite
from repro.errors import ConfigError


def make_run(means):
    """A BenchRun with one result per ``{name: mean_us}`` entry."""
    results = [
        BenchResult(
            name=name,
            inner_ops=1,
            repeats=3,
            mean_us=mean,
            median_us=mean,
            stdev_us=0.0,
            min_us=mean,
            max_us=mean,
        )
        for name, mean in means.items()
    ]
    return BenchRun(meta={"cpu_count": 1}, results=results)


class TestBaselines:
    def test_write_then_load_round_trip(self, tmp_path):
        run = make_run({"env.step": 10.0, "mcts.search": 100.0})
        path = write_baselines(run, tmp_path / "baselines.json")
        budgets = load_baselines(path)
        assert budgets == {"env.step": 25.0, "mcts.search": 250.0}
        payload = json.loads(path.read_text())
        assert payload["meta"]["headroom"] == HEADROOM == 2.5
        assert payload["benchmarks"]["env.step"] == {
            "mean_us": 10.0,
            "budget_us": 25.0,
        }

    def test_load_rejects_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_baselines(tmp_path / "absent.json")

    def test_load_rejects_malformed_payload(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"benchmarks": {"x": "fast"}}))
        with pytest.raises(ConfigError):
            load_baselines(path)
        path.write_text(json.dumps({"wrong_key": {}}))
        with pytest.raises(ConfigError):
            load_baselines(path)

    @pytest.mark.parametrize("field", ["budget_us", "mean_us"])
    @pytest.mark.parametrize(
        "raw", ["Infinity", "-Infinity", "NaN", "true", "false", "0", "-3.0"]
    )
    def test_load_rejects_non_finite_or_non_positive_numbers(
        self, tmp_path, field, raw
    ):
        row = {"mean_us": "4.0", "budget_us": "10.0", field: raw}
        body = ", ".join(f'"{key}": {value}' for key, value in row.items())
        path = tmp_path / "baselines.json"
        path.write_text('{"benchmarks": {"env.step": {%s}}}' % body)
        with pytest.raises(ConfigError, match="env.step"):
            load_baselines(path)


class TestCompare:
    def test_within_budget_passes(self):
        run = make_run({"env.step": 10.0})
        comparisons = compare_to_baselines(run, {"env.step": 10.0})
        assert len(comparisons) == 1 and comparisons[0].ok
        assert comparisons[0].ratio == pytest.approx(1.0)
        assert "ok" in comparisons[0].line()

    def test_regression_beyond_tolerance_fails(self):
        run = make_run({"env.step": 10.01})
        (comparison,) = compare_to_baselines(run, {"env.step": 10.0})
        assert not comparison.ok
        assert "REGRESSION" in comparison.line()

    def test_boundary_is_inclusive(self):
        run = make_run({"env.step": 10.0})
        (comparison,) = compare_to_baselines(run, {"env.step": 10.0})
        assert comparison.ok

    def test_benchmark_without_budget_row_fails(self):
        run = make_run({"env.step": 1.0, "env.new_path": 999.0})
        with pytest.raises(ConfigError, match="env.new_path"):
            compare_to_baselines(run, {"env.step": 2.0})

    def test_budget_row_naming_no_benchmark_fails(self):
        run = make_run({"env.step": 1.0})
        with pytest.raises(ConfigError, match="env.renamed"):
            compare_to_baselines(run, {"env.step": 2.0, "env.renamed": 2.0})

    def test_zero_budget_always_fails(self):
        run = make_run({"env.step": 1.0})
        (comparison,) = compare_to_baselines(run, {"env.step": 0.0})
        assert not comparison.ok and comparison.ratio == float("inf")


def test_committed_baselines_cover_default_suite():
    """The committed rows and the registered benchmarks are the same set."""
    repo_root = Path(__file__).resolve().parents[3]
    budgets = load_baselines(repo_root / "benchmarks" / "baselines.json")
    assert sorted(spec.name for spec in default_suite()) == sorted(budgets)
