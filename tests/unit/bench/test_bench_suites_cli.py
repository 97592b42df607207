"""Registry sanity checks and CLI coverage for ``repro bench``."""

import json

import pytest

import repro.bench
from repro.bench.runner import BenchmarkSpec
from repro.bench.suites import default_suite
from repro.cli import main

SUITE = ["telemetry.span_disabled", "observation.build", "rl.policy_select"]


class TestDefaultSuite:
    def test_covers_required_hot_paths(self):
        assert [spec.name for spec in default_suite()] == SUITE

    @pytest.mark.parametrize("name", SUITE)
    def test_cheap_setups_build_runnable_thunks(self, name):
        (spec,) = [s for s in default_suite() if s.name == name]
        thunk = spec.setup()
        thunk()  # must run without error and without shared-state setup


def row(budget_us, mean_us=1.0):
    return {"mean_us": mean_us, "budget_us": budget_us}


class TestBenchCli:
    @pytest.fixture
    def baseline(self, tmp_path, monkeypatch):
        """Run the CLI over one no-op benchmark; returns a writer for the
        baselines file it gates against (rows, or the file's raw text)."""
        noop = BenchmarkSpec("demo.noop", lambda: lambda: None)
        monkeypatch.setattr(repro.bench, "default_suite", lambda: [noop])
        path = tmp_path / "baselines.json"

        def write(rows):
            if not isinstance(rows, str):
                rows = json.dumps({"benchmarks": rows})
            path.write_text(rows)
            return ["bench", "--baseline", str(path)]

        return write

    def test_update_baselines_requires_baseline_path(self, capsys):
        assert main(["bench", "--update-baselines"]) == 2
        assert "requires --baseline" in capsys.readouterr().err

    def test_baseline_gate_detects_regression(self, baseline, capsys):
        assert main(baseline({"demo.noop": row(1e-9, 1e-9)})) == 1
        captured = capsys.readouterr()
        assert "REGRESSION" in captured.out
        assert "performance regression" in captured.err

    def test_baseline_gate_passes_generous_budget(self, baseline, capsys):
        assert main(baseline({"demo.noop": row(1e9)})) == 0
        assert "ok" in capsys.readouterr().out

    def test_baseline_gate_rejects_missing_row(self, baseline, capsys):
        assert main(baseline({})) == 2
        assert "demo.noop" in capsys.readouterr().err

    def test_baseline_gate_rejects_stale_row(self, baseline, capsys):
        rows = {"demo.noop": row(1e9), "demo.renamed": row(1e9)}
        assert main(baseline(rows)) == 2
        assert "demo.renamed" in capsys.readouterr().err

    @pytest.mark.parametrize("raw", ["Infinity", "true", "NaN"])
    def test_baseline_gate_rejects_malformed_budget(self, baseline, raw, capsys):
        text = '{"benchmarks": {"demo.noop": {"mean_us": 1.0, "budget_us": %s}}}'
        assert main(baseline(text % raw)) == 2
        assert "demo.noop" in capsys.readouterr().err
