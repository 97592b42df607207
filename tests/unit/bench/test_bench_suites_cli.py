"""Registry sanity checks and CLI coverage for ``repro bench``."""

import json

import pytest

from repro.bench.suites import default_suite
from repro.cli import main

EXPECTED_GROUPS = {
    "env",
    "cluster",
    "mcts",
    "observation",
    "envarr",
    "rl",
    "faults",
    "online",
    "streaming",
    "federation",
    "telemetry",
}


class TestDefaultSuite:
    def test_names_unique_and_grouped(self):
        suite = default_suite()
        names = [spec.name for spec in suite]
        assert len(names) == len(set(names))
        assert {spec.group for spec in suite} == EXPECTED_GROUPS
        for spec in suite:
            assert spec.name.startswith(spec.group + ".")

    def test_covers_required_hot_paths(self):
        names = {spec.name for spec in default_suite()}
        assert {
            "env.step",
            "env.clone",
            "cluster.event_sweep",
            "online.run_fault_free",
            "online.run_faulty",
            "mcts.search_budget_unit",
            "mcts.rollout_random",
            "observation.build",
            "rl.policy_select",
            "telemetry.span_disabled",
            "telemetry.span_enabled",
        } <= names

    @pytest.mark.parametrize(
        "name", ["env.clone", "env.legal_actions_cached", "rl.policy_select"]
    )
    def test_cheap_setups_build_runnable_thunks(self, name):
        (spec,) = [s for s in default_suite() if s.name == name]
        thunk = spec.setup(seed=0)
        thunk()  # must run without error and without shared-state setup


class TestBenchCli:
    def test_list_mode(self, capsys):
        assert main(["bench", "--list"]) == 0
        out = capsys.readouterr().out
        assert "env.step" in out and "mcts.search_budget_unit" in out

    def test_update_baselines_requires_baseline_path(self, capsys):
        assert main(["bench", "--update-baselines"]) == 2
        assert "requires --baseline" in capsys.readouterr().err

    def test_unmatched_filter_fails(self, capsys):
        assert main(["bench", "--filter", "nope"]) == 2
        assert "no benchmark matches" in capsys.readouterr().err

    def test_quick_filtered_run_exports_artifact(self, tmp_path, capsys):
        code = main(
            [
                "bench",
                "--quick",
                "--filter",
                "env.legal_actions_cached",
                "--out-dir",
                str(tmp_path),
            ]
        )
        assert code == 0
        payload = json.loads((tmp_path / "BENCH_env.json").read_text())
        assert payload["group"] == "env"
        (result,) = payload["results"]
        assert result["name"] == "env.legal_actions_cached"
        assert result["mean_us"] > 0

    def test_json_output_mode(self, tmp_path, capsys):
        code = main(
            [
                "bench",
                "--quick",
                "--filter",
                "env.legal_actions_cached",
                "--out-dir",
                str(tmp_path),
                "--json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["meta"]["quick"] is True
        assert payload["results"][0]["name"] == "env.legal_actions_cached"

    def test_baseline_gate_detects_regression(self, tmp_path, capsys):
        baseline = tmp_path / "baselines.json"
        baseline.write_text(
            json.dumps({"budgets_us": {"env.legal_actions_cached": 1e-9}})
        )
        code = main(
            [
                "bench",
                "--quick",
                "--filter",
                "env.legal_actions_cached",
                "--out-dir",
                str(tmp_path),
                "--baseline",
                str(baseline),
            ]
        )
        assert code == 1
        captured = capsys.readouterr()
        assert "REGRESSION" in captured.out
        assert "performance regression" in captured.err

    def test_baseline_gate_passes_generous_budget(self, tmp_path, capsys):
        baseline = tmp_path / "baselines.json"
        baseline.write_text(
            json.dumps({"budgets_us": {"env.legal_actions_cached": 1e9}})
        )
        code = main(
            [
                "bench",
                "--quick",
                "--filter",
                "env.legal_actions_cached",
                "--out-dir",
                str(tmp_path),
                "--baseline",
                str(baseline),
            ]
        )
        assert code == 0
        assert "ok" in capsys.readouterr().out
