"""Smoke integration of every experiment entry point at micro scale.

These verify the harness wiring (data flow, report rendering, result
invariants), not the paper's quantitative claims — those live in
``benchmarks/`` where the laptop-scale configurations run.
"""

import pytest

from repro.experiments import (
    ablations,
    budget_reduction,
    budget_sweep,
    fig6,
    fig7,
    fig8,
    fig9,
    learning_curve,
    makespan_comparison,
    reduction_cdf,
    runtime_grid,
    table1,
    trace_characteristics,
)
from repro.experiments.ablations import run_ablation
from repro.experiments.scale import ExperimentScale

MICRO = ExperimentScale(
    label="micro",
    num_dags=2,
    num_tasks=10,
    spear_budget=6,
    spear_min_budget=3,
    sweep_budgets=(3, 6),
    sweep_num_dags=2,
    sweep_min_budget=2,
    grid_sizes=(8,),
    grid_budgets=(3, 6),
    fig8_budget_divisor=2,
    train_examples=2,
    train_tasks=6,
    train_epochs=1,
    train_rollouts=2,
    supervised_epochs=3,
    trace_jobs=2,
    trace_spear_budget=4,
    trace_spear_min_budget=2,
)


@pytest.fixture(autouse=True)
def micro_scale(monkeypatch, tmp_path):
    """Force every experiment to the micro scale with an isolated cache."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.delenv("REPRO_PAPER_SCALE", raising=False)
    import repro.experiments.scale as scale_module

    monkeypatch.setattr(scale_module, "LAPTOP", MICRO)
    yield


class TestFig6:
    def test_makespan_comparison(self):
        result = makespan_comparison(seed=0)
        assert set(result.makespans) == {"spear", "graphene", "tetris", "sjf", "cp"}
        assert all(len(v) == 2 for v in result.makespans.values())
        assert all(
            len(v) == 2 and all(t >= 0 for t in v)
            for v in result.wall_times.values()
        )
        rows = result.ranking()
        assert rows[0].mean <= rows[-1].mean
        assert 0.0 <= result.win_rate("spear", "graphene") <= 1.0
        assert "Fig 6(a)" in fig6.report(result)


class TestFig7:
    def test_budget_sweep(self):
        result = budget_sweep(seed=0)
        assert list(result.makespans) == ["tetris", "mcts@3", "mcts@6"]
        assert result.reference == "tetris"
        for arm in ("mcts@3", "mcts@6"):
            assert result.mean(arm) > 0
            assert 0.0 <= result.win_rate(arm, "tetris") <= 1.0
            assert len(result.makespans[arm]) == 2
        assert "budget" in fig7.report(result)


class TestTable1:
    def test_runtime_grid(self):
        grid = runtime_grid(seed=0)
        assert set(table1.seconds(grid)) == {(8, 3), (8, 6)}
        assert all(s >= 0 for s in table1.seconds(grid).values())
        assert all(m > 0 for m, in grid[8].makespans.values())
        assert "Table I" in table1.report(grid)

    def test_more_budget_more_time(self):
        cells = table1.seconds(runtime_grid(seed=0))
        assert cells[(8, 6)] >= cells[(8, 3)] * 0.5  # noisy at micro scale; sanity only


class TestFig8:
    def test_budget_reduction(self):
        result = budget_reduction(seed=0)
        assert set(result.makespans) == {"mcts", "spear", "tetris", "sjf", "cp"}
        assert fig8.spear_config(MICRO).initial_budget == 3
        assert "Fig 8(a)" in fig8.report(result, MICRO)

    def test_learning_curve(self):
        result = learning_curve(seed=0, epochs=2)
        assert len(result.history) == 2
        assert result.tetris_mean > 0
        assert result.sjf_mean > 0
        assert result.final_mean() > 0
        assert len(result.curve()) == 2
        assert "learning curve" in result.report()


class TestFig9:
    def test_trace_characteristics(self):
        stats = trace_characteristics(seed=0)
        assert stats.num_jobs == 2
        map_cdf, reduce_cdf = stats.count_cdfs()
        assert map_cdf[-1][1] == pytest.approx(1.0)
        assert reduce_cdf[-1][1] == pytest.approx(1.0)

    def test_reduction_cdf(self):
        result = reduction_cdf(seed=0)
        reductions = fig9.reductions(result)
        assert len(reductions) == 2
        assert all(-1.0 < r < 1.0 for r in reductions)
        assert 0.0 <= result.win_rate("spear", "graphene", strict=False) <= 1.0
        assert "Fig 9(c)" in fig9.report(result)


class TestAblations:
    @pytest.mark.parametrize(
        "name",
        ["expansion-filters", "budget-decay", "max-value-ucb", "guided-rollout"],
    )
    def test_each_named_ablation_runs(self, name):
        result = run_ablation(name, seed=0)
        assert set(result.makespans) == {"on", "off"}
        assert result.mean("on") > 0
        assert result.mean("off") > 0
        assert name in ablations.report(name, result)

    def test_unknown_ablation_rejected(self):
        with pytest.raises(KeyError):
            run_ablation("warp-drive")

    def test_exploration_sensitivity(self):
        from repro.experiments.ablations import exploration_sensitivity

        result = exploration_sensitivity(seed=0, scales=(0.5, 1.0))
        assert set(result.makespans) == {"c=0.5x", "c=1x"}
        assert all(
            all(m > 0 for m in series) for series in result.makespans.values()
        )
