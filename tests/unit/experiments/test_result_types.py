"""Unit tests for the figures' views of their tournament results (no
heavy runs): each figure's result is a ``TournamentResult`` (or a dict of
them), and what the figure reports is read off it in the figure's
module."""

import pytest

from repro.experiments import fig6, fig7, fig8, fig9, table1
from repro.experiments.fig8 import Fig8bResult
from repro.experiments.scale import PAPER
from repro.experiments.tournament import TournamentResult
from repro.metrics.cdf import percentile
from repro.rl.reinforce import EpochStats


def tournament(makespans, reference=None, wall_times=None):
    if wall_times is None:
        wall_times = {name: [0.0] * len(v) for name, v in makespans.items()}
    return TournamentResult(
        makespans=makespans,
        wall_times=wall_times,
        reference=reference if reference is not None else next(iter(makespans)),
    )


class TestFig6Result:
    @pytest.fixture
    def result(self):
        return tournament(
            {
                "spear": [100, 110, 120],
                "graphene": [105, 110, 130],
                "tetris": [120, 115, 125],
            },
            reference="graphene",
            wall_times={
                "spear": [1.0, 1.1, 0.9],
                "graphene": [0.2, 0.3, 0.1],
                "tetris": [0.01, 0.01, 0.01],
            },
        )

    def test_rows_sorted_best_first(self, result):
        rows = result.ranking()
        assert rows[0].scheduler == "spear"
        assert rows[0].mean == 110.0

    def test_win_rates(self, result):
        assert result.win_rate("spear", "graphene") == pytest.approx(2 / 3)
        assert result.win_rate("spear", "graphene", strict=False) == pytest.approx(1.0)
        assert result.mean("graphene") == pytest.approx(115.0)

    def test_report_contains_all_schedulers(self, result):
        report = fig6.report(result)
        for name in result.makespans:
            assert name in report
        assert "no worse than Graphene on 100% of DAGs" in report


class TestFig7Result:
    @pytest.fixture
    def result(self):
        return tournament(
            {
                "tetris": [240, 240],
                "mcts@10": [250, 230],
                "mcts@100": [230, 239],
            },
            reference="tetris",
        )

    def test_series_extraction(self, result):
        assert [result.mean(a) for a in ("mcts@10", "mcts@100")] == [240.0, 234.5]
        assert [result.win_rate(a, "tetris") for a in ("mcts@10", "mcts@100")] == [
            0.5,
            1.0,
        ]

    def test_report(self, result):
        report = fig7.report(result)
        assert "budget" in report
        assert "100%" in report
        assert [line.split()[0] for line in report.splitlines()[3:]] == ["10", "100"]


class TestTable1Result:
    @pytest.fixture
    def result(self):
        seconds = {
            50: {"mcts@500": [1.0], "mcts@1000": [2.0]},
            100: {"mcts@500": [3.0], "mcts@1000": [6.0]},
        }
        return {
            size: tournament({arm: [100] for arm in times}, wall_times=times)
            for size, times in seconds.items()
        }

    def test_row_extraction(self, result):
        cells = table1.seconds(result)
        assert [cells[(50, b)] for b in (500, 1000)] == [1.0, 2.0]
        assert [cells[(100, b)] for b in (500, 1000)] == [3.0, 6.0]

    def test_report_layout(self, result):
        report = table1.report(result)
        assert "Table I" in report
        assert "1000" in report
        assert report.splitlines()[3].split() == ["50", "1.0", "2.0"]


class TestFig8Results:
    def test_budget_ratio(self):
        assert fig8.spear_config(PAPER).initial_budget == 100
        assert fig8.spear_config(PAPER).min_budget == 10
        assert PAPER.spear_budget / fig8.spear_config(PAPER).initial_budget == 10.0
        result = tournament({"mcts": [100], "spear": [101]})
        assert "Fig 8(a)" in fig8.report(result, PAPER)

    @pytest.fixture
    def curve(self):
        history = [
            EpochStats(0, 120.0, 100, 140, 0.5, 10),
            EpochStats(1, 110.0, 95, 130, 0.4, 10),
            EpochStats(2, 101.0, 90, 120, 0.3, 10),
        ]
        return Fig8bResult(
            scale="unit", history=history, tetris_mean=105.0, sjf_mean=115.0
        )

    def test_crossed_tetris_at(self, curve):
        assert curve.crossed_tetris_at() == 2

    def test_crossed_never(self):
        history = [EpochStats(0, 120.0, 100, 140, 0.5, 10)]
        result = Fig8bResult(
            scale="unit", history=history, tetris_mean=100.0, sjf_mean=100.0
        )
        assert result.crossed_tetris_at() is None

    def test_final_mean_and_curve(self, curve):
        assert curve.final_mean() == 101.0
        assert curve.curve() == [(0, 120.0), (1, 110.0), (2, 101.0)]

    def test_report_mentions_references(self, curve):
        report = curve.report()
        assert "105.0" in report
        assert "115.0" in report


class TestFig9cResult:
    @pytest.fixture
    def result(self):
        return tournament(
            {"spear": [90, 100, 95, 105], "graphene": [100, 100, 100, 100]}
        )

    def test_no_worse_fraction(self, result):
        assert result.win_rate("spear", "graphene", strict=False) == pytest.approx(0.75)

    def test_extremes(self, result):
        reductions = fig9.reductions(result)
        assert reductions == pytest.approx([0.10, 0.0, 0.05, -0.05])
        assert max(reductions) == pytest.approx(0.10)
        # Nearest-rank P50 of [-0.05, 0.0, 0.05, 0.10] is the 2nd value.
        assert percentile(reductions, 50) == pytest.approx(0.0)

    def test_cdf_monotone(self, result):
        rows = fig9.report(result).splitlines()[3:-1]
        fractions = [float(row.split()[1]) for row in rows]
        assert fractions == sorted(fractions)
        assert fractions[-1] == pytest.approx(1.0)

    def test_report(self, result):
        assert "no-worse fraction 75%" in fig9.report(result)
