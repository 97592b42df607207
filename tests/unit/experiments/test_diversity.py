"""Unit tests for the workload-diversity study."""

import pytest

from repro.experiments.diversity import (
    diversity_study,
    report,
    wins,
    workload_families,
)


class TestWorkloadFamilies:
    def test_contains_all_four(self):
        families = workload_families()
        assert set(families) == {"gaussian", "fft", "stencil", "cholesky"}

    def test_graphs_are_valid_and_nontrivial(self):
        for name, graph in workload_families().items():
            assert graph.num_tasks >= 2, name
            assert graph.num_resources == 2

    def test_size_hint_scales(self):
        small = workload_families(3)
        large = workload_families(7)
        for name in small:
            assert large[name].num_tasks >= small[name].num_tasks


class TestDiversityStudy:
    @pytest.fixture(scope="class")
    def result(self):
        return diversity_study(
            seed=0,
            schedulers=("tetris", "sjf", "cp"),
            include_mcts=False,
            size_hint=4,
        )

    def test_every_cell_filled(self, result):
        for family, tournament in result.items():
            assert set(tournament.makespans) == {"tetris", "sjf", "cp"}
            assert all(m > 0 for m, in tournament.makespans.values())

    def test_ranking_is_sorted(self, result):
        for tournament in result.values():
            ranking = [row.scheduler for row in tournament.ranking()]
            makespans = [tournament.makespans[name][0] for name in ranking]
            assert makespans == sorted(makespans)

    def test_wins_bounded_by_family_count(self, result):
        for name in ("tetris", "sjf", "cp"):
            assert 0 <= wins(result, name) <= len(result)

    def test_wins_sum_at_least_family_count(self, result):
        # Every family has at least one (co-)winner.
        total = sum(wins(result, name) for name in ("tetris", "sjf", "cp"))
        assert total >= len(result)

    def test_report_contains_families(self, result):
        text = report(result)
        for family in ("gaussian", "fft", "stencil", "cholesky"):
            assert family in text

    def test_mcts_included_when_requested(self):
        result = diversity_study(
            seed=0,
            schedulers=("sjf",),
            include_mcts=True,
            size_hint=3,
        )
        for tournament in result.values():
            assert "mcts" in tournament.makespans
