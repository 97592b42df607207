"""Unit tests for the frozen-policy generalization study."""

import pytest

from repro.experiments.generalization import (
    gap_to_best_heuristic,
    generalization_study,
    parameter_counts,
    report,
)
from repro.experiments.tournament import TournamentResult


@pytest.fixture(scope="module")
def result():
    return generalization_study(
        seed=0, train_tasks=8, eval_factors=(2,), num_dags=2, epochs=1
    )


def test_all_schedulers_evaluated(result):
    assert list(result) == [16]
    data = result[16].makespans
    assert set(data) == {"drl-gnn", "drl-mlp", "tetris", "sjf", "cp"}
    assert all(len(v) == 2 for v in data.values())
    assert all(m > 0 for v in data.values() for m in v)


def test_parameter_counts_recorded():
    counts = parameter_counts()
    assert counts["drl-gnn"] > 0
    # The whole point: the graph policy is much smaller than the
    # windowed MLP at default shapes.
    assert counts["drl-gnn"] < counts["drl-mlp"]


def test_gap_is_relative_to_best_heuristic(result):
    gap = gap_to_best_heuristic(result[16], "drl-gnn")
    data = result[16].makespans
    best = min(
        sum(data[h]) / len(data[h]) for h in ("tetris", "sjf", "cp")
    )
    mean = sum(data["drl-gnn"]) / len(data["drl-gnn"])
    assert gap == pytest.approx(mean / best)


def test_report_mentions_sizes_and_params(result):
    text = report(result, train_tasks=8)
    assert "16-task DAGs, 2x training size, 2 DAGs" in text
    assert "params" in text
    assert "gap to best heuristic" in text


def test_result_type_roundtrip():
    makespans = {
        "drl-gnn": [10], "drl-mlp": [12],
        "tetris": [11], "sjf": [13], "cp": [12],
    }
    r = TournamentResult(
        makespans=makespans,
        wall_times={name: [0.0] for name in makespans},
        reference="tetris",
    )
    assert gap_to_best_heuristic(r, "drl-gnn") == pytest.approx(10 / 11)
