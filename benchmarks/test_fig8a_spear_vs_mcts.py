"""Fig. 8(a) benchmark: Spear matches MCTS with a fraction of the budget.

Paper (budget 1000 vs 100): means 810.8 (MCTS) vs 816.7 (Spear), both
ahead of Tetris 843.9, SJF 884.5, CP 837.9 — "the same level of
performance with only 10% of the budget".

Reproduced shape: Spear's mean is within 5% of MCTS's despite the budget
divisor, and both beat SJF.
"""

from repro.experiments.fig8 import budget_reduction, report, spear_config


def test_fig8a_budget_reduction(benchmark, scale, shared_network):
    result = benchmark.pedantic(
        lambda: budget_reduction(seed=0, network=shared_network),
        rounds=1,
        iterations=1,
    )
    print("\n" + report(result, scale))
    means = {row.scheduler: row.mean for row in result.ranking()}
    budget_ratio = scale.spear_budget / spear_config(scale).initial_budget
    benchmark.extra_info.update({f"mean_{k}": v for k, v in means.items()})
    benchmark.extra_info["budget_ratio"] = budget_ratio

    assert budget_ratio >= 2.0
    # Spear (reduced budget) stays within 5% of full-budget MCTS.
    assert means["spear"] <= means["mcts"] * 1.05
    # Both search methods beat the weakest heuristic.
    assert means["spear"] <= means["sjf"]
    assert means["mcts"] <= means["sjf"]
