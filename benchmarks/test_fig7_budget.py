"""Fig. 7 benchmark: pure MCTS vs budget.

Fig. 7(a): mean makespan decreases as budget grows.
Fig. 7(b): win rate against Tetris rises with budget (paper: 56% @ 600,
67% @ 1000, 84% @ 2200 on 100 x 100-task DAGs).

Reproduced shape: the largest budget's mean makespan is no worse than the
smallest budget's, and its Tetris win rate is no lower.
"""

from repro.experiments.fig7 import budget_sweep, report


def test_fig7_budget_sweep(benchmark, scale):
    result = benchmark.pedantic(
        lambda: budget_sweep(seed=0), rounds=1, iterations=1
    )
    print("\n" + report(result))

    first = f"mcts@{scale.sweep_budgets[0]}"
    last = f"mcts@{scale.sweep_budgets[-1]}"
    benchmark.extra_info.update(
        {
            "makespan_at_min_budget": result.mean(first),
            "makespan_at_max_budget": result.mean(last),
            "winrate_at_min_budget": result.win_rate(first, "tetris"),
            "winrate_at_max_budget": result.win_rate(last, "tetris"),
        }
    )

    # Fig. 7(a): more budget helps (small tolerance for search noise).
    assert result.mean(last) <= result.mean(first) * 1.01

    # Fig. 7(b): the win rate against Tetris does not degrade with budget.
    assert result.win_rate(last, "tetris") >= result.win_rate(first, "tetris")
