"""Table I benchmark: MCTS runtime vs graph size x budget.

Paper (GCE 24-core VM): runtimes grow along both axes.  Absolute seconds
are hardware-dependent; the regenerated table is the wall-clock grid and
the reproduced claim is monotone growth (with generous noise tolerance at
reduced scale).
"""

from repro.experiments.table1 import report, runtime_grid, seconds


def test_table1_runtime_grid(benchmark, scale):
    result = benchmark.pedantic(
        lambda: runtime_grid(seed=0), rounds=1, iterations=1
    )
    print("\n" + report(result))

    cells = seconds(result)
    for (size, budget), cell_seconds in cells.items():
        benchmark.extra_info[f"seconds_{size}tasks_{budget}budget"] = cell_seconds
        assert cell_seconds >= 0.0
        assert result[size].makespans[f"mcts@{budget}"][0] > 0

    sizes, budgets = scale.grid_sizes, scale.grid_budgets
    # More budget -> at least ~as much time, per graph size.
    for size in sizes:
        row = [cells[(size, budget)] for budget in budgets]
        assert row[-1] >= row[0] * 0.5
    # Bigger graphs -> at least ~as much time, per budget.
    for budget in budgets:
        small = cells[(sizes[0], budget)]
        large = cells[(sizes[-1], budget)]
        assert large >= small * 0.5
