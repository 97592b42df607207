"""Fig. 6(a) benchmark: Spear vs Graphene/Tetris/SJF/CP makespans.

Paper (100-task DAGs, budget 1000/100): Spear mean 820.1 beats Graphene
869.8, Tetris 890.2, SJF 849.0, CP 896.6 and is no worse than Graphene on
90% of DAGs.  Reproduced shape: Spear's mean is the best (small tolerance
for search noise at reduced scale) and its no-worse rate vs Graphene is
at least 60%.
"""

from repro.experiments.fig6 import makespan_comparison, report


def test_fig6a_makespan_comparison(benchmark, scale, shared_network):
    result = benchmark.pedantic(
        lambda: makespan_comparison(seed=0, network=shared_network),
        rounds=1,
        iterations=1,
    )
    print("\n" + report(result))
    rows = {row.scheduler: row.mean for row in result.ranking()}
    benchmark.extra_info.update({f"mean_{k}": v for k, v in rows.items()})

    # Spear leads (tolerance: 2% of the best baseline mean).
    best_baseline = min(v for k, v in rows.items() if k != "spear")
    assert rows["spear"] <= best_baseline * 1.02

    # "Spear performs no worse than Graphene in 90% of the jobs" — allow
    # slack at reduced scale, but the majority must hold.
    assert result.win_rate("spear", "graphene", strict=False) >= 0.6
