"""Workload-diversity benchmark (beyond-paper robustness check).

Runs every baseline plus MCTS across the structured DAG families of the
scheduling literature (Gaussian elimination, FFT, stencil, Cholesky).
Asserted shape: search (MCTS at the Spear budget) is (co-)best on at
least half of the families — the paper's central claim should not be an
artifact of the layered-random topology.
"""

from repro.experiments.diversity import diversity_study, report, wins


def test_workload_diversity(benchmark, scale):
    result = benchmark.pedantic(
        lambda: diversity_study(seed=0), rounds=1, iterations=1
    )
    print("\n" + report(result))
    for family in result:
        benchmark.extra_info[family] = result[family].makespans

    num_families = len(result)
    assert wins(result, "mcts") >= num_families // 2
    # Everything stays within 2x of the per-family best (sanity).
    for family, tournament in result.items():
        per = {name: m for name, (m,) in tournament.makespans.items()}
        best = min(per.values())
        assert all(m <= 2 * best for m in per.values())
