"""Ablation benchmarks for the design choices DESIGN.md calls out.

Each flips one Spear/MCTS design decision over a shared DAG batch.  The
assertions are deliberately loose (feasibility plus bounded regressions):
at reduced scale single design choices move means by a few percent and
noise is real; the regenerated rows are the variant means.
"""

import pytest

from repro.experiments.ablations import report, run_ablation


@pytest.mark.parametrize(
    "name",
    ["expansion-filters", "budget-decay", "max-value-ucb", "guided-rollout"],
)
def test_ablation(benchmark, scale, shared_network, name):
    result = benchmark.pedantic(
        lambda: run_ablation(name, seed=0), rounds=1, iterations=1
    )
    print("\n" + report(name, result))
    on, off = result.mean("on"), result.mean("off")
    benchmark.extra_info.update({"mean_on": on, "mean_off": off})

    assert on > 0 and off > 0
    # The shipped design ("on") never regresses by more than 10% against
    # its ablation at this scale.
    assert on <= off * 1.10
