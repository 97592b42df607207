"""Exploration-constant sensitivity benchmark (Sec. III-C / IV).

"As the value of the second term in the equation is between zero and one,
c must be comparable with the exploitation score ... we scale it by an
estimate of the makespan produced by a simulation using a greedy packing
algorithm."

The sweep varies the multiplier on that estimate.  Asserted shape: the
paper's 1x setting is never beaten by more than 5% by any other scale —
the greedy-makespan estimate puts c in the right regime.
"""

from repro.experiments.ablations import exploration_sensitivity, report


def test_exploration_scale_sensitivity(benchmark, scale):
    result = benchmark.pedantic(
        lambda: exploration_sensitivity(seed=0), rounds=1, iterations=1
    )
    print("\n" + report("exploration-scale", result))
    means = {variant: result.mean(variant) for variant in result.makespans}
    benchmark.extra_info.update(means)

    reference = means["c=1x"]
    best = min(means.values())
    assert reference <= best * 1.05
