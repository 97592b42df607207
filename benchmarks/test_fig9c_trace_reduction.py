"""Fig. 9(c) benchmark: Spear vs Graphene on the production trace.

Paper (99 jobs, Spear budget 100/50): Spear is no worse than Graphene on
~90% of jobs, with reductions of up to ~20%.

Reproduced shape: the no-worse fraction is at least 70% and the best
observed reduction is at least 3%; the regenerated row set is the CDF of
per-job reductions.
"""

from repro.experiments.fig9 import reduction_cdf, reductions, report
from repro.metrics.cdf import percentile


def test_fig9c_reduction_cdf(benchmark, scale, shared_network):
    result = benchmark.pedantic(
        lambda: reduction_cdf(seed=0, network=shared_network),
        rounds=1,
        iterations=1,
    )
    print("\n" + report(result))
    samples = reductions(result)
    num_jobs = len(samples)
    no_worse_fraction = result.win_rate("spear", "graphene", strict=False)
    benchmark.extra_info.update(
        {
            "num_jobs": num_jobs,
            "no_worse_fraction": no_worse_fraction,
            "max_reduction": max(samples),
            "median_reduction": percentile(samples, 50),
        }
    )

    assert num_jobs == (99 if scale.label == "paper" else scale.trace_jobs)
    assert no_worse_fraction >= 0.7
    assert max(samples) >= 0.03
    # Losses, where they occur, stay moderate (paper CDF shows a short
    # negative tail).
    assert min(samples) >= -0.25
