"""Fig. 6(b) benchmark: scheduling wall-time of Spear vs Graphene.

Paper: comparable medians (~500 s at paper scale on 2016-era hardware)
with Graphene exhibiting the heavier tail.  Absolute seconds are
hardware-dependent; the regenerated rows are the two runtime CDFs.
"""

import statistics

from repro.experiments.fig6 import makespan_comparison
from repro.metrics import empirical_cdf


def test_fig6b_runtime_comparison(benchmark, scale, shared_network):
    result = benchmark.pedantic(
        lambda: makespan_comparison(seed=1, network=shared_network),
        rounds=1,
        iterations=1,
    )
    times = {name: result.wall_times[name] for name in ("spear", "graphene")}

    for name, series in times.items():
        assert len(series) == len(result.makespans[name])
        assert all(t >= 0.0 for t in series)
        median = statistics.median(series)
        benchmark.extra_info[f"median_seconds_{name}"] = median
        print(f"\n{name}: median {median:.3f}s, max {max(series):.3f}s")
        print("  CDF:", [(round(v, 3), round(f, 2)) for v, f in empirical_cdf(series)])

    # Both schedulers actually spend measurable planning time.
    assert max(times["spear"]) > 0.0
    assert max(times["graphene"]) > 0.0
