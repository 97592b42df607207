"""Graph-feature ablation benchmark (Sec. III-D's design claim).

"If we only take the ready tasks into consideration, we can only obtain
suboptimal performance like Tetris ... With these features (b-level, the
number of children, b-load (CPU), b-load (memory)), our reinforcement
learning model produces results superior to a model where we don't
incorporate graph related features."

Two networks are trained from the same seed — full state vs
topology-features-zeroed — and evaluated greedily on held-out DAGs.  The
asserted shape: the featured agent never regresses by more than 10% and
typically wins.
"""

from repro.experiments.ablations import feature_ablation, report


def test_graph_feature_ablation(benchmark, scale):
    result = benchmark.pedantic(
        lambda: feature_ablation(seed=0), rounds=1, iterations=1
    )
    print("\n" + report("graph-features", result))
    on, off = result.mean("on"), result.mean("off")
    benchmark.extra_info.update({"mean_with_features": on, "mean_without": off})

    assert on > 0 and off > 0
    assert on <= off * 1.10
