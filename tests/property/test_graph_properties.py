"""Property-based tests on graphs, features and generators."""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.config import WorkloadConfig
from repro.dag import (
    TaskGraph,
    compute_features,
    graph_from_dict,
    graph_to_dict,
    random_layered_dag,
)
from repro.dag.analysis import makespan_lower_bound

workload_strategy = st.builds(
    WorkloadConfig,
    num_tasks=st.integers(1, 30),
    min_width=st.just(1),
    max_width=st.integers(1, 6),
    max_runtime=st.integers(1, 10),
    max_demand=st.integers(1, 8),
    runtime_mean=st.floats(1, 10),
    runtime_std=st.floats(0, 5),
    demand_mean=st.floats(1, 8),
    demand_std=st.floats(0, 4),
    edge_probability=st.floats(0, 1),
)


@settings(max_examples=40, deadline=None)
@given(config=workload_strategy, seed=st.integers(0, 2**32 - 1))
def test_generated_graphs_are_structurally_sound(config, seed):
    graph = random_layered_dag(config, seed=seed)

    # Exactly the requested number of tasks, all within bounds.
    assert graph.num_tasks == config.num_tasks
    for task in graph:
        assert 1 <= task.runtime <= config.max_runtime
        assert all(1 <= d <= config.max_demand for d in task.demands)

    # Acyclicity is established by construction (TaskGraph validates), but
    # double-check the topological order is consistent.
    position = {tid: i for i, tid in enumerate(graph.topological_order())}
    for up, down in graph.edges():
        assert position[up] < position[down]

    # Width never exceeds the configured maximum.
    assert graph.width() <= max(config.max_width, 1)

    # The peak demand is the per-resource maximum over the tasks.
    assert graph.peak_demand == tuple(
        max(task.demands[r] for task in graph) for r in range(graph.num_resources)
    )


@settings(max_examples=100, deadline=None)
@given(
    mean=st.floats(-50, 50),
    std=st.one_of(st.floats(0, 50), st.floats(0, 1e308)),
    low=st.integers(0, 5),
    span=st.integers(0, 30),
    size=st.integers(0, 20),
    seed=st.integers(0, 2**32 - 1),
)
def test_the_generators_clamp_rounds_and_clips_as_numpy(
    mean, std, low, span, size, seed
):
    # random_layered_dag clamps its normal draws in Python; the NumPy
    # rint-then-clip of truncated_normal_int is the reference: the same
    # values from the same draws, down to the generator's final state.
    import numpy as np

    from repro.dag.generators import _clamped_normals, truncated_normal_int

    ours, reference = np.random.default_rng(seed), np.random.default_rng(seed)
    values = _clamped_normals(ours, mean, std, low, low + span, size)
    with np.errstate(invalid="ignore", over="ignore"):
        expected = truncated_normal_int(reference, mean, std, low, low + span, size)
    assert values == expected.tolist()
    assert all(type(value) is int for value in values)
    assert ours.bit_generator.state == reference.bit_generator.state


@settings(max_examples=40, deadline=None)
@given(config=workload_strategy, seed=st.integers(0, 2**32 - 1))
def test_feature_invariants(config, seed):
    graph = random_layered_dag(config, seed=seed)
    features = compute_features(graph)

    for tid in graph.task_ids:
        task = graph.task(tid)
        # b-level includes own runtime and is bounded by the critical path.
        assert features.b_level[tid] >= task.runtime
        assert features.b_level[tid] <= features.critical_path
        # t-level + b-level never exceeds the critical path.
        assert features.t_level[tid] + features.b_level[tid] <= features.critical_path
        # b-load at least the task's own load in every dimension.
        for r in range(graph.num_resources):
            assert features.b_load[tid][r] >= task.load(r)

    # Parents dominate children in b-level along every edge.
    for up, down in graph.edges():
        assert (
            features.b_level[up]
            >= graph.task(up).runtime + features.b_level[down]
        )

    # The critical path matches the graph-level computation.
    assert features.critical_path == graph.critical_path_length()


@settings(max_examples=40, deadline=None)
@given(config=workload_strategy, seed=st.integers(0, 2**32 - 1))
def test_json_roundtrip_identity(config, seed):
    graph = random_layered_dag(config, seed=seed)
    assert graph_from_dict(graph_to_dict(graph)) == graph


@settings(max_examples=40, deadline=None)
@given(
    config=workload_strategy,
    seed=st.integers(0, 2**32 - 1),
    capacity=st.integers(8, 30),
)
def test_lower_bound_dominated_by_serial_schedule(config, seed, capacity):
    """The bound must never exceed the trivially-valid serial makespan."""
    graph = random_layered_dag(config, seed=seed)
    serial = sum(task.runtime for task in graph)
    max_demand = max(max(t.demands) for t in graph)
    caps = (max(capacity, max_demand),) * 2
    assert makespan_lower_bound(graph, caps) <= serial
