"""Property-based tests on graphs, features and generators."""

import hypothesis.strategies as st
from hypothesis import assume, given, settings

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


# ---------------------------------------------------------------------- #
# TaskGraph construction == per-edge checks + Kahn's heap
# ---------------------------------------------------------------------- #


def reference_graph(tasks, edges):
    """Per-edge checks in input order, then Kahn's smallest-id-first heap:
    ``(order, children, parents, num_edges, peak_demand)``, or the error."""
    from heapq import heapify, heappop, heappush

    from repro.errors import CycleError, GraphError, UnknownTaskError

    by_id = {}
    for task in tasks:
        if task.task_id in by_id:
            raise GraphError(f"duplicate task id {task.task_id}")
        by_id[task.task_id] = task
    if not by_id:
        raise GraphError("a task graph must contain at least one task")
    dims = sorted({len(task.demands) for task in by_id.values()})
    if len(dims) != 1:
        raise GraphError(f"inconsistent resource dimensionality: {dims}")
    children = {tid: set() for tid in by_id}
    parents = {tid: set() for tid in by_id}
    for up, down in edges:
        if up not in by_id:
            raise UnknownTaskError(f"edge references unknown task {up}")
        if down not in by_id:
            raise UnknownTaskError(f"edge references unknown task {down}")
        if up == down:
            raise GraphError(f"self-loop on task {up}")
        children[up].add(down)
        parents[down].add(up)
    indegree = {tid: len(ups) for tid, ups in parents.items()}
    ready = [tid for tid, degree in indegree.items() if degree == 0]
    heapify(ready)
    order = []
    while ready:
        tid = heappop(ready)
        order.append(tid)
        for child in children[tid]:
            indegree[child] -= 1
            if indegree[child] == 0:
                heappush(ready, child)
    if len(order) != len(by_id):
        remaining = sorted(set(by_id) - set(order))
        raise CycleError(f"dependency cycle involving tasks {remaining[:10]}")
    peak = tuple(max(column) for column in zip(*(t.demands for t in by_id.values())))
    return (
        tuple(order),
        {tid: tuple(sorted(kids)) for tid, kids in children.items()},
        {tid: tuple(sorted(ups)) for tid, ups in parents.items()},
        sum(map(len, children.values())),
        peak,
    )


def built(tasks, edges):
    """What :class:`TaskGraph` makes of the same input, in the same shape."""
    graph = TaskGraph(tasks, edges)
    assert dict(graph.child_table()) == {t: graph.children(t) for t in graph.task_ids}
    assert dict(graph.parent_table()) == {t: graph.parents(t) for t in graph.task_ids}
    assert dict(graph.demand_table()) == {t.task_id: t.demands for t in tasks}
    assert dict(graph.runtime_table()) == {t.task_id: t.runtime for t in tasks}
    return (
        graph.topological_order(),
        dict(graph.child_table()),
        dict(graph.parent_table()),
        graph.num_edges,
        graph.peak_demand,
    )


def outcome(build, tasks, edges):
    try:
        return build(tasks, edges)
    except Exception as exc:  # the class and message are what is compared
        return type(exc), str(exc)


@st.composite
def dag_inputs(draw):
    """Tasks (shuffled) and edges (shuffled, some repeated) of a random
    DAG.  Ids are sparse, and the precedence order is either ascending
    ids or a random permutation of them, whose edges may point down the
    ids."""
    from repro.dag import Task

    ids = draw(st.lists(st.integers(0, 60), min_size=1, max_size=14, unique=True))
    dims = draw(st.integers(1, 3))
    tasks = [
        Task(
            tid,
            draw(st.integers(1, 9)),
            tuple(draw(st.lists(st.integers(0, 9), min_size=dims, max_size=dims))),
        )
        for tid in ids
    ]
    rank = sorted(ids) if draw(st.booleans()) else draw(st.permutations(ids))
    pairs = [
        (rank[i], rank[j]) for i in range(len(rank)) for j in range(i + 1, len(rank))
    ]
    edges = draw(st.lists(st.sampled_from(pairs), max_size=30)) if pairs else []
    if edges:
        edges += draw(st.lists(st.sampled_from(edges), max_size=5))  # repeats
    return draw(st.permutations(tasks)), draw(st.permutations(edges))


@settings(max_examples=200, deadline=None)
@given(inputs=dag_inputs())
def test_construction_equals_the_per_edge_reference(inputs):
    tasks, edges = inputs
    assert outcome(built, tasks, edges) == outcome(reference_graph, tasks, edges)
    # A generator of edges is read once, like a list.
    assert outcome(built, tasks, iter(edges)) == outcome(reference_graph, tasks, edges)


@settings(max_examples=200, deadline=None)
@given(
    inputs=dag_inputs(),
    fault=st.sampled_from(
        ["duplicate-id", "unknown-up", "unknown-down", "self-loop", "cycle",
         "mixed-dimensions", "empty"]
    ),
    faults=st.integers(1, 3),
    data=st.data(),
)
def test_every_error_keeps_its_class_and_message(inputs, fault, faults, data):
    """A bad input raises what the per-edge reference raises: with several
    bad edges, the first one in input order is named."""
    from repro.dag import Task

    tasks, edges = list(inputs[0]), list(inputs[1])
    assume(fault != "cycle" or edges)
    ids = [task.task_id for task in tasks]
    for _ in range(faults):
        if fault == "duplicate-id":
            tasks.insert(
                data.draw(st.integers(0, len(tasks))),
                Task(data.draw(st.sampled_from(ids)), 1, tasks[0].demands),
            )
        elif fault == "mixed-dimensions":
            wider = tasks[0].demands + (1,)
            tasks.append(Task(max(ids) + len(tasks), 1, wider))
        elif fault == "empty":
            tasks = []
        else:
            tid = data.draw(st.sampled_from(ids))
            if fault == "unknown-up":
                edge = (data.draw(st.integers(61, 70)), tid)
            elif fault == "unknown-down":
                edge = (tid, data.draw(st.integers(-5, -1)))
            elif fault == "self-loop":
                edge = (tid, tid)
            else:  # cycle: the reverse of an edge
                up, down = data.draw(st.sampled_from(edges))
                edge = (down, up)
            edges.insert(data.draw(st.integers(0, len(edges))), edge)
    expected = outcome(reference_graph, tasks, edges)
    assert isinstance(expected[0], type), "the fault must be an error"
    assert outcome(built, tasks, edges) == expected
