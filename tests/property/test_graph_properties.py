"""Property-based tests on graphs, features and generators."""

import hypothesis.strategies as st
import pytest
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
    return shape(TaskGraph(tasks, edges), tasks)


def loaded(tasks, edges):
    """What the loader makes of the same input, as a payload."""
    return shape(graph_from_dict(payload_of(tasks, edges)), tasks)


def shape(graph, tasks):
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


def outcome(build, *args):
    try:
        return build(*args)
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
    assert outcome(loaded, tasks, edges) == outcome(reference_graph, tasks, edges)
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
    assert outcome(loaded, tasks, edges) == expected


# ---------------------------------------------------------------------- #
# A column-built graph (the loader, the generator) == the Task-built one
# ---------------------------------------------------------------------- #


def payload_of(tasks, edges, names=None):
    """A :func:`graph_to_dict`-shaped payload of tasks and edges, in the
    order given."""
    return {
        "version": 1,
        "tasks": [
            {
                "id": task.task_id,
                "runtime": task.runtime,
                "demands": list(task.demands),
                "name": task.name if names is None else names[i],
            }
            for i, task in enumerate(tasks)
        ],
        "edges": [list(edge) for edge in edges],
    }


def task_built_from_dict(payload):
    """The loader as it was when it made one validated :class:`Task` per
    entry and handed them to ``TaskGraph(tasks, edges)``: the column
    builder's oracle, errors included."""
    from repro.dag import Task
    from repro.dag.io import is_integer_list
    from repro.errors import TraceError

    if not isinstance(payload, dict):
        raise TraceError(f"expected a dict payload, got {type(payload).__name__}")
    version = payload.get("version")
    if version != 1:
        raise TraceError(f"unsupported graph schema version {version!r}")
    try:
        tasks = []
        for entry in payload["tasks"]:
            task_id, runtime, demands = entry["id"], entry["runtime"], entry["demands"]
            name = entry.get("name")
            if (
                type(task_id) is not int
                or type(runtime) is not int
                or not is_integer_list(demands)
            ):
                raise TraceError(
                    f"task #{len(tasks)}: id and runtime must be JSON "
                    "integers, demands a list of them"
                )
            if name is not None and type(name) is not str:
                raise TraceError(f"task {task_id}: name must be a string or null")
            tasks.append(Task(task_id, runtime, tuple(demands), name))
        edges = []
        for edge in payload.get("edges", []):
            up, down = edge
            if type(up) is not int or type(down) is not int:
                raise TraceError(f"edge #{len(edges)}: endpoints must be JSON integers")
            edges.append((up, down))
    except (KeyError, TypeError, ValueError) as exc:
        raise TraceError(f"malformed graph payload: {exc}") from exc
    return TaskGraph(tasks, edges)


def assert_same_graph(graph, reference):
    """Every table in the same order, the same order of ids, the same
    tasks with the same names, ``==`` and ``hash``."""
    for table in ("runtime_table", "demand_table", "child_table", "parent_table"):
        assert list(getattr(graph, table)().items()) == list(
            getattr(reference, table)().items()
        ), table
    assert graph.topological_order() == reference.topological_order()
    assert (graph.num_edges, graph.num_resources, graph.peak_demand) == (
        reference.num_edges,
        reference.num_resources,
        reference.peak_demand,
    )
    named = [(task, task.name) for task in graph]
    assert named == [(task, task.name) for task in reference]
    assert list(graph.tasks().items()) == list(reference.tasks().items())
    assert graph == reference and reference == graph
    assert hash(graph) == hash(reference)


@settings(max_examples=200, deadline=None)
@given(
    inputs=dag_inputs(),
    names=st.lists(st.one_of(st.none(), st.text(max_size=4)), min_size=14, max_size=14),
)
def test_a_loaded_graph_equals_the_task_built_one(inputs, names):
    """Shuffled ids, edges pointing down the ids and repeated edges: the
    loader's columns make the graph the per-entry ``Task`` loader made."""
    tasks, edges = inputs
    payload = payload_of(tasks, edges, names)
    assert_same_graph(graph_from_dict(payload), task_built_from_dict(payload))


@settings(max_examples=40, deadline=None)
@given(config=workload_strategy, seed=st.integers(0, 2**32 - 1))
def test_a_generated_graph_equals_the_task_built_one(config, seed):
    from repro.dag import Task

    graph = random_layered_dag(config, seed=seed)
    demands = graph.demand_table()
    reference = TaskGraph(
        [
            Task(tid, runtime, demands[tid], f"t{tid}")
            for tid, runtime in graph.runtime_table().items()
        ],
        list(graph.edges()),
    )
    assert_same_graph(graph, reference)
    # A subgraph is column-built from its parent's tables.
    keep = graph.task_ids[::2]
    assert_same_graph(graph.subgraph(keep), reference.subgraph(keep))


def malformed_payload(field, value):
    """``TestMalformedNumbers.payload`` of the I/O unit tests."""
    from repro.dag import Task

    tasks = [Task(0, 3, (2, 1), name="a"), Task(1, 2, (1, 2))]
    payload = payload_of(tasks, [(0, 1)])
    if field == "edges":
        payload["edges"] = value
    else:
        payload["tasks"][0][field] = value
    return payload


def _malformed_cases():
    from tests.unit.dag.test_examples_io_analysis import MALFORMED_NUMBERS

    cases = [(param.values, param.id) for param in MALFORMED_NUMBERS]
    cases += [  # what only the assembled DAG can show
        (("edges", edges), f"structural-{label}")
        for edges, label in (
            ([[0, 0]], "self-loop"),
            ([[0, 5]], "unknown-task"),
            ([[0, 1], [1, 0]], "cycle"),
            ([[1, 0], [0, 1], [1, 0]], "cycle-repeated"),
        )
    ]
    cases += [
        (("tasks", entry), f"entry-{label}")
        for entry, label in ((7, "number"), ("ab", "string"), (None, "null"))
    ]
    cases += [(("id", 1), "duplicate-id"), (("demands", [1, 2, 3]), "mixed-dims")]
    return cases


@pytest.mark.parametrize(
    "field, value", [case for case, _ in _malformed_cases()],
    ids=[label for _, label in _malformed_cases()],
)
def test_every_malformed_payload_raises_what_the_task_built_loader_raised(
    field, value
):
    if field == "tasks":
        payload = malformed_payload("runtime", 3)
        payload["tasks"][0] = value
    else:
        payload = malformed_payload(field, value)
    expected = outcome(task_built_from_dict, payload)
    assert isinstance(expected[0], type), "the case must be an error"
    assert outcome(graph_from_dict, payload) == expected


@settings(max_examples=200, deadline=None)
@given(
    inputs=dag_inputs(),
    entry=st.integers(0, 13),
    field=st.sampled_from(["id", "runtime", "demands", "name", None]),
    value=st.one_of(
        st.integers(-3, 3), st.floats(), st.booleans(), st.none(), st.text(max_size=2),
        st.lists(st.integers(-2, 5), max_size=3),
    ),
    edge_value=st.one_of(st.none(), st.just([0]), st.just(["a", 1]), st.just(7)),
)
def test_a_doubly_malformed_payload_names_the_first_fault(
    inputs, entry, field, value, edge_value
):
    """One bad value in a task entry and maybe one bad edge: the loader
    names the fault the per-entry ``Task`` loader named first."""
    tasks, edges = inputs
    payload = payload_of(tasks, edges)
    if field is not None:
        payload["tasks"][entry % len(tasks)][field] = value
    if edge_value is not None:
        payload["edges"].append(edge_value)
    expected = outcome(task_built_from_dict, payload)
    got = outcome(graph_from_dict, payload)
    if isinstance(expected, tuple) and isinstance(expected[0], type):
        assert got == expected
    else:
        assert_same_graph(got, expected)
