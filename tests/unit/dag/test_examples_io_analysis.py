"""Unit tests for the motivating example, graph I/O and analysis."""

import json

import pytest

from repro.dag import (
    Task,
    TaskGraph,
    graph_from_dict,
    graph_to_dict,
    load_graph,
    motivating_example,
    save_graph,
)
from repro.dag.analysis import makespan_lower_bound, summarize
from repro.dag.examples import MOTIVATING_CAPACITY, MOTIVATING_T
from repro.errors import GraphError, TraceError


class TestMotivatingExample:
    def test_eight_tasks_two_resources(self):
        graph = motivating_example()
        assert graph.num_tasks == 8
        assert graph.num_resources == 2

    def test_three_parent_child_pairs(self):
        graph = motivating_example()
        assert set(graph.edges()) == {(1, 5), (2, 6), (3, 7)}

    def test_all_runtimes_equal_t(self):
        graph = motivating_example()
        assert {task.runtime for task in graph} == {MOTIVATING_T}

    def test_custom_time_unit(self):
        graph = motivating_example(time_unit=3)
        assert {task.runtime for task in graph} == {3}

    def test_invalid_time_unit(self):
        with pytest.raises(ValueError):
            motivating_example(time_unit=0)

    def test_optimal_windows_fit_exactly(self):
        """Both optimal windows use exactly 100 CPU and 99 memory."""
        graph = motivating_example()
        window1 = [1, 2, 3, 4]
        window2 = [0, 5, 6, 7]
        for window in (window1, window2):
            cpu = sum(graph.task(t).demands[0] for t in window)
            mem = sum(graph.task(t).demands[1] for t in window)
            assert cpu == MOTIVATING_CAPACITY[0]
            assert mem == MOTIVATING_CAPACITY[1] - 1

    def test_lower_bound_is_two_t(self):
        graph = motivating_example()
        assert makespan_lower_bound(graph, MOTIVATING_CAPACITY) == 2 * MOTIVATING_T


class TestGraphIO:
    def test_roundtrip_dict(self, small_random_graph):
        payload = graph_to_dict(small_random_graph)
        restored = graph_from_dict(payload)
        assert restored == small_random_graph

    def test_roundtrip_preserves_names(self):
        graph = TaskGraph([Task(0, 1, (1,), name="alpha")])
        restored = graph_from_dict(graph_to_dict(graph))
        assert restored.task(0).name == "alpha"

    def test_roundtrip_file(self, tmp_path, small_random_graph):
        path = tmp_path / "graph.json"
        save_graph(small_random_graph, path)
        assert load_graph(path) == small_random_graph

    def test_bad_version_rejected(self):
        with pytest.raises(TraceError):
            graph_from_dict({"version": 99, "tasks": [], "edges": []})

    def test_non_dict_rejected(self):
        with pytest.raises(TraceError):
            graph_from_dict([1, 2, 3])

    def test_missing_fields_rejected(self):
        with pytest.raises(TraceError):
            graph_from_dict({"version": 1, "tasks": [{"id": 0}], "edges": []})

    def test_invalid_json_file_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(TraceError):
            load_graph(path)


NAN, INF = float("nan"), float("inf")

#: (field of task 0 or "edges", value) — the protocol tests' payloads, at
#: the loader.  At the parent the first group left ``graph_from_dict`` as
#: ``ConfigError`` / ``ValueError`` / ``OverflowError`` and most of the
#: second loaded, truncated or coerced.
MALFORMED_NUMBERS = [
    pytest.param("runtime", 0, id="runtime-zero"),
    pytest.param("id", -1, id="negative-id"),
    pytest.param("demands", [], id="no-demands"),
    pytest.param("demands", [2, -1], id="negative-demand"),
    pytest.param("runtime", NAN, id="runtime-nan"),
    pytest.param("edges", [[0]], id="edge-one-endpoint"),
    pytest.param("edges", "ab", id="edges-string"),
    pytest.param("edges", [["a", "b"]], id="edge-of-strings"),
    pytest.param("edges", [[0, NAN]], id="edge-nan"),
    pytest.param("edges", 7, id="edges-number"),
    pytest.param("runtime", INF, id="runtime-inf"),
    pytest.param("demands", [INF, 1], id="demand-inf"),
    pytest.param("runtime", 2.7, id="runtime-float"),
    pytest.param("demands", [1.5, 1], id="demand-float"),
    pytest.param("edges", [[0, 0.5]], id="edge-float"),
    pytest.param("runtime", True, id="runtime-bool"),
    pytest.param("id", 0.0, id="id-integral-float"),
    pytest.param("id", "0", id="id-string"),
    pytest.param("name", {"a": 1}, id="name-object"),
    pytest.param("name", 7, id="name-number"),
]


class TestMalformedNumbers:
    @staticmethod
    def payload(field, value):
        graph = TaskGraph(
            [Task(0, 3, (2, 1), name="a"), Task(1, 2, (1, 2))], [(0, 1)]
        )
        payload = graph_to_dict(graph)
        if field == "edges":
            payload["edges"] = value
        else:
            payload["tasks"][0][field] = value
        return payload

    @pytest.mark.parametrize("field, value", MALFORMED_NUMBERS)
    def test_graph_from_dict_raises_trace_error(self, field, value):
        with pytest.raises(TraceError):
            graph_from_dict(self.payload(field, value))

    @pytest.mark.parametrize("field, value", MALFORMED_NUMBERS)
    def test_load_graph_raises_trace_error(self, tmp_path, field, value):
        path = tmp_path / "graph.json"
        path.write_text(json.dumps(self.payload(field, value)))
        with pytest.raises(TraceError):
            load_graph(path)

    @pytest.mark.parametrize("entry", [7, "ab", None, [0, 3, [2, 1]]])
    def test_task_entry_must_be_an_object(self, entry):
        payload = self.payload("runtime", 3)
        payload["tasks"][0] = entry
        with pytest.raises(TraceError):
            graph_from_dict(payload)

    def test_structural_errors_stay_graph_errors(self):
        """What only the assembled DAG can show is ``TaskGraph``'s to say."""
        for edges in ([[0, 0]], [[0, 5]], [[0, 1], [1, 0]]):
            with pytest.raises(GraphError):
                graph_from_dict(self.payload("edges", edges))

    def test_loaded_demands_are_plain_int_tuples(self):
        graph = graph_from_dict(self.payload("runtime", 10**20))
        assert graph.task(0) == Task(0, 10**20, (2, 1))
        for task in graph:
            assert type(task.demands) is tuple
            assert all(type(d) is int for d in task.demands)


class TestAnalysis:
    def test_summary_fields(self, small_random_graph):
        summary = summarize(small_random_graph)
        assert summary.num_tasks == small_random_graph.num_tasks
        assert summary.critical_path == small_random_graph.critical_path_length()
        assert summary.max_runtime >= summary.mean_runtime
        assert len(summary.total_work) == 2

    def test_lower_bound_at_least_critical_path(self, small_random_graph):
        bound = makespan_lower_bound(small_random_graph, (10, 10))
        assert bound >= small_random_graph.critical_path_length()

    def test_lower_bound_work_dominates_on_tight_cluster(self):
        # 10 independent unit tasks each demanding the whole cluster.
        graph = TaskGraph([Task(i, 1, (4,)) for i in range(10)])
        assert makespan_lower_bound(graph, (4,)) == 10

    def test_lower_bound_dimension_mismatch(self, small_random_graph):
        with pytest.raises(ValueError):
            makespan_lower_bound(small_random_graph, (10,))

    def test_lower_bound_non_positive_capacity(self, small_random_graph):
        with pytest.raises(ValueError):
            makespan_lower_bound(small_random_graph, (10, 0))
