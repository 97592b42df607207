"""Unit tests for :class:`repro.dag.TaskGraph`."""

import pytest

from repro.dag import Task, TaskGraph
from repro.errors import CycleError, GraphError, UnknownTaskError


def make_tasks(n, runtime=1, demands=(1, 1)):
    return [Task(i, runtime, demands) for i in range(n)]


class TestConstruction:
    def test_empty_graph_rejected(self):
        with pytest.raises(GraphError):
            TaskGraph([])

    def test_duplicate_ids_rejected(self):
        with pytest.raises(GraphError):
            TaskGraph([Task(0, 1, (1,)), Task(0, 2, (1,))])

    def test_mixed_dimensionality_rejected(self):
        with pytest.raises(GraphError):
            TaskGraph([Task(0, 1, (1,)), Task(1, 1, (1, 2))])

    def test_edge_to_unknown_task_rejected(self):
        with pytest.raises(UnknownTaskError):
            TaskGraph(make_tasks(2), [(0, 5)])

    def test_edge_from_unknown_task_rejected(self):
        with pytest.raises(UnknownTaskError):
            TaskGraph(make_tasks(2), [(5, 0)])

    def test_self_loop_rejected(self):
        with pytest.raises(GraphError):
            TaskGraph(make_tasks(2), [(1, 1)])

    def test_cycle_rejected(self):
        with pytest.raises(CycleError):
            TaskGraph(make_tasks(3), [(0, 1), (1, 2), (2, 0)])

    def test_two_cycle_rejected(self):
        with pytest.raises(CycleError):
            TaskGraph(make_tasks(2), [(0, 1), (1, 0)])

    def test_duplicate_edges_collapsed(self):
        graph = TaskGraph(make_tasks(2), [(0, 1), (0, 1)])
        assert graph.num_edges == 1


class TestQueries:
    @pytest.fixture
    def diamond(self):
        # 0 -> {1, 2} -> 3
        return TaskGraph(make_tasks(4), [(0, 1), (0, 2), (1, 3), (2, 3)])

    def test_counts(self, diamond):
        assert diamond.num_tasks == 4
        assert len(diamond) == 4
        assert diamond.num_edges == 4
        assert diamond.num_resources == 2

    def test_contains(self, diamond):
        assert 0 in diamond
        assert 9 not in diamond

    def test_task_lookup_raises_for_unknown(self, diamond):
        with pytest.raises(UnknownTaskError):
            diamond.task(42)

    def test_children_and_parents(self, diamond):
        assert diamond.children(0) == (1, 2)
        assert diamond.parents(3) == (1, 2)
        assert diamond.parents(0) == ()
        assert diamond.children(3) == ()

    def test_children_unknown_raises(self, diamond):
        with pytest.raises(UnknownTaskError):
            diamond.children(42)

    def test_sources_and_sinks(self, diamond):
        assert diamond.sources() == (0,)
        assert diamond.sinks() == (3,)

    def test_topological_order_respects_edges(self, diamond):
        order = diamond.topological_order()
        pos = {tid: i for i, tid in enumerate(order)}
        for up, down in diamond.edges():
            assert pos[up] < pos[down]

    def test_iteration_in_topological_order(self, diamond):
        ids = [task.task_id for task in diamond]
        assert ids == list(diamond.topological_order())

    def test_edges_enumeration(self, diamond):
        assert set(diamond.edges()) == {(0, 1), (0, 2), (1, 3), (2, 3)}

    def test_descendants(self, diamond):
        assert diamond.descendants(0) == {1, 2, 3}
        assert diamond.descendants(1) == {3}
        assert diamond.descendants(3) == set()

    def test_ancestors(self, diamond):
        assert diamond.ancestors(3) == {0, 1, 2}
        assert diamond.ancestors(0) == set()

    def test_levels(self, diamond):
        assert diamond.levels() == [(0,), (1, 2), (3,)]

    def test_width_and_depth(self, diamond):
        assert diamond.width() == 2
        assert diamond.depth() == 3

    def test_critical_path_unit_runtimes(self, diamond):
        assert diamond.critical_path_length() == 3

    def test_critical_path_weighted(self):
        tasks = [Task(0, 5, (1,)), Task(1, 1, (1,)), Task(2, 10, (1,))]
        graph = TaskGraph(tasks, [(0, 1), (1, 2)])
        assert graph.critical_path_length() == 16

    def test_total_work(self, diamond):
        # 4 tasks x runtime 1 x demand 1 per resource
        assert diamond.total_work(0) == 4
        assert diamond.total_work() == 8

    def test_subgraph(self, diamond):
        sub = diamond.subgraph([0, 1, 3])
        assert sub.num_tasks == 3
        assert set(sub.edges()) == {(0, 1), (1, 3)}

    def test_subgraph_unknown_id_raises(self, diamond):
        with pytest.raises(UnknownTaskError):
            diamond.subgraph([0, 99])

    def test_equality_and_hash(self, diamond):
        other = TaskGraph(make_tasks(4), [(0, 1), (0, 2), (1, 3), (2, 3)])
        assert diamond == other
        assert hash(diamond) == hash(other)

    def test_inequality_on_different_edges(self, diamond):
        other = TaskGraph(make_tasks(4), [(0, 1), (0, 2), (1, 3)])
        assert diamond != other

    def test_repr_mentions_sizes(self, diamond):
        assert "num_tasks=4" in repr(diamond)


class TestDeterminism:
    def test_topo_order_is_deterministic(self):
        tasks = make_tasks(6)
        edges = [(0, 3), (1, 3), (2, 4), (3, 5), (4, 5)]
        a = TaskGraph(tasks, edges).topological_order()
        b = TaskGraph(tasks, list(reversed(edges))).topological_order()
        assert a == b

    def test_independent_tasks_sorted_by_id(self):
        graph = TaskGraph(make_tasks(5))
        assert graph.topological_order() == (0, 1, 2, 3, 4)


class TestColumnBuiltGraphs:
    """The loader and the layered generator fill the graph's tables
    directly: no :class:`Task` exists until one is asked for, and then
    all of them are made once."""

    @pytest.fixture
    def made(self, monkeypatch):
        made = []
        check = Task.__post_init__

        def counting(task):
            made.append(task.task_id)
            check(task)

        monkeypatch.setattr(Task, "__post_init__", counting)
        return made

    @staticmethod
    def payload():
        from repro.config import WorkloadConfig
        from repro.dag import graph_to_dict, random_layered_dag

        return graph_to_dict(random_layered_dag(WorkloadConfig(num_tasks=30), seed=3))

    def test_a_served_request_makes_no_task(self, made):
        from repro.config import EnvConfig
        from repro.schedulers import make_scheduler
        from repro.streaming import protocol

        frame = {"type": "schedule", "id": "r", "graph": self.payload()}
        made.clear()  # graph_to_dict reads Task objects
        request_id, request = protocol.parse_schedule(frame)
        planner = make_scheduler("tetris", EnvConfig(process_until_completion=True))
        schedule = planner.plan(request)
        protocol.encode_reply(request_id, schedule, 1, 1)
        assert made == []

    def test_a_generated_graph_makes_no_task(self, made):
        from repro.config import WorkloadConfig
        from repro.dag import random_layered_dag

        graph = random_layered_dag(WorkloadConfig(num_tasks=30), seed=3)
        graph.subgraph(graph.task_ids[:10]).critical_path_length()
        assert (graph.total_work(), graph.levels(), graph.descendants(0)) is not None
        assert made == []

    def test_the_first_use_makes_every_task_once(self, made):
        from repro.dag import graph_from_dict

        payload = self.payload()  # graph_to_dict reads Task objects
        made.clear()
        graph = graph_from_dict(payload)
        assert made == []
        assert graph.task(7).name == "t7"
        assert sorted(made) == list(range(30))
        assert len(list(graph)) == len(graph.tasks()) == 30
        assert graph.task(7) is graph.tasks()[7]
        assert len(made) == 30
        with pytest.raises(UnknownTaskError):
            graph.task(99)

    def test_the_constructor_keeps_the_tasks_it_was_given(self):
        tasks = make_tasks(3)
        graph = TaskGraph(tasks, [(0, 1)])
        assert all(graph.task(task.task_id) is task for task in tasks)
