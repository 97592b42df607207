"""Unit tests for b-level / t-level / b-load feature computation."""

import pytest

from repro.dag import Task, TaskGraph, compute_features


def graph_chain():
    # 0 (r=2) -> 1 (r=3) -> 2 (r=1), demands (2, 4)
    tasks = [Task(i, r, (2, 4)) for i, r in enumerate([2, 3, 1])]
    return TaskGraph(tasks, [(0, 1), (1, 2)])


def graph_branching():
    # 0 (r=1) -> 1 (r=5), 0 -> 2 (r=2) -> 3 (r=2)
    tasks = [
        Task(0, 1, (1, 1)),
        Task(1, 5, (1, 1)),
        Task(2, 2, (3, 1)),
        Task(3, 2, (3, 1)),
    ]
    return TaskGraph(tasks, [(0, 1), (0, 2), (2, 3)])


class TestBLevel:
    def test_chain_blevels_accumulate(self):
        features = compute_features(graph_chain())
        assert features.b_level == {0: 6, 1: 4, 2: 1}

    def test_exit_node_blevel_is_runtime(self):
        features = compute_features(graph_branching())
        assert features.b_level[1] == 5
        assert features.b_level[3] == 2

    def test_branching_takes_longest_path(self):
        features = compute_features(graph_branching())
        # Via 1: 1 + 5 = 6; via 2 -> 3: 1 + 2 + 2 = 5.
        assert features.b_level[0] == 6

    def test_critical_path_is_max_blevel(self):
        features = compute_features(graph_branching())
        assert features.critical_path == 6
        graph = graph_branching()
        assert features.critical_path == graph.critical_path_length()


class TestTLevel:
    def test_sources_have_zero_tlevel(self):
        features = compute_features(graph_branching())
        assert features.t_level[0] == 0

    def test_chain_tlevels(self):
        features = compute_features(graph_chain())
        assert features.t_level == {0: 0, 1: 2, 2: 5}

    def test_tlevel_takes_longest_upstream(self):
        # Two parents with different runtimes.
        tasks = [Task(0, 5, (1,)), Task(1, 2, (1,)), Task(2, 1, (1,))]
        graph = TaskGraph(tasks, [(0, 2), (1, 2)])
        features = compute_features(graph)
        assert features.t_level[2] == 5

    def test_blevel_plus_tlevel_bounded_by_critical_path(self):
        features = compute_features(graph_branching())
        for tid in features.b_level:
            assert (
                features.t_level[tid] + features.b_level[tid]
                <= features.critical_path
            )


class TestBLoad:
    def test_exit_node_bload_is_own_load(self):
        features = compute_features(graph_chain())
        # Task 2: runtime 1 x demands (2, 4).
        assert features.b_load[2] == (2, 4)

    def test_chain_bload_accumulates(self):
        features = compute_features(graph_chain())
        # Task 0: loads 2*(2,4) + 3*(2,4) + 1*(2,4) = (12, 24).
        assert features.b_load[0] == (12, 24)

    def test_bload_follows_blevel_path(self):
        features = compute_features(graph_branching())
        # b-level path of 0 goes through 1 (runtime 5, demands (1,1)):
        # own (1,1) + child (5,5) = (6, 6), NOT via 2 -> 3.
        assert features.b_load[0] == (6, 6)

    def test_bload_tie_prefers_heavier_path(self):
        # Two children with equal b-level but different loads.
        tasks = [
            Task(0, 1, (1, 1)),
            Task(1, 3, (1, 1)),   # light path
            Task(2, 3, (5, 5)),   # heavy path, same b-level
        ]
        graph = TaskGraph(tasks, [(0, 1), (0, 2)])
        features = compute_features(graph)
        assert features.b_load[0] == (1 + 15, 1 + 15)

    @pytest.mark.parametrize("first, second", [((3, 1), (1, 3)), ((1, 3), (3, 1))])
    def test_bload_full_tie_follows_smaller_id(self, first, second):
        # Equal b-level and equal load sum (8), different per-dimension
        # loads: the smaller id is followed, whichever loads it carries.
        tasks = [
            Task(0, 1, (1, 1)),
            Task(4, 2, second),
            Task(3, 2, first),
        ]
        graph = TaskGraph(tasks, [(0, 4), (0, 3)])
        features = compute_features(graph)
        assert features.b_level[0] == 3
        assert features.b_load[0] == (1 + 2 * first[0], 1 + 2 * first[1])


class TestNumChildren:
    def test_counts_direct_children_only(self):
        features = compute_features(graph_branching())
        assert features.num_children == {0: 2, 1: 0, 2: 1, 3: 0}


class TestPriorityOrder:
    def test_descending_blevel(self):
        features = compute_features(graph_chain())
        assert features.priority_order() == (0, 1, 2)

    def test_tie_broken_by_children_then_id(self):
        tasks = [
            Task(0, 2, (1,)),  # b-level 2, 0 children
            Task(1, 2, (1,)),  # b-level 2, 1 child
            Task(2, 1, (1,)),  # hmm — child of 1 (b-level 1)
        ]
        graph = TaskGraph(tasks, [(1, 2)])
        features = compute_features(graph)
        # 1 has b-level 3 > 0's 2 > 2's 1.
        assert features.priority_order() == (1, 0, 2)

    def test_equal_everything_breaks_by_id(self):
        graph = TaskGraph([Task(i, 1, (1,)) for i in range(3)])
        features = compute_features(graph)
        assert features.priority_order() == (0, 1, 2)
