"""CSR compilation and vectorized graph features (repro.envarr.graphdata)."""

import numpy as np

from repro.config import WorkloadConfig
from repro.dag import motivating_example, random_layered_dag
from repro.dag.features import compute_features
from repro.envarr.graphdata import GraphArrays, graph_arrays

WORKLOAD = WorkloadConfig(
    num_tasks=30, max_runtime=8, max_demand=8, runtime_mean=4, demand_mean=4
)


def graphs():
    yield motivating_example()
    for seed in (0, 1, 7):
        yield random_layered_dag(WORKLOAD, seed=seed)


class TestCsrStructure:
    def test_rows_match_graph_adjacency(self):
        for graph in graphs():
            arrays = GraphArrays.from_graph(graph)
            ids = [int(i) for i in arrays.ids]
            assert ids == sorted(graph.task_ids)
            for i, tid in enumerate(ids):
                children = [
                    ids[int(c)]
                    for c in arrays.child_indices[
                        arrays.child_indptr[i] : arrays.child_indptr[i + 1]
                    ]
                ]
                parents = [
                    ids[int(p)]
                    for p in arrays.parent_indices[
                        arrays.parent_indptr[i] : arrays.parent_indptr[i + 1]
                    ]
                ]
                assert children == list(graph.children(tid))
                assert parents == list(graph.parents(tid))
                assert arrays.indegree[i] == len(parents)
                assert arrays.num_children[i] == len(children)

    def test_indptr_monotone_and_complete(self):
        for graph in graphs():
            arrays = GraphArrays.from_graph(graph)
            for indptr, indices in (
                (arrays.child_indptr, arrays.child_indices),
                (arrays.parent_indptr, arrays.parent_indices),
            ):
                assert indptr[0] == 0
                assert indptr[-1] == len(indices)
                assert (np.diff(indptr) >= 0).all()

    def test_scalar_vectors_match_tasks(self):
        for graph in graphs():
            arrays = GraphArrays.from_graph(graph)
            for i, tid in enumerate(int(t) for t in arrays.ids):
                task = graph.task(tid)
                assert int(arrays.durations[i]) == task.runtime
                assert tuple(int(d) for d in arrays.demands[i]) == task.demands

    def test_topo_order_respects_edges(self):
        for graph in graphs():
            arrays = GraphArrays.from_graph(graph)
            position = {int(i): pos for pos, i in enumerate(arrays.topo)}
            for i in range(arrays.num_tasks):
                for c in arrays.child_indices[
                    arrays.child_indptr[i] : arrays.child_indptr[i + 1]
                ]:
                    assert position[i] < position[int(c)]

    def test_neighbor_accessors(self):
        graph = motivating_example()
        arrays = GraphArrays.from_graph(graph)
        for i in range(arrays.num_tasks):
            assert list(arrays.children_of(i)) == list(
                arrays.child_indices[
                    arrays.child_indptr[i] : arrays.child_indptr[i + 1]
                ]
            )
            assert list(arrays.parents_of(i)) == list(
                arrays.parent_indices[
                    arrays.parent_indptr[i] : arrays.parent_indptr[i + 1]
                ]
            )


class TestVectorizedFeatures:
    def test_features_match_object_backend(self):
        for graph in graphs():
            arrays = GraphArrays.from_graph(graph)
            features = compute_features(graph)
            ids = [int(i) for i in arrays.ids]
            for i, tid in enumerate(ids):
                assert int(arrays.b_level[i]) == features.b_level[tid]
                assert int(arrays.t_level[i]) == features.t_level[tid]
                assert (
                    tuple(int(v) for v in arrays.b_load[i])
                    == features.b_load[tid]
                )
            assert arrays.critical_path == features.critical_path


class TestMemoization:
    def test_graph_arrays_is_memoized_per_graph(self):
        graph = motivating_example()
        assert graph_arrays(graph) is graph_arrays(graph)

    def test_distinct_graphs_get_distinct_arrays(self):
        a = graph_arrays(random_layered_dag(WORKLOAD, seed=0))
        b = graph_arrays(random_layered_dag(WORKLOAD, seed=1))
        assert a is not b
