"""A :class:`TaskGraph` compiled to flat arrays (CSR + feature vectors).

The object representation (dict-of-:class:`Task`, tuple adjacency) is what
schedulers mutate *around*; the hot loops only ever need four facts per
task — duration, demand vector, children, parents — and they need them by
dense index, not by id.  :class:`GraphArrays` compiles a graph once into:

* ``ids`` — sorted task ids; dense index ``i`` ↔ id ``ids[i]``.  Because
  the dense order is the id order, every id-based tie-break of the
  environment (sorted newly-ready appends, completion order) is an
  index-based tie-break over these arrays.
* CSR adjacency — ``child_indptr``/``child_indices`` (and the parent
  mirror), indices ascending within each row.
* flat vectors — ``durations``, ``demands`` ``(N, R)``, ``indegree``.
* graph features — b-level, t-level, #children and per-resource b-load
  computed as level-bucketed NumPy segment sweeps
  (:func:`numpy.maximum.reduceat` over CSR segments), no per-node
  recursion; validated against :func:`repro.dag.features.compute_features`
  by the equivalence suite.

Compilation is memoized per graph instance (same bounded-FIFO discipline
as the feature cache in :mod:`repro.dag.features`).
"""

from __future__ import annotations

from typing import Dict, Tuple, Union

import numpy as np

from ..dag.graph import TaskGraph

__all__ = ["GraphArrays", "graph_arrays"]

#: Bounded memo of compiled graphs, keyed by graph identity (see
#: ``repro.dag.features._FEATURE_CACHE`` for why not a WeakKeyDictionary).
_CACHE: Dict[int, Tuple[TaskGraph, "GraphArrays"]] = {}
_CACHE_MAX = 64


def _segment_gather(
    indptr: np.ndarray, indices: np.ndarray, rows: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Concatenate the CSR segments of ``rows``.

    Returns ``(values, seg_starts, counts)`` where ``values`` is the
    concatenation of ``indices[indptr[r]:indptr[r+1]]`` for each row and
    ``seg_starts``/``counts`` delimit each row's slice inside it.  Pure
    index arithmetic — no per-row Python loop.
    """
    counts = indptr[rows + 1] - indptr[rows]
    total = int(counts.sum())
    seg_starts = np.cumsum(counts) - counts
    # position within the output - segment start + source segment start
    flat = (
        np.arange(total, dtype=np.int64)
        - np.repeat(seg_starts, counts)
        + np.repeat(indptr[rows], counts)
    )
    return indices[flat], seg_starts, counts


class GraphArrays:
    """Immutable flat-array compilation of one :class:`TaskGraph`.

    Construct via :func:`graph_arrays` (memoized) or
    :meth:`GraphArrays.from_graph`.
    """

    __slots__ = (
        "graph",
        "num_tasks",
        "num_resources",
        "ids",
        "index_of",
        "durations",
        "demands",
        "indegree",
        "child_indptr",
        "child_indices",
        "parent_indptr",
        "parent_indices",
        "topo",
        "b_level",
        "t_level",
        "num_children",
        "b_load",
        "critical_path",
    )

    def __init__(self, graph: TaskGraph) -> None:
        self.graph = graph
        n = graph.num_tasks
        r = graph.num_resources
        self.num_tasks = n
        self.num_resources = r
        ids = sorted(graph.task_ids)
        self.ids = np.asarray(ids, dtype=np.int64)
        self.index_of: Dict[int, int] = {tid: i for i, tid in enumerate(ids)}
        index_of = self.index_of

        self.durations = np.fromiter(
            (graph.task(tid).runtime for tid in ids), dtype=np.int64, count=n
        )
        demands = np.empty((n, r), dtype=np.int64)
        for i, tid in enumerate(ids):
            demands[i, :] = graph.task(tid).demands
        self.demands = demands

        # CSR adjacency: rows in dense order, indices ascending within a
        # row (graph.children()/parents() are already sorted by id, and the
        # id order is the dense order).
        child_counts = np.fromiter(
            (len(graph.children(tid)) for tid in ids), dtype=np.int64, count=n
        )
        self.child_indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(child_counts, out=self.child_indptr[1:])
        self.child_indices = np.fromiter(
            (index_of[c] for tid in ids for c in graph.children(tid)),
            dtype=np.int64,
            count=int(child_counts.sum()),
        )
        parent_counts = np.fromiter(
            (len(graph.parents(tid)) for tid in ids), dtype=np.int64, count=n
        )
        self.parent_indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(parent_counts, out=self.parent_indptr[1:])
        self.parent_indices = np.fromiter(
            (index_of[p] for tid in ids for p in graph.parents(tid)),
            dtype=np.int64,
            count=int(parent_counts.sum()),
        )
        self.indegree = parent_counts
        self.num_children = child_counts
        self.topo = np.fromiter(
            (index_of[tid] for tid in graph.topological_order()),
            dtype=np.int64,
            count=n,
        )

        self._compute_features()

    # ------------------------------------------------------------------ #

    @classmethod
    def from_graph(cls, graph: TaskGraph) -> "GraphArrays":
        """Compile ``graph`` (uncached; prefer :func:`graph_arrays`)."""
        return cls(graph)

    def _compute_features(self) -> None:
        """Level-bucketed NumPy sweeps for b-level / t-level / b-load.

        Nodes are bucketed by *height* (longest hop count to a sink) and
        *depth* (longest hop count from a source); within one bucket every
        dependency is already resolved, so the whole bucket updates in one
        ``maximum.reduceat`` over its concatenated CSR segments.  The
        b-load path follows the object implementation's tie-break — the
        child maximizing ``(b_level, sum(b_load), -id)`` — via a packed
        integer key so the argmax stays a segment reduction.
        """
        n = self.num_tasks
        durations = self.durations
        topo = self.topo

        # Heights (reverse levels): height[i] = 1 + max(height[children]).
        height = np.zeros(n, dtype=np.int64)
        for i in topo[::-1]:
            row = self.child_indices[self.child_indptr[i] : self.child_indptr[i + 1]]
            if row.size:
                height[i] = 1 + int(height[row].max())
        depth = np.zeros(n, dtype=np.int64)
        for i in topo:
            row = self.parent_indices[
                self.parent_indptr[i] : self.parent_indptr[i + 1]
            ]
            if row.size:
                depth[i] = 1 + int(depth[row].max())

        b_level = durations.copy()
        b_load = durations[:, None] * self.demands  # own load; accumulated below
        sum_load = b_load.sum(axis=1)
        max_sum = int(sum_load.sum()) + 1  # upper bound on any path's b-load sum
        for h in range(1, int(height.max()) + 1 if n else 0):
            bucket = np.nonzero(height == h)[0]
            kids, seg_starts, counts = _segment_gather(
                self.child_indptr, self.child_indices, bucket
            )
            # Packed lexicographic key: (b_level, sum(b_load), -index).
            key = (b_level[kids] * max_sum + sum_load[kids]) * n + (n - 1 - kids)
            seg_max = np.maximum.reduceat(key, seg_starts)
            best = (n - 1) - (seg_max % n)  # unpack the index tie-break
            b_level[bucket] = durations[bucket] + b_level[best]
            b_load[bucket] += b_load[best]
            sum_load[bucket] = b_load[bucket].sum(axis=1)

        t_level = np.zeros(n, dtype=np.int64)
        for d in range(1, int(depth.max()) + 1 if n else 0):
            bucket = np.nonzero(depth == d)[0]
            parents, seg_starts, _counts = _segment_gather(
                self.parent_indptr, self.parent_indices, bucket
            )
            t_level[bucket] = np.maximum.reduceat(
                t_level[parents] + durations[parents], seg_starts
            )

        self.b_level = b_level
        self.t_level = t_level
        self.b_load = b_load
        self.critical_path = int(b_level.max()) if n else 0

    # ------------------------------------------------------------------ #

    def children_of(self, index: int) -> np.ndarray:
        """Dense child indices of dense ``index`` (CSR row view)."""
        return self.child_indices[
            self.child_indptr[index] : self.child_indptr[index + 1]
        ]

    def parents_of(self, index: int) -> np.ndarray:
        """Dense parent indices of dense ``index`` (CSR row view)."""
        return self.parent_indices[
            self.parent_indptr[index] : self.parent_indptr[index + 1]
        ]

    def __repr__(self) -> str:
        return (
            f"GraphArrays(num_tasks={self.num_tasks}, "
            f"num_edges={len(self.child_indices)}, "
            f"num_resources={self.num_resources})"
        )


def graph_arrays(graph: Union[TaskGraph, GraphArrays]) -> GraphArrays:
    """Compile (or fetch the memoized compilation of) ``graph``; arrays
    that are already compiled pass through."""
    if isinstance(graph, GraphArrays):
        return graph
    key = id(graph)
    cached = _CACHE.get(key)
    if cached is not None and cached[0] is graph:
        return cached[1]
    compiled = GraphArrays(graph)
    # Per-process memo: a pool worker filling its own private cache is the
    # intended behaviour, not cross-process state sharing.
    if len(_CACHE) >= _CACHE_MAX:
        _CACHE.pop(next(iter(_CACHE)))
    _CACHE[key] = (graph, compiled)
    return compiled
